"""End-to-end acceptance checks for the whole package.

Each test prints one PASS/FAIL line (bypassing capture, so the verdicts
always reach the console) and then asserts, so pytest tracks the same
outcome.  Monte Carlo runs reuse module-scoped fixtures to stay inside the
runtime budget; criteria 6-8 read the rows of the full ``validate`` check
list and hold them to their own budgets.
"""

import io
import math

import pytest

from relaysec.analytics import esr_asymptote, esr_lower_bound, prob_r1_dominates_oracle
from relaysec.cli import SweepSpec, cmd_sweep, validate_checks
from relaysec.model import TOPOLOGY_1, db_to_linear, topology_to_stats
from relaysec.montecarlo import (MeanPass, esr_rows, estimate_esr, estimate_event_probability,
                                 event_rows)
from relaysec.sinr import LINKS, SchemeKind, SinrMethod, exact_sinrs, phase3_r1_sinr

SEED = 1
N_SWEEP = 1_000_000
SWEEP_DBS = tuple(range(0, 65, 5))
LOW_DBS = (0, 5, 10, 15, 20)
BASELINES = (SchemeKind.TWO_HOP_CASE_I, SchemeKind.TWO_HOP_CASE_II, SchemeKind.DIRECT)


@pytest.fixture()
def report(capsys):
    def _report(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")

    return _report


def mc_exact_sweep(dbs, schemes):
    """(db, scheme) -> (stats, mc-exact estimate), every point read from one shared pass."""
    stats = {db: topology_to_stats(TOPOLOGY_1, db_to_linear(float(db))) for db in dbs}
    shared = MeanPass(esr_rows((stats[db], kind, SinrMethod.EXACT) for db in dbs for kind in schemes),
                      N_SWEEP, seed=SEED, workers=4)
    return {(db, kind): (stats[db], estimate_esr(shared, stats[db], kind, SinrMethod.EXACT))
            for db in dbs for kind in schemes}


def one_row_pass(rows, n):
    """A pass of ``rows``, a dict of one row, over n samples."""
    return MeanPass(rows, n, seed=SEED, workers=4)


@pytest.fixture(scope="module")
def three_hop_sweep():
    """db -> (closed-form lower bound, mc-exact estimate) on the reference topology."""
    return {db: (esr_lower_bound(stats), est)
            for (db, _), (stats, est) in mc_exact_sweep(SWEEP_DBS, [SchemeKind.THREE_HOP]).items()}


@pytest.fixture(scope="module")
def baseline_sweep():
    """(db, scheme) -> mc-exact estimate for the comparison schemes at low SNR."""
    return {key: est for key, (_, est) in mc_exact_sweep(LOW_DBS, BASELINES).items()}


@pytest.fixture(scope="module")
def validate_rows():
    """The full validate check list on the reference topology, by row name."""
    return {r.name: r for r in validate_checks(SweepSpec(seed=SEED, workers=4), quick=False)}


def test_criterion_1_bound_ordering(three_hop_sweep, report):
    ordering_ok = True
    gap_ok = True
    worst_gap = 0.0
    for db, (lb, est) in three_hop_sweep.items():
        if lb > est.mean + 3.0 * est.std_error:
            ordering_ok = False
        if db >= 40:
            gap = est.mean - lb
            worst_gap = max(worst_gap, gap)
            if gap > 0.15:
                gap_ok = False
    ok = ordering_ok and gap_ok
    report(1, ok, f"lower bound <= estimate everywhere: {ordering_ok}; "
                  f"max gap above 40 dB {worst_gap:.4f} (budget 0.15): {gap_ok}")
    assert ordering_ok, "closed-form lower bound exceeded the Monte Carlo estimate"
    assert gap_ok, f"bound gap above 40 dB reached {worst_gap:.4f} bits/s/Hz, budget 0.15"


def test_criterion_2_asymptote_agreement(three_hop_sweep, report):
    stats = topology_to_stats(TOPOLOGY_1, 1.0)
    asym = esr_asymptote(db_to_linear(60.0), stats.m_g, stats.m_h, stats.m_f)
    est = three_hop_sweep[60][1]
    dev = abs(asym - est.mean)
    ok = dev <= 0.1
    report(2, ok, f"|asymptote - estimate| at 60 dB = {dev:.4f} (budget 0.1)")
    assert ok, f"asymptote deviation {dev:.4f} exceeds 0.1 bits/s/Hz at 60 dB"


def test_criterion_3_high_snr_slope(three_hop_sweep, report):
    e50, e60 = three_hop_sweep[50][1].mean, three_hop_sweep[60][1].mean
    slope = (e60 - e50) / math.log2(db_to_linear(60.0) / db_to_linear(50.0))
    dev = abs(slope - 1.0 / 3.0)
    ok = dev <= 0.03
    report(3, ok, f"finite-difference slope {slope:.4f} per log2-SNR (target 1/3 +/- 0.03)")
    assert ok, f"slope {slope:.4f} deviates from 1/3 by {dev:.4f}, budget 0.03"


def test_criterion_4_scheme_ordering(three_hop_sweep, baseline_sweep, report):
    misses = []  # (shortfall below the 3-sigma margin, description)
    for db in LOW_DBS:
        three = three_hop_sweep[db][1]
        for kind in BASELINES:
            base = baseline_sweep[(db, kind)]
            margin = three.mean - base.mean
            need = 3.0 * (three.std_error + base.std_error)
            if margin <= need:
                misses.append((need - margin,
                               f"{kind.value} at {db} dB: three-hop {three.mean:.3e} "
                               f"vs {base.mean:.3e}, short by {need - margin:.3e}"))
    ordering_ok = not misses
    worst = max(misses)[1] if misses else ""
    direct_ok = all(
        0.0 < baseline_sweep[(db, SchemeKind.DIRECT)].mean < 0.05 for db in LOW_DBS
    )
    ok = ordering_ok and direct_ok
    report(4, ok, f"three-hop beats every baseline by 3 sigma at 0..20 dB: {ordering_ok}"
                  + (f" (largest miss: {worst})" if worst else "")
                  + f"; direct in (0, 0.05): {direct_ok}")
    assert direct_ok, "direct-scheme ESR left the (0, 0.05) band"
    assert ordering_ok, f"scheme ordering violated, largest miss: {worst}"


def test_criterion_5_relay_sinr_ordering(report):
    stats = topology_to_stats(TOPOLOGY_1, db_to_linear(30.0))
    def r2_at_least_phase3(s):
        return exact_sinrs(s).gamma_r2 >= phase3_r1_sinr(s, SinrMethod.EXACT)

    row = {"ordering": (stats, r2_at_least_phase3, LINKS[SchemeKind.THREE_HOP])}
    p, _ = one_row_pass(row, 1_000_000).mean("ordering")
    ok = p >= 0.99
    report(5, ok, f"Pr{{phase-2 relay SINR >= phase-3 relay SINR}} = {p:.6f} (floor 0.99)")
    assert ok, f"relay SINR ordering probability {p:.6f} below 0.99"


def test_criterion_6_cdf_ks(validate_rows, report):
    d_ratio = validate_rows["KS distance, ratio CDF"].closed_form
    d_harm = validate_rows["KS distance, harmonic-mean CDF"].closed_form
    ok = d_ratio < 0.01 and d_harm < 0.01
    report(6, ok, f"KS distances ratio {d_ratio:.5f}, harmonic {d_harm:.5f} (budget 0.01 each)")
    assert ok, f"KS distance too large: ratio {d_ratio:.5f}, harmonic {d_harm:.5f}"


def test_criterion_7_oracle_suite(validate_rows, report):
    stats = topology_to_stats(TOPOLOGY_1, db_to_linear(30.0))

    p_cf = prob_r1_dominates_oracle(stats)
    def dominates(b):
        return b.gamma_r1_p1 > b.gamma_r2

    rows = event_rows([(stats, dominates)])
    p_mc, p_se = estimate_event_probability(one_row_pass(rows, 10_000_000), stats, dominates)
    p_ok = abs(p_cf - p_mc) <= 3.0 * p_se

    t1 = validate_rows["T1 closed form vs Monte Carlo"]
    t1_ok = abs(t1.closed_form - t1.oracle) <= 0.005 * t1.oracle

    ew = validate_rows["E{XY/(X+Y)} quadrature vs Monte Carlo"]
    ew_ok = abs(ew.closed_form - ew.oracle) <= 0.005 * ew.oracle

    inv_dev = validate_rows["eavesdrop rate scale invariance"].closed_form
    inv_ok = inv_dev <= 1e-9

    ok = p_ok and t1_ok and ew_ok and inv_ok
    report(7, ok, f"P within 3 sigma: {p_ok} (|{p_cf:.6f}-{p_mc:.6f}| vs {3 * p_se:.6f}); "
                  f"T1 within 0.5%: {t1_ok}; E{{XY/(X+Y)}} within 0.5%: {ew_ok}; "
                  f"scale invariance {inv_dev:.2e} <= 1e-9: {inv_ok}")
    assert p_ok and t1_ok and ew_ok and inv_ok


def test_criterion_8_special_functions(validate_rows, report):
    worst = validate_rows["bessel_k1 max rel err vs integral oracle"].closed_form
    k1_ok = worst <= 1e-9

    # Mean relative error of the K1 series at orders 1, 5, 10, 20 and 40.
    errs = [r.closed_form for name, r in validate_rows.items()
            if name.startswith("k1_series mean rel err, order ")]
    trend_ok = len(errs) == 5 and all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))

    lah_ok = validate_rows["lah recurrence mismatches (n <= 10)"].closed_form == 0

    ok = k1_ok and trend_ok and lah_ok
    report(8, ok, f"K1 max rel err {worst:.2e} <= 1e-9: {k1_ok}; "
                  f"series error non-increasing {['%.1e' % e for e in errs]}: {trend_ok}; "
                  f"lah recurrence n <= 10: {lah_ok}")
    assert k1_ok and trend_ok and lah_ok


def test_criterion_9_determinism(report):
    def run(workers):
        spec = SweepSpec(snr_start_db=20.0, snr_stop_db=30.0, snr_step_db=5.0,
                         schemes=[SchemeKind.THREE_HOP, SchemeKind.DIRECT],
                         methods=["mc-exact", "closed-form-lb"],
                         n_samples=600_000, seed=SEED, workers=workers)
        buf = io.StringIO()
        assert cmd_sweep(spec, buf) == 0
        return buf.getvalue()

    first, second, threaded = run(1), run(1), run(3)
    ok = first == second == threaded
    report(9, ok, f"byte-identical CSV across reruns and worker counts: {ok}")
    assert ok, "sweep output changed between identical runs or worker counts"
