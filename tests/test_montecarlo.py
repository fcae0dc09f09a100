import contextlib
import functools
import io
import math
import operator
import re
import sys
import threading
import traceback
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relaysec.analytics import cdf_harmonic, cdf_ratio, esr_lower_bound
from relaysec.errors import RelaysecError
from relaysec.model import TOPOLOGY_1, ChannelSample, ChannelStats, db_to_linear, topology_to_stats
from relaysec import cli
import relaysec.montecarlo as montecarlo
from relaysec.montecarlo import (
    BLOCK_SIZE,
    CHUNK_SIZE,
    UNIT,
    MeanPass,
    RngStream,
    _reduce_chunks,
    empirical_cdf_ks,
    esr_rows,
    estimate_esr,
    estimate_event_probability,
    sample_channels,
)
from relaysec.sinr import LINKS, SchemeKind, SinrMethod, has_method

from reference import point_row, secrecy_rate, three_hop_sinrs


def esr_alone(stats, scheme, method, n, seed, workers=1):
    """estimate_esr on a pass of that one row."""
    return estimate_esr(MeanPass(esr_rows([(stats, scheme, method)]), n, seed, workers),
                        stats, scheme, method)


def event_row(stats, event):
    """A row of 0s and 1s, keyed "event": event of the point's high-SNR three-hop SINRs."""
    return point_row(stats, lambda s: event(three_hop_sinrs(s, SinrMethod.HIGH_SNR)),
                     LINKS[SchemeKind.THREE_HOP], "event", positive=True)


def event_alone(stats, event, n, seed, workers=1):
    """estimate_event_probability on a pass of that one row."""
    return estimate_event_probability(MeanPass([event_row(stats, event)], n, seed, workers), "event")


def test_chunk_size_is_power_of_two():
    assert CHUNK_SIZE == 1 << 18


def test_stream_reproducible():
    a = RngStream(7, 3).generator().random(5)
    b = RngStream(7, 3).generator().random(5)
    assert np.array_equal(a, b)
    c = RngStream(7, 4).generator().random(5)
    assert not np.array_equal(a, c)


def test_sample_means_match_link_means(stats_30db):
    s = sample_channels(stats_30db, RngStream(11), n=200_000)
    for gains, mean in [
        (s.gamma_g, stats_30db.bar_g),
        (s.gamma_h, stats_30db.bar_h),
        (s.gamma_f, stats_30db.bar_f),
        (s.gamma_sd, stats_30db.rho * stats_30db.m_sd),
    ]:
        assert np.mean(gains) == pytest.approx(mean, rel=0.02)


def test_samples_nonnegative_and_strictly_positive_mode(stats_30db):
    s = sample_channels(stats_30db, RngStream(2), n=10_000)
    for gains in (s.gamma_g, s.gamma_h, s.gamma_f):
        assert np.all(gains > 0)


def test_underflowed_gain_stays_zero():
    # m ln(1 - U) * -1 rounds to 0 for about 40% of draws at the smallest
    # subnormal mean; those gains stay 0, and h, drawn from its own
    # uniforms, is the unit draw's
    stats = ChannelStats(5e-324, 1.0, 1.0, 1.0, 1.0, 1.0, rho=1.0)
    s = sample_channels(stats, RngStream(3), n=1000)
    unit = sample_channels(UNIT, RngStream(3), n=1000)
    assert 0 < np.count_nonzero(s.gamma_g == 0.0) < 1000
    assert np.all(s.gamma_g >= 0.0)
    assert np.array_equal(s.gamma_h, unit.gamma_h)


def test_link_prefix_matches_full_draw():
    stats = topology_to_stats(TOPOLOGY_1, db_to_linear(30.0))
    full = sample_channels(stats, RngStream(4, 2), n=5000)
    for links in sorted(set(LINKS.values())):
        part = sample_channels(stats, RngStream(4, 2), n=5000, links=links)
        for k, (name, v) in enumerate(vars(part).items()):
            if k < links:
                assert np.array_equal(v, getattr(full, name)), (links, name)
            else:
                assert v is None, (links, name)


def test_draw_matches_reference_transform():
    # the in-place draw against the out-of-place -mean * ln(1 - U)
    for mean in (1e-3, 1.0, 1e300):
        ref = -mean * np.log(1.0 - RngStream(6).generator().random(10_000))
        stats = ChannelStats(mean, 1.0, 1.0, 1.0, 1.0, 1.0, rho=1.0)
        assert np.array_equal(sample_channels(stats, RngStream(6), 10_000, links=3).gamma_g, ref)


#: Means a link may have: the smallest subnormal, a subnormal that never
#: rounds a gain to 0, normal ones, and the largest finite float64.
MEANS = st.one_of(st.sampled_from([5e-324, 1e-310, 1e-300, 1.0, 1e300, sys.float_info.max]),
                  st.floats(min_value=5e-324, max_value=1e300))


@settings(max_examples=60, deadline=None)
@given(means=st.lists(MEANS, min_size=6, max_size=6), links=st.integers(3, 6),
       n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_draw_is_unit_draw_times_mean(means, links, n, seed):
    # every drawn gain is the unit draw's gain times its link's rho * m, bit
    # for bit; a product that overflows fails the draw, naming the link
    stats = ChannelStats(*means, rho=1.0)
    unit = sample_channels(UNIT, RngStream(seed), n, links)
    names = list(vars(unit))[:links]
    with np.errstate(over="ignore"):
        expected = {name: getattr(unit, name) * m for name, m in zip(names, means)}
    overflowed = [name for name in names if np.isinf(expected[name]).any()]
    if overflowed:
        with pytest.raises(RelaysecError, match=f"channel gain {overflowed[0]} "):
            sample_channels(stats, RngStream(seed), n, links)
        return
    s = sample_channels(stats, RngStream(seed), n, links)
    for name in names:
        assert np.array_equal(getattr(s, name), expected[name]), name


def test_draw_names_first_overflowing_link_on_any_executor():
    # sd and dr1 both overflow; drawn on two threads or in turn, the draw
    # names sd, the first of them in draw order, with no RuntimeWarning
    stats = ChannelStats(1.0, 1.0, 1.0, 1.0, 1e308, 1e308, rho=1.0)
    with ThreadPoolExecutor(2) as pool:
        for executor in (None, pool):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RelaysecError, match="^channel gain gamma_sd must be finite and >= 0$"):
                    sample_channels(stats, RngStream(5), 1000, executor=executor)


def test_ratio_distribution_ks(stats_30db):
    s = sample_channels(stats_30db, RngStream(5), n=100_000)
    d = empirical_cdf_ks(s.gamma_g / s.gamma_h,
                         lambda z: cdf_ratio(z, stats_30db.bar_g, stats_30db.bar_h))
    assert d < 0.01


def test_harmonic_distribution_ks(stats_30db):
    s = sample_channels(stats_30db, RngStream(6), n=100_000)
    w = s.gamma_g * s.gamma_h / (s.gamma_g + s.gamma_h)
    d = empirical_cdf_ks(w, lambda z: cdf_harmonic(z, stats_30db.bar_g, stats_30db.bar_h))
    assert d < 0.01


def test_ks_of_exact_uniform_grid():
    n = 1000
    u = (np.arange(1, n + 1) - 0.5) / n
    assert empirical_cdf_ks(u, lambda x: x) == pytest.approx(0.5 / n, rel=1e-9)


def test_estimate_deterministic(stats_30db):
    a = esr_alone(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 300_000, seed=42)
    b = esr_alone(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 300_000, seed=42)
    assert a.mean == b.mean
    assert a.std_error == b.std_error


def test_estimate_worker_independent(stats_30db):
    one = esr_alone(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 600_000, seed=9, workers=1)
    four = esr_alone(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 600_000, seed=9, workers=4)
    assert one.mean == four.mean
    assert one.std_error == four.std_error


def test_golden_regression_value():
    # frozen run: reference topology, 25 dB, exact SINRs, n = 1e6
    stats = topology_to_stats(TOPOLOGY_1, db_to_linear(25.0))
    est = esr_alone(stats, SchemeKind.THREE_HOP, SinrMethod.EXACT, 1_000_000, seed=20260823)
    assert est.mean == pytest.approx(0.3315849171728737, rel=1e-13)
    assert est.std_error == pytest.approx(0.0003080072715357946, rel=1e-13)


def test_seed_changes_value(stats_30db):
    a = esr_alone(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 100_000, seed=1)
    b = esr_alone(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 100_000, seed=2)
    assert a.mean != b.mean
    assert abs(a.mean - b.mean) < 6.0 * (a.std_error + b.std_error)


def test_std_error_shrinks_with_n(stats_30db):
    small = esr_alone(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 100_000, seed=3)
    big = esr_alone(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 400_000, seed=3)
    assert big.std_error == pytest.approx(0.5 * small.std_error, rel=0.1)


def test_single_sample_has_zero_std_error(stats_30db):
    est = esr_alone(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 1, seed=1)
    assert est.std_error == 0.0
    assert est.n_samples == 1


def test_exact_below_highsnr_estimate(stats_30db):
    ex = esr_alone(stats_30db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 200_000, seed=4)
    hs = esr_alone(stats_30db, SchemeKind.THREE_HOP, SinrMethod.HIGH_SNR, 200_000, seed=4)
    assert ex.mean <= hs.mean + 3.0 * (ex.std_error + hs.std_error)


def test_lower_bound_below_estimate(stats_40db):
    est = esr_alone(stats_40db, SchemeKind.THREE_HOP, SinrMethod.EXACT, 400_000, seed=8)
    assert esr_lower_bound(stats_40db) <= est.mean + 3.0 * est.std_error


def test_baselines_reject_highsnr_method(monkeypatch):
    # only the sweep's pair filter keeps a baseline off the high-SNR SINRs:
    # a sweep of three-hop and direct under both Monte Carlo methods builds
    # and prints no direct mc-highsnr row, and a sweep of baselines alone
    # under mc-highsnr is refused before any pass
    built = []
    def spy(keys):
        keys = list(keys)
        built.extend((scheme, method) for _, scheme, method in keys)
        return esr_rows(keys)
    monkeypatch.setattr(cli, "esr_rows", spy)
    spec = cli.SweepSpec(snr_start_db=20.0, snr_stop_db=20.0,
                         schemes=[SchemeKind.THREE_HOP, SchemeKind.DIRECT],
                         methods=["mc-exact", "mc-highsnr"], n_samples=1000)
    buf = io.StringIO()
    assert cli.cmd_sweep(spec, buf) == cli.EXIT_OK
    assert len(built) == 3
    assert set(built) == {(SchemeKind.THREE_HOP, SinrMethod.EXACT),
                          (SchemeKind.THREE_HOP, SinrMethod.HIGH_SNR),
                          (SchemeKind.DIRECT, SinrMethod.EXACT)}
    printed = {tuple(r.split(",")[1:3]) for r in buf.getvalue().strip().split("\n")[1:]}
    assert printed == {("three-hop", "mc-exact"), ("three-hop", "mc-highsnr"),
                       ("direct", "mc-exact")}
    with pytest.raises(RelaysecError, match="a baseline scheme has only mc-exact"):
        cli.SweepSpec(schemes=[SchemeKind.DIRECT, SchemeKind.TWO_HOP_CASE_I],
                      methods=["mc-highsnr"])


def test_three_hop_beats_baselines_at_20db():
    stats = topology_to_stats(TOPOLOGY_1, db_to_linear(20.0))
    three = esr_alone(stats, SchemeKind.THREE_HOP, SinrMethod.EXACT, 400_000, seed=12)
    for kind in (SchemeKind.TWO_HOP_CASE_I, SchemeKind.TWO_HOP_CASE_II, SchemeKind.DIRECT):
        base = esr_alone(stats, kind, SinrMethod.EXACT, 400_000, seed=12)
        assert three.mean > base.mean


def test_event_probability_trivial_events(stats_30db):
    p_true, se_true = event_alone(stats_30db, lambda b: b.gamma_d >= 0, 10_000, seed=1)
    assert p_true == 1.0 and se_true == 0.0
    p_false, _ = event_alone(stats_30db, lambda b: b.gamma_d < 0, 10_000, seed=1)
    assert p_false == 0.0


def test_event_probability_matches_cdf(stats_30db):
    # Pr{gamma_g / gamma_h <= 1} from samples vs the closed-form ratio CDF
    p, se = event_alone(stats_30db, lambda b: b.gamma_r1_p1 <= 1.0, 500_000, seed=13)
    expected = cdf_ratio(1.0, stats_30db.bar_g, stats_30db.bar_h)
    assert p == pytest.approx(expected, abs=max(4.0 * se, 1e-3))


def test_invalid_sample_counts(capsys, tmp_path):
    # a pass only ever gets n >= 1: SweepSpec refuses a smaller count from a
    # flag or a config file alike, and the command exits 2 naming it
    for n in (0, -1):
        with pytest.raises(RelaysecError, match=f"sample count must be >= 1, got {n}"):
            cli.SweepSpec(n_samples=n)
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("samples = 0\n", encoding="utf-8")
    for argv in (["sweep", "--samples", "0"], ["sweep", "--config", str(cfg)]):
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "relaysec: error: sample count must be >= 1, got 0\n"


#: Every (scheme, method) pair that exists.
PAIRS = [(scheme, method) for scheme in SchemeKind for method in SinrMethod
         if has_method(scheme, method.value)]
#: Subnormal means that never round a gain to 0, and the smallest one, which
#: rounds about 40% of gains to 0: on the first link, which fails the
#: high-SNR rows, and on the fifth, which only direct and two-hop read.
SUBNORMAL = ChannelStats(1e-310, 1.0, 1.0, 1e-310, 1.0, 2.0, rho=1.0)
UNDERFLOWING = (ChannelStats(5e-324, 1.0, 1.0, 1.0, 1.0, 1.0, rho=1.0),
           ChannelStats(1.0, 1.0, 1.0, 1.0, 5e-324, 1.0, rho=1.0))
POINTS = [topology_to_stats(TOPOLOGY_1, db_to_linear(10.0)), SUBNORMAL, *UNDERFLOWING]


def dominance(s):
    """validate's P event, R1's phase-1 SINR above R2's: a boolean row."""
    b = three_hop_sinrs(s, SinrMethod.HIGH_SNR)
    return b.gamma_r1_p1 > b.gamma_r2


def harmonic(s):
    """The T-term harmonic mean XY/(X+Y) of the g and h gains."""
    return s.gamma_g * s.gamma_h / (s.gamma_g + s.gamma_h)


#: name -> (fn, links, positive) of the rows a point has besides its ESR
#: rows: a raw gain, a boolean event, a T-term, and an infinite mean, which
#: fails alone (h, which never rounds to 0 here, times infinity).
OTHER_ROWS = {
    "gamma_sd": (operator.attrgetter("gamma_sd"), LINKS[SchemeKind.DIRECT], False),
    "event": (dominance, 3, True),
    "harmonic": (harmonic, 3, False),
    "infinite": (lambda s: s.gamma_h * np.inf, 3, False),
}


def point_rows(stats):
    """Every row of one point: ESR families keyed (stats, scheme, method), others (stats, name)."""
    return esr_rows((stats, *pair) for pair in PAIRS) + [
        point_row(stats, fn, links, (stats, name), positive)
        for name, (fn, links, positive) in OTHER_ROWS.items()]


@functools.cache
def reference_means(stats, n, seed):
    """key[1:] -> (mean, std_error) of every row of the point, or the message
    of its first failure in chunk order.  Each chunk evaluates a row with one
    unblocked call, whose values are summed in BLOCK_SIZE slices: an ESR
    family on the unit draw times its means, the other rows on the point's
    own draw, sample_channels(stats, ...).  A high-SNR key fails where the
    point's own draw has a gain of 0."""
    rows = point_rows(stats)
    parts = {key[1:]: [] for row in rows for key in row.keys}
    failed = {}
    for k, start in enumerate(range(0, n, CHUNK_SIZE)):
        # all six links: each row reads its prefix, the same bits as a shorter draw
        unit = list(vars(sample_channels(UNIT, RngStream(seed, k), min(CHUNK_SIZE, n - start))).values())
        own = sample_channels(stats, RngStream(seed, k), min(CHUNK_SIZE, n - start))
        for row in rows:
            if row.positive and any((v == 0).any() for v in list(vars(own).values())[:row.links]):
                for key in row.keys:
                    failed.setdefault(key[1:], "high-SNR SINRs need strictly positive gains")
            family = len(next(iter(row.keys))) == 3
            values = row.fn(ChannelSample(*(u * m for u, m in zip(unit, row.means))) if family else own)
            for key, v in zip(row.keys, values):
                a = np.asarray(v, dtype=float)
                parts[key[1:]] += [(float(np.sum(b)), float(np.sum(b * b)))
                                   for b in np.split(a, range(BLOCK_SIZE, a.size, BLOCK_SIZE))]
    out = {}
    for key, p in parts.items():
        try:
            out[key] = failed.get(key) or _reduce_chunks(p, n)
        except RelaysecError as exc:
            out[key] = str(exc)
    return out


def spy_on_draws(monkeypatch):
    """Record the stats of every draw of gains the pass makes."""
    calls = []
    draw = montecarlo.sample_channels

    def spy(stats, *args, **kwargs):
        calls.append(stats)
        return draw(stats, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "sample_channels", spy)
    return calls


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n", [1, CHUNK_SIZE - 1, CHUNK_SIZE + 1, 300_001])
def test_pass_matches_per_point_draws(n, workers, monkeypatch):
    rows = [row for stats in POINTS for row in point_rows(stats)]
    for stats in POINTS:  # the reference draws, before the spy counts the pass's
        reference_means(stats, n, 7)
    calls = spy_on_draws(monkeypatch)
    shared = MeanPass(rows, n, seed=7, workers=workers)
    for key in (key for row in rows for key in row.keys):
        expected = reference_means(key[0], n, 7)[key[1:]]
        if isinstance(expected, str):  # fails, and alone: every other row still matches
            with pytest.raises(RelaysecError, match=f"^{re.escape(expected)}$"):
                shared.mean(key)
            continue
        assert shared.mean(key) == expected, key
        if len(key) == 3:  # an ESR row
            est = estimate_esr(shared, *key)
            assert (est.mean, est.std_error, est.n_samples) == (*expected, n)
    # one unit draw per chunk serves every row, also where gains round to 0,
    # which they do in the first chunk's 2^18 - 1 or more g gains
    assert calls == [UNIT] * -(-n // CHUNK_SIZE)
    if n > 1:
        expected = reference_means(UNDERFLOWING[0], n, 7)[SchemeKind.THREE_HOP, SinrMethod.HIGH_SNR]
        assert expected == "high-SNR SINRs need strictly positive gains"
    # a pass of one row gives the same mean, or failure, as the row of the shared pass
    for stats in POINTS:
        expected = reference_means(stats, n, 7)["event",]
        with (pytest.raises(RelaysecError, match=f"^{re.escape(expected)}$") if isinstance(expected, str)
              else contextlib.nullcontext()):
            p, _ = event_alone(stats, lambda b: b.gamma_r1_p1 > b.gamma_r2, n, 7, workers=workers)
            assert p == expected[0]


@pytest.mark.parametrize("scheme, method", PAIRS)
def test_family_equals_one_point_families(scheme, method):
    # One family of 13 SNR points gives each point the bits of a pass in
    # which every point is a family of its own, at any worker count.
    keys = [(topology_to_stats(TOPOLOGY_1, db_to_linear(db)), scheme, method) for db in range(0, 65, 5)]
    rows = esr_rows(keys)
    assert len(rows) == 1 and list(rows[0].keys) == keys
    family = MeanPass(rows, BLOCK_SIZE + 7, seed=2)
    alone = MeanPass([row for key in keys for row in esr_rows([key])], BLOCK_SIZE + 7, seed=2, workers=3)
    assert [family.mean(key) for key in keys] == [alone.mean(key) for key in keys]


def test_pass_runs_on_first_read(monkeypatch):
    calls = spy_on_draws(monkeypatch)
    key = (POINTS[0], SchemeKind.THREE_HOP, SinrMethod.EXACT)
    shared = MeanPass(esr_rows([key]), 1000, seed=1)
    assert calls == []
    shared.mean(key)
    shared.mean(key)
    assert calls == [UNIT]


def test_pass_infinite_gain_fails_only_rows_reading_it():
    # rho * m_sd near the float64 maximum: the direct scheme's sd gains
    # overflow, while three-hop reads g, h and f only
    stats = ChannelStats(1.0, 1.0, 1.0, 1.0, 1e308, 1.0, rho=1.0)
    shared = MeanPass(esr_rows([(stats, SchemeKind.THREE_HOP, SinrMethod.EXACT),
                                (stats, SchemeKind.DIRECT, SinrMethod.EXACT)]), 1000, seed=3)
    with pytest.raises(RelaysecError, match="gamma_sd"):
        estimate_esr(shared, stats, SchemeKind.DIRECT, SinrMethod.EXACT)
    est = estimate_esr(shared, stats, SchemeKind.THREE_HOP, SinrMethod.EXACT)
    a = secrecy_rate(sample_channels(stats, RngStream(3, 0), 1000, links=3), SchemeKind.THREE_HOP,
                     SinrMethod.EXACT)
    assert (est.mean, est.std_error) == _reduce_chunks([(np.sum(a), np.sum(a * a))], 1000)


def test_pass_zero_and_infinite_gains_fail_only_the_rows_they_break(monkeypatch):
    # g rounds to 0 on about 40% of the draws and sd overflows on 17%: the
    # infinite sd gains fail the direct row, the zero g gains the high-SNR
    # row, and the exact row reads the zeros as sample_channels gives them
    stats = ChannelStats(5e-324, 1.0, 1.0, 1.0, 1e308, 1.0, rho=1.0)
    exact, highsnr, direct = ((stats, SchemeKind.THREE_HOP, SinrMethod.EXACT),
                              (stats, SchemeKind.THREE_HOP, SinrMethod.HIGH_SNR),
                              (stats, SchemeKind.DIRECT, SinrMethod.EXACT))
    calls = spy_on_draws(monkeypatch)
    shared = MeanPass(esr_rows([exact, highsnr, direct]), 1000, seed=3)
    with pytest.raises(RelaysecError, match="gamma_sd"):
        shared.mean(direct)
    with pytest.raises(RelaysecError, match="^high-SNR SINRs need strictly positive gains$"):
        shared.mean(highsnr)
    assert calls == [UNIT]
    a = secrecy_rate(sample_channels(stats, RngStream(3, 0), 1000, links=3), *exact[1:])
    assert shared.mean(exact) == _reduce_chunks([(np.sum(a), np.sum(a * a))], 1000)


def dominates(b):
    """The P event on a SinrBundle: R1's phase-1 SINR above R2's."""
    return b.gamma_r1_p1 > b.gamma_r2


@pytest.mark.parametrize("n", [1000, CHUNK_SIZE + 1])
def test_event_probability_reads_a_shared_pass(stats_30db, n, monkeypatch):
    # an event row beside rows reading more links gives a pass of its own
    # bit for bit, from one unit draw per chunk
    esr_key = (stats_30db, SchemeKind.TWO_HOP_CASE_I, SinrMethod.EXACT)
    alone = event_alone(stats_30db, dominates, n, 5), esr_alone(*esr_key, n, 5)
    calls = spy_on_draws(monkeypatch)
    shared = MeanPass([event_row(stats_30db, dominates), *esr_rows([esr_key])], n, seed=5)
    assert (estimate_event_probability(shared, "event"),
            estimate_esr(shared, *esr_key)) == alone
    assert calls == [UNIT] * -(-n // CHUNK_SIZE)


def fails_on_each_read(shared, key, match):
    """Each of two reads of the row raises a new RelaysecError with the same message:
    a reduction failure is raised when the row is read, and nothing is kept of it."""
    raised = []
    for _ in range(2):
        with pytest.raises(RelaysecError, match=match) as info:
            shared.mean(key)
        raised.append(info.value)
    assert raised[0] is not raised[1] and str(raised[0]) == str(raised[1])


def test_pass_overflowing_square_fails_the_row():
    # sd gains near 1e200 have a finite mean, but their squares overflow: the
    # row fails instead of giving a standard error of 0, and warns of nothing
    stats = ChannelStats(1.0, 1.0, 1.0, 1.0, 1e200, 1.0, rho=1.0)
    shared = MeanPass([point_row(stats, operator.attrgetter("gamma_sd"), 5, "sd"),
                       point_row(stats, operator.attrgetter("gamma_g"), 5, "g")], 1000, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, std_error = shared.mean("g")
        fails_on_each_read(shared, "sd", "variance")
    assert mean > 0.0 and std_error > 0.0


def test_pass_overflowing_total_fails_the_row():
    # big: each chunk's sum of squares is finite, but their total is past
    # the float64 maximum; opposite: at seed 1 one chunk's sum overflows to
    # +inf and another's to -inf.  Each row fails alone, not the whole pass
    shared = MeanPass([point_row(UNIT, lambda s: s.gamma_g * 1e151, 3, "big"),
                       point_row(UNIT, lambda s: (s.gamma_g - s.gamma_h) * 4e305, 3, "opposite"),
                       point_row(UNIT, operator.attrgetter("gamma_g"), 3, "g")], 4 * CHUNK_SIZE, seed=1)
    mean, std_error = shared.mean("g")
    for key in ("big", "opposite"):
        fails_on_each_read(shared, key, "sum")
    assert mean > 0.0 and std_error > 0.0


def test_pass_opposite_infinite_block_sums_fail_the_row():
    # at seed 1 some block of "d" adds up to +inf and -inf: the row fails
    # with a RelaysecError, warns of nothing, and every other row reads its mean
    shared = MeanPass([point_row(UNIT, lambda s: (s.gamma_g - s.gamma_h) * 5e305, 3, "d"),
                       point_row(UNIT, operator.attrgetter("gamma_g"), 3, "g")], 4 * CHUNK_SIZE, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, std_error = shared.mean("g")
        fails_on_each_read(shared, "d", f"^Monte Carlo sum over {4 * CHUNK_SIZE} samples is not finite")
    assert mean > 0.0 and std_error > 0.0


@pytest.mark.parametrize("n", [1, 7, 9, 129, BLOCK_SIZE, BLOCK_SIZE + 1, 100_000, CHUNK_SIZE - 8, CHUNK_SIZE])
def test_row_blocks_tile_the_chunk_and_sum_as_numpy_does(n):
    # a row's partials are np.sum's bits of its unblocked values, and of
    # their squares, over each BLOCK_SIZE slice from the chunk's start, in
    # order; the row's fn sees only the links it reads, scaled by their means
    rng = np.random.default_rng(n)
    gains = rng.standard_exponential((3, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (3, n))
    stats = ChannelStats(2.0, 0.5, 3.0, 1.0, 1.0, 1.0, rho=4.0)

    def values(s):
        return (s.gamma_g - s.gamma_h) * s.gamma_f

    def fn(s):
        assert s.gamma_sr2 is None and s.gamma_g.size <= BLOCK_SIZE
        return values(s)

    x = values(ChannelSample(*(g * m for g, m in zip(gains, montecarlo.link_means(stats)))))
    want = [(float(np.sum(b)), float(np.sum(b * b))) for b in np.split(x, range(BLOCK_SIZE, n, BLOCK_SIZE))]
    assert len(want) == -(-n // BLOCK_SIZE)
    row = point_row(stats, fn, 3, "key")
    assert [m for start in range(0, n, BLOCK_SIZE)
            for m in montecarlo._block_moments(row, [None], list(gains), start)] == want


@pytest.mark.xfail(strict=True, reason="squares of values below about 1.5e-162 underflow to 0")
def test_pass_tiny_values_have_a_standard_error():
    # unequal values near 1e-200 have a positive sample variance, but their
    # squares, and so the sum of squares, underflow to 0
    shared = MeanPass([point_row(UNIT, lambda s: s.gamma_g * 1e-200, 3, "tiny")], 1000, seed=1)
    mean, std_error = shared.mean("tiny")
    assert mean > 0.0 and std_error > 0.0


def test_one_chunk_and_few_rows_same_at_every_worker_count():
    # a pass of one chunk, and one with fewer rows than workers, gives the
    # same bits however many threads share its links and rows
    stats = topology_to_stats(TOPOLOGY_1, db_to_linear(20.0))
    rows = [row for row in point_rows(stats) if (stats, "infinite") not in row.keys]
    for case, n in ((rows, 10**5), (rows[:2], CHUNK_SIZE + 5000)):
        got = [{key: MeanPass(case, n, seed=4, workers=w).mean(key) for row in case for key in row.keys}
               for w in (1, 2, 5)]
        assert got[0] == got[1] == got[2]


class ZeroAt:
    """A stream's generator from ``offset`` on, with exact zeros at the given positions."""

    def __init__(self, gen, offset, zeros):
        self.gen, self.pos, self.zeros = gen, offset, zeros

    def random(self, size=None, out=None):
        x = self.gen.random(size, out=out)
        x[[p - self.pos for p in self.zeros if self.pos <= p < self.pos + x.size]] = 0.0
        self.pos += x.size
        return x


@pytest.mark.parametrize("zeros", [(), (1000 + 5,), (5, 3 * 1000 + 7, 5 * 1000 + 1)])
def test_forced_zero_uniform_gives_the_smallest_gain(zeros, monkeypatch):
    # a U = 0 counts as 2^-53: its unit gain is -ln(1 - 2^-53), the smallest
    # there is, and every other gain, drawn apart or not, keeps its bits
    n, links = 1000, 6
    plain = np.stack(list(vars(sample_channels(UNIT, RngStream(8), n, links)).values())).ravel()
    forced = np.isin(np.arange(links * n), zeros)
    generator = RngStream.generator
    monkeypatch.setattr(RngStream, "generator",
                        lambda self, offset=0: ZeroAt(generator(self, offset), offset, zeros))
    with ThreadPoolExecutor(2) as pool:
        for executor in (None, pool):
            out = np.full((links, 2 * n), np.nan)
            s = sample_channels(UNIT, RngStream(8), n, links, out=out, executor=executor)
            got = np.stack(list(vars(s).values())).ravel()
            assert (got[forced] == -math.log(1 - 2**-53)).all()
            assert np.array_equal(got[~forced], plain[~forced])
            assert np.shares_memory(s.gamma_g, out) and np.isnan(out[:, n:]).all()


def test_row_failing_in_a_middle_chunk_keeps_that_failure():
    # the row fails in chunk 2 of 3 and again in chunk 3: every worker
    # count reports chunk 2's
    n = 2 * CHUNK_SIZE + 1000
    marks = [sample_channels(UNIT, RngStream(2, k), CHUNK_SIZE if k < 2 else 1000, 3).gamma_g.max()
             for k in (1, 2)]

    def fails_later(s):
        if (s.gamma_g == marks[0]).any():
            raise RelaysecError("chunk 2")
        if (s.gamma_g == marks[1]).any():
            raise RelaysecError("chunk 3")
        return s.gamma_g

    ones = ChannelStats(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, rho=1.0)
    rows = [point_row(ones, fails_later, 3, "fails"), point_row(ones, operator.attrgetter("gamma_g"), 3, "g"),
            point_row(ones, operator.attrgetter("gamma_h"), 3, "h")]
    means = set()
    for workers in (1, 2, 3):
        shared = MeanPass(rows, n, seed=2, workers=workers)
        means.add((shared.mean("g"), shared.mean("h")))
        # stored, the failure holds none of the pass's frames and buffers
        assert shared._results["fails"].__traceback__ is None
        with pytest.raises(RelaysecError, match="chunk 2"):
            shared.mean("fails")
    assert len(means) == 1
    # a read adds no frames to the next read's traceback
    frames = [raised_frames(lambda: shared.mean("fails")) for _ in range(2)]
    assert frames[0] == frames[1] and "_block_moments" not in frames[0]


def raised_frames(read):
    """The function names in the traceback of the failure that read() raises."""
    try:
        read()
    except RelaysecError as exc:
        return [frame.name for frame in traceback.extract_tb(exc.__traceback__)]
    raise AssertionError("read() raised nothing")


def test_pool_threads_capped_by_row_count(monkeypatch):
    # one worker starts no pool: the rows run on the calling thread; 64
    # workers on a 3-row pass start one pool of at most one thread per
    # (row, block) task of a chunk, 3 x 8 here, which runs every task, and
    # shut it down
    pools, idents = [], set()

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            pools.append(self)

    def row(s):
        idents.add(threading.get_ident())
        return s.gamma_g

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
    rows = [point_row(UNIT, row, 3, k) for k in "abc"]
    tasks = 3 * CHUNK_SIZE // BLOCK_SIZE
    alone = MeanPass(rows, CHUNK_SIZE + 1, seed=3).mean("a")
    assert not pools and idents == {threading.get_ident()}
    idents.clear()
    assert MeanPass(rows, CHUNK_SIZE + 1, seed=3, workers=64).mean("a") == alone
    assert len(pools) == 1 and pools[0]._max_workers == tasks and len(pools[0]._threads) <= tasks
    assert pools[0]._shutdown and not any(t.is_alive() for t in pools[0]._threads)
    assert 1 <= len(idents) <= tasks and threading.get_ident() not in idents


def test_pass_under_thread_switching_stress():
    # more workers than cores and a switch interval of 1 us: every row still
    # runs each block once, and the pass gives the one-worker bits
    n, blocks = CHUNK_SIZE + 10, CHUNK_SIZE // montecarlo.BLOCK_SIZE + 1
    calls = []

    def scaled(j):
        def fn(s):
            calls.append(j)
            return s.gamma_g * (j + 1.0)
        return fn

    rows = [point_row(UNIT, scaled(j), 3, j) for j in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        means = []
        for workers in (1, 8):
            calls.clear()
            shared = MeanPass(rows, n, seed=6, workers=workers)
            means.append([shared.mean(j) for j in range(16)])
            assert sorted(calls) == sorted(list(range(16)) * blocks)
    finally:
        sys.setswitchinterval(interval)
    assert means[0] == means[1]
