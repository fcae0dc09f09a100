import contextlib
import csv
import functools
import hashlib
import importlib.util
import io
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relaysec.cli import (
    ALL_METHODS,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    KEYS,
    MAX_WORKERS,
    SWEEP_HEADER,
    SweepSpec,
    UsageError,
    cmd_asymptote,
    cmd_sweep,
    fmt,
    main,
    make_parser,
    parse_config_file,
)
from relaysec import analytics, cli
from relaysec.errors import DomainError, NumericError
from relaysec import montecarlo
from relaysec.montecarlo import MeanPass, esr_rows, estimate_esr, estimate_event_probability
from relaysec.sinr import SchemeKind, SinrMethod

PRESETS = sorted((Path(__file__).resolve().parents[1] / "presets").glob("*.cfg"))


def run_sweep(**kw):
    spec = SweepSpec(**kw)
    buf = io.StringIO()
    status = cmd_sweep(spec, buf)
    return status, buf.getvalue()


def test_fmt_nine_significant_digits():
    assert fmt(1.0 / 3.0) == "0.333333333"
    assert fmt(0.0) == "0"


def test_sweep_row_count_and_header():
    status, text = run_sweep(snr_start_db=0.0, snr_stop_db=20.0, snr_step_db=10.0,
                             n_samples=10_000)
    assert status == EXIT_OK
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    # 3 SNR points x 1 scheme x 2 default methods
    assert len(lines) == 1 + 3 * 2


def test_sweep_deterministic_rerun():
    _, a = run_sweep(snr_start_db=10.0, snr_stop_db=20.0, snr_step_db=5.0, n_samples=20_000)
    _, b = run_sweep(snr_start_db=10.0, snr_stop_db=20.0, snr_step_db=5.0, n_samples=20_000)
    assert a == b


def test_sweep_worker_count_does_not_change_output():
    kw = dict(snr_start_db=15.0, snr_stop_db=25.0, snr_step_db=5.0, n_samples=600_000)
    _, one = run_sweep(workers=1, **kw)
    _, three = run_sweep(workers=3, **kw)
    assert one == three


def test_sweep_closed_form_methods_skip_baselines():
    status, text = run_sweep(snr_start_db=20.0, snr_stop_db=20.0, snr_step_db=5.0,
                             schemes=[SchemeKind.THREE_HOP, SchemeKind.DIRECT],
                             methods=["mc-exact", "closed-form-lb", "asymptote"],
                             n_samples=5_000)
    assert status == EXIT_OK
    rows = [l.split(",") for l in text.strip().split("\n")[1:]]
    three = [r for r in rows if r[1] == "three-hop"]
    direct = [r for r in rows if r[1] == "direct"]
    assert {r[2] for r in three} == {"mc-exact", "closed-form-lb", "asymptote"}
    assert {r[2] for r in direct} == {"mc-exact"}


@pytest.mark.parametrize("method", ["mc-exact", "mc-highsnr", "closed-form-lb", "asymptote"])
@pytest.mark.parametrize("scheme", list(SchemeKind), ids=lambda k: k.value)
def test_scheme_method_pairs(scheme, method, stats_30db):
    # three-hop has every method, each baseline only mc-exact; a sweep of
    # no pair that exists is a usage error
    exists = scheme is SchemeKind.THREE_HOP or method == "mc-exact"
    sweep = functools.partial(run_sweep, snr_start_db=30.0, snr_stop_db=30.0, schemes=[scheme],
                              methods=[method], n_samples=1000)
    if exists:
        status, text = sweep()
        assert status == EXIT_OK
        assert len(text.strip().split("\n")) == 2
    else:
        with pytest.raises(UsageError, match="no scheme given has a method given"):
            sweep()
    if method.startswith("mc-"):
        key = (stats_30db, scheme, SinrMethod(method))
        estimate = lambda: estimate_esr(MeanPass(esr_rows([key]), 1000, seed=1), *key)
        if exists:
            assert estimate().n_samples == 1000
        else:
            with pytest.raises(DomainError):
                estimate()


def test_spec_validation_errors():
    with pytest.raises(UsageError):
        SweepSpec(snr_step_db=0.0)
    with pytest.raises(UsageError):
        SweepSpec(snr_start_db=10.0, snr_stop_db=0.0)
    with pytest.raises(UsageError):
        SweepSpec(methods=["not-a-method"])
    with pytest.raises(UsageError):
        SweepSpec(workers=0)
    # refused before any pass, so no thread starts
    with pytest.raises(UsageError, match=f"1 to {MAX_WORKERS}"):
        SweepSpec(workers=MAX_WORKERS + 1)


def test_snr_points_inclusive():
    spec = SweepSpec(snr_start_db=0.0, snr_stop_db=60.0, snr_step_db=5.0)
    pts = spec.snr_points_db()
    assert pts[0] == 0.0 and pts[-1] == 60.0 and len(pts) == 13


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep preset\n"
        "snr = 10:20:5\n"
        "samples = 5000   # small\n"
        "seed = 7\n"
        "scheme = three-hop,direct\n"
        "method = mc-exact\n"
    )
    values = parse_config_file(str(cfg))
    assert values["snr"] == "10:20:5"
    assert values["samples"] == "5000"
    assert values["scheme"] == "three-hop,direct"


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value pair\n")
    with pytest.raises(UsageError):
        parse_config_file(str(cfg))


def test_main_config_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("snr = 10:20:5\nsamples = 4000\nseed = 3\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--output", str(out_a)]) == EXIT_OK
    # flag overrides the config SNR range
    assert main(["sweep", "--config", str(cfg), "--snr", "10:10:5",
                 "--output", str(out_b)]) == EXIT_OK
    rows_a = out_a.read_text().strip().split("\n")
    rows_b = out_b.read_text().strip().split("\n")
    assert len(rows_a) == 1 + 3 * 2
    assert len(rows_b) == 1 + 1 * 2
    # the 10 dB rows agree since seed and samples come from the config in both
    assert rows_b[1:] == rows_a[1:3]


def test_main_usage_errors():
    assert main(["sweep", "--snr", "banana"]) == EXIT_USAGE
    assert main(["sweep", "--scheme", "four-hop", "--samples", "10"]) == EXIT_USAGE
    assert main(["sweep", "--topology", "1,2,3"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    # near-coincident nodes: the mean power overflows float64
    assert main(["sweep", "--topology", "0,1e-200,1,2", "--samples", "10"]) == EXIT_USAGE


def test_underflowing_layout_gives_finite_bound(tmp_path):
    # the three hop means multiply to a float64 underflow on this layout
    out = tmp_path / "u.csv"
    assert main(["sweep", "--topology=-3e100,-1,1,3e100", "--snr", "0:0:5",
                 "--method", "closed-form-lb", "--output", str(out)]) == EXIT_OK
    [row] = out.read_text().strip().split("\n")[1:]
    bound = float(row.split(",")[3])
    assert math.isfinite(bound) and bound >= 0.0
    # on the -1e119 layout the g and f powers themselves are subnormal; on
    # the 1e74 one every pairwise product of hop powers underflows, on the
    # 1e-74 one it overflows
    for topology in ("-3e100,-1,1,3e100", "-1e119,-1,1,1e119", "0,1e74,2e74,3e74",
                     "0,1e-74,2e-74,3e-74"):
        out = tmp_path / "a.csv"
        assert main(["asymptote", f"--topology={topology}", "--snr", "0:0:5",
                     "--output", str(out)]) == EXIT_OK
        values = [float(r.split(",")[2]) for r in out.read_text().strip().split("\n")[1:]]
        assert all(math.isfinite(v) for v in values), topology
        assert main(["sweep", f"--topology={topology}", "--snr", "0:0:5", "--method", "asymptote",
                     "--output", str(out)]) == EXIT_OK
        [row] = out.read_text().strip().split("\n")[1:]
        assert math.isfinite(float(row.split(",")[3])), topology


def test_extreme_snr_is_finite(tmp_path):
    # at 3000 dB every product of two gains overflows float64, the SINRs do not
    out = tmp_path / "hi.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--snr", "3000:3000:1", "--samples", "1000",
                     "--output", str(out)]) == EXIT_OK
    rows = {r.split(",")[2]: r.split(",") for r in out.read_text().strip().split("\n")[1:]}
    assert rows["mc-exact"][3] == "329.327741"
    assert rows["closed-form-lb"][3] == "329.239905"


@pytest.mark.parametrize("argv, cause", [
    (["sweep", "--snr=4000:4000:1", "--samples", "100", "--method", "mc-exact", "--method", "asymptote"],
     "4000.0 dB overflows float64"),
    (["sweep", "--snr=-4000:-4000:1", "--samples", "100"], "-4000.0 dB underflows float64"),
    (["sweep", "--snr=-800:-800:1", "--samples", "100", "--topology=-3e100,-1,1,3e100"],
     "rho * m_g = 1e-80 *"),
    (["asymptote", "--snr=-4000:-4000:1"], "-4000.0 dB underflows float64"),
    (["asymptote", "--snr=4000:4000:1"], "4000.0 dB overflows float64"),
])
def test_snr_outside_float_range_gives_nan_rows(argv, cause, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(argv + ["--output", str(out)]) == EXIT_NUMERIC
    # skip asymptote's parameter rows, the ones with an empty second field
    rows = [r for r in out.read_text().strip().split("\n")[1:] if r.split(",")[1]]
    assert rows and all(",nan" in r for r in rows)
    # one diagnostic per nan row, whose cause names the failing value
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == len(rows)
    assert all(line.startswith("numeric failure at ") and cause in line.split(": ", 1)[1] for line in lines)


def test_draw_overflow_gives_nan_row_without_warning(tmp_path, capsys):
    # rho * m_g is about 1e308, so -m ln(U) overflows to an infinite gain,
    # which ChannelSample refuses
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--topology=0,1e-113,1,2", "--snr", "30:30:5", "--samples", "100",
                     "--method", "mc-highsnr", "--output", str(out)]) == EXIT_NUMERIC
    [row] = out.read_text().strip().split("\n")[1:]
    assert row == "30,three-hop,mc-highsnr,nan,nan,0,1"
    [line] = capsys.readouterr().err.strip().split("\n")
    assert line.startswith("numeric failure at 30.0 dB / three-hop / mc-highsnr:")


def test_overflowing_point_fails_only_its_rows(tmp_path, capsys):
    # at 30 dB rho * m_g is about 1.3e308, so g overflows and every row of
    # that point (all read g) fails; the pass shares its draw with the
    # other points, whose rows must not change
    argv = ["sweep", "--topology=0,1e-113,1,2", "--method", "mc-highsnr", "--method", "mc-exact",
            "--scheme", "three-hop", "--scheme", "direct", "--samples", "1000"]

    def sweep(snr):
        out = tmp_path / "iso.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main(argv + [f"--snr={snr}", "--output", str(out)])
        return status, out.read_text().strip().split("\n")[1:], capsys.readouterr().err

    status, rows, err = sweep("-30:30:30")
    assert status == EXIT_NUMERIC
    nan_rows = [r for r in rows if ",nan," in r]
    assert nan_rows == [r for r in rows if r.startswith("30,")] and len(nan_rows) == 3
    assert len([l for l in err.split("\n") if l.startswith("numeric failure at 30.0 dB")]) == 3
    assert len(err.strip().split("\n")) == 3
    for snr in ("-30", "0"):
        single_status, single, _ = sweep(f"{snr}:{snr}:30")
        assert single_status == EXIT_OK
        assert single == [r for r in rows if r.split(",")[0] == snr]


def test_two_hop_near_coincident_layout_without_warning(tmp_path):
    # mean gains S-R about 1e150 and R1-R2 about 6e162: their product a w in
    # the idle relay's phase-2 SINR overflows float64; a 40-digit evaluation
    # of the same formulas on 2,000 of these draws averages 81.4 bits
    out = tmp_path / "near.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--topology=0,2.5e-56,2.50005e-56,1e-37", "--scheme", "two-hop-1",
                     "--scheme", "two-hop-2", "--method", "mc-exact", "--snr", "0:0:5",
                     "--samples", "10000", "--output", str(out)]) == EXIT_OK
    rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
    assert [r[1] for r in rows] == ["two-hop-1", "two-hop-2"]
    assert all(float(r[3]) > 80.0 for r in rows)


#: SHA-256 of two sweeps' CSV: no change to the Monte Carlo kernel may move
#: a byte.  300001 samples span two chunks and end in partial blocks.
SWEEP_SHA256 = [
    (["--method", "mc-exact", "--method", "mc-highsnr", "--snr", "0:60:5"],
     "2744a6f4fbdcb0490bcd10f416321de92fca058b7a4f22339e65ac3bd792f0cb"),
    (["--scheme", "three-hop", "--scheme", "two-hop-1", "--scheme", "two-hop-2", "--scheme", "direct",
      "--method", "mc-exact", "--snr", "0:25:5", "--workers", "2"],
     "99f8c0999e25f030aab248a753feb370b97f5b4551f4df96ff4b2ae8e2d2a4b0"),
]


@pytest.mark.parametrize("flags, sha256", SWEEP_SHA256, ids=["three-hop", "four-schemes"])
def test_sweep_bytes_pinned(flags, sha256, tmp_path):
    out = tmp_path / "pinned.csv"
    assert main(["sweep", *flags, "--samples", "300001", "--output", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("flags, sha256", SWEEP_SHA256, ids=["three-hop", "four-schemes"])
def test_sweep_bytes_pinned_without_numpy_simd(flags, sha256, tmp_path):
    # numpy's AVX2 and AVX-512 loops change the last bits of log, exp and so
    # every sample, but not a printed cell; the setting acts on the child
    # process only, and numpy ignores the names a host's build does not know
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src),
           "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
    out = tmp_path / "pinned.csv"
    subprocess.run([sys.executable, "-m", "relaysec.cli", "sweep", *flags, "--samples", "300001",
                    "--output", str(out)], env=env, check=True)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_asymptote_output():
    spec = SweepSpec(snr_start_db=40.0, snr_stop_db=60.0, snr_step_db=10.0)
    buf = io.StringIO()
    assert cmd_asymptote(spec, buf) == EXIT_OK
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "quantity,snr_db,value"
    table = {l.split(",")[0]: l for l in lines[1:]}
    assert float(table["s_infinity"].split(",")[2]) == pytest.approx(1.0 / 3.0, rel=1e-8)
    assert float(table["s_infinity_two_hop"].split(",")[2]) == 0.5
    assert float(table["l_infinity"].split(",")[2]) == pytest.approx(8.79702980, abs=1e-6)
    asym_rows = [l for l in lines[1:] if l.startswith("esr_asymptote,")]
    assert len(asym_rows) == 3


def quick_validate(tmp_path, *flags):
    """Exit status and (check name, gating, verdict) rows of validate --quick."""
    out = tmp_path / "validate.csv"
    status = main(["validate", "--quick", *flags, "--output", str(out)])
    header, *rows = csv.reader(out.read_text().strip().split("\n"))
    assert header[0] == "check"
    return status, [(r[0], r[6], r[7]) for r in rows]


def test_validate_quick_passes(tmp_path):
    status, rows = quick_validate(tmp_path)
    assert status == EXIT_OK
    # every gating row must carry a pass verdict
    for _, gating, verdict in rows:
        if gating == "yes":
            assert verdict == "pass"


#: closed_form and oracle of every Monte Carlo row of validate --quick, as
#: printed: no change to the Monte Carlo engine may move a digit.
VALIDATE_MC_ROWS = {
    "P quadrature vs Monte Carlo": ("0.642699082", "0.64052"),
    "T1 closed form vs Monte Carlo": ("1", "0.9990589"),
    "E{XY/(X+Y)} quadrature vs Monte Carlo": ("0.309015107", "0.308312098"),
    "T2 mean-ratio vs Monte Carlo": ("0.287682072", "0.564695342"),
    "ESR lower bound vs Monte Carlo exact ESR (30 dB)": ("0.464761519", "0.691146122"),
    "literal extra 1/(3 ln 2) reading vs Monte Carlo": ("0.223503046", "0.691146122"),
    "two-hop ESR with selection combining (10 dB)": ("2.75311867e-06", "2.75311867e-06"),
    "two-hop ESR with sum combining (10 dB)": ("2.55805687e-06", "2.55805687e-06"),
    "sample mean of gamma_h vs rho*m of its own link": ("84.0654539", "84.2484611"),
    "sample mean of gamma_f vs rho*m of its own link": ("333.23166", "334.621314"),
}


def test_validate_monte_carlo_rows_pinned(tmp_path):
    out = tmp_path / "validate.csv"
    assert main(["validate", "--quick", "--output", str(out)]) == EXIT_OK
    rows = {r["check"]: (r["closed_form"], r["oracle"])
            for r in csv.DictReader(out.read_text().strip().split("\n"))}
    assert {name: rows[name] for name in VALIDATE_MC_ROWS} == VALIDATE_MC_ROWS


def test_validate_p_row_reads_as_a_pass_of_its_own(monkeypatch):
    # validate's P row, read from the one pass it shares with every other
    # Monte Carlo row, equals a pass of that row alone, bit for bit
    passes = []

    def spy(rows, *args):
        passes.append((rows, MeanPass(rows, *args)))
        return passes[-1][1]

    monkeypatch.setattr(cli, "MeanPass", spy)
    cli.validate_checks(SweepSpec(), quick=True)
    [(rows, shared)] = passes
    [key] = [key for key in rows if key[1:] == ("P",)]
    alone = MeanPass({key: rows[key]}, shared.n, shared.seed)
    assert len(rows) > 1
    assert estimate_event_probability(shared, key) == estimate_event_probability(alone, key)


#: sha256 of the whole validate --quick stdout: the K1, Lah and closed-form
#: rows too, so a moved coefficient or closed form shows here.
VALIDATE_QUICK_SHA256 = "f6b7e55e59471c6888a5e23b024ac9dec5268c425a1881504ce1f00bd10b38b6"


def test_validate_quick_bytes_pinned(tmp_path):
    out = tmp_path / "validate.csv"
    assert main(["validate", "--quick", "--output", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VALIDATE_QUICK_SHA256


def test_validate_quick_bytes_pinned_without_numpy_simd(tmp_path):
    # the K1 row prints the decade bound of its rounding noise, so numpy's
    # baseline loops give the same report; the setting acts on the child only
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src),
           "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
    out = tmp_path / "validate.csv"
    subprocess.run([sys.executable, "-m", "relaysec.cli", "validate", "--quick", "--output", str(out)],
                   env=env, check=True)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VALIDATE_QUICK_SHA256


def test_validate_failed_point_fails_only_its_rows(capsys):
    # rho * m_h overflows at 30 dB on this layout, but not at 10 dB or on the
    # asymmetric layout: the 30 dB rows fail, while the Monte Carlo rows of
    # the other two points, drawn in the same pass, still pass
    assert main(["validate", "--quick", "--topology=-3,-1e-114,4e-114,3"]) == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "62bcc1d7d9dbe24f33194bcf04cc66887a21ded0e4a594e5f79a449d00a3da6b")
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "a817d41967dfba1e0f74beb480a121677605778c9c486eaf8ab11b604377fb82")
    rows = {r["check"]: r for r in csv.DictReader(out.strip().split("\n"))}
    assert rows["T1 closed form vs Monte Carlo"]["verdict"] == "FAIL"
    for name in ("two-hop ESR with selection combining (10 dB)",
                 "two-hop ESR with sum combining (10 dB)",
                 "sample mean of gamma_h vs rho*m of its own link",
                 "sample mean of gamma_f vs rho*m of its own link"):
        assert rows[name]["verdict"] == "pass", name


def test_validate_unbuildable_asymmetric_layout_fails_only_its_rows(capsys):
    # the user layout builds at path-loss 500 (3^-500 is a normal float), but
    # the asymmetric layout's 4.5 S-R2 distance underflows to 0: every row
    # is still printed, and only the three rows that read that layout fail
    assert main(["validate", "--quick", "--topology=0,1,2,3", "--pathloss", "500"]) == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "05883973957bafb6695207e6ac7f2d6d556ac1cf82e34f91489069432dd4f277")
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "5f627140ccdb068bd3528e6af2a3219fe58617a664f5fd4dd4b2669c9fd9e6c8")
    rows = list(csv.DictReader(out.strip().split("\n")))
    assert len(rows) == 25
    assert {r["check"] for r in rows if r["verdict"] == "FAIL"} == {
        "T2 printed closed form vs mean-ratio (asymmetric case)",
        "sample mean of gamma_h vs rho*m of its own link",
        "sample mean of gamma_f vs rho*m of its own link"}


def test_validate_ks_rows_on_huge_gains(capsys):
    # Gains near 1e165 overflowed x y in the harmonic mean, whose KS row
    # read nan with no numeric failure on stderr.  It is now finite, and
    # any RuntimeWarning fails this suite.  T1, gated at 3 standard errors
    # of its Monte Carlo mean, passes too.
    assert main(["validate", "--quick", "--topology=-1e-60,-1e-61,1e-61,1e-60"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    rows = {r["check"]: r for r in csv.DictReader(out.strip().split("\n"))}
    for name in ("KS distance, ratio CDF", "KS distance, harmonic-mean CDF"):
        assert math.isfinite(float(rows[name]["closed_form"])) and rows[name]["verdict"] == "pass"
    assert not [name for name, r in rows.items() if r["verdict"] == "FAIL"]


@pytest.mark.parametrize("seed", ["4", "11", "13", "17", "21"])
def test_validate_quick_passes_at_other_seeds(seed, tmp_path):
    # T1 and E{XY/(X+Y)} are gated at 3 standard errors of their Monte Carlo
    # means; a fixed 0.5% of the mean failed these seeds at 1e5 samples
    status, rows = quick_validate(tmp_path, "--seed", seed)
    assert status == EXIT_OK, [r for r in rows if r[2] == "FAIL"]


def test_validate_with_every_point_failing_reads_no_pass(tmp_path, monkeypatch, capsys):
    # rho * m_g overflows at every SNR point of this layout, and the
    # asymmetric layout cannot be built at path-loss 500: the Monte Carlo
    # pass holds no rows and is never read, and nothing is drawn
    _, default_rows = quick_validate(tmp_path)
    calls = []
    monkeypatch.setattr(montecarlo, "sample_channels", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "sample_channels", lambda *args: calls.append(args))
    capsys.readouterr()
    assert main(["validate", "--quick", "--topology=0,0.242,1,2", "--pathloss", "500"]) == \
        EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert calls == [] and "Traceback" not in err
    rows = list(csv.DictReader(out.strip().split("\n")))
    assert [r["check"] for r in rows] == [name for name, _, _ in default_rows]
    assert len(rows) == 25
    # the K1, Lah and K1-series rows read no setting
    assert all(r["verdict"] == "pass" for r in rows[:8])
    assert rows[0]["check"].startswith("bessel_k1") and rows[7]["check"].startswith("k1_series")
    failed = [r["check"] for r in rows[8:]]
    assert all(r["verdict"] == "FAIL" and r["abs_dev"] == r["rel_dev"] == "nan" for r in rows[8:])
    # each side is computed apart, so a side that reads no setting keeps its value
    assert {r["check"]: r["closed_form"] for r in rows[8:] if r["closed_form"] != "nan"} == {
        "E{XY/(X+Y)} quadrature vs Monte Carlo": "0.309015107"}
    oracles = {r["check"]: (r["oracle"], r["tolerance"]) for r in rows[8:] if r["oracle"] != "nan"}
    assert oracles == {"eavesdrop rate scale invariance": ("0", "1e-12"),
                       "KS distance, ratio CDF": ("0", "0.0195"),
                       "KS distance, harmonic-mean CDF": ("0", "0.0195")}
    assert [line.split("'")[1] for line in err.strip().split("\n")] == failed
    assert all(line.startswith("numeric failure in check '") for line in err.strip().split("\n"))


def test_validate_non_finite_ks_is_a_numeric_failure(monkeypatch, capsys):
    monkeypatch.setattr(analytics, "cdf_harmonic", lambda w, m_x, m_y: np.full(np.shape(w), np.nan))
    assert main(["validate", "--quick"]) == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert err == ("numeric failure in check 'KS distance, harmonic-mean CDF': "
                   "KS distance over 10000 samples is nan\n")
    rows = {r["check"]: r for r in csv.DictReader(out.strip().split("\n"))}
    assert rows["KS distance, harmonic-mean CDF"]["closed_form"] == "nan"
    assert {name for name, r in rows.items() if r["verdict"] == "FAIL"} == {
        "KS distance, harmonic-mean CDF"}


def test_validate_draws_each_chunk_once(monkeypatch, tmp_path):
    # every Monte Carlo mean of validate is a row of one pass: each chunk
    # draws its unit gains once, for all six links; the only other draw is
    # the KS sample
    calls = []
    draw = montecarlo.sample_channels

    def spy(stats, stream, n, links=6, **buffers):
        calls.append((stats, links))
        return draw(stats, stream, n, links, **buffers)

    monkeypatch.setattr(montecarlo, "sample_channels", spy)
    monkeypatch.setattr(cli, "sample_channels", spy)
    assert main(["validate", "--quick", "--output", str(tmp_path / "v.csv")]) == EXIT_OK
    chunks = -(-10**5 // montecarlo.CHUNK_SIZE)
    assert [c for c in calls if c[0] == montecarlo.UNIT] == [(montecarlo.UNIT, 6)] * chunks
    assert len(calls) == chunks + 1


def test_validate_worker_count_does_not_change_output(tmp_path):
    texts = []
    for workers in (["--workers", "1"], ["--workers", "3"], []):  # [] for the default
        out = tmp_path / "validate.csv"
        assert main(["validate", "--quick", *workers, "--output", str(out)]) == EXIT_OK
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_validate_on_underflowing_layout_prints_every_row(tmp_path, capsys):
    # the published P series squared a denominator near 1e-271 on this layout
    status, rows = quick_validate(tmp_path, "--topology=-3e100,-1,1,3e100")
    assert "numeric failure" not in capsys.readouterr().err
    _, default_rows = quick_validate(tmp_path)
    assert [r[0] for r in rows] == [r[0] for r in default_rows]
    failed = any(gating == "yes" and verdict != "pass" for _, gating, verdict in rows)
    assert status == (EXIT_NUMERIC if failed else EXIT_OK)


def test_subnormal_hop_powers_keep_underflowed_gains_zero(tmp_path, capsys):
    # g and f powers near 1e-321: up to 30 dB some unit gains times rho * m
    # underflow to 0.  Exact SINRs read those zeros; high-SNR SINRs refuse them.
    argv = ["sweep", "--topology=-1e119,-1,1,1e119", "--snr", "0:60:30", "--samples", "300001",
            "--seed", "1", "--output", str(tmp_path / "s.csv")]
    assert main([*argv, "--method", "mc-exact"]) == EXIT_OK
    assert (tmp_path / "s.csv").read_text().strip().split("\n")[1:] == [
        f"{snr},three-hop,mc-exact,0,0,300001,1" for snr in (0, 30, 60)]
    capsys.readouterr()
    assert main([*argv, "--method", "mc-highsnr"]) == EXIT_NUMERIC
    assert (tmp_path / "s.csv").read_text().strip().split("\n")[1:] == [
        "0,three-hop,mc-highsnr,nan,nan,0,1", "30,three-hop,mc-highsnr,nan,nan,0,1",
        "60,three-hop,mc-highsnr,0,0,300001,1"]
    assert capsys.readouterr().err.strip().split("\n") == [
        f"numeric failure at {snr} dB / three-hop / mc-highsnr: "
        "high-SNR SINRs need strictly positive gains" for snr in ("0.0", "30.0")]
    out = tmp_path / "v.csv"
    assert main(["validate", "--quick", "--topology=-1e119,-1,1,1e119", "--output", str(out)]) == \
        EXIT_NUMERIC
    rows = {r["check"]: r for r in csv.DictReader(out.read_text().strip().split("\n"))}
    failing = ("P quadrature vs Monte Carlo", "T2 mean-ratio vs Monte Carlo")
    assert capsys.readouterr().err.strip().split("\n") == [
        f"numeric failure in check '{check}': high-SNR SINRs need strictly positive gains"
        for check in failing]
    # the closed forms read no high-SNR SINR, so they keep their values
    assert [(rows[check]["closed_form"], rows[check]["oracle"], rows[check]["verdict"])
            for check in failing] == [("1.47279972e-150", "nan", "FAIL"),
                                      ("0.693147181", "nan", "FAIL")]
    assert rows["T1 closed form vs Monte Carlo"]["oracle"] == "3.25194008e-320"
    assert rows["E{XY/(X+Y)} quadrature vs Monte Carlo"]["oracle"] == "0.308312096"


@pytest.mark.parametrize("dependency, failing_rows", [
    # T1 also enters the eavesdropping rate, and so the lower bound
    ("t1_closed", {"T1 closed form vs Monte Carlo", "eavesdrop rate scale invariance",
                   "ESR lower bound vs Monte Carlo exact ESR (30 dB)",
                   "literal extra 1/(3 ln 2) reading vs Monte Carlo"}),
    ("t2_printed", {"T2 printed closed form vs mean-ratio (asymmetric case)"}),  # informational
])
def test_validate_failing_check_keeps_other_rows(dependency, failing_rows, tmp_path, monkeypatch,
                                                 capsys):
    _, default_rows = quick_validate(tmp_path)
    default = {r["check"]: r for r in csv.DictReader((tmp_path / "validate.csv").read_text().splitlines())}

    def broken(*args):
        raise NumericError("forced failure")

    monkeypatch.setattr(analytics, dependency, broken)
    out = tmp_path / "broken.csv"
    assert main(["validate", "--quick", "--output", str(out)]) == EXIT_NUMERIC
    rows = {r["check"]: r for r in csv.DictReader(out.read_text().strip().split("\n"))}
    assert list(rows) == [name for name, _, _ in default_rows]
    for name, r in rows.items():
        if name in failing_rows:
            # the oracle side is computed apart and keeps its value
            assert (r["closed_form"], r["abs_dev"], r["rel_dev"]) == ("nan",) * 3
            assert r["verdict"] == "FAIL"
            assert (r["oracle"], r["tolerance"]) == (default[name]["oracle"],
                                                     default[name]["tolerance"])
        else:
            assert r["verdict"] != "FAIL" and r["closed_form"] != "nan", name
    assert "forced failure" in capsys.readouterr().err


def load_perfbench(name, monkeypatch):
    """The benchmark's module ``perfbench/<name>.py``, loaded without changing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_perfbench_targets_exist(monkeypatch):
    # the benchmark traces these functions by name; a rename would fail only there
    layers = load_perfbench("layers", monkeypatch)
    assert layers.TARGETS
    for module, function, *_ in layers.TARGETS:
        assert callable(getattr(importlib.import_module(f"relaysec.{module}"), function, None)), \
            f"relaysec.{module}.{function}"


@pytest.mark.parametrize("workload", ["esr-sweep", "scheme-compare", "validate"])
def test_perfbench_traced_sweep_records_expected_layers(workload, monkeypatch, tmp_path):
    # a traced benchmark run exits 1 when a layer it expects records no call,
    # so run the workload's sweeps at fewer samples, or validate's --quick
    # primer, under its tracer
    layers = load_perfbench("layers", monkeypatch)
    work = load_perfbench("workloads", monkeypatch).workload(workload, 1)
    if workload == "validate":
        argvs = [list(argv) for argv in work.primer]
    else:
        argvs = [list(op.argv) for op in work.ops]
        for argv in argvs:
            argv[argv.index("--samples") + 1] = "3000"
    tracer = layers.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for argv in argvs:
            assert main(argv + ["--output", str(tmp_path / "out.csv")]) == EXIT_OK
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    spans = tracer.take()
    assert work.expected_layers <= {sp.layer for sp in spans}
    metrics = layers.pass_metrics(spans, wall, threading.get_ident())
    assert metrics["montecarlo.estimate_esr.calls"] > 0


def test_import_leaves_scipy_integrate_unloaded():
    # scipy is a test oracle only; scipy.special alone would add about 0.3 s
    # to every command's start-up.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import contextlib, io, sys\n"
            "from relaysec.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['sweep', '--samples', '1000', '--snr', '30:30:5', '--method', 'mc-exact',\n"
            "          '--method', 'closed-form-lb', '--method', 'asymptote'])\n"
            "    main(['asymptote'])\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_validate_loads_no_mpmath():
    # mpmath is a test oracle only; the K1 oracle validate runs is numpy
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import contextlib, io, sys\n"
            "from relaysec.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['validate', '--quick']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('mpmath')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_validate_loads_no_scipy():
    # bessel_k1 is numpy only, so the K1 rows and the KS CDFs load no scipy
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import contextlib, io, sys\n"
            "from relaysec.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['validate', '--quick']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.name)
def test_preset_runs(preset, tmp_path):
    out = tmp_path / "preset.csv"
    assert main(["sweep", "--config", str(preset), "--samples", "1000", "--snr", "10:10:5",
                 "--output", str(out)]) == EXIT_OK
    assert out.read_text().startswith(SWEEP_HEADER + "\n")


def test_presets_exist():
    assert {p.name for p in PRESETS} >= {"esr-sweep.cfg", "scheme-comparison.cfg"}


@pytest.mark.parametrize("argv", [
    ["sweep", "--snr", "nan:nan:1"],
    ["sweep", "--snr", "0:inf:5"],
    ["sweep", "--seed", "-1"],
    ["sweep", "--samples", "10", "--output", "/nonexistent/dir/x.csv"],
    ["validate", "--samples", "5"],
    ["asymptote", "--seed", "3"],
    ["sweep", "--snr", "0:1e10:1e-3"],
    ["sweep", "--samples", "1.5"],
    ["sweep", "--config", "/nonexistent/dir/run.cfg"],
    ["sweep", "--scheme", "direct", "--scheme", "direct", "--method", "mc-exact",
     "--method", "mc-exact"],
    ["sweep", "--scheme", "direct", "--method", "mc-highsnr", "--samples", "100", "--snr", "0:10:5"],
    ["sweep", "--workers", str(MAX_WORKERS + 1)],
    ["validate", "--workers", str(MAX_WORKERS + 1)],
])
def test_bad_argument_is_one_error_line(argv, capsys):
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("relaysec: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("subcommand, text", [
    ("sweep", "sample = 10\n"),
    ("sweep", "sed = 4\n"),
    ("validate", "samples = 10\n"),
    ("asymptote", "seed = 3\n"),
])
def test_config_key_not_read_is_usage_error(subcommand, text, tmp_path, capsys):
    cfg = tmp_path / "f.cfg"
    cfg.write_text(text)
    assert main([subcommand, "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("relaysec: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("subcommand", ["sweep", "validate", "asymptote"])
def test_config_file_not_utf8_is_usage_error(subcommand, tmp_path, capsys):
    cfg = tmp_path / "f.cfg"
    cfg.write_bytes(b"seed = \xff\n")
    assert main([subcommand, "--config", str(cfg)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("relaysec: error: cannot read config file ") and err.count("\n") == 1


def test_settable_values_per_subcommand():
    sub = next(a for a in make_parser()._actions if a.choices)
    counts = {name: sum(1 for a in p._actions if a.dest != "help") for name, p in sub.choices.items()}
    assert counts == {"sweep": 10, "validate": 7, "asymptote": 5}
    for name, p in sub.choices.items():
        assert {a.dest for a in p._actions} - {"help", "config", "quick"} == set(KEYS[name])


def test_repeated_flag_replaces_config_list(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = three-hop, direct\nmethod = mc-exact, closed-form-lb\nsamples = 1000\n")
    out = tmp_path / "a.csv"
    assert main(["sweep", "--config", str(cfg), "--snr", "10:10:5", "--scheme", "direct",
                 "--scheme", "two-hop-1", "--output", str(out)]) == EXIT_OK
    rows = [r.split(",")[1:3] for r in out.read_text().strip().split("\n")[1:]]
    assert rows == [["direct", "mc-exact"], ["two-hop-1", "mc-exact"]]
    # a repeated value is a usage error in a file's list as in repeated flags
    cfg.write_text("scheme = direct, direct\n")
    assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == EXIT_USAGE


def test_pathloss_alone_keeps_default_layout(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--pathloss", "3.5", "--snr", "20:20:5", "--method", "closed-form-lb",
                 "--output", str(a)]) == EXIT_OK
    assert main(["sweep", "--topology=-3,-1,1,3", "--pathloss", "3.5", "--snr", "20:20:5",
                 "--method", "closed-form-lb", "--output", str(b)]) == EXIT_OK
    assert a.read_text() == b.read_text()


def test_closed_stdout_is_usage_error(monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["asymptote", "--snr", "30:60:5"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("relaysec: error: ") and err.count("\n") == 1


# Layouts: the references, coincident nodes, near-coincident nodes whose
# mean power overflows, hop powers that multiply to an underflow, and a
# malformed one; or four drawn coordinates.
LAYOUTS = ("-3,-1,1,3", "-3,-1,1.5,3", "0,0,1,2", "0,1e-200,1,2", "-3e100,-1,1,3e100", "1,2,3")
SNR_TEXTS = ("nan:nan:1", "0:inf:5", "-inf:0:5", "20:10:5", "10:20:0", "0:10:-5",
             "3000:3000:1", "banana")
#: A flag each subcommand does not read.
UNREAD_FLAGS = {"sweep": ["--quick"],
                "validate": ["--snr", "0:10:5"],
                "asymptote": ["--samples", "5"]}


@st.composite
def snr_texts(draw):
    """SNR ranges of at most 5 points, or one of the malformed ones."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SNR_TEXTS))
    start = draw(st.floats(-4000, 4000))
    step = draw(st.floats(0.01, 1000))
    points = draw(st.integers(1, 5))
    return f"{start!r}:{start + (points - 1) * step!r}:{step!r}"


@st.composite
def argvs(draw):
    # validate runs its quick check list (about 0.7 s), so it is drawn less often.
    command = draw(st.sampled_from(("sweep", "asymptote", "sweep", "asymptote", "validate")))
    coords = st.lists(st.floats(-10, 10), min_size=4, max_size=4).map(lambda xs: ",".join(map(repr, xs)))
    values = {
        "topology": st.sampled_from(LAYOUTS) | coords,
        "pathloss": st.sampled_from(("2", "2.7", "4", "0", "-1", "nan", "1000")),
        "snr": snr_texts(),
        "seed": st.integers(-3, 2**64).map(str),
        "samples": st.integers(-1, 1000).map(str),
        "workers": st.integers(1, 2).map(str),
    }
    argv = [command]
    for key in KEYS[command]:
        # a sweep always gets --samples, never the 1e6 default
        if key in values and (key == "samples" or draw(st.booleans())):
            argv.append(f"--{key}={draw(values[key])}")
    if command == "sweep":
        for key, names in (("scheme", [k.value for k in SchemeKind]), ("method", ALL_METHODS)):
            argv += [f"--{key}={name}" for name in draw(st.lists(st.sampled_from(names), max_size=3))]
    if command == "validate":
        argv.append("--quick")
    unread = draw(st.booleans()) and draw(st.booleans())
    if unread:
        argv += UNREAD_FLAGS[command]
    return argv, unread


# Extreme SNRs overflow numpy arrays on their way to a nan row (exit 3).
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_property_exit_contract(case):
    argv, unread = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if unread:
        assert status == EXIT_USAGE
    if status == EXIT_OK:
        assert "nan" not in out.getvalue(), (argv, out.getvalue())


def test_default_workers_are_the_usable_cpus_up_to_two(monkeypatch):
    assert SweepSpec().workers == cli.DEFAULT_WORKERS == min(cli.usable_cpus(), 2)
    assert 1 <= cli.DEFAULT_WORKERS <= 2
    # where the OS has no CPU affinity, the CPU count stands in, or 1 if unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, usable in ((3, 3), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert cli.usable_cpus() == usable
