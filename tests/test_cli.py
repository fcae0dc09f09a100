import io
import math

import pytest

from relaysec.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    SWEEP_HEADER,
    SweepSpec,
    UsageError,
    cmd_asymptote,
    cmd_sweep,
    fmt,
    main,
    parse_config_file,
)
from relaysec.sinr import SchemeKind


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


def test_spec_validation_errors():
    with pytest.raises(UsageError):
        SweepSpec(snr_step_db=0.0)
    with pytest.raises(UsageError):
        SweepSpec(snr_start_db=10.0, snr_stop_db=0.0)
    with pytest.raises(UsageError):
        SweepSpec(methods=["not-a-method"])
    with pytest.raises(UsageError):
        SweepSpec(workers=0)


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
    assert main(["asymptote", "--topology=-3e100,-1,1,3e100", "--snr", "0:0:5",
                 "--output", str(tmp_path / "a.csv")]) == EXIT_OK


def test_extreme_snr_is_numeric_failure(tmp_path):
    out = tmp_path / "hi.csv"
    assert main(["sweep", "--snr", "3000:3000:1", "--samples", "1000",
                 "--output", str(out)]) == EXIT_NUMERIC
    rows = {r.split(",")[2]: r.split(",") for r in out.read_text().strip().split("\n")[1:]}
    assert rows["mc-exact"][3] == "nan"
    assert math.isfinite(float(rows["closed-form-lb"][3]))


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


def test_validate_quick_passes(tmp_path):
    out = tmp_path / "validate.csv"
    assert main(["validate", "--quick", "--output", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("check,")
    # every gating row must carry a pass verdict
    for line in lines[1:]:
        fields = line.rsplit(",", 3)
        gating, verdict = fields[1], fields[2]
        if gating == "yes":
            assert verdict == "pass"
