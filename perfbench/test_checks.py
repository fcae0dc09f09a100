"""Self-test of the benchmark's checks and of the ignore rules for its results.

    python3 -m pytest perfbench/test_checks.py

Each check must accept relaysec's real output and reject that output once
it is perturbed: an ESR moved by 6 sigma, a ``nan`` row under exit 0, an
asymptote slope off by 5%, and CSVs at one and two workers that differ by
one byte.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from relaysec import cli  # noqa: E402

SEED = 11


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def replace_value(text: str, snr: str, method: str, value: float) -> str:
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        f = line.split(",")
        if f[0] == snr and f[2] == method:
            f[3] = f"{value:.9g}"
            lines[i] = ",".join(f)
    return "".join(lines)


def test_esr_moved_by_six_sigma_fails():
    text = run_cli(wl.sweep_argv(wl.TOPOLOGY_1, "40:40:5", ["three-hop"], ["mc-exact"], SEED))
    points = (("three-hop", 40.0),)
    assert checks.check_mc_agreement(text, points, SEED) == []
    rows = checks.parse_csv(text)
    esr, se = float(rows[0]["esr_bits"]), float(rows[0]["std_error"])
    ref, _ = checks.independent_esr("three-hop", 40.0, SEED)
    # Away from the independent estimate: 6 sigma then exceeds the
    # 4 * sqrt(2) sigma tolerance of two equal-size estimates.
    moved = esr + (6.0 * se if esr >= ref else -6.0 * se)
    assert checks.check_mc_agreement(replace_value(text, "40", "mc-exact", moved), points, SEED)


def test_nan_row_under_exit_zero_fails():
    op = wl.Op("x", ("sweep",))
    nan_csv = checks.SWEEP_HEADER + "\n0,three-hop,closed-form-lb,nan,0,0,1\n"
    ok_csv = checks.SWEEP_HEADER + "\n0,three-hop,closed-form-lb,0.5,0,0,1\n"
    assert checks.op_failure(op, {"code": 0, "stdout": nan_csv, "exception": None})
    assert checks.op_failure(op, {"code": 0, "stdout": ok_csv, "exception": None}) is None
    contract = wl.Op("y", ("sweep",), contract=True)
    assert checks.op_failure(contract, {"code": 3, "stdout": nan_csv, "exception": None}) is None
    assert checks.op_failure(contract, {"code": 0, "stdout": nan_csv, "exception": None})
    assert checks.op_failure(contract, {"code": None, "stdout": "",
                                        "exception": "ValueError: math domain error"})


def test_asymptote_slope_off_by_five_percent_fails():
    text = run_cli(wl.sweep_argv(wl.ASYMMETRIC, wl.GRID_SNR, ["three-hop"], wl.GRID_METHODS, SEED))
    assert checks.check_asymptote_slope(text) == []
    assert checks.check_eavesdrop_constant(text, wl.ASYMMETRIC) == []
    assert checks.check_dominance_probability(text, wl.ASYMMETRIC) == []
    rows = checks.parse_csv(text)
    pos = [r for r in rows if r["method"] == "asymptote" and float(r["esr_bits"]) > 0]
    x0, y0 = float(pos[0]["snr_db"]), float(pos[0]["esr_bits"])
    steep = text
    for r in pos[1:]:
        x = float(r["snr_db"])
        steep = replace_value(steep, r["snr_db"], "asymptote",
                              y0 + 1.05 * checks.ASYMPTOTE_SLOPE_PER_DB * (x - x0))
    assert checks.check_asymptote_slope(steep)


def test_bound_nudged_fails_eavesdrop_constant():
    text = run_cli(wl.sweep_argv(wl.TOPOLOGY_1, "30:40:5", ["three-hop"], ["closed-form-lb"], SEED))
    assert checks.check_eavesdrop_constant(text, wl.TOPOLOGY_1) == []
    rows = checks.parse_csv(text)
    nudged = replace_value(text, "35", "closed-form-lb", float(rows[1]["esr_bits"]) + 1e-6)
    assert checks.check_eavesdrop_constant(nudged, wl.TOPOLOGY_1)


def test_one_byte_between_worker_counts_fails():
    argv = wl.sweep_argv(wl.TOPOLOGY_1, "10:15:5", wl.ALL_SCHEMES, ["mc-exact"], SEED, samples=300_000)
    two = run_cli(argv[:-1] + ("2",))
    one = run_cli(argv[:-1] + ("1",))
    assert checks.check_same_bytes(two, one) == []
    i = len(one) // 2
    flipped = one[:i] + ("1" if one[i] != "1" else "2") + one[i + 1:]
    assert checks.check_same_bytes(two, flipped)


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs a git checkout")
def test_results_and_caches_are_ignored():
    for path in ("perfbench/results/set-a.jsonl", "perfbench/__pycache__/checks.cpython-311.pyc"):
        assert subprocess.run(["git", "check-ignore", "-q", path], cwd=ROOT).returncode == 0, path
    for path in ("perfbench/run.py", "BENCHMARK.json"):
        assert subprocess.run(["git", "check-ignore", "-q", path], cwd=ROOT).returncode == 1, path
