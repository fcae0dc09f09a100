"""Run one benchmark workload of relaysec and print its result.

    python3 perfbench/run.py --workload esr-sweep --seed 1 --seconds 16 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  The workload runs in a fresh interpreter of its own
(``child.py``), which times whole passes of the workload's relaysec
commands.  This process measures set-up, checks every output apart from
the program (``checks.py``) and prints, as its last line, one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics.  Lines before it give the SHA-256 of
every CSV the run produced.

Exit codes: 0 with a result line; 1 if the workload could not be run or a
layer expected on it recorded no calls; 2 if the checkout holds no
relaysec source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed for set-up besides the workload process itself.
SETUP_PROBES = 3
#: Fresh interpreters timed with ``-X importtime`` in a traced run.
IMPORT_PROBES = 3
MODULES = ("model", "sinr", "specfun", "analytics", "montecarlo", "cli")
#: Every child is killed once the run has lasted this long.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The workload could not be run to its end."""


def spawn(args, deadline: float) -> tuple[float, str]:
    """Start child.py; return seconds until it printed ``ready`` and the rest of stdout.

    The child is killed at ``deadline`` (a ``time.perf_counter`` value).
    """
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"child {' '.join(args)} exited {code} (first line {first.strip()!r})")
    return ready_s, rest


def import_seconds(deadline: float) -> dict[str, float]:
    """Cumulative import time of each relaysec module, median over fresh interpreters."""
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    code = "import sys; sys.path.insert(0, sys.argv[1]); import relaysec.cli"
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code, str(ROOT / "src")],
                              capture_output=True, text=True,
                              timeout=max(deadline - time.perf_counter(), 0.0))
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr[-500:]}")
        seen = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2].startswith("relaysec."):
                seen[parts[2].removeprefix("relaysec.")] = int(parts[1]) * 1e-6
        for m in MODULES:
            if m not in seen:
                raise BenchError(f"relaysec.{m} missing from the import-time report")
            samples[m].append(seen[m])
    return {f"{m}.import_s": statistics.median(v) for m, v in samples.items()}


def outcome(wl, report) -> tuple[int, int, list[str], dict[str, dict]]:
    """Attempted and failed operations, check failures, and first-pass results."""
    attempted = failed = 0
    errs: list[str] = []
    first: dict[str, dict] = {}
    for results in report["outputs"]:
        for op, res in zip(wl.ops, results):
            attempted += 1
            why = checks.op_failure(op, res)
            if why is not None:
                failed += 1
                print(f"failed operation {op.label}: {why}", file=sys.stderr)
                continue
            if op.label not in first:
                first[op.label] = res
            elif res["stdout"] != first[op.label]["stdout"]:
                errs.append(f"{op.label}: output differs between passes")
    return attempted, failed, errs, first


def median_of(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "relaysec" / "cli.py").is_file():
        print(f"perfbench: no relaysec source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = workloads.workload(args.workload, args.seed)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    deadline = time.perf_counter() + RUN_DEADLINE_S
    try:
        if args.trace:
            values = import_seconds(deadline)
            _, out = spawn([*common, "--mode", "trace", "--seconds", str(args.seconds)], deadline)
        else:
            setup = [spawn([*common, "--mode", "setup"], deadline)[0] for _ in range(SETUP_PROBES)]
            ready_s, out = spawn([*common, "--mode", "measure", "--seconds", str(args.seconds)],
                                 deadline)
            setup.append(ready_s)
        report = json.loads(out.strip().splitlines()[-1])
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, errs, first = outcome(wl, report)
    # A failed operation is counted in ``failed``; the checks judge the rest.
    # The underflow layout has no output worth checking beyond its failure
    # contract.
    for op in wl.ops:
        if op.label in first and not op.contract:
            errs += checks.check_op(args.workload, op, first[op.label]["stdout"], args.seed,
                                    report["extra"])
    for msg in errs:
        print(f"check failed: {msg}", file=sys.stderr)

    csvs = {label: res["stdout"] for label, res in first.items()}
    csvs.update({f"{label}@extra": res["stdout"] for label, res in report["extra"].items()})
    for label, text in csvs.items():
        print(f"csv-sha256 {label} {hashlib.sha256(text.encode()).hexdigest()}")

    passes = report["passes"]
    if args.trace:
        layer_passes = report["layers"]
        for key in layer_passes[0]:
            values[key] = median_of(lp[key] for lp in layer_passes)
        values["trace.overhead_s"] = (median_of(p["wall"] for p in passes if p["traced"])
                                      - median_of(p["wall"] for p in passes if not p["traced"]))
        print(f"trace-bindings {' '.join(report['bindings'])}")
        missing = sorted(layer for layer in wl.expected_layers if values.get(f"{layer}.calls") == 0)
        if missing:
            print(f"perfbench: layers expected on {args.workload} recorded no calls: "
                  f"{', '.join(missing)}", file=sys.stderr)
            return 1
        wanted = spec["per_layer"]
    else:
        values = {
            "job_s": median_of(p["wall"] for p in passes),
            "cpu_s": median_of(p["cpu"] for p in passes),
            "setup_s": median_of(setup),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not errs, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
