"""The workload process: one fresh interpreter that runs one workload.

It imports relaysec from the checkout's ``src``, runs the workload's
primer commands, prints ``ready`` (the parent times set-up up to that
line), and then, unless ``--mode setup``, times whole passes of the
workload's operations through ``relaysec.cli.main``, runs the workload's
reference commands once, and ends by printing one JSON object with the
timings and every operation's output.

Modes: ``setup`` stops after ``ready``; ``measure`` times untraced
passes; ``trace`` alternates untraced and traced passes, so the tracing
overhead is measured in the same run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: A run times at least this many passes, even past --seconds.
MIN_PASSES = 2


def import_relaysec(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    from relaysec import cli

    if Path(cli.__file__).resolve().parent != (src / "relaysec").resolve():
        raise ImportError(f"relaysec imported from {cli.__file__}, not from {src}")
    return cli


def run_op(cli, argv) -> dict:
    """One relaysec command; its exit code, outputs and any escaped exception."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as e:  # a traceback is an outcome the benchmark records
            exc = "".join(traceback.format_exception_only(type(e), e)).strip()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "exception": exc}


def peak_rss_mb() -> float:
    """High-water resident set of this process image (VmHWM), in MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def timed_pass(cli, wl) -> tuple[float, float, list[dict]]:
    w0, c0 = time.perf_counter(), time.process_time()
    results = [run_op(cli, op.argv) for op in wl.ops]
    return time.perf_counter() - w0, time.process_time() - c0, results


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = p.parse_args(argv)

    cli = import_relaysec(Path(args.root))
    wl = workloads.workload(args.workload, args.seed)
    for primer in wl.primer:
        r = run_op(cli, primer)
        if r["code"] != 0 or r["exception"]:
            print(f"primer {primer} failed: {r}", file=sys.stderr)
            return 1
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    passes, outputs, layer_passes = [], [], []
    tracer = None
    if args.mode == "trace":
        import layers
        tracer = layers.Tracer()
    main_thread = threading.get_ident()
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            bindings = tracer.bindings()
        try:
            wall, cpu, results = timed_pass(cli, wl)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"wall": wall, "cpu": cpu, "traced": traced})
        outputs.append(results)
        if traced:
            layer_passes.append(layers.pass_metrics(tracer.take(), wall, main_thread))
        elapsed = time.perf_counter() - t_start
        step = statistics.median(p["wall"] for p in passes)
        if tracer is not None:
            step *= 2  # traced runs stop on a whole untraced/traced pair
        done = len(passes) >= MIN_PASSES and (tracer is None or len(passes) % 2 == 0)
        if done and elapsed + step > args.seconds:
            break
    rss = peak_rss_mb()

    extra = {op.label: run_op(cli, op.argv) for op in wl.reference_ops}

    report = {"passes": passes, "outputs": outputs, "peak_rss_mb": rss, "extra": extra}
    if tracer is not None:
        report["layers"] = layer_passes
        report["bindings"] = bindings
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
