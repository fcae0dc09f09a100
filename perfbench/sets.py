"""Run a set of benchmark runs and summarise each end-to-end metric.

    python3 perfbench/sets.py --label set-a --seeds 1-10
    python3 perfbench/sets.py --label set-a      # summary only

Runs ``run.py`` once per (workload, seed), one run at a time, with the
run length from BENCHMARK.json.  Result lines are appended to
``perfbench/results/<label>.jsonl`` (ignored by git).  The summary gives,
per workload and metric, the median, the first and third quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to the metric's bound; and the share of failed
operations.  ``--compare other-label`` adds the change of each median
from the other set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(label: str) -> list[dict]:
    path = HERE / "results" / f"{label}.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def summary(records: list[dict], spec: dict) -> dict:
    out = {}
    for name in workloads.WORKLOAD_NAMES:
        recs = [r for r in records if r["workload"] == name and r["trace"] == 0]
        if not recs:
            continue
        row = {"runs": len(recs),
               "failed_share": sorted({r["result"]["failed"] / r["result"]["attempted"] for r in recs}),
               "correct": all(r["result"]["correct"] for r in recs),
               "run_wall_s": max(r["wall_s"] for r in recs)}
        for m in spec["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in recs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            row[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                              "bound": m["bound"]}
        out[name] = row
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=[])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    out_path = HERE / "results" / f"{args.label}.jsonl"
    out_path.parent.mkdir(exist_ok=True)
    for seed in args.seeds:
        for name in workloads.WORKLOAD_NAMES:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            rec = {"workload": name, "seed": seed, "trace": args.trace, "wall_s": wall,
                   "started": time.strftime("%Y-%m-%dT%H:%M:%S"), "result": result}
            with out_path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec) + "\n")
            print(f"{name} seed {seed} {wall:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    this = summary(load(args.label), spec)
    other = summary(load(args.compare), spec) if args.compare else {}
    for name, row in this.items():
        print(f"{name}: runs {row['runs']}, failed share {row['failed_share']}, "
              f"correct {row['correct']}, longest run {row['run_wall_s']:.1f} s")
        for m in spec["end_to_end"]:
            s = row[m["name"]]
            line = (f"  {m['name']:12s} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}"
                    f"  spread {s['spread']:.3f} (bound {s['bound']})")
            if name in other:
                line += f"  median change {s['median'] / other[name][m['name']]['median'] - 1:+.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
