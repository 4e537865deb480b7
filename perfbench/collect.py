"""Run the benchmark over several seeds and summarise each metric.

Usage, from the repository root:

    python3 perfbench/collect.py --workloads ccdf-sweep,ser-baseline \
        --seeds 1-10 [--trace 0|1] [--out summary.json]

For every workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  An end-to-end spread
above a third of the metric's bound in BENCHMARK.json is flagged.
The run length is BENCHMARK.json's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"trace": args.trace, "run_seconds": spec["run_seconds"],
               "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            details = json.loads(lines[-2])["details"] if len(lines) > 1 else {}
            runs.append({"seed": seed, "result": result, "details": details})
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect "
                      f"{details.get('problems')}", file=sys.stderr)
                status = 1
        names = list(runs[0]["result"]["metrics"])
        metrics = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = summarise(values)
            metrics[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound and metrics[name]["spread"] > bound / 3:
                flag = f"  spread above bound/3 ({bound / 3:.3f})"
            print(f"{workload:15s} {name:42s} median {metrics[name]['median']:14.6g}"
                  f" spread {metrics[name]['spread']:.4f}{flag}")
        summary["workloads"][workload] = {
            "metrics": metrics,
            "seeds": [r["seed"] for r in runs],
            "sha256": {str(r["seed"]): next(iter(r["details"]["sha256"].values()))
                       for r in runs if r["details"].get("sha256")},
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "host": runs[0]["details"].get("host"),
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n",
                                  encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
