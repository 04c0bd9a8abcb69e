"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workload long_record --seeds 1-10

Runs are made one after another from the repository root, untraced, each
measuring for ``run_seconds`` of BENCHMARK.json.  For every metric
it prints the median over the runs, the quartiles as
``statistics.quantiles(values, n=4)`` gives them and their distance as a
share of the median, plus the failed share of the operations.  It then
prints the same for the command metrics and for each operation's time, both
taken from the report line each run prints before its result.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    results, reports = [], []
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        results.append(result)
        reports.append(json.loads(lines[-2]))
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares: {sorted(shares)}")
    for name, first in results[0]["metrics"].items():
        summarize(name, first["unit"], [r["metrics"][name]["value"] for r in results])
    summarize("run_s (raw median pass time)", "s", [r["run_s"] for r in reports])
    summarize("setup_s (raw median set-up time)", "s",
              [statistics.median(r["setup_raw_s"]) for r in reports])
    print("command metrics (untraced passes):")
    for name, first in reports[0]["commands"].items():
        summarize(name, first["unit"], [r["commands"][name]["value"] for r in reports])
    print("operation times (median over each run's passes):")
    for label in reports[0]["operation_s"]:
        summarize(label, "s", [statistics.median(r["operation_s"][label]) for r in reports])
    return 0


def summarize(name: str, unit: str, values: list[float]) -> None:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("nan")
    print(f"  {name[:60]:60s} median {median:10.4g} {unit:8s} "
          f"q1 {q1:10.4g}  q3 {q3:10.4g}  spread {spread:7.2%}")


if __name__ == "__main__":
    sys.exit(main())
