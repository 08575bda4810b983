"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload lstm_chain --seeds 1-10 [--json OUT]

Runs ``run.py`` once per seed, one after another, and prints for each
end-to-end metric the median, the quartiles (``statistics.quantiles(...,
n=4)``) and the spread — the interquartile distance as a share of the
median — next to the metric's bound from ``BENCHMARK.json``.  A spread
under a third of its bound is marked ``ok``.  ``--json`` also writes every
run's last line and the summary, e.g. to record a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--json", default=None, help="write runs and summary here")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if lines else {}
        info = json.loads(lines[-2])["run"] if len(lines) > 1 else {}
        runs.append({"seed": seed, "exit": proc.returncode, "result": last, "info": info})
        print(f"seed {seed}: exit {proc.returncode} correct {last.get('correct')} "
              f"failed {last.get('failed')} fingerprint {info.get('fingerprint')} "
              f"errors {info.get('errors')}", flush=True)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)

    group = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[group]}
    summary = {}
    ok_runs = [r for r in runs if r["exit"] == 0]
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in ok_runs]
        if len(values) < 2:
            continue
        stats = summarise(values)
        summary[name] = stats
        verdict = ""
        if bound is not None:
            verdict = "ok" if stats["spread"] < bound / 3 else "WIDE"
            verdict = f"bound {bound:<5} {verdict}"
        print(f"{name:28s} median {stats['median']:<12.5g} q1 {stats['q1']:<12.5g} "
              f"q3 {stats['q3']:<12.5g} spread {stats['spread']:.4f} {verdict}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs,
                       "summary": summary}, fh, indent=1)
    return 0 if len(ok_runs) == len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
