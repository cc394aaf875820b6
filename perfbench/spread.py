#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload validate-warm --seeds 1-10 --seconds 20
    python3 perfbench/spread.py --all --seeds 1-10 --seconds 20 --out perfbench/baseline.json

For every metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread, (Q3 - Q1) / median, next to a third of the metric's bound
from BENCHMARK.json. ``--out`` writes medians and quartiles per workload and
metric, with every run's values and environment line.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--all", action="store_true", help="every workload in BENCHMARK.json")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]] if args.all else args.workload
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": seconds, "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            env = json.loads(lines[-2][len("env "):]) if len(lines) > 1 else None
            runs.append({"seed": seed, "env": env, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            share = (q3 - q1) / median if median else float("nan")
            summary[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                             "spread": share}
            limit = bounds.get(name)
            verdict = ""
            if limit is not None and name != "setup_s":
                verdict = "ok" if share < limit / 3 else "WIDE"
            print(f"  {name:32s} median {median:14.6g} {first['unit']:6s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {share:7.2%} "
                  f"{'' if limit is None else f'bound/3 {limit / 3:6.2%}'} {verdict}",
                  flush=True)
        report["workloads"][workload] = {"metrics": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
