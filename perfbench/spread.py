#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each end-to-end metric per
workload: median, quartiles and spread, with units.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Each run is one fresh `python3 perfbench/run.py` process, one after another.
The spread is (q3 - q1) / median with statistics.quantiles(values, n=4); it
is marked "ok" when below a third of the metric's bound in BENCHMARK.json.
setup_s is the exception: only its median is compared between sets of runs.
Every run's result line is kept in perfbench/out/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, seconds):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    (HERE / "out").mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result = run_once(bench, workload, seed, args.seconds)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        (HERE / "out" / f"spread-{workload}.json").write_text(json.dumps(runs, indent=1) + "\n")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med
            if metric["name"] == "setup_s":
                verdict = "(spread not gated)"  # only its median is compared
            else:
                verdict = "ok" if spread < metric["bound"] / 3 else "WIDE"
            print(f"{workload:22} {metric['name']:12} median {med:.6g} {metric['unit']}"
                  f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
                  f"  bound {metric['bound']}  {verdict}", flush=True)


if __name__ == "__main__":
    main()
