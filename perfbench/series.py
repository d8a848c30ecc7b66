"""Run the benchmark once per seed on each workload and summarise the spread.

    python3 perfbench/series.py --runs 10 --out runs.jsonl [--trace 0|1]

Run from the root of a ctkit checkout.  Each run is a separate
`perfbench/run.py` process with BENCHMARK.json's run_seconds, on seeds
1..--runs; every workload of BENCHMARK.json takes its turn seed by seed, so
a slow drift of the machine reaches all of them alike.  Every run's result line is appended to --out as
{"workload", "seed", "trace", "result"}, the input `run.py --compare` takes.
The summary prints, per workload and metric, the median and quartiles, the
spread (q3 - q1) / median, the metric's bound, and whether the spread is
below a third of the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def load_runs(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def bounds(spec) -> dict:
    return {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}


def summarise(records, spec) -> None:
    limits = bounds(spec)
    groups: dict = {}
    for rec in records:
        for name, metric in rec["result"]["metrics"].items():
            key = (rec["workload"], name, metric["unit"])
            groups.setdefault(key, []).append(metric["value"])
    print(f"{'workload':<8} {'metric':<52} {'unit':>8} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for (workload, name, unit), values in sorted(groups.items()):
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = limits.get(name)
        flag = "" if bound is None else ("steady" if spread < bound / 3 else
                                         "within" if spread <= bound else "WIDE")
        print(f"{workload:<8} {name:<52} {unit:>8} {len(values):>3} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f} {'' if bound is None else bound:>6} {flag}")
    failed = sum(r["result"]["failed"] for r in records)
    attempted = sum(r["result"]["attempted"] for r in records)
    wrong = sum(not r["result"]["correct"] for r in records)
    print(f"runs {len(records)}, queries attempted {attempted}, failed {failed}, "
          f"runs not correct {wrong}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for seed in range(1, args.runs + 1):
        for workload in (w["name"] for w in spec["workloads"]):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"run {workload} seed {seed} exited {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "trace": args.trace, "result": result}) + "\n")
            print(f"{workload} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr)
    summarise(load_runs(args.out), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
