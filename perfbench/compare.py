"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

Both files are JSON lines written by series.py.  Runs pair up by workload
and seed.  For each (workload, metric) the table gives each side's median and
quartiles, the share of pairs the change won (ties count for neither side)
and a verdict:

- improved: the change won at least 9 of 10 pairs and its median is better
  than the parent's by more than the parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (per-layer metrics have none: they need 9 of 10 pairs lost
  and a gap wider than the parent's interquartile range);
- unresolved: the parent's own spread is wider than the bound, and not every
  run of the change beats every run of the parent;
- unchanged: otherwise.

A gain does not count when it comes from failing queries, whose times stay in
the samples.  Each workload's failed and attempted queries are printed for
both sides, and where the change fails a larger share of its queries than
the parent, every metric of that workload reads "worse (fails more)".
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from series import load_runs, quartiles


def _index(records) -> tuple[dict, dict]:
    """Metric values by (workload, metric) and seed, and [failed, attempted] by workload."""
    values: dict = {}
    failures: dict = {}
    for rec in records:
        result = rec["result"]
        for name, metric in result["metrics"].items():
            values.setdefault((rec["workload"], name), {})[rec["seed"]] = metric["value"]
        tally = failures.setdefault(rec["workload"], [0, 0])
        tally[0] += result["failed"]
        tally[1] += result["attempted"]
    return values, failures


def verdict(parent, change, pairs, higher, bound) -> tuple[str, int, int]:
    sign = 1 if higher else -1
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    q1, pmed, q3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - pmed)
    iqr = q3 - q1
    if pairs and wins >= 0.9 * len(pairs) and gain > iqr:
        return "improved", wins, len(pairs)
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > iqr:
            return "worse", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    separated = (min(change) > max(parent)) if higher else (max(change) < min(parent))
    if pmed and iqr / abs(pmed) > bound and not separated:
        return "unresolved", wins, len(pairs)
    if -gain > bound * abs(pmed):
        return "worse", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main(paths) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    (parent, parent_failed), (change, change_failed) = (_index(load_runs(p)) for p in paths)
    fails_more = set()
    for workload in sorted(set(parent_failed) & set(change_failed)):
        (pf, pa), (cf, ca) = parent_failed[workload], change_failed[workload]
        if cf / ca > pf / pa:
            fails_more.add(workload)
        print(f"{workload}: failed queries, parent {pf} of {pa}, change {cf} of {ca}")
    print(f"{'workload':<8} {'metric':<52} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>6}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        info = metrics.get(name)
        if info is None:
            continue
        p, c = parent[key], change[key]
        pairs = [(p[s], c[s]) for s in sorted(set(p) & set(c))]
        result, wins, n = verdict(list(p.values()), list(c.values()), pairs,
                                  info["better"] == "higher", info.get("bound"))
        if workload in fails_more:
            result = "worse (fails more)"
        pq1, pmed, pq3 = quartiles(list(p.values()))
        cq1, cmed, cq3 = quartiles(list(c.values()))
        print(f"{workload:<8} {name:<52} {pmed:12.5g} [{pq1:9.5g}, {pq3:9.5g}] "
              f"{cmed:12.5g} [{cq1:9.5g}, {cq3:9.5g}] {wins:>3}/{n:<2}  {result}"
              f" ({info['unit']}, {info['better']} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:3]))
