"""ctkit benchmark: one workload, one seed, closed loop from a single client.

    python3 perfbench/run.py --workload sweep|decide|measure --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

Run from the root of a ctkit checkout: the library is imported from ./src
and the shipped model documents are read from ./fixtures.  The run repeats
whole rounds of checked queries until --seconds have passed and the faster
half of every query kind's samples holds at least 100 queries, so every run
holds the same query mix.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  A human-readable report goes to standard error.

See perfbench/DESIGN.md for what each workload stresses and why.
"""
from __future__ import annotations

import ctypes
import os

# One BLAS thread (at most nproc) keeps dense linear algebra off the other
# core and makes timings repeatable; children inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# Blocks of 1 MiB and more (every large numpy array) get their own mapping
# and go back to the system when freed, so peak_rss_mb counts live arrays.
# glibc's default raises this threshold each time a large block is freed;
# then the peak also counts heap fragmentation, and the same measure round
# read 466 MB or 507 MB from run to run.
M_MMAP_THRESHOLD = -3
_libc = ctypes.CDLL(None)
if hasattr(_libc, "mallopt"):
    _libc.mallopt(M_MMAP_THRESHOLD, 1 << 20)

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from yardstick import NOMINAL_S, yardstick

MIN_QUERIES = 100   # kept samples; p90 then has at least ten beyond it
SETUP_REPEATS = 7

SETUP_CHILD = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ctkit
for path in sys.argv[2:]:
    ctkit.parse_model_spec(path)
print(time.perf_counter() - started)
"""


class Phase:
    """Timed queries of consecutive rounds.

    Timing metrics use normalised query times: each round's times divided by
    the round's speed factor from the yardstick (see yardstick.py).  Of
    those, they keep the faster half of each query kind's samples.  Every
    round holds the same queries, so the kept samples keep the round's mix,
    and the dropped ones are those that bursts of other tenants' load
    slowed down within a round.
    """

    def __init__(self):
        self.samples: list[tuple[str, float, bool, int]] = []  # kind, seconds, passed, round
        self.round_seconds: list[float] = []
        self.round_speed: list[float] = []
        self.statuses: Counter = Counter()

    @property
    def rounds(self) -> int:
        return len(self.round_seconds)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(not ok for _, _, ok, _ in self.samples)

    def kinds(self) -> Counter:
        return Counter(kind for kind, _, _, _ in self.samples)

    def split(self) -> tuple[list, list]:
        """Normalised samples (kind, seconds, passed), split into the faster
        ceil(rounds/2) rounds' worth of every kind and the rest."""
        by_kind: dict = {}
        for kind, seconds, ok, r in self.samples:
            by_kind.setdefault(kind, []).append((kind, seconds / self.round_speed[r], ok))
        half = (self.rounds + 1) // 2
        kept, dropped = [], []
        for group in by_kind.values():
            group.sort(key=lambda sample: sample[1])
            cut = len(group) * half // self.rounds
            kept += group[:cut]
            dropped += group[cut:]
        return kept, dropped

    def faster_half(self) -> list[tuple[str, float, bool]]:
        return self.split()[0]

    def latencies(self) -> list[float]:
        return [t for _, t, _ in self.faster_half()]

    def qps(self) -> float:
        kept = self.faster_half()
        return sum(ok for _, _, ok in kept) / sum(t for _, t, _ in kept)


def run_query(query, phase, tracer, query_id) -> float:
    if tracer is not None:
        tracer.query = query_id
        tracer.active = True
    error = None
    started = perf_counter()
    try:
        result = query.call()
    except Exception as exc:  # a raising query is a failed query, not a crash
        error = exc
    elapsed = perf_counter() - started
    if tracer is not None:
        tracer.active = False
    ok = False
    if error is None:
        try:
            ok = bool(query.check(result))
        except Exception as exc:
            error = exc
    phase.samples.append((query.kind, elapsed, ok, phase.rounds))
    if ok and query.verdicts is not None:
        phase.statuses.update(query.verdicts(result))
    if not ok and phase.failed <= 5:
        detail = f"{type(error).__name__}: {error}" if error else "wrong output"
        print(f"FAILED {query.kind}: {detail}", file=sys.stderr)
    return elapsed


def run_rounds(make_round, rng_for, rounds, seconds, ctx, tracer=None) -> Phase:
    """Whole rounds until `seconds` have passed and the faster half holds MIN_QUERIES."""
    phase = Phase()
    started = perf_counter()
    while (phase.rounds < rounds or phase.attempted < 2 * MIN_QUERIES
           or perf_counter() - started < seconds):
        run_round(phase, make_round(rng_for(phase.rounds), ctx), tracer)
    return phase


def run_round(phase, queries, tracer=None) -> None:
    gc.collect()
    spent = yard = 0.0
    for query in queries:
        yard += yardstick()
        spent += run_query(query, phase, tracer, phase.attempted)
    phase.round_seconds.append(spent)
    phase.round_speed.append(yard / len(queries) / NOMINAL_S)


def setup_seconds(ctx) -> float:
    """Median normalised time, in fresh interpreters, to import ctkit and parse
    the documents; the yardstick runs in between the interpreters."""
    times, yards = [], []
    for _ in range(SETUP_REPEATS):
        yards.append(statistics.median(yardstick() for _ in range(25)))
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(ctx.root / "src"), *sorted(ctx.documents)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ctx.root,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times) / (statistics.median(yards) / NOMINAL_S)


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "clients": 1,
        "processes": 1,
    }


def end_to_end(phase, setup_s) -> dict:
    lat = phase.latencies()
    return {
        "throughput_qps": (phase.qps(), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def trimmed(phase) -> dict:
    """What the faster half leaves out of the timing metrics: the dropped
    samples and the mean normalised time of the dropped and of all samples.
    A slowdown confined to the slow half of a kind shows here."""
    kept, dropped = phase.split()
    return {
        "trim.dropped_samples": (len(dropped), "count"),
        "trim.dropped_mean_ms": (1e3 * statistics.fmean(t for _, t, _ in dropped), "ms"),
        "trim.untrimmed_mean_ms": (1e3 * statistics.fmean(t for _, t, _ in kept + dropped), "ms"),
    }


def per_layer(tracer, traced, untraced, unknown_frac, defects) -> dict:
    """Per-round counts and self times of the traced rounds, plus derived ratios,
    and the trimmed samples of the untraced rounds."""
    from tracing import ORACLE

    rounds = traced.rounds
    calls, self_s, incl_s, span_self = tracer.reduce()
    out = {}
    for code, name in enumerate(tracer.names):
        out[f"{name}.calls"] = (calls[code] / rounds, "1/round")
        out[f"{name}.self_s"] = (self_s[code] / rounds, "s/round")
    by_name = {name: code for code, name in enumerate(tracer.names)}
    dw = by_name["ensembles.deviant_weight"]
    for kind in ("exact", "float"):
        spent = sum(span_self[i] for i, k in tracer.deviant_kind.items() if k == kind)
        out[f"ensembles.deviant_weight.{kind}_s"] = (spent / rounds, "s/round")
    out["ensembles.deviant_weight.compositions"] = (tracer.compositions / rounds, "1/round")
    out["ensembles.deviant_weight.us_per_composition"] = (
        1e6 * self_s[dw] / tracer.compositions if tracer.compositions else 0.0, "us")
    out["ensembles.build_counting_constructor.product_states"] = (
        tracer.product_states / rounds, "1/round")
    ut = by_name["quantum.unitary_task_feasible"]
    decided = sum(n for status, n in tracer.oracle_status.items() if status != "unknown")
    out["quantum.unitary_task_feasible.choice_space"] = (tracer.choice_space / rounds, "1/round")
    out["quantum.unitary_task_feasible.us_per_choice"] = (
        1e6 * incl_s[ut] / tracer.choice_space if tracer.choice_space else 0.0, "us")
    out["quantum.unitary_task_feasible.decided_ratio"] = (
        decided / calls[ut] if calls[ut] else 1.0, "ratio")
    out["tolerance.tol.calls"] = (tracer.tol_calls / rounds, "1/round")
    out["verdicts.unknown_frac"] = (unknown_frac, "ratio")
    total = sum(traced.round_seconds)
    out["trace.query_s"] = (total / rounds, "s/round")
    out["trace.oracle_share"] = (sum(self_s[by_name[n]] for n in ORACLE) / total, "ratio")
    out["trace.deviant_weight_share"] = (self_s[dw] / total, "ratio")
    out["trace.overhead_frac"] = (1.0 - traced.qps() / untraced.qps(), "ratio")
    for name, present in defects.items():
        out[f"defect.{name}"] = (present, "count")
    out.update(trimmed(untraced))
    return out


def report(workload, seed, timed, metrics, env, extra) -> None:
    rounds = timed.rounds
    lines = [f"workload {workload} seed {seed}: {rounds} rounds, {timed.attempted} queries, "
             f"{len(timed.faster_half())} in the faster half of each kind",
             f"environment: {json.dumps(env)}"]
    per_round = {kind: n // rounds for kind, n in sorted(timed.kinds().items())}
    lines.append(f"queries per round ({sum(per_round.values())}): {json.dumps(per_round)}")
    lines.append("query seconds per round: " + " ".join(f"{t:.3f}" for t in timed.round_seconds))
    lines.append("speed factor per round: " + " ".join(f"{f:.2f}" for f in timed.round_speed))
    for key, value in extra.items():
        lines.append(f"{key}: {value}")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<58} {value:14.6g} {unit}")
    print("\n".join(lines), file=sys.stderr)


def run(args) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "ctkit" / "__init__.py").is_file() or not (root / "fixtures").is_dir():
        print("error: run from the root of a ctkit checkout (needs src/ctkit and fixtures/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ctkit

    if not Path(ctkit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported ctkit from {ctkit.__file__}, not from ./src", file=sys.stderr)
        return 2
    import numpy as np

    import workloads
    from tracing import Tracer

    make_round, prepare = workloads.WORKLOADS[args.workload]
    salt = sorted(workloads.WORKLOADS).index(args.workload)

    def rng_from(offset):
        return lambda i: np.random.default_rng([args.seed, salt, offset + i])

    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        ctx = workloads.Context(root=root, work=work, documents=set(), fixtures={})
        if prepare is not None:
            prepare(ctx)
        # No warm-up round: first calls pay lazy set-up (LAPACK, argparse),
        # and the faster half of each kind's samples leaves them out.
        if args.trace:
            untraced = run_rounds(make_round, rng_from(0), 2, args.seconds / 3, ctx)
            tracer = Tracer()
            tracer.install()
            traced = run_rounds(make_round, rng_from(untraced.rounds), 2,
                                args.seconds - args.seconds / 3, ctx, tracer)
            phases = [untraced, traced]
        else:
            phases = [run_rounds(make_round, rng_from(0), 2, args.seconds, ctx)]
        setup_s = setup_seconds(ctx)
        defects = {"float_overflow": workloads.float_overflow_probe(),
                   "conjugate_projector": workloads.conjugate_projector_probe()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    statuses = sum((p.statuses for p in phases), Counter())
    unknown_frac = statuses["unknown"] / sum(statuses.values()) if statuses else 0.0
    if args.trace:
        metrics = per_layer(tracer, traced, untraced, unknown_frac, defects)
    else:
        metrics = end_to_end(phases[-1], setup_s)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    extra = {
        "failed_frac": failed / attempted,
        "left out by the faster half (untraced rounds)": json.dumps(
            {name: round(value, 6) for name, (value, _) in trimmed(phases[0]).items()}),
        "unknown_frac (top-level possibility verdicts)": f"{unknown_frac:.4f} of {dict(statuses)}",
        "known defects present (1) or fixed (0)": json.dumps(defects),
    }
    report(args.workload, args.seed, phases[-1], metrics, environment(), extra)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep", "decide", "measure"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two JSON-lines files written by series.py")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(args.compare)
    missing = [f"--{name}" for name in ("workload", "seed", "seconds", "trace")
               if getattr(args, name) is None]
    if missing:
        parser.error(f"{', '.join(missing)} required unless --compare is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
