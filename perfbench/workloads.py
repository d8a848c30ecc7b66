"""The three workloads as seeded rounds of checked queries.

A query is one top-level call: a CLI invocation run in-process through
`ctkit.cli.main(argv)` with its output captured, or one library entry point.
Every round of a workload holds the same query kinds in the same numbers, in
the same order, with the same sizes; the seed and the round index change
only the content (states, unitaries, amplitudes, labels).  Sizes are chosen
so the cost of a query does not depend on its random content: exact
probabilities use a prime denominator so every p = a/q stays unreduced, the
oracle tasks either scan their whole choice space or stop at the first
choice, and the counting constructors use the standard product basis.

Functions are always looked up on the `ctkit` package at call time, so the
traced run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import ctkit
import ctkit.cli

from reference import exact_deviant, float_deviant, floats_agree

HEADER = "N,epsilon,deviant_weight_exact,deviant_weight_float"
RENDER_BOUND = 10 ** 18  # natural denominators up to here print unreduced

# README examples, byte for byte.
PINNED_CONVERGE_ARGV = ["converge", "--amplitudes", "0.70710678,0.70710678",
                        "--N-sweep", "10", "--epsilon", "0.02"]
PINNED_CONVERGE = (0, f"{HEADER}\n10,0.02,352/1024,0.34375\n")
PINNED_VALUE_ARGV = ["value", "--weights", "1/3,2/3", "--payoffs", "10,-2"]
PINNED_VALUE = (0, "2\n")
PINNED_QUBIT = (0, "model: quantum substrate 'qubit' (dimension 2)\n"
                   "variable X: information observable\n"
                   "variable Y: information observable\n"
                   "superinformation: true\n")

FIXTURE_CHECK_MODEL = {
    "qubit.json": PINNED_QUBIT,
    "classical_bit.json": (1, "model: classical substrate 'bit' (2 labels)\n"
                              "variable X: information observable\n"
                              "variable Y: information observable\n"
                              "task flip: possible\n"
                              "superinformation: false\n"),
    "traffic_light.json": (1, "model: classical substrate 'traffic-light' (4 labels)\n"
                              "variable X: information observable\n"
                              "variable Y: information observable\n"
                              "task reset: possible\n"
                              "task collapse: impossible\n"
                              "superinformation: false\n"),
    "qubit_degenerate.json": (1, "model: quantum substrate 'qubit-degenerate' (dimension 2)\n"
                                 "variable X: information observable\n"
                                 "variable Y: information observable\n"
                                 "superinformation: false\n"),
}
SUPPORT_PASS = (0, "T1: pass\nR1: pass\nR2: pass\nR3: pass\nR4: pass\n"
                   "decision-support: pass\n")
SUPPORT_CLASSICAL = (1, "decision-support: fail\nreason: no complementary observables\n")


@dataclass
class Query:
    """One timed call plus the check of its result."""

    kind: str  # one entry point at one size: queries of a kind cost alike
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    # top-level possibility verdicts the result carries, for unknown_frac
    verdicts: Callable[[Any], list] | None = None


@dataclass
class Context:
    """Per-run state shared by the rounds of one workload."""

    root: Path
    work: Path
    documents: set  # model documents the workload parses; setup_s parses them too
    fixtures: dict  # parsed fixture documents, by file name


# ---------------------------------------------------------------------------
# Helpers


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctkit.cli.main(list(argv))
    return code, out.getvalue()


def cli_query(kind, argv, check, verdicts=None) -> Query:
    argv = [str(a) for a in argv]
    return Query(kind, lambda: run_cli(argv), check, verdicts)


def expect(output):
    return lambda result: result == output


def task_lines(result) -> list:
    """Statuses of the `task NAME: STATUS` lines of a check-model report."""
    return [line.rsplit(": ", 1)[1] for line in result[1].splitlines()
            if line.startswith("task ")]


def random_vector(rng, d, support=None) -> np.ndarray:
    vec = np.zeros(d, dtype=complex)
    for k in (range(d) if support is None else support):
        vec[k] = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
    return vec / np.linalg.norm(vec)


def random_unitary(rng, d) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_rotation(rng, d) -> np.ndarray:
    """Random real orthogonal matrix.

    Bases of measured or restricted variables stay real: `attribute_projector`
    projects onto the complex conjugate of a span, so a complex basis gets
    wrong partitions (a known defect, reported by `conjugate_projector_probe`
    instead of failing queries).  States measured against them stay complex.
    """
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def spread_states(rng, d, k, low=0.05, high=0.95) -> list:
    """k random unit vectors whose pairwise overlaps lie strictly inside (low, high)."""
    while True:
        vecs = [random_vector(rng, d) for _ in range(k)]
        g = np.abs(np.array(vecs).conj() @ np.array(vecs).T)
        off = g[~np.eye(k, dtype=bool)]
        if off.min() > low and off.max() < high:
            return vecs


def prime_composition(rng, q, d, least) -> list:
    """d positive integers summing to the prime q, each at least `least`."""
    while True:
        cuts = np.sort(rng.choice(np.arange(1, q), size=d - 1, replace=False))
        parts = [int(v) for v in np.diff([0, *cuts, q])]
        if min(parts) >= least:
            return parts


def pure(vec, dims=()) -> "ctkit.PureState":
    return ctkit.PureState(np.asarray(vec, dtype=complex), dims)


def single(substrate, state):
    return ctkit.extensional_attribute(substrate, [state])


def basis_variable(substrate, labels):
    d = substrate.dim
    return ctkit.variable(substrate, [
        (label, single(substrate, ctkit.basis_state(d, k))) for k, label in enumerate(labels)
    ])


def as_pairs(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


# ---------------------------------------------------------------------------
# sweep: convergence tables


def _check_table(result, ns, eps_text, exact_probs, float_probs) -> bool:
    code, text = result
    lines = text.splitlines()
    if code != 0 or lines[0] != HEADER or len(lines) != len(ns) + 1:
        return False
    eps = Fraction(eps_text)
    for n, line in zip(ns, lines[1:]):
        n_text, e_text, exact_text, float_text = line.split(",")
        if n_text != str(n) or e_text != eps_text:
            return False
        if exact_probs is not None:
            ref, natural = exact_deviant(exact_probs, n, eps)
            if Fraction(exact_text) != ref or float(float_text) != float(ref):
                return False
            if natural <= RENDER_BOUND and exact_text.split("/")[-1] != str(natural):
                return False
        elif exact_text or not floats_agree(float(float_text),
                                           float_deviant(float_probs, n, float(eps))):
            return False
    return True


def _converge_exact(rng, d, q, least, ns, eps_text) -> Query:
    parts = ([int(rng.integers(least, q - least + 1))] if d == 2
             else prime_composition(rng, q, d, least))
    if d == 2:
        parts.append(q - parts[0])
    tokens = ",".join(f"sqrt({a}/{q})" for a in parts)
    probs = [Fraction(a, q) for a in parts]
    argv = ["converge", "--amplitudes", tokens, "--N-sweep", ",".join(map(str, ns)),
            "--epsilon", eps_text]
    return cli_query(f"converge.exact.d{d}.N{ns[-1]}", argv,
                     lambda r: _check_table(r, ns, eps_text, probs, None))


def _converge_float(rng, d, ns, eps_text) -> Query:
    # 8-digit decimals plus one repr'd square root: the squared amplitudes have
    # denominators far past the exact bound, so the CLI takes the float path
    if d == 2:
        heads = [f"{rng.uniform(0.45, 0.85):.8f}"]
    else:
        while True:
            heads = [f"{rng.uniform(0.4, 0.75):.8f}" for _ in range(d - 1)]
            rest = 1.0 - sum(float(h) ** 2 for h in heads)
            if rest > 0.15:
                break
    last = math.sqrt(1.0 - sum(float(h) ** 2 for h in heads))
    tokens = heads + [repr(last)]
    squares = [Fraction(t) ** 2 for t in tokens]
    total = sum(squares)
    probs = [float(s / total) for s in squares]
    argv = ["converge", "--amplitudes", ",".join(tokens), "--N-sweep",
            ",".join(map(str, ns)), "--epsilon", eps_text]
    return cli_query(f"converge.float.d{d}.N{ns[-1]}", argv,
                     lambda r: _check_table(r, ns, eps_text, None, probs))


def _e1e2(rng, d, q, least, ns, eps_text) -> Query:
    parts = prime_composition(rng, q, d, least)
    probs = [Fraction(a, q) for a in parts]
    phases = np.exp(2j * np.pi * rng.uniform(size=d))
    z = pure(np.sqrt(np.array(parts, dtype=float) / q) * phases)
    x = basis_variable(ctkit.quantum_substrate(f"e1e2-{d}", d), list(range(d)))
    eps = Fraction(eps_text)

    def check(report):
        refs = [exact_deviant(probs, n, eps)[0] for n in ns]
        rows = report.rows
        if [r.n for r in rows] != list(ns) or any(r.exact != ref for r, ref in zip(rows, refs)):
            return False
        if any(r.approx != float(r.exact) for r in rows):
            return False
        monotone = all(b <= a for a, b in zip(refs, refs[1:]))
        weights = report.partition.as_dict()
        return (report.monotone == monotone
                and report.final_ok == (float(refs[-1]) < 0.005)
                and all(abs(float(weights[k]) - float(p)) < 1e-9 for k, p in enumerate(probs)))

    return Query(f"verify_E1_E2.d{d}.N{ns[-1]}", lambda: ctkit.verify_E1_E2(z, x, ns, eps), check)


def sweep_round(rng, ctx) -> list:
    """Many short tables, as users run them, and a few long ones.

    The float d=2 sweep stops at N=1000: past N=1030 the float path
    overflows (probed by float_overflow_probe, not failed here).
    """
    qs = [cli_query("converge.pinned", PINNED_CONVERGE_ARGV, expect(PINNED_CONVERGE))]
    for ns in ((10,), (20,), (10, 20, 50), (25, 50, 75), (30, 60, 90), (100,), (120,),
               (100, 200), (150,), (300,), (500,), (1000,), (2000,)):
        qs.append(_converge_exact(rng, 2, 17, 5, ns, "0.02"))
    for ns in ((10,), (15, 30), (20, 40), (60,), (90,), (120,)):
        qs.append(_converge_exact(rng, 3, 13, 2, ns, "1/40"))
    for ns in ((5, 10), (10, 15), (20,), (30,)):
        qs.append(_converge_exact(rng, 4, 11, 2, ns, "1/30"))
    for ns in ((10, 20), (50,), (50, 100, 200), (150,), (500,), (800,), (1000,)):
        qs.append(_converge_float(rng, 2, ns, "0.02"))
    for ns in ((20,), (30, 60), (40, 80), (120,), (160,)):
        qs.append(_converge_float(rng, 3, ns, "1/40"))
    qs.append(_e1e2(rng, 2, 17, 5, (10, 20, 40), "1/50"))
    qs.append(_e1e2(rng, 2, 17, 5, (10, 50, 100, 200), "1/50"))
    qs.append(_e1e2(rng, 3, 13, 2, (5, 10, 20), "1/40"))
    qs.append(_e1e2(rng, 3, 13, 2, (10, 20, 40, 60), "1/40"))
    qs.append(_e1e2(rng, 4, 11, 2, (8, 12, 16), "1/30"))
    return qs


# ---------------------------------------------------------------------------
# decide: possibility and predicates


def _write(ctx, name, doc) -> str:
    path = ctx.work / name
    path.write_text(json.dumps(doc))
    ctx.documents.add(str(path))
    return str(path)


def _fourier(d) -> np.ndarray:
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * k / d) / np.sqrt(d)


def _quantum_doc(rng, ctx, d) -> tuple[str, int]:
    """Basis X and its Fourier partner Y, turned by a random rotation.

    X and Y are mutually unbiased information observables, so the pair is
    superinformation.  Declared tasks: a cyclic shift of X (possible), two X
    states onto one without side effects (impossible) and with them
    (possible).  State `s` spreads over `support` members of X.
    """
    v = random_rotation(rng, d)
    xs, ys = v, v @ _fourier(d)
    support = 2 + (d % 2)
    s = v @ random_vector(rng, d, support=rng.choice(d, size=support, replace=False))
    states = {f"x{k}": as_pairs(xs[:, k]) for k in range(d)}
    states.update({f"y{k}": as_pairs(ys[:, k]) for k in range(d)})
    states["s"] = as_pairs(s)
    attributes = {f"a{name}": {"kind": "set", "states": [name]} for name in states}
    doc = {
        "kind": "quantum", "id": f"gen-q{d}", "dimension": d, "states": states,
        "attributes": attributes,
        "variables": {"X": [[k, f"ax{k}"] for k in range(d)],
                      "Y": [[k, f"ay{k}"] for k in range(d)]},
        "tasks": {
            "shift": {"pairs": [[f"ax{k}", f"ax{(k + 1) % d}"] for k in range(d)]},
            "merge": {"pairs": [["ax0", "ax0"], ["ax1", "ax0"]]},
            "erase": {"side_effects": True, "pairs": [["ax0", "ax0"], ["ax1", "ax0"]]},
        },
    }
    return _write(ctx, f"quantum{d}.json", doc), support


def _quantum_report(d) -> tuple:
    return (0, f"model: quantum substrate 'gen-q{d}' (dimension {d})\n"
               "variable X: information observable\n"
               "variable Y: information observable\n"
               "task shift: possible\n"
               "task merge: impossible\n"
               "task erase: possible\n"
               "superinformation: true\n")


def _classical_doc(rng, ctx, m) -> str:
    labels = [f"L{int(i)}" for i in rng.permutation(m)]
    h = m // 2
    attributes = {f"a{i}": {"kind": "set", "labels": [label]} for i, label in enumerate(labels)}
    attributes["xs"] = {"kind": "set", "labels": labels[:h]}
    doc = {
        "kind": "classical", "id": f"gen-c{m}", "labels": labels, "attributes": attributes,
        "variables": {"X": [[i, f"a{i}"] for i in range(h)],
                      "Y": [[i, f"a{i}"] for i in range(h, m)]},
        "tasks": {
            "cycle": {"pairs": [[f"a{i}", f"a{(i + 1) % h}"] for i in range(h)]},
            "collapse": {"pairs": [["a0", "a0"], ["a1", "a0"]]},
            "reset": {"side_effects": True, "pairs": [["xs", "a0"]]},
        },
    }
    return _write(ctx, f"classical{m}.json", doc)


def _classical_report(m) -> tuple:
    return (1, f"model: classical substrate 'gen-c{m}' ({m} labels)\n"
               "variable X: information observable\n"
               "variable Y: information observable\n"
               "task cycle: possible\n"
               "task collapse: impossible\n"
               "task reset: possible\n"
               "superinformation: false\n")


def _support_doc(rng, ctx) -> str:
    """Qubit X/Y pair of the qubit fixture, turned by a random real rotation."""
    t = rng.uniform(0, 2 * np.pi)
    r = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    states = {"x0": r[:, 0], "x1": r[:, 1], "y0": (r @ h)[:, 0], "y1": (r @ h)[:, 1]}
    doc = {
        "kind": "quantum", "id": "gen-support", "dimension": 2,
        "states": {k: [float(c) for c in v] for k, v in states.items()},
        "attributes": {f"a{k}": {"kind": "set", "states": [k]} for k in states},
        "variables": {"X": [[0, "ax0"], [1, "ax1"]], "Y": [["+", "ay0"], ["-", "ay1"]]},
    }
    return _write(ctx, "support.json", doc)


def _verdict_status(v) -> list:
    return [v.status]


def _task_query(kind, t, model, expected) -> Query:
    """is_task_possible on a task whose answer is known by construction.

    expected is the set of acceptable statuses; a `possible` verdict must
    also replay.
    """
    def check(v):
        if v.status not in expected:
            return False
        return v.status != ctkit.POSSIBLE or ctkit.replay_witness(t, model, v)

    return Query(kind, lambda: ctkit.is_task_possible(t, model), check, _verdict_status)


def _quantum_tasks(rng) -> list:
    qs = []
    sub4 = ctkit.quantum_substrate("q4", 4)
    model4 = ctkit.QuantumModel(sub4)
    basis4 = ctkit.extensional_attribute(sub4, [ctkit.basis_state(4, j) for j in range(4)])
    # Gram-preserving outputs U.s_i hidden among random decoys: possible.  With
    # the true output last every choice is scanned; with it first none are.
    for k, options, last in ((6, 4, True), (8, 4, False)):
        u = random_unitary(rng, 4)
        ins = spread_states(rng, 4, k)
        pairs = []
        for vec in ins:
            cands = [pure(random_vector(rng, 4)) for _ in range(options - 1)]
            true = pure(u @ vec)
            cands = cands + [true] if last else [true] + cands
            pairs.append((single(sub4, pure(vec)), ctkit.extensional_attribute(sub4, cands)))
        qs.append(_task_query(f"task.possible.k{k}", ctkit.task(sub4, pairs), model4,
                              {ctkit.POSSIBLE}))
    # the same with side effects allowed
    u = random_unitary(rng, 4)
    pairs = []
    for vec in spread_states(rng, 4, 4):
        cands = [pure(random_vector(rng, 4)) for _ in range(2)] + [pure(u @ vec)]
        pairs.append((single(sub4, pure(vec)), ctkit.extensional_attribute(sub4, cands)))
    qs.append(_task_query("task.possible.side_effects", ctkit.task(sub4, pairs, True),
                          model4, {ctkit.POSSIBLE}))
    # Overlapping inputs onto basis states, which overlap 0 or 1: no choice
    # reproduces the Gram matrix, and all 4**k choices are tried.
    for k in (4, 6, 8):
        pairs = [(single(sub4, pure(vec)), basis4) for vec in spread_states(rng, 4, k)]
        qs.append(_task_query(f"task.impossible.4^{k}", ctkit.task(sub4, pairs), model4,
                              {ctkit.IMPOSSIBLE}))
    # side effects cannot help: every candidate output is orthogonal to every
    # candidate of the other inputs, while the inputs overlap
    sub8 = ctkit.quantum_substrate("q8", 8)
    pairs = []
    for i, vec in enumerate(spread_states(rng, 8, 4)):
        cands = [ctkit.basis_state(8, 2 * i), ctkit.basis_state(8, 2 * i + 1)]
        pairs.append((single(sub8, pure(vec)), ctkit.extensional_attribute(sub8, cands)))
    qs.append(_task_query("task.impossible.side_effects", ctkit.task(sub8, pairs, True),
                          ctkit.QuantumModel(sub8), {ctkit.IMPOSSIBLE}))
    # Known defect: pairwise overlaps 1/2 in, (1,0,0), (1/2, +-sqrt(3)/2, 0) out,
    # with side effects.  The forced garbage Gram matrix is not PSD, so the
    # task is impossible; the oracle currently answers unknown.
    sub3 = ctkit.quantum_substrate("q3", 3)
    gram = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
    ins = np.linalg.cholesky(gram)
    outs = np.array([[1, 0, 0], [0.5, math.sqrt(3) / 2, 0], [0.5, -math.sqrt(3) / 2, 0]])
    v, w = random_unitary(rng, 3), random_unitary(rng, 3)
    pairs = [(single(sub3, pure(v @ a)), single(sub3, pure(w @ b))) for a, b in zip(ins, outs)]
    qs.append(_task_query("task.forced_gram_not_psd", ctkit.task(sub3, pairs, True),
                          ctkit.QuantumModel(sub3), {ctkit.IMPOSSIBLE, ctkit.UNKNOWN}))
    return qs


def _classical_tasks(rng) -> list:
    qs = []
    for n in (9, 10):
        # pigeonhole: n inputs, n-1 shared outputs, no side effects
        labels = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n - 1)]
        sub = ctkit.classical_substrate(f"pigeon{n}", [labels[i] for i in rng.permutation(len(labels))])
        outs = ctkit.extensional_attribute(sub, [f"b{int(i)}" for i in rng.permutation(n - 1)])
        t = ctkit.task(sub, [(ctkit.extensional_attribute(sub, [f"a{i}"]), outs) for i in range(n)])
        model = ctkit.ClassicalModel(sub, assignment_guard=10 ** 12)
        qs.append(_task_query(f"task.pigeonhole.{n}", t, model, {ctkit.IMPOSSIBLE}))
    n = 10
    sub = ctkit.classical_substrate("perm", [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)])
    model = ctkit.ClassicalModel(sub, assignment_guard=10 ** 12)
    # The decoys of input i are the hidden targets of inputs i+1 and i+2, and
    # its own comes last, so every seed's search has the same shape (the
    # backtracking takes the options in list order): the cyclic shift of
    # the hidden assignment is found first.
    hidden = rng.permutation(n)
    pairs = []
    for i in range(n):
        options = [f"b{int(hidden[(i + k) % n])}" for k in (1, 2, 0)]
        pairs.append((ctkit.extensional_attribute(sub, [f"a{i}"]),
                      ctkit.extensional_attribute(sub, options)))
    qs.append(_task_query("task.classical.possible", ctkit.task(sub, pairs), model,
                          {ctkit.POSSIBLE}))
    sink = ctkit.extensional_attribute(sub, ["b0"])
    pairs = [(ctkit.extensional_attribute(sub, [f"a{i}"]), sink) for i in range(n)]
    qs.append(_task_query("task.classical.side_effects", ctkit.task(sub, pairs, True), model,
                          {ctkit.POSSIBLE}))
    return qs


def decide_round(rng, ctx) -> list:
    fixtures = ctx.root / "fixtures"
    qs = [cli_query(f"check-model.{name}", ["check-model", fixtures / name], expect(out),
                    task_lines)
          for name, out in FIXTURE_CHECK_MODEL.items()]
    for d in (2, 3, 4):
        path, support = _quantum_doc(rng, ctx, d)
        qs.append(cli_query(f"check-model.quantum{d}", ["check-model", path],
                            expect(_quantum_report(d)), task_lines))
        qs.append(cli_query(f"predict.quantum{d}",
                            ["predict", path, "--observable", "X", "--state", "s"],
                            expect((0, "observable: X\nstate: s\n"
                                       f"members of Z: {support + 1}\n"
                                       "cloning: impossible\npredictor: impossible\n"
                                       "unpredictable: true\n"))))
    for m in (6, 12):
        qs.append(cli_query(f"check-model.classical{m}", ["check-model", _classical_doc(rng, ctx, m)],
                            expect(_classical_report(m)), task_lines))
    qs.append(cli_query("predict.qubit", ["predict", fixtures / "qubit.json",
                                          "--observable", "X", "--state", "skew"],
                        expect((0, "observable: X\nstate: skew\nmembers of Z: 3\n"
                                   "cloning: impossible\npredictor: impossible\n"
                                   "unpredictable: true\n"))))
    for name, out in (("qubit.json", SUPPORT_PASS), ("classical_bit.json", SUPPORT_CLASSICAL)):
        qs.append(cli_query(f"decision-support.{name}", ["decision-support", fixtures / name],
                            expect(out)))
    qs.append(cli_query("decision-support.rotated", ["decision-support", _support_doc(rng, ctx)],
                        expect(SUPPORT_PASS)))
    qs.extend(_quantum_tasks(rng))
    qs.extend(_classical_tasks(rng))
    for name in FIXTURE_CHECK_MODEL:
        ctx.documents.add(str(fixtures / name))
    return qs


# ---------------------------------------------------------------------------
# measure: measurers, counting constructors, certificates, derivations


def _counting(rng, d, n) -> Query:
    labels = [f"u{int(i)}" for i in rng.permutation(d)]
    basis = basis_variable(ctkit.quantum_substrate(f"c{d}", d), labels)
    target = int(rng.integers(d))
    size = d ** n
    digits = np.array(np.unravel_index(np.arange(size), (d,) * n))
    counts = (digits == target).sum(axis=0)
    psi = random_vector(rng, size)

    def check(m):
        # Flags are read off one superposition of every product basis state:
        # linearity sends sum_s c_s|s>|0> to sum_s c_s|s>|count(s)>.
        if tuple(m.labels) != tuple(Fraction(c, n) for c in range(n + 1)):
            return False
        joint = ctkit.tensor(pure(psi), m.receptive_state())
        out = ctkit.apply_measurer(m, joint).vector.reshape(size, n + 1)
        expected = np.zeros_like(out)
        expected[np.arange(size), counts] = psi
        return bool(np.abs(out - expected).max() < 1e-9)

    return Query(f"counting.d{d}.n{n}",
                 lambda: ctkit.build_counting_constructor(labels[target], n, basis), check)


def _measurer(rng, d) -> list:
    """Build the measurer of a random real orthonormal basis, then run it on MEASURER_APPLIES
    random states."""
    u = random_rotation(rng, d)
    sub = ctkit.quantum_substrate(f"m{d}", d)
    labels = [f"k{int(i)}" for i in rng.permutation(d)]
    x = ctkit.variable(sub, [(label, single(sub, pure(u[:, k]))) for k, label in enumerate(labels)])
    psis = [random_vector(rng, d) for _ in range(MEASURER_APPLIES)]
    slot: dict = {}

    def check_build(m):
        if m.source_dim != d or m.target_dim != d or tuple(m.labels) != tuple(labels):
            return False
        slot["m"] = m
        slot["joints"] = [ctkit.tensor(pure(p), m.receptive_state()) for p in psis]
        return True

    def check_apply(out, psi):
        # |psi>|0> -> sum_k <b_k|psi> |b_k>|k>
        expected = (u * (u.conj().T @ psi)).reshape(d, d)
        return bool(np.abs(out.vector.reshape(d, d) - expected).max() < 1e-9)

    qs = [Query(f"build_measurer.d{d}", lambda: ctkit.build_measurer(x), check_build)]
    for i, psi in enumerate(psis):
        qs.append(Query(f"apply_measurer.d{d}",
                        lambda i=i: ctkit.apply_measurer(slot["m"], slot["joints"][i]),
                        lambda out, psi=psi: check_apply(out, psi)))
    return qs


def _comparer(rng, d) -> Query:
    labels = [f"c{int(i)}" for i in rng.permutation(d)]
    a, b = random_vector(rng, d), random_vector(rng, d)
    state = ctkit.tensor(pure(a), pure(b))
    value = float(np.sum(np.abs(a) ** 2 * np.abs(b) ** 2))

    def call():
        return ctkit.build_comparer(labels, dim_a=d, dim_b=d).compare(state)

    return Query(f"comparer.d{d}", call,
                 lambda o: abs(o.expectation - value) < 1e-9 and o.verdict == "non-sharp")


def _unpredictability(rng, d) -> Query:
    sub = ctkit.quantum_substrate(f"u{d}", d)
    x = basis_variable(sub, list(range(d)))
    support = min(d, 2 + d % 3)
    y = single(sub, pure(random_vector(rng, d, support=rng.choice(d, size=support, replace=False))))
    model = ctkit.QuantumModel(sub)

    def check(cert):
        return (cert.unpredictable and not cert.cloning_possible
                and not cert.predictor.exists and len(cert.z) == support + 1)

    return Query(f"unpredictability.d{d}",
                 lambda: ctkit.unpredictability_certificate(x, y, model), check)


def _derive(rng, n) -> Query:
    m = int(rng.integers(1, n))
    x1, x2 = (int(v) for v in rng.choice(np.arange(-10, 11), size=2, replace=False))
    value = Fraction(m * x1 + (n - m) * x2, n)
    return Query(f"derive_value_mn.n{n}", lambda: ctkit.derive_value_mn(m, n, (x1, x2)),
                 lambda t: t.all_checks_pass and t.final_value == value)


def _support(ctx) -> list:
    qubit, bit, repeat = (ctx.fixtures[n] for n in
                          ("qubit.json", "classical_bit.json", "qubit_degenerate.json"))

    def passing(r):
        return (r.passed and [c[0] for c in r.checks] == ["T1", "R1", "R2", "R3", "R4"]
                and all(c[1] for c in r.checks))

    def run(doc):
        return lambda: ctkit.check_decision_support(doc.model, doc.variables["X"], doc.variables["Y"])

    return [
        Query("decision_support.qubit", run(qubit), passing),
        Query("decision_support.classical_bit", run(bit),
              lambda r: not r.passed and r.reason == "no complementary observables"
              and r.checks == ()),
        Query("decision_support.degenerate", run(repeat),
              lambda r: not r.passed and r.verdict("R1") is False),
    ]


MEASURER_APPLIES = 2


def measure_round(rng, ctx) -> list:
    qs = [_counting(rng, 2, n) for n in (4, 5, 6, 7, 8)]
    qs += [_counting(rng, 3, n) for n in (3, 4, 5)]
    for d in (2, 3, 4, 6, 8, 12, 16, 24, 32):
        qs += _measurer(rng, d)
    qs += [_comparer(rng, d) for d in (2, 4, 8, 16)]
    qs += [_unpredictability(rng, d) for d in range(2, 9)]
    qs += [_derive(rng, n) for n in (5, 12, 24, 40, 64)]
    qs += _support(ctx)
    qs.append(cli_query("value.pinned", PINNED_VALUE_ARGV, expect(PINNED_VALUE)))
    return qs


def measure_setup(ctx) -> None:
    for name in ("qubit.json", "classical_bit.json", "qubit_degenerate.json"):
        path = ctx.root / "fixtures" / name
        ctx.fixtures[name] = ctkit.parse_model_spec(path)
        ctx.documents.add(str(path))


WORKLOADS = {
    "sweep": (sweep_round, None),
    "decide": (decide_round, None),
    "measure": (measure_round, measure_setup),
}


def conjugate_projector_probe() -> int:
    """1 while the state (1, i)/sqrt(2) is not sharp in the basis variable it belongs to."""
    sub = ctkit.quantum_substrate("probe", 2)
    b0, b1 = pure([1, 1j] / np.sqrt(2)), pure([1, -1j] / np.sqrt(2))
    x = ctkit.variable(sub, [(0, single(sub, b0)), (1, single(sub, b1))])
    return 0 if ctkit.sharp_value(b0, x) == 0 else 1


def float_overflow_probe() -> int:
    """1 while a float convergence row past N=1030 still fails, else 0.

    The central binomial coefficient leaves the double range there; the
    timed workloads stay below it, so this known defect is probed once per
    run instead of failing queries.
    """
    argv = ["converge", "--amplitudes", "0.3,0.9539392014169456",
            "--N-sweep", "1100", "--epsilon", "0.02"]
    try:
        code, text = run_cli(argv)
    except OverflowError:
        return 1
    return 0 if code == 0 and text.startswith(HEADER) else 1
