"""Time a few large exact deviant-weight rows, value derivations and
measurers in one or more source trees.

    python3 tests/row_timings.py . ../parent

Each tree runs in its own subprocess with that tree's `src` first on the
path.  Deviant-weight rows, each the best of three calls: five outcomes at
N = 119 and four at N = 380 (epsilon 1/30, as the benchmark's d = 4 tables
use), three at N = 4000 (epsilon 1/100).  Derivations, each the best of
five calls: `derive_value_mn` at m/n = 1/5, 21/64 and 31/64 with payoffs
10 and -2.  Measurers, each the best of three: a 256-member basis measurer
built and applied twice, a qubit measurer with two 2048-dimensional flag
states built and applied once, the 14-replica counting constructor
built and applied once, and the 8-replica one applied to a rank-2 mixed
joint (dimension 2304).  At the benchmark's own scale, each the best of
200: a 32-member basis measurer and the 8-replica qubit counting
constructor, each built and applied once, `derive_value_mn(2, 5)`,
`check_decision_support` on `fixtures/qubit.json`, and the unpredictability
certificate of a four-term state against the standard basis at d = 5.  The
output is a report; the exit code is 0 whenever every tree ran.
"""

import subprocess
import sys
from pathlib import Path

ROWS = [
    ((2, 3, 2, 2, 2), 11, 119, "1/30"),
    ((2, 3, 2, 4), 11, 380, "1/30"),
    ((3, 4, 6), 13, 4000, "1/100"),
]
DERIVATIONS = [(1, 5), (21, 64), (31, 64)]
ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import sys, time
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from ctkit import derive_value_mn, deviant_weight
for parts, q, n, eps in {rows!r}:
    probs = [Fraction(a, q) for a in parts]
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        row = deviant_weight(None, n, eps, probabilities=probs)
        best = min(best, time.perf_counter() - started)
    print(f"d={{len(parts)}} N={{n}} eps={{eps}}: {{best:.3f}} s  (weight {{row.approx:.6g}})")
for m, n in {derivations!r}:
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        trace = derive_value_mn(m, n, (10, -2))
        best = min(best, time.perf_counter() - started)
    passed = trace.all_checks_pass
    print(f"derive m={{m}} n={{n}}: {{best * 1e3:.2f}} ms  (all checks pass: {{passed}})")
import numpy as np
from ctkit import (MixedState, PureState, QuantumModel, apply_measurer, basis_state,
                   build_counting_constructor, build_measurer, check_decision_support,
                   extensional_attribute, normalized, parse_model_spec, quantum_substrate,
                   tensor, unpredictability_certificate, variable)
def basis(dim):
    sub = quantum_substrate(f"q{{dim}}", dim)
    return variable(sub, [(k, extensional_attribute(sub, (basis_state(dim, k),)))
                          for k in range(dim)])
def basis_measurer(applies=2, d=256):
    m = build_measurer(basis(d))
    psi = PureState(np.full(d, d ** -0.5))
    for _ in range(applies):
        apply_measurer(m, tensor(psi, m.receptive_state()))
def flags_2048(t=2048):
    half = (np.arange(t) < t // 2) / np.sqrt(t // 2)
    m = build_measurer(basis(2), flag_states={{0: half, 1: half[::-1]}})
    apply_measurer(m, tensor(PureState([0.6, 0.8]), m.receptive_state()))
def counting(n=14):
    m = build_counting_constructor(0, n, basis(2))
    apply_measurer(m, tensor(PureState(np.full(2 ** n, 2 ** (-n / 2))), m.receptive_state()))
def mixed_joint(n=8, rank=2):
    m = build_counting_constructor(0, n, basis(2))
    a = np.random.default_rng(0).normal(size=(2 ** n, rank, 2)) @ [1, 1j]
    rho = a @ a.conj().T
    return m, tensor(MixedState(rho / np.trace(rho).real), m.receptive_state())
mixed_m, mixed = mixed_joint()
qubit = parse_model_spec(sys.argv[2])
def decision_support():
    assert check_decision_support(qubit.model, qubit.variables["X"], qubit.variables["Y"]).passed
def certificate(d=5):
    x = basis(d)
    y = extensional_attribute(x.substrate, (normalized([1, 2j, -3, 0, 4]),))
    assert unpredictability_certificate(x, y, QuantumModel(x.substrate)).unpredictable
for name, run, repeats in [
        ("basis measurer d=256, build + 2 applies", basis_measurer, 3),
        ("flag measurer t=2048, build + apply", flags_2048, 3),
        ("counting constructor n=14, build + apply", counting, 3),
        ("counting constructor n=8 on a rank-2 mixed joint, apply",
         lambda: apply_measurer(mixed_m, mixed), 3),
        ("basis measurer d=32, build + apply", lambda: basis_measurer(1, 32), 200),
        ("counting constructor d=2 n=8, build + apply", lambda: counting(8), 200),
        ("derive_value_mn(2, 5)", lambda: derive_value_mn(2, 5, (10, -2)), 200),
        ("check_decision_support on the qubit fixture", decision_support, 200),
        ("unpredictability certificate d=5", certificate, 200)]:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    print(f"{{name}}: {{best * 1e3:.3f}} ms")
"""


def main(trees) -> int:
    for tree in trees:
        print(f"== {tree}", flush=True)
        child = CHILD.format(rows=ROWS, derivations=DERIVATIONS)
        done = subprocess.run([sys.executable, "-c", child, str(Path(tree).resolve() / "src"),
                               str(ROOT / "fixtures" / "qubit.json")])
        if done.returncode:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["."]))
