"""Time a few large exact deviant-weight rows and value derivations in one
or more source trees.

    python3 tests/row_timings.py . ../parent

Each tree runs in its own subprocess with that tree's `src` first on the
path.  Deviant-weight rows, each the best of three calls: five outcomes at
N = 119 and four at N = 380 (epsilon 1/30, as the benchmark's d = 4 tables
use), three at N = 4000 (epsilon 1/100).  Derivations, each the best of
five calls: `derive_value_mn` at m/n = 1/5, 21/64 and 31/64 with payoffs
10 and -2.  The output is a report; the exit code is 0 whenever every tree
ran.
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
"""


def main(trees) -> int:
    for tree in trees:
        print(f"== {tree}", flush=True)
        child = CHILD.format(rows=ROWS, derivations=DERIVATIONS)
        done = subprocess.run([sys.executable, "-c", child, str(Path(tree).resolve() / "src")])
        if done.returncode:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["."]))
