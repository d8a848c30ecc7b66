"""A fixed piece of work, independent of ctkit, that measures machine speed.

The reference machine, a shared 2-vCPU virtual machine, is noisy: the same
ctkit round runs anywhere from 1.3 s to 2.8 s depending on other tenants,
in phases that last from seconds to minutes, and CPU time swings with wall
time.  `run.py` therefore runs
this yardstick before every query, outside the query's timing, and divides
each round's query times by the round's speed factor

    mean yardstick time in the round / NOMINAL_S.

The yardstick mixes what ctkit's hot paths do: `Fraction` arithmetic, dict
and loop bytecode, and small numpy/LAPACK calls.  On the reference machine
its time per round correlates with the round's ctkit time at about 0.8, and
dividing by it cuts the round-to-round spread of a fixed round from about
0.26 to 0.11.  A change to ctkit cannot move it.
"""
from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

# Median yardstick time on the reference machine when undisturbed;
# normalised times are what the machine would show at that speed.
NOMINAL_S = 4.0e-4

_MATRIX = np.linspace(-1.0, 1.0, 36).reshape(6, 6)
_MATRIX = _MATRIX + _MATRIX.T


def yardstick() -> float:
    """Seconds taken by one fixed unit of work."""
    started = perf_counter()
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(k, k * k + 1)
    table: dict = {}
    for i in range(600):
        table[i % 31] = table.get(i % 31, 0) + i
    for _ in range(10):
        np.linalg.eigh(_MATRIX)
        _MATRIX @ _MATRIX
    return perf_counter() - started
