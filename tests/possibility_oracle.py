"""Reference possibility verdicts, decided by plain enumeration.

The library searches: a pruned depth-first search over output choices on
the quantum side, bipartite matching on the classical one.  Everything here
enumerates instead.  Every full choice of outputs is tried in
``itertools.product`` order and judged on its own, overlaps are taken one
``np.vdot`` at a time, and the garbage Gram matrix is filled entry by entry.
The two routes share no code beyond the task objects, so agreement pins
both down.
"""

import ast
import itertools
import re

import numpy as np

POSSIBLE, IMPOSSIBLE, UNKNOWN = "possible", "impossible", "unknown"


def _demands(task):
    """(input state, output options) for every input state, in task order."""
    return [(s, tuple(attr_out.states)) for attr_in, attr_out in task.pairs
            for s in attr_in.states]


def _overlaps(states) -> np.ndarray:
    n = len(states)
    out = np.zeros((n, n), dtype=complex)
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            out[i, j] = np.vdot(a.vector, b.vector)
    return out


def quantum_leaf(g_in, g_out, side_effects: bool, atol: float) -> str:
    """Status of one full choice of outputs.

    Without side effects a unitary exists iff every overlap is kept.  With
    them the garbage states must have overlaps m with g_in = g_out * m
    entrywise: forced where the outputs overlap, free where both sides are
    orthogonal.  A fully forced m that is not PSD rules the choice out; with
    free entries only the zero completion is tried, so a negative eigenvalue
    leaves the choice open.
    """
    n = len(g_in)
    if not side_effects:
        keeps = all(abs(g_in[i, j] - g_out[i, j]) <= atol for i in range(n) for j in range(n))
        return POSSIBLE if keeps else IMPOSSIBLE
    m = np.eye(n, dtype=complex)
    free = False
    for i in range(n):
        for j in range(i + 1, n):
            if abs(g_out[i, j]) > atol:
                r = g_in[i, j] / g_out[i, j]
                if abs(r) > 1 + atol:
                    return IMPOSSIBLE
                m[i, j], m[j, i] = r, np.conj(r)
            elif abs(g_in[i, j]) > atol:
                return IMPOSSIBLE
            else:
                free = True
    if n and np.linalg.eigvalsh(m)[0] < -atol:
        return UNKNOWN if free else IMPOSSIBLE
    return POSSIBLE


def quantum_possible(task, atol: float):
    """(status, first possible choice in product order or None)."""
    demands = _demands(task)
    g_in = _overlaps([s for s, _ in demands])
    open_leaf = False
    for choice in itertools.product(*(range(len(opts)) for _, opts in demands)):
        g_out = _overlaps([opts[c] for (_, opts), c in zip(demands, choice)])
        status = quantum_leaf(g_in, g_out, task.side_effects, atol)
        if status == POSSIBLE:
            return POSSIBLE, choice
        open_leaf = open_leaf or status == UNKNOWN
    return (UNKNOWN if open_leaf else IMPOSSIBLE), None


def classical_possible(task) -> str:
    """Possible iff some assignment of outputs is injective; with side
    effects any assignment will do."""
    demands = _demands(task)
    for assignment in itertools.product(*(opts for _, opts in demands)):
        if task.side_effects or len(set(assignment)) == len(assignment):
            return POSSIBLE
    return IMPOSSIBLE


def hall_violator(task, certificate: str):
    """The input states a classical certificate names, and the output states
    they can reach, recomputed from the task."""
    named = re.search(r"input states (\[.*\]) reach only", certificate)
    inputs = ast.literal_eval(named.group(1))
    reach = {t for s, opts in _demands(task) if s in inputs for t in opts}
    return inputs, reach
