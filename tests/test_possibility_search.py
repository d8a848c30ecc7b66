"""The searching possibility oracles against plain enumeration.

Small random tasks on both backends, with and without side effects, are
decided twice: by the library (pruned choice search, bipartite matching)
and by `possibility_oracle` (every full choice, in product order).  The
candidate outputs repeat across pairs and include orthogonal and
phase-shifted states, which is where pruning and matching could go wrong.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctkit import (
    POSSIBLE,
    ClassicalModel,
    QuantumModel,
    basis_state,
    classical_substrate,
    extensional_attribute,
    is_task_possible,
    normalized,
    quantum_substrate,
    replay_witness,
    task,
)
from ctkit.tolerance import tol

import possibility_oracle as ref

seed_st = st.integers(min_value=0, max_value=2**32 - 1)


def _state_pool(dim, rng):
    """Basis states, three equal superpositions, one random state."""
    pool = [basis_state(dim, k) for k in range(dim)]
    pool.extend(normalized([1, c] + [0] * (dim - 2)) for c in (1, -1, -1j))
    pool.append(normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim)))
    return pool


@settings(deadline=None)
@given(seed_st, st.integers(min_value=2, max_value=3), st.booleans(), st.data())
def test_quantum_search_agrees_with_enumeration(seed, dim, side_effects, data):
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("s", dim)
    model = QuantumModel(sub)
    pool = _state_pool(dim, rng)
    shifted = normalized(1j * pool[0].vector)
    n_in = data.draw(st.integers(min_value=1, max_value=5))
    ins = data.draw(st.permutations(range(len(pool))))[:n_in]
    cuts = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=n_in - 1), max_size=2))) \
        if n_in > 1 else []
    groups = [ins[a:b] for a, b in zip([0] + cuts, cuts + [n_in])]
    pairs = []
    for group in groups:
        outs = [pool[i] for i in data.draw(st.lists(
            st.integers(min_value=0, max_value=len(pool) - 1), min_size=1, max_size=3, unique=True))]
        if data.draw(st.booleans()):
            # the same output up to a phase
            outs = [shifted if s is pool[0] else s for s in outs]
        pairs.append((extensional_attribute(sub, [pool[i] for i in group]),
                      extensional_attribute(sub, outs)))
    t = task(sub, pairs, side_effects=side_effects)
    verdict = is_task_possible(t, model)
    status, choice = ref.quantum_possible(t, tol())
    assert verdict.status == status
    if status == POSSIBLE:
        assert replay_witness(t, model, verdict)
        assert verdict.witness["choice"] == choice


@given(st.integers(min_value=2, max_value=7), st.booleans(), st.data())
def test_classical_matching_agrees_with_enumeration(n, side_effects, data):
    sub = classical_substrate("u", list(range(n)))
    model = ClassicalModel(sub)
    n_in = data.draw(st.integers(min_value=1, max_value=n))
    ins = data.draw(st.permutations(range(n)))[:n_in]
    cuts = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=n_in - 1), max_size=2))) \
        if n_in > 1 else []
    pairs = []
    for a, b in zip([0] + cuts, cuts + [n_in]):
        outs = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                  min_size=1, max_size=4, unique=True))
        pairs.append((extensional_attribute(sub, ins[a:b]), extensional_attribute(sub, outs)))
    t = task(sub, pairs, side_effects=side_effects)
    verdict = is_task_possible(t, model)
    assert verdict.status == ref.classical_possible(t)
    if verdict.status == POSSIBLE:
        assert replay_witness(t, model, verdict)
    elif "compete" not in verdict.certificate:
        inputs, reach = ref.hall_violator(t, verdict.certificate)
        assert len(reach) < len(inputs)


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=3), st.data())
def test_classical_certificate_names_a_hall_violator(crowd, spare, data):
    """`crowd` inputs share crowd - 1 outputs; a wide pair brings enough
    other outputs that counting alone cannot rule the task out."""
    n = 2 * crowd + 2 * spare + 2
    sub = classical_substrate("u", list(range(n)))
    labels = data.draw(st.permutations(range(n)))
    crowded = labels[:crowd], labels[crowd:2 * crowd - 1]
    wide = labels[2 * crowd - 1:2 * crowd + spare], labels[2 * crowd + spare:]
    pairs = [(extensional_attribute(sub, a), extensional_attribute(sub, b)) for a, b in (crowded, wide)]
    if data.draw(st.booleans()):
        pairs.reverse()
    t = task(sub, pairs)
    verdict = is_task_possible(t, ClassicalModel(sub))
    assert verdict.status == ref.classical_possible(t) != POSSIBLE
    inputs, reach = ref.hall_violator(t, verdict.certificate)
    assert len(reach) < len(inputs)
