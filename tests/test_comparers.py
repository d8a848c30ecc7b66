"""Comparers from rows against the dense projector route.

`build_comparer` stores the rows kron(u_k, v_k) and `compare` reads
sum_k <u_k v_k|rho|u_k v_k> off them; `measurer_oracle.comparer_projector`
writes the projector out as a sum of dense outer products.  Both are run
over random complex orthonormal bases of unequal factor sizes, pure and
mixed states inside, outside and across the yes space, and the comparers
of flag-state measurers.  A 256-outcome comparer, whose projector would
take 64 GiB, builds and compares in well under a second; 512 outcomes,
whose rows or measurer maps would take 2 GiB, are refused before anything
is allocated.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctkit import (
    MixedState,
    PureState,
    SizeLimitError,
    basis_state,
    build_comparer,
    build_measurer,
    comparer_for_measurers,
    quantum_substrate,
    tensor,
)
from ctkit.quantum import NON_SHARP, SHARP_NO, SHARP_YES
from ctkit.tolerance import tol

import measurer_oracle as oracle
from conftest import basis_variable, random_unitary, state_variable

seed_st = st.integers(min_value=0, max_value=2**32 - 1)
COMPARERS = settings(max_examples=80, deadline=None)


def oracle_verdict(value):
    if value >= 1.0 - tol():
        return SHARP_YES
    if value <= tol():
        return SHARP_NO
    return NON_SHARP


def random_state(rng, yes, dims, kind, mixed):
    """A state on dims inside the yes space (rows yes), orthogonal to it, or
    anywhere; a mixture of three such vectors when mixed."""
    size = dims[0] * dims[1]
    if kind == "outside" and len(yes) == size:
        kind = "anywhere"  # the yes space is everything

    def vector():
        if kind == "inside":
            vec = (rng.normal(size=len(yes)) + 1j * rng.normal(size=len(yes))) @ yes
        else:
            vec = rng.normal(size=size) + 1j * rng.normal(size=size)
            if kind == "outside":
                vec = vec - yes.T @ (yes.conj() @ vec)
        return vec / np.linalg.norm(vec)

    if not mixed:
        return PureState(vector(), dims)
    w = rng.uniform(0.1, 1.0, size=3)
    rho = sum(wk * np.outer(v, v.conj()) for wk, v in zip(w / w.sum(), (vector() for _ in w)))
    return MixedState(rho, dims)


@COMPARERS
@given(seed_st, st.integers(1, 5), st.integers(1, 5), st.data(),
       st.sampled_from(("inside", "outside", "anywhere")), st.booleans())
def test_comparer_matches_the_dense_projector(seed, d_a, d_b, data, kind, mixed):
    n = data.draw(st.integers(1, min(d_a, d_b)), label="labels")
    rng = np.random.default_rng(seed)
    basis_a = [PureState(c) for c in random_unitary(rng, d_a).T[:n]]
    basis_b = [PureState(c) for c in random_unitary(rng, d_b).T[:n]]
    c = build_comparer(range(n), basis_a, basis_b)
    want = oracle.comparer_projector([u.vector for u in basis_a], [v.vector for v in basis_b])
    assert c.rows.shape == (n, d_a * d_b)
    assert np.allclose(c.projector, want, rtol=0, atol=1e-12)

    state = random_state(rng, c.rows, (d_a, d_b), kind, mixed)
    rho = state.matrix if mixed else state.density().matrix
    value = float(np.real(np.trace(rho @ want)))
    outcome = c.compare(state)
    assert outcome.expectation == pytest.approx(value, rel=0, abs=1e-12)
    assert outcome.verdict == oracle_verdict(value)
    if kind == "inside":
        assert outcome.verdict == SHARP_YES
    elif kind == "outside" and n < d_a * d_b:
        assert outcome.verdict == SHARP_NO


@COMPARERS
@given(seed_st, st.integers(2, 5), st.integers(2, 5), st.data())
def test_comparer_for_flag_state_measurers(seed, t_a, t_b, data):
    n = data.draw(st.integers(1, min(t_a, t_b)), label="labels")
    rng = np.random.default_rng(seed)
    sub = quantum_substrate("src", n)
    x = state_variable(sub, [(k, PureState(c)) for k, c in enumerate(random_unitary(rng, n).T)])
    flags_a = {k: PureState(c) for k, c in enumerate(random_unitary(rng, t_a).T[:n])}
    flags_b = {k: PureState(c) for k, c in enumerate(random_unitary(rng, t_b).T[:n])}
    m_a = build_measurer(x, flag_states=flags_a)
    m_b = build_measurer(x, flag_states=flags_b)
    c = comparer_for_measurers(m_a, m_b)
    want = oracle.comparer_projector([flags_a[k].vector for k in range(n)],
                                     [flags_b[k].vector for k in range(n)])
    assert (c.dim_a, c.dim_b) == (t_a, t_b)
    assert np.allclose(c.projector, want, rtol=0, atol=1e-12)
    for j in range(n):
        for k in range(n):
            outcome = c.compare(tensor(m_a.flag_state(j), m_b.flag_state(k)))
            assert outcome.verdict == (SHARP_YES if j == k else SHARP_NO)
            assert outcome.expectation == pytest.approx(float(j == k), rel=0, abs=1e-12)


def test_build_comparer_forms_no_dense_projector():
    d = 32
    basis = [basis_state(d, k) for k in range(d)]
    tracemalloc.start()
    try:
        c = build_comparer(range(d), basis, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the projector would take 16 (d * d)**2 = 16 MiB; the rows take 512 KiB
    assert c.rows.nbytes == 16 * d * d * d
    assert peak < 4 * c.rows.nbytes


def test_a_256_outcome_comparer_builds_and_compares_at_once():
    m = build_measurer(basis_variable(quantum_substrate("q256", 256)))
    started = time.perf_counter()
    c = comparer_for_measurers(m, m)
    same = c.compare(tensor(m.flag_state(3), m.flag_state(3)))
    other = c.compare(tensor(m.flag_state(3), m.flag_state(200)))
    elapsed = time.perf_counter() - started
    assert (same.verdict, same.expectation) == (SHARP_YES, 1.0)
    assert (other.verdict, other.expectation) == (SHARP_NO, 0.0)
    assert elapsed < 1.0
    with pytest.raises(SizeLimitError):
        c.projector


def test_rows_and_maps_over_the_budget_are_refused_before_allocating():
    x = basis_variable(quantum_substrate("q2", 2))
    started = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="comparer of 512 rows"):
            build_comparer(range(512))
        with pytest.raises(SizeLimitError, match="measurer of 2 flags of dimension 16777216"):
            build_measurer(x, target_dim=2 ** 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rows would take 2 GiB, the measurer's flags and index table 0.9 GiB
    assert peak < 32 * 2 ** 20
    assert time.perf_counter() - started < 1.0
