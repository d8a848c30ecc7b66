"""Each library site that reads a weight off span rows, against the dense
route written out here: the d x d projector P of `attribute_projector`, and
|P v| or Tr(rho P) taken with numpy.

`contains_state` on random subspaces, the span_sharpness_gap of
`is_generalised_mixture` and the target weights of
`intrinsic_partition_preserved` must agree with that route within 1e-12.
A draw whose dense figure lies within 1e-12 of a threshold is skipped:
there the two routes may round to different sides.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctkit import (
    MixedState,
    PureState,
    QuantumModel,
    apply_measurer,
    attribute_projector,
    attribute_span,
    basis_state,
    build_measurer,
    contains_state,
    extensional_attribute,
    intrinsic_part,
    intrinsic_partition_preserved,
    is_generalised_mixture,
    quantum_substrate,
    span_closure,
    states_equal,
    subspace_attribute,
    tensor,
    variable,
)
from ctkit.tolerance import tol

SITES = settings(max_examples=60, deadline=None)
seed_st = st.integers(min_value=0, max_value=2**32 - 1)
EDGE = 1e-12


def _rows(rng, dim):
    """The orthonormal rows of a random unitary."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q.T


def _mixture(rng, rows):
    """A mixed state of full rank on the span of the given orthonormal rows."""
    w = rng.uniform(0.1, 1.0, size=len(rows))
    return MixedState(sum(wk * np.outer(r, r.conj()) for wk, r in zip(w / w.sum(), rows)))


def _tilted(rng, inside, outside=None):
    """A unit vector in span(inside), tilted towards the unit vector outside
    if one is given: half the draws by an angle whose 1 - cos lies within 3 tol."""
    u = rng.normal(size=len(inside)) + 1j * rng.normal(size=len(inside))
    u = u @ inside
    u /= np.linalg.norm(u)
    if outside is None:
        return u
    gap = rng.uniform(0, 3 * tol()) if rng.random() < 0.5 else rng.uniform(0, 1)
    theta = np.arccos(1.0 - gap)
    return np.cos(theta) * u + np.sin(theta) * outside


def _clear(value, threshold):
    assume(abs(value - threshold) > EDGE)


# ---------------------------------------------------------------------------
# contains_state on a subspace

DRAWS = ("pure in span", "pure out of span", "mixed, pure within the span",
         "mixed, not pure within the span")


def _draw(rng, rows, k, kind):
    inside, outside = rows[:k], rows[k:]
    if kind == "pure in span":
        return PureState(_tilted(rng, inside))
    if kind == "pure out of span":
        return PureState(_tilted(rng, inside, outside[0]))
    if kind == "mixed, pure within the span":
        return _mixture(rng, [_tilted(rng, inside)])
    # rank two or more within the span, or (k = 1) one row outside it as well
    return _mixture(rng, list(inside) if k > 1 else [inside[0], outside[0]])


def _dense_contains(attr, state, atol) -> bool:
    proj = attribute_projector(attr)
    if isinstance(state, PureState):
        norm = float(np.linalg.norm(proj @ state.vector))
        _clear(norm, 1.0 - atol)
        return norm >= 1.0 - atol
    weight = float(np.trace(proj @ state.matrix).real)
    top = float(np.linalg.eigvalsh(state.matrix).max())
    _clear(weight, 1.0 - atol)
    _clear(top, 1.0 - atol)
    return weight >= 1.0 - atol and top >= 1.0 - atol


@SITES
@given(seed_st, st.integers(2, 6), st.integers(1, 5), st.sampled_from(DRAWS))
def test_contains_state_in_a_subspace_matches_the_projector_route(seed, dim, k, kind):
    rng = np.random.default_rng(seed)
    k = min(k, dim - 1)
    rows = _rows(rng, dim)
    attr = subspace_attribute(quantum_substrate(f"q{dim}", dim), [PureState(r) for r in rows[:k]])
    state = _draw(rng, rows, k, kind)
    assert contains_state(attr, state) == _dense_contains(attr, state, tol())


def test_a_pure_state_within_three_quarters_of_tol_lies_in_the_span_of_its_neighbour():
    # |<a|v>| = |Pv| = 1 - 0.75 tol, so v is in span{a} and equals a; the
    # squared overlap, about 1 - 1.5 tol, would not pass
    c = 1.0 - 0.75 * tol()
    a = basis_state(2, 0)
    v = PureState(np.array([c, np.sqrt(1.0 - c * c)]))
    assert c * c < 1.0 - tol()
    assert contains_state(subspace_attribute(quantum_substrate("q2", 2), [a]), v)
    assert states_equal(a, v)


# ---------------------------------------------------------------------------
# is_generalised_mixture's span_sharpness_gap


def _dense_gap(z, h) -> float:
    proj = attribute_projector(span_closure(h))
    if z.is_subspace:
        span = attribute_span(z)
        return float(np.abs(span.conj() @ proj @ span.T - np.eye(len(span))).max())

    def weight(s):
        rho = np.outer(s.vector, s.vector.conj()) if isinstance(s, PureState) else s.matrix
        return float(np.trace(proj @ rho).real)

    return max(abs(1.0 - weight(s)) for s in z.states)


@SITES
@given(seed_st, st.integers(3, 6), st.integers(2, 5), st.integers(1, 2),
       st.sampled_from(("states", "mixed", "subspace")))
def test_span_sharpness_gap_matches_the_projector_route(seed, dim, m, k, kind):
    """h has m single-state members on m of the rows; z (k states, a
    mixture, or a k-dimensional subspace) lies in their span, tilted out of
    it by an angle that is often within tol."""
    rng = np.random.default_rng(seed)
    m = min(m, dim - 1)
    k = min(k, m - 1)
    rows = _rows(rng, dim)
    sub = quantum_substrate(f"q{dim}", dim)
    h = variable(sub, [(i, extensional_attribute(sub, [PureState(r)]))
                       for i, r in enumerate(rows[:m])])
    vectors = [_tilted(rng, rows[:m], rows[m]) for _ in range(k)]
    if kind == "states":
        z = extensional_attribute(sub, [PureState(v) for v in vectors])
    elif kind == "mixed":
        z = extensional_attribute(sub, [_mixture(rng, np.linalg.qr(np.array(vectors).T)[0].T)])
    else:
        z = subspace_attribute(sub, [PureState(r) for r in np.linalg.qr(np.array(vectors).T)[0].T])
    report = is_generalised_mixture(z, h, QuantumModel(sub))
    assume("span_sharpness_gap" in report.evidence)
    want = _dense_gap(z, h)
    assert report.evidence["span_sharpness_gap"] == pytest.approx(want, rel=0, abs=1e-12)
    _clear(want, tol())
    assert report.verdict == (want <= tol())


# ---------------------------------------------------------------------------
# intrinsic_partition_preserved's target weights


@SITES
@given(seed_st, st.integers(2, 6), st.lists(st.integers(1, 2), min_size=1, max_size=6),
       st.booleans())
def test_target_weights_match_the_flag_projector_route(seed, dim, sizes, mixed):
    """x covers the space with members of one or two rows (a lone state or a
    subspace); y is any pure or mixed state."""
    rng = np.random.default_rng(seed)
    rows = _rows(rng, dim)
    sub = quantum_substrate(f"q{dim}", dim)
    members, start = [], 0
    for size in sizes:
        if start >= dim:
            break
        part = rows[start:start + size]
        members.append(extensional_attribute(sub, [PureState(part[0])]) if len(part) == 1
                       else subspace_attribute(sub, [PureState(r) for r in part]))
        start += size
    if start < dim:
        members.append(subspace_attribute(sub, [PureState(r) for r in rows[start:]]))
    x = variable(sub, list(enumerate(members)))
    y = _mixture(rng, _rows(rng, dim)) if mixed else PureState(_rows(rng, dim)[0])

    target = intrinsic_partition_preserved(y, x).evidence["target"]
    m = build_measurer(x)
    rho_t = intrinsic_part(apply_measurer(m, tensor(y, m.receptive_state())), 1).matrix
    raw = [max(0.0, float(np.trace(rho_t @ np.outer(f, f.conj())).real)) for f in m.flags]
    assert target.labels == x.labels
    assert np.allclose([v for _, v in target.items], np.array(raw) / sum(raw), rtol=0, atol=1e-12)
