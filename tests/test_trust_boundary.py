"""Validate at the boundary, trust inside.

The public constructors keep every check.  Objects the library derives from
checked ones (products, partial traces, density matrices, SVD rows, basis
states, normalized vectors, member states, the value derivation's s and
reversed o-states, cloning and permutation tasks, restricted, product,
diagonal, relabeled and union variables) skip it; each such site is compared
here with the validating constructor given the same fields, which must
accept them and build an object equal field by field, arrays included (a
mixed state's factor, unique only up to a unitary, by F F^dag).  The value derivation builds no o-register observable: the
partition it reads off the reduced state's diagonal is compared with the
register the constructors build.  Products holding a mixed state keep their
checks, and the tolerance edge is pinned.
"""

import dataclasses
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctkit import (
    DisjointnessError,
    MixedState,
    PureState,
    QuantumModel,
    StateError,
    bar,
    basis_state,
    check_decision_support,
    classical_substrate,
    cloning_task,
    compose_substrates,
    extensional_attribute,
    normalized,
    partial_trace,
    partition_of_unity,
    permutation_task,
    product_attribute,
    product_variable,
    quantum_substrate,
    restricted_variable,
    span_closure,
    subspace_attribute,
    task,
    tensor,
    variable,
)
from ctkit import games, predicates
from ctkit.tolerance import tol

from conftest import FIXTURE_DIR, state_variable

seed_st = st.integers(min_value=0, max_value=2**32 - 1)
TRUSTED = settings(max_examples=25, deadline=None)


def revalidated(obj):
    """obj rebuilt bottom-up through the validating constructors."""
    if isinstance(obj, tuple):
        return tuple(revalidated(item) for item in obj)
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if dataclasses.is_dataclass(obj):
        return type(obj)(**{f.name: revalidated(getattr(obj, f.name))
                            for f in dataclasses.fields(obj)})
    return obj


def assert_same_factor(f, g):
    """Two read-only factors of one state: a factor is unique only up to a
    unitary, so F F^dag is compared, not the entries."""
    assert not f.flags.writeable and not g.flags.writeable
    assert np.allclose(f @ f.conj().T, g @ g.conj().T, rtol=0, atol=1e-12)


def assert_same(a, b, seen=None):
    """Equal types and fields, private cached ones included; equal read-only
    arrays, and factors with the same F F^dag."""
    seen = set() if seen is None else seen
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
        assert not a.flags.writeable and not b.flags.writeable
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y, seen)
    elif dataclasses.is_dataclass(a):
        if (id(a), id(b)) in seen:  # a leaf substrate lists itself as its leaf
            return
        seen.add((id(a), id(b)))
        assert vars(a).keys() == vars(b).keys()
        for name in vars(a):
            if name == "factor":
                assert_same_factor(vars(a)[name], vars(b)[name])
            else:
                assert_same(vars(a)[name], vars(b)[name], seen)
    else:
        assert a == b


def assert_trusted(obj):
    assert_same(obj, revalidated(obj))


def random_pure(rng, dim, dims=()):
    return normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim), dims)


def random_mixed(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return MixedState(rho / np.trace(rho).real)


def random_basis(rng, dim, k):
    """k orthonormal states of dimension dim."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return [PureState(q[:, i]) for i in range(k)]


def quantum_variable(rng, sub, sizes):
    """Members of the given sizes: random states, distinct with probability 1."""
    return variable(sub, [(k, extensional_attribute(sub, [random_pure(rng, sub.dim)
                                                          for _ in range(n)]))
                          for k, n in enumerate(sizes)])


def classical_variable(sub, groups):
    return variable(sub, [(k, extensional_attribute(sub, g)) for k, g in enumerate(groups)])


# ---------------------------------------------------------------------------
# The public constructors keep every check


@pytest.mark.parametrize("build, error, match", [
    (lambda: PureState(np.array([1.0, 1.0])), StateError, "vector norm"),
    (lambda: MixedState(np.array([[0.5, 0.1], [0.2, 0.5]])), StateError, "not hermitian"),
    (lambda: MixedState(np.array([[1.5, 0.0], [0.0, -0.5]])), StateError, "negative eigenvalue"),
    (lambda: MixedState(np.array([[0.5, 0.0], [0.0, 0.3]])), StateError, "trace"),
    (lambda: extensional_attribute(classical_substrate("c", "ab"), ["a", "a"]),
     StateError, r"^duplicate states in attribute$"),
    # states built on a trusted path are checked again by the constructor
    (lambda: extensional_attribute(
        quantum_substrate("q4", 4),
        [tensor(basis_state(2, 0), basis_state(2, 1)),
         PureState(1j * tensor(basis_state(2, 0), basis_state(2, 1)).vector)]),
     StateError, r"duplicate states in attribute \(up to phase\)"),
    (lambda: variable(classical_substrate("c", "abc"), [
        ("x", extensional_attribute(classical_substrate("c", "abc"), ["a", "b"])),
        ("y", extensional_attribute(classical_substrate("c", "abc"), ["b", "c"]))]),
     DisjointnessError, "attributes 'x' and 'y' overlap"),
    (lambda: task(classical_substrate("c", "abc"), [
        (extensional_attribute(classical_substrate("c", "abc"), ["a", "b"]),
         extensional_attribute(classical_substrate("c", "abc"), ["a"])),
        (extensional_attribute(classical_substrate("c", "abc"), ["b"]),
         extensional_attribute(classical_substrate("c", "abc"), ["c"]))]),
     DisjointnessError, "task input attributes overlap"),
])
def test_public_constructors_still_refuse(build, error, match):
    with pytest.raises(error, match=match):
        build()


# ---------------------------------------------------------------------------
# Each trusted site builds what the validating constructor builds


@TRUSTED
@given(seed_st, st.sampled_from([(1,), (2,), (3,), (2, 2), (2, 3)]))
def test_trusted_states_match_the_constructors(seed, dims):
    rng = np.random.default_rng(seed)
    dim = int(np.prod(dims))
    pure, other = random_pure(rng, dim, dims), random_pure(rng, 2)
    mixed = random_mixed(rng, 2)
    for state in (tensor(pure, other), tensor(other, pure), tensor(pure, mixed),
                  tensor(mixed, pure), tensor(mixed, mixed), pure.density()):
        assert_trusted(state)
    joint = tensor(pure, mixed)
    for keep in ((0,), (len(dims),), tuple(range(len(dims) + 1))[::-1], ()):
        assert_trusted(partial_trace(joint, keep))
        assert_trusted(partial_trace(tensor(pure, other), keep))


@TRUSTED
@given(seed_st, st.sampled_from([(1,), (2,), (3,), (2, 2), (2, 3)]),
       st.sampled_from([1e-150, 1e-3, 1.0, 1e150]))
def test_trusted_kets_and_normalized_states_match_the_constructors(seed, dims, scale):
    rng = np.random.default_rng(seed)
    dim = int(np.prod(dims))
    for k in range(dim):
        assert_trusted(basis_state(dim, k))
        assert_trusted(basis_state(dim, k, dims))
    coeffs = scale * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
    assert_trusted(normalized(coeffs))
    assert_trusted(normalized(coeffs, dims))
    assert_trusted(normalized(coeffs.real, dims))


@TRUSTED
@given(seed_st, st.integers(2, 4))
def test_trusted_member_states_and_span_closures_match_the_constructors(seed, dim):
    rng = np.random.default_rng(seed)
    q = quantum_substrate("q", dim)
    u = random_basis(rng, dim, dim)
    members = [
        extensional_attribute(q, [PureState((1 + 0.5 * tol()) * u[0].vector)]),
        subspace_attribute(q, [u[1]]),
        extensional_attribute(q, [u[-1].density()]),
    ]
    for attr in members:
        assert_trusted(games._member_state(attr))
    v = variable(q, list(enumerate(members[:dim])))
    assert_trusted(span_closure(v))
    assert_trusted(span_closure(variable(q, [(0, extensional_attribute(
        q, [u[0], normalized(u[0].vector + u[1].vector)]))])))


@pytest.mark.parametrize("m, n", [(1, 3), (2, 5), (31, 64)])
def test_trusted_appendix_states_match_the_constructors(m, n, monkeypatch):
    """The value derivation's s state and its two reversed o-states, each
    unit by construction, against the validating constructor."""
    built, real = [], games._trusted

    def spy(cls, **fields):
        built.append(real(cls, **fields))
        return built[-1]

    monkeypatch.setattr(games, "_trusted", spy)
    assert games.derive_value_mn(m, n, (10, -2)).all_checks_pass
    states = [obj for obj in built if isinstance(obj, PureState)]
    assert [s.dims for s in states] == [(2, n), (n,), (n,)]
    for state in states:
        assert_trusted(state)


@TRUSTED
@given(seed_st, st.integers(1, 3), st.integers(1, 3))
def test_trusted_attributes_match_the_constructors(seed, da, db):
    rng = np.random.default_rng(seed)
    qa, qb = quantum_substrate("a", da + 1), quantum_substrate("b", db)
    qq = compose_substrates(qa, qb)
    assert_trusted(qq)
    assert (qq.leaves(), qq.leaf_dims, qq.dim) == ((qa, qb), (da + 1, db), (da + 1) * db)
    ext_a = extensional_attribute(qa, [random_pure(rng, da + 1) for _ in range(da)])
    ext_b = extensional_attribute(qb, [random_pure(rng, db) for _ in range(db)])
    sub_a = subspace_attribute(qa, random_basis(rng, da + 1, da))
    sub_b = subspace_attribute(qb, random_basis(rng, db, db - 1))  # empty when db is 1
    for a, b in ((ext_a, ext_b), (sub_a, sub_b), (sub_b, sub_a)):
        assert_trusted(product_attribute(a, b))
    model = QuantumModel(qa)
    for attr in (ext_a, sub_a):
        assert_trusted(bar(attr, model))
        assert_trusted(span_closure(attr))
    assert_trusted(span_closure(variable(qa, [("x", ext_a)])))
    ca, cb = classical_substrate("ca", "xyz"[:da]), classical_substrate("cb", "uvw"[:db])
    cc = compose_substrates(ca, cb)
    assert_trusted(cc)
    assert cc.size() == da * db and cc.universe() == tuple(
        (x, y) for x in ca.labels for y in cb.labels)
    pair = product_attribute(extensional_attribute(ca, ca.labels),
                             extensional_attribute(cb, cb.labels))
    assert_trusted(pair)
    assert_trusted(product_attribute(pair, extensional_attribute(ca, ca.labels[:1])))


@TRUSTED
@given(seed_st, st.lists(st.integers(1, 2), min_size=2, max_size=3))
def test_trusted_tasks_and_variables_match_the_constructors(seed, sizes):
    rng = np.random.default_rng(seed)
    q = quantum_substrate("q", 4)
    v = quantum_variable(rng, q, sizes)
    w = quantum_variable(rng, quantum_substrate("r", 2), [1, 1])
    swap = {0: 1, 1: 0}
    assert_trusted(permutation_task(v, swap, side_effects=False))
    for receptive in (v.attributes[-1], predicates.blank_attribute(q)):
        assert_trusted(cloning_task(v, receptive))
    assert_trusted(product_variable(v, w))
    y = extensional_attribute(q, [random_pure(rng, 4)])
    assert_trusted(restricted_variable(v, y))
    assert_trusted(games._relabeled(v, [10 * k for k in v.labels]))
    bit = classical_substrate("bit3", "abc")
    c = classical_variable(bit, [["a"], ["b", "c"]])
    assert_trusted(permutation_task(c, swap))
    assert_trusted(cloning_task(c, predicates.blank_attribute(bit)))
    assert_trusted(product_variable(c, c))


@TRUSTED
@given(seed_st)
def test_trusted_union_matches_the_constructor(seed):
    rng = np.random.default_rng(seed)
    q = quantum_substrate("q", 4)
    basis = random_basis(rng, 4, 4)
    x = state_variable(q, [(0, basis[0]), (1, basis[1])])
    y = state_variable(q, [(0, basis[2]), (1, basis[3])])
    with mock.patch.object(predicates, "is_information_variable",
                           wraps=predicates.is_information_variable) as info:
        predicates._superinformation_pair(x, y, QuantumModel(q))
    union = info.call_args.args[0]
    assert union.labels == (("x", 0), ("x", 1), ("y", 0), ("y", 1))
    assert_trusted(union)


def test_trusted_diagonal_variables_match_the_constructor():
    from ctkit import parse_model_spec

    doc = parse_model_spec(FIXTURE_DIR / "qubit.json")
    x, y = doc.variables["X"], doc.variables["Y"]
    with mock.patch.object(games, "_nontrivial_mixture",
                           wraps=games._nontrivial_mixture) as mixture:
        assert check_decision_support(doc.model, x, y).passed
    diagonals = [call.args[1] for call in mixture.call_args_list
                 if isinstance(call.args[1].labels[0], tuple)]
    assert [d.labels for d in diagonals] == [tuple((l, l) for l in x.labels),
                                             tuple((l, l) for l in y.labels)]
    for diagonal in diagonals:
        assert_trusted(diagonal)


@pytest.mark.parametrize("m, n", [(1, 3), (2, 5), (3, 8), (31, 64)])
def test_trusted_target_register_matches_the_constructors(m, n, monkeypatch):
    """The value derivation's o-register partition, read off the reduced
    state's diagonal, against `variable` over `basis_state` kets passed
    through `partition_of_unity` with the same reduced state: the same
    target value, and the same flags."""
    reduced = {}
    real = games.intrinsic_part
    monkeypatch.setattr(games, "intrinsic_part",
                        lambda joint, factor: reduced.setdefault(factor, real(joint, factor)))
    step = games.derive_value_mn(m, n, (1, 0)).steps[4]
    buckets = {}
    for j, half in enumerate(games._block_labels(m, n)):
        buckets.setdefault(Fraction(int(half), 2), []).append(basis_state(n, j))
    sub = quantum_substrate(f"o-register[{n}]", n)
    x_o = variable(sub, [(lam, extensional_attribute(sub, states))
                         for lam, states in sorted(buckets.items())])
    weights = partition_of_unity(reduced[1], x_o).as_dict()
    value = sum(float(w) * float(lam) for lam, w in weights.items())
    assert step.computation["target_value"] == pytest.approx(value, rel=0, abs=1e-15)
    mirrored = all(abs(w - weights[-lam]) <= tol() for lam, w in weights.items())
    flags = [v for v in step.computation.values() if isinstance(v, bool)]
    assert step.check and mirrored and abs(value) <= tol() and all(flags)


# ---------------------------------------------------------------------------
# What stays checked


def test_union_of_variables_on_different_substrates_is_still_refused():
    x = state_variable(quantum_substrate("q", 2), [(0, basis_state(2, 0))])
    y = state_variable(quantum_substrate("r", 3), [(0, basis_state(3, 1))])
    with pytest.raises(DisjointnessError,
                       match=r"attribute \('y', 0\) lives on a different substrate"):
        predicates._superinformation_pair(x, y, QuantumModel(x.substrate))


def test_normalized_still_checks_a_norm_whose_square_underflows():
    # |v|^2 is subnormal here, so v/|v| misses unit norm by about 6e-6
    with pytest.raises(StateError, match=r"^vector norm 1\.00000\d+ is not 1 within tolerance$"):
        normalized([1e-160, 1e-160])


def test_cloning_onto_a_receptive_of_another_size_is_still_refused():
    q = quantum_substrate("q", 2)
    v = state_variable(q, [(0, basis_state(2, 0)), (1, basis_state(2, 1))])
    other = extensional_attribute(quantum_substrate("r", 3), [basis_state(3, 0)])
    with pytest.raises(Exception, match="task attribute on a different substrate"):
        cloning_task(v, other)


# rho and rho' differ by 1.5 tol entrywise; rho (x) I/2 and rho' (x) I/2 by 0.75 tol
def _near_pair():
    t = tol()
    return (MixedState(np.diag([0.5, 0.5])),
            MixedState(np.diag([0.5 + 1.5 * t, 0.5 - 1.5 * t])))


def test_mixed_products_keep_their_repeat_check():
    q = quantum_substrate("q", 2)
    rho, rho2 = _near_pair()
    pair = extensional_attribute(q, [rho, rho2])  # distinct as factors
    with pytest.raises(StateError, match=r"duplicate states in attribute \(up to phase\)"):
        product_attribute(pair, extensional_attribute(q, [MixedState(np.eye(2) / 2)]))


def test_mixed_cloning_tasks_and_products_keep_their_overlap_check():
    q = quantum_substrate("q", 2)
    rho, rho2 = _near_pair()
    v = variable(q, [(0, extensional_attribute(q, [rho])), (1, extensional_attribute(q, [rho2]))])
    noise = extensional_attribute(q, [MixedState(np.eye(2) / 2)])
    with pytest.raises(DisjointnessError, match="task input attributes overlap"):
        cloning_task(v, noise)
    with pytest.raises(DisjointnessError, match=r"attributes \(0, 0\) and \(1, 0\) overlap"):
        product_variable(v, variable(q, [(0, noise)]))


# ---------------------------------------------------------------------------
# The tolerance edge


def test_tensor_of_states_at_the_tolerance_edge_is_their_product():
    """Each factor has norm 1 + 0.9 tol and is accepted; their product, of norm
    about 1 + 1.8 tol, used to be refused by a second norm check.  It is now
    returned as the product it is."""
    edge = 1.0 + 0.9 * tol()
    a = PureState(np.array([edge, 0.0]))
    b = PureState(np.array([0.0, edge]))
    ab = tensor(a, b)
    assert isinstance(ab, PureState)
    assert ab.dims == (2, 2)
    assert np.array_equal(ab.vector, np.kron(a.vector, b.vector))
    # the validating constructor still refuses the same vector
    with pytest.raises(StateError, match=r"vector norm 1\.0000000018000001 is not 1 within"):
        PureState(ab.vector)

