"""Substrates, attributes, variables, tasks, and verdict dispatch."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctkit import (
    IMPOSSIBLE,
    POSSIBLE,
    ClassicalModel,
    DisjointnessError,
    DispatchError,
    InvalidCompositionError,
    LabelArithmeticError,
    QuantumModel,
    attribute_equal,
    attribute_union,
    attributes_disjoint,
    basis_state,
    classical_substrate,
    coarsen_variable,
    compose_substrates,
    contains_state,
    extensional_attribute,
    identity_task,
    is_task_possible,
    parallel_task,
    product_attribute,
    quantum_substrate,
    replay_witness,
    subspace_attribute,
    task,
    validate_variable,
    variable,
)

from conftest import basis_variable, plus, state_variable


# ---------------------------------------------------------------------------
# Substrates


def test_classical_substrate_universe(bit):
    assert bit.universe() == (0, 1)
    assert bit.size() == 2


def test_compose_classical_universes(bit):
    pair = compose_substrates(bit, bit)
    assert pair.size() == 4
    assert set(pair.universe()) == set(itertools.product([0, 1], [0, 1]))


def test_compose_three_lamps():
    lamp = classical_substrate("lamp", ["on", "off"])
    triple = compose_substrates(compose_substrates(lamp, lamp), lamp)
    assert triple.size() == 8
    assert all(len(s) == 3 for s in triple.universe())


def test_compose_quantum_dims(qubit):
    assert compose_substrates(qubit, qubit).dim == 4


def test_compose_rejects_mixed_kinds(bit, qubit):
    with pytest.raises(InvalidCompositionError):
        compose_substrates(bit, qubit)


def test_substrate_validation():
    with pytest.raises(InvalidCompositionError):
        classical_substrate("empty", [])
    with pytest.raises(InvalidCompositionError):
        classical_substrate("dupes", [0, 0])
    with pytest.raises(InvalidCompositionError):
        quantum_substrate("flat", 0)


# ---------------------------------------------------------------------------
# Attributes


def test_extensional_membership(bit):
    a = extensional_attribute(bit, [0])
    assert contains_state(a, 0)
    assert not contains_state(a, 1)


def test_subspace_membership(qubit):
    span = subspace_attribute(qubit, [basis_state(2, 0), basis_state(2, 1)])
    assert contains_state(span, plus())
    half = subspace_attribute(qubit, [basis_state(2, 0)])
    assert not contains_state(half, plus())


def test_disjointness_with_witness(qubit):
    a = extensional_attribute(qubit, [basis_state(2, 0)])
    b = extensional_attribute(qubit, [basis_state(2, 0), basis_state(2, 1)])
    ok, witness = attributes_disjoint(a, b)
    assert not ok
    assert witness is not None
    ok, _ = attributes_disjoint(
        a, extensional_attribute(qubit, [basis_state(2, 1)])
    )
    assert ok


def test_nonorthogonal_extensional_attributes_are_disjoint(qubit):
    # |0> and |+> are distinct states, so {|0>} and {|+>} share nothing.
    a = extensional_attribute(qubit, [basis_state(2, 0)])
    b = extensional_attribute(qubit, [plus()])
    ok, _ = attributes_disjoint(a, b)
    assert ok


def test_product_attribute_dims(qubit):
    a = extensional_attribute(qubit, [basis_state(2, 0)])
    b = extensional_attribute(qubit, [plus()])
    prod_attr = product_attribute(a, b)
    (joint,) = prod_attr.states
    assert joint.dims == (2, 2)


def test_attribute_union_and_equality(qubit):
    a = extensional_attribute(qubit, [basis_state(2, 0)])
    b = extensional_attribute(qubit, [basis_state(2, 1)])
    both = attribute_union([a, b])
    assert attribute_equal(
        both, extensional_attribute(qubit, [basis_state(2, 0), basis_state(2, 1)])
    )
    assert not attribute_equal(both, a)


# ---------------------------------------------------------------------------
# Variables


def test_variable_orthogonal_members_valid(qubit):
    x = basis_variable(qubit)
    assert x.labels == (0, 1)
    assert len(x) == 2


def test_variable_nonorthogonal_members_valid(qubit):
    # Distinct but overlapping-in-span states still form a variable.
    v = state_variable(qubit, [(0, basis_state(2, 0)), ("p", plus())])
    assert set(v.labels) == {0, "p"}


def test_variable_shared_state_rejected(qubit):
    zero = basis_state(2, 0)
    with pytest.raises(DisjointnessError):
        state_variable(qubit, [(0, zero), (1, zero)])


def test_variable_duplicate_label_rejected(qubit):
    with pytest.raises(DisjointnessError):
        state_variable(qubit, [(0, basis_state(2, 0)), (0, basis_state(2, 1))])


def test_validate_variable_empty():
    with pytest.raises(DisjointnessError):
        validate_variable([])


def test_variable_attribute_lookup(bit):
    x = basis_variable(bit)
    assert contains_state(x.attribute(1), 1)
    with pytest.raises(KeyError):
        x.attribute(2)


# ---------------------------------------------------------------------------
# Coarsening


def test_coarsen_sum_labels(bit):
    x = basis_variable(bit)
    xor_like = coarsen_variable(x, x, mode="sum")
    assert xor_like.labels == (0, 1, 2)
    # the middle bucket merges (0,1) and (1,0)
    middle = xor_like.attribute(1)
    assert contains_state(middle, (0, 1))
    assert contains_state(middle, (1, 0))
    assert not contains_state(middle, (0, 0))


def test_coarsen_product_labels(bit):
    x = basis_variable(bit)
    anded = coarsen_variable(x, x, mode="product")
    assert anded.labels == (0, 1)
    assert contains_state(anded.attribute(0), (0, 1))
    assert contains_state(anded.attribute(1), (1, 1))


def test_coarsen_rejects_nonnumeric_labels(bit):
    named = variable(
        bit, [("lo", extensional_attribute(bit, [0])), ("hi", extensional_attribute(bit, [1]))]
    )
    with pytest.raises(LabelArithmeticError):
        coarsen_variable(named, named)


def test_coarsen_quantum_sum(qubit):
    x = basis_variable(qubit)
    summed = coarsen_variable(x, x, mode="sum")
    assert summed.labels == (0, 1, 2)
    middle = summed.attribute(1)
    assert contains_state(middle, basis_state(4, 1, dims=(2, 2)))
    assert contains_state(middle, basis_state(4, 2, dims=(2, 2)))


# ---------------------------------------------------------------------------
# Tasks


def test_task_inputs_must_be_disjoint(qubit):
    zero = extensional_attribute(qubit, [basis_state(2, 0)])
    one = extensional_attribute(qubit, [basis_state(2, 1)])
    with pytest.raises(DisjointnessError):
        task(qubit, [(zero, one), (zero, zero)])


def test_classical_flip_possible(bit, bit_model):
    b0 = extensional_attribute(bit, [0])
    b1 = extensional_attribute(bit, [1])
    flip = task(bit, [(b0, b1), (b1, b0)])
    verdict = is_task_possible(flip, bit_model)
    assert verdict.status == POSSIBLE
    assert replay_witness(flip, bit_model, verdict)


def test_empty_task_possible(bit, bit_model):
    verdict = is_task_possible(task(bit, []), bit_model)
    assert verdict.status == POSSIBLE
    assert replay_witness(task(bit, []), bit_model, verdict)


def test_cloning_nonorthogonal_impossible(qubit, qubit_model):
    # receptive blank + two non-orthogonal sources: no constructor exists
    pair = compose_substrates(qubit, qubit)
    blank = basis_state(2, 0)
    sources = [basis_state(2, 0), plus()]
    pairs = [
        (
            product_attribute(
                extensional_attribute(qubit, [s]), extensional_attribute(qubit, [blank])
            ),
            product_attribute(
                extensional_attribute(qubit, [s]), extensional_attribute(qubit, [s])
            ),
        )
        for s in sources
    ]
    clone = task(pair, pairs, side_effects=True)
    verdict = is_task_possible(clone, QuantumModel(pair))
    assert verdict.status == IMPOSSIBLE


def test_dispatch_kind_mismatch(bit, qubit_model):
    flip = identity_task(bit)
    with pytest.raises(DispatchError):
        is_task_possible(flip, qubit_model)


def test_identity_task_possible(bit, bit_model, qubit, qubit_model):
    assert is_task_possible(identity_task(bit), bit_model).possible
    assert is_task_possible(identity_task(qubit), qubit_model).possible


def test_parallel_task_pairs(bit):
    b0 = extensional_attribute(bit, [0])
    b1 = extensional_attribute(bit, [1])
    flip = task(bit, [(b0, b1), (b1, b0)])
    both = parallel_task(flip, flip)
    assert len(both.pairs) == 4
    assert both.substrate.size() == 4


# ---------------------------------------------------------------------------
# Properties

label_sets = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4, unique=True)


@given(label_sets, label_sets)
def test_coarsen_label_arithmetic(labels_a, labels_b):
    """Coarsened labels are exactly the pairwise sums / products."""
    sub_a = classical_substrate("a", labels_a)
    sub_b = classical_substrate("b", labels_b)
    xa, xb = basis_variable(sub_a), basis_variable(sub_b)
    summed = coarsen_variable(xa, xb, mode="sum")
    assert set(summed.labels) == {p + q for p in labels_a for q in labels_b}
    times = coarsen_variable(xa, xb, mode="product")
    assert set(times.labels) == {p * q for p in labels_a for q in labels_b}


@given(label_sets, label_sets)
def test_coarsen_output_passes_validation(labels_a, labels_b):
    sub_a = classical_substrate("a", labels_a)
    sub_b = classical_substrate("b", labels_b)
    merged = coarsen_variable(basis_variable(sub_a), basis_variable(sub_b))
    validate_variable(merged.members, substrate=merged.substrate)


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=3))
def test_compose_order_does_not_change_size(da, db):
    a, b = quantum_substrate("a", da), quantum_substrate("b", db)
    assert compose_substrates(a, b).dim == compose_substrates(b, a).dim == da * db


@given(st.permutations([0, 1]))
def test_identity_parallel_preserves_verdict(image):
    """T parallel identity has the same status as T alone."""
    bit = classical_substrate("bit", [0, 1])
    model = ClassicalModel(bit)
    t = task(
        bit,
        [
            (extensional_attribute(bit, [k]), extensional_attribute(bit, [image[k]]))
            for k in range(2)
        ],
    )
    padded = parallel_task(t, identity_task(bit))
    pair_model = ClassicalModel(compose_substrates(bit, bit))
    assert is_task_possible(t, model).status == is_task_possible(padded, pair_model).status


@given(st.permutations(list(range(4))))
def test_witness_replay_roundtrip(image):
    sub = classical_substrate("quad", list(range(4)))
    model = ClassicalModel(sub)
    t = task(
        sub,
        [
            (extensional_attribute(sub, [k]), extensional_attribute(sub, [image[k]]))
            for k in range(4)
        ],
    )
    verdict = is_task_possible(t, model)
    assert verdict.status == POSSIBLE
    assert replay_witness(t, model, verdict)


def test_the_shared_classical_state_is_the_first_in_the_first_attribute():
    lit = extensional_attribute(classical_substrate("light", ["red", "amber", "green"]),
                                ["red", "amber", "green"])
    back = extensional_attribute(lit.substrate, ["green", "amber"])
    assert attributes_disjoint(lit, back) == (False, "amber")
    assert attributes_disjoint(back, lit) == (False, "green")
