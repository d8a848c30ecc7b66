"""Information, distinguishability, observables, superinformation, mixtures."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctkit import (
    UNKNOWN,
    DomainError,
    InvalidCompositionError,
    MeasurerConformanceError,
    MixedState,
    PureState,
    RepresentationError,
    bar,
    basis_state,
    blank_attribute,
    build_measurer,
    check_measurement_consistency,
    compose_substrates,
    detect_superinformation,
    distinguishing_task,
    extensional_attribute,
    generalised_mixture_kind,
    is_computation_variable,
    is_distinguishable,
    is_generalised_mixture,
    is_information_variable,
    is_measurable,
    is_observable,
    normalized,
    product_attribute,
    product_variable,
    quantum_substrate,
    restricted_variable,
    span_closure,
    subspace_attribute,
    task,
    variable,
)

from conftest import basis_variable, minus, plus, state_variable


@pytest.fixture
def x_basis(qubit):
    return basis_variable(qubit)


@pytest.fixture
def y_diag(qubit):
    return state_variable(qubit, [("+", plus()), ("-", minus())])


@pytest.fixture
def skew(qubit):
    # distinct but non-orthogonal members
    return state_variable(qubit, [(0, basis_state(2, 0)), ("p", plus())])


# ---------------------------------------------------------------------------
# Computation and information variables


def test_basis_is_information_variable(x_basis, qubit_model):
    report = is_information_variable(x_basis, qubit_model)
    assert report.verdict
    assert report.evidence["computation"].verdict
    assert bool(report)


def test_classical_variable_is_information(bit, bit_model):
    assert is_information_variable(basis_variable(bit), bit_model).verdict


def test_skew_pair_is_computation_but_not_information(skew, qubit_model):
    # the swap survives side effects (unit overlap ratio), cloning does not
    assert is_computation_variable(skew, qubit_model).verdict
    report = is_information_variable(skew, qubit_model)
    assert not report.verdict
    assert report.evidence["computation"] is None
    statuses = {v.status for v in report.evidence["cloning"].values()}
    assert statuses == {"impossible"}


def test_blank_attribute_forms(bit, qubit):
    assert blank_attribute(bit).states == (0,)
    (s,) = blank_attribute(qubit).states
    assert np.allclose(s.vector, [1, 0])


# ---------------------------------------------------------------------------
# Distinguishability and measurability


def test_distinguishable_iff_orthogonal(x_basis, skew, qubit_model):
    assert is_distinguishable(x_basis, qubit_model).verdict
    report = is_distinguishable(skew, qubit_model)
    assert not report.verdict
    label_a, label_b, overlap = report.evidence["witness"]
    assert {label_a, label_b} == {0, "p"}
    assert overlap == pytest.approx(1 / np.sqrt(2))


def test_classical_always_distinguishable(bit, bit_model):
    assert is_distinguishable(basis_variable(bit), bit_model).verdict


def test_measurable_follows_spans(x_basis, skew, qubit_model):
    assert is_measurable(x_basis, qubit_model).verdict
    assert not is_measurable(skew, qubit_model).verdict
    flagged = is_measurable(x_basis, qubit_model, non_perturbing=True)
    assert flagged.verdict and flagged.evidence["non_perturbing"]


def test_subspace_plus_state_is_measurable(qutrit, qutrit_model):
    lower = subspace_attribute(qutrit, [basis_state(3, 0), basis_state(3, 1)])
    top = extensional_attribute(qutrit, [basis_state(3, 2)])
    z = variable(qutrit, [("u", lower), (2, top)])
    assert is_measurable(z, qutrit_model).verdict


def test_coarsened_variable_is_measurable(qubit, x_basis):
    from ctkit import QuantumModel, coarsen_variable, compose_substrates

    summed = coarsen_variable(x_basis, x_basis)
    model = QuantumModel(compose_substrates(qubit, qubit))
    assert is_measurable(summed, model).verdict


def test_distinguishing_task_guards(bit, qutrit):
    with pytest.raises(RepresentationError):
        distinguishing_task(basis_variable(bit))
    four = state_variable(
        qutrit,
        [(k, normalized(np.eye(3)[k % 3] + 0.1 * k * np.eye(3)[(k + 1) % 3])) for k in range(4)],
    )
    with pytest.raises(DomainError):
        distinguishing_task(four)


# ---------------------------------------------------------------------------
# Bar and span closure


def test_classical_bar_is_set_complement():
    from ctkit import ClassicalModel, classical_substrate

    light = classical_substrate("light", ["red", "amber", "green", "off"])
    model = ClassicalModel(light)
    rest = bar(extensional_attribute(light, ["red"]), model)
    assert set(rest.states) == {"amber", "green", "off"}
    with pytest.raises(DomainError):
        bar(extensional_attribute(light, light.universe()), model)


def test_quantum_bar_is_orthocomplement(qubit, qubit_model):
    rest = bar(extensional_attribute(qubit, [basis_state(2, 0)]), qubit_model)
    assert rest.is_subspace
    (b,) = rest.basis
    assert abs(b.vector[0]) < 1e-12


def test_bar_involution_on_subspaces(qutrit, qutrit_model):
    from ctkit import attribute_equal

    a = subspace_attribute(qutrit, [basis_state(3, 0), basis_state(3, 2)])
    assert attribute_equal(bar(bar(a, qutrit_model), qutrit_model), a)


def test_bar_is_antitone(qutrit, qutrit_model):
    from ctkit import attribute_subset

    small = subspace_attribute(qutrit, [basis_state(3, 0)])
    big = subspace_attribute(qutrit, [basis_state(3, 0), basis_state(3, 1)])
    assert attribute_subset(small, big)
    assert attribute_subset(bar(big, qutrit_model), bar(small, qutrit_model))


def test_span_closure_of_basis_variable(qubit, x_basis):
    closed = span_closure(x_basis)
    assert closed.is_subspace
    assert len(closed.basis) == 2


def test_span_closure_rejects_classical(bit):
    with pytest.raises(RepresentationError, match="span is a quantum notion"):
        span_closure(basis_variable(bit))


# ---------------------------------------------------------------------------
# Observables


def test_multi_state_member_blocks_observable(qutrit, qutrit_model):
    union = extensional_attribute(qutrit, [basis_state(3, 0), basis_state(3, 1)])
    top = extensional_attribute(qutrit, [basis_state(3, 2)])
    z = variable(qutrit, [("u", union), (2, top)])
    report = is_observable(z, qutrit_model)
    assert not report.verdict
    assert "u" in report.evidence["open_members"]


def test_span_closed_member_restores_observable(qutrit, qutrit_model):
    union = extensional_attribute(qutrit, [basis_state(3, 0), basis_state(3, 1)])
    top = extensional_attribute(qutrit, [basis_state(3, 2)])
    z_prime = variable(qutrit, [("u", span_closure(union)), (2, top)])
    assert is_observable(z_prime, qutrit_model).verdict


def test_single_state_members_are_observable(x_basis, qubit_model, bit, bit_model):
    assert is_observable(x_basis, qubit_model).verdict
    assert is_observable(basis_variable(bit), bit_model).verdict


# ---------------------------------------------------------------------------
# Superinformation


def test_conjugate_bases_carry_superinformation(x_basis, y_diag, qubit_model):
    report = detect_superinformation(x_basis, y_diag, qubit_model)
    assert report.verdict
    union_info = report.evidence["union_information"]
    assert not union_info.verdict  # the union is not clonable


def test_superinformation_is_symmetric(x_basis, y_diag, qubit_model):
    fwd = detect_superinformation(x_basis, y_diag, qubit_model)
    rev = detect_superinformation(y_diag, x_basis, qubit_model)
    assert fwd.verdict == rev.verdict == True  # noqa: E712


def test_classical_pair_has_no_superinformation(bit, bit_model):
    x = basis_variable(bit)
    y = variable(bit, [(0, x.attribute(1)), (1, x.attribute(0))])
    report = detect_superinformation(x, y, bit_model)
    assert not report.verdict


def test_relabeled_copy_is_not_superinformation(qubit, x_basis, qubit_model):
    # same attributes under new labels: cross disjointness fails
    flipped = variable(
        qubit, [(0, x_basis.attribute(1)), (1, x_basis.attribute(0))]
    )
    report = detect_superinformation(x_basis, flipped, qubit_model)
    assert not report.verdict
    assert report.evidence["failed"] == "cross disjointness"


def test_skew_member_blocks_superinformation(skew, y_diag, qubit_model):
    report = detect_superinformation(skew, y_diag, qubit_model)
    assert not report.verdict
    assert "information observable" in report.evidence["failed"]


# ---------------------------------------------------------------------------
# Restriction and generalised mixtures


def test_restriction_keeps_overlapping_members(qubit, x_basis):
    y = extensional_attribute(qubit, [plus()])
    assert restricted_variable(x_basis, y).labels == (0, 1)
    sharp = extensional_attribute(qubit, [basis_state(2, 0)])
    assert restricted_variable(x_basis, sharp).labels == (0,)


def test_restriction_by_maximal_mixture_keeps_everything(qutrit):
    x = basis_variable(qutrit)
    mix = extensional_attribute(qutrit, [MixedState(np.eye(3) / 3)])
    assert restricted_variable(x, mix).labels == (0, 1, 2)


def test_empty_restriction_raises(qubit, y_diag):
    y = extensional_attribute(qubit, [minus()])
    only_plus = variable(qubit, [("+", y_diag.attribute("+"))])
    with pytest.raises(DomainError):
        restricted_variable(only_plus, y)


def test_restriction_is_quantum_only(bit):
    x = basis_variable(bit)
    with pytest.raises(RepresentationError):
        restricted_variable(x, extensional_attribute(bit, [0]))


def test_superposition_is_a_generalised_mixture(qubit, x_basis, qubit_model):
    z = extensional_attribute(qubit, [plus()])
    report = is_generalised_mixture(z, x_basis, qubit_model)
    assert report.verdict
    assert report.evidence["span_sharpness_gap"] <= 1e-9


def test_member_is_a_trivial_mixture(qubit, x_basis, qubit_model):
    z = extensional_attribute(qubit, [basis_state(2, 0)])
    report = is_generalised_mixture(z, x_basis, qubit_model)
    assert report.verdict
    assert report.evidence["trivial"] == 0


def test_state_outside_the_span_is_no_mixture(qutrit, qutrit_model):
    h = state_variable(qutrit, [(0, basis_state(3, 0)), (1, basis_state(3, 1))])
    z = extensional_attribute(qutrit, [basis_state(3, 2)])
    report = is_generalised_mixture(z, h, qutrit_model)
    assert not report.verdict
    assert report.evidence["span_sharpness_gap"] == pytest.approx(1.0)


def test_complex_subspace_mixture_is_read_against_the_span_itself(qutrit, qutrit_model):
    # span closure of h is span{(1, i, 0), e2}; its complex conjugate is not
    a, b = normalized([1, 1j, 0]), basis_state(3, 2)
    h = state_variable(qutrit, [("a", a), ("b", b)])
    z = subspace_attribute(qutrit, (normalized(a.vector + b.vector),))
    report = is_generalised_mixture(z, h, qutrit_model)
    assert report.verdict
    assert report.evidence["span_sharpness_gap"] == pytest.approx(0.0, abs=1e-12)


def test_bar_of_a_complex_state_is_its_orthogonal_complement(qubit, qubit_model):
    y = extensional_attribute(qubit, [normalized([1, 1j])])
    (rest,) = bar(y, qubit_model).basis
    assert abs(np.vdot(normalized([1, -1j]).vector, rest.vector)) == pytest.approx(1.0)


def test_classical_mixtures_are_only_trivial(bit, bit_model):
    x = basis_variable(bit)
    assert is_generalised_mixture(extensional_attribute(bit, [0]), x, bit_model).verdict
    both = extensional_attribute(bit, [0, 1])
    assert not is_generalised_mixture(both, x, bit_model).verdict


def test_mixture_kind_classification(qubit, qutrit, x_basis, qubit_model, qutrit_model):
    assert generalised_mixture_kind(plus(), x_basis, qubit_model) == "mixture"
    assert generalised_mixture_kind(basis_state(2, 0), x_basis, qubit_model) == "member"
    h = state_variable(qutrit, [(0, basis_state(3, 0)), (1, basis_state(3, 1))])
    assert generalised_mixture_kind(basis_state(3, 2), h, qutrit_model) == "outside"


# ---------------------------------------------------------------------------
# Measurement consistency


def test_two_honest_implementations_agree(qubit, x_basis):
    direct = build_measurer(x_basis)
    renamed = build_measurer(x_basis, labeling={0: 1, 1: 0})
    probes = [extensional_attribute(qubit, [basis_state(2, 0), basis_state(2, 1), plus()])]
    report = check_measurement_consistency(x_basis, [direct, renamed], probes)
    assert report.verdict
    assert report.evidence["probes"] == 3


def test_mislabeled_cover_is_caught(qubit, x_basis):
    direct = build_measurer(x_basis)
    lying = (build_measurer(x_basis), {0: (1,), 1: (0,)})
    probes = [extensional_attribute(qubit, [basis_state(2, 0)])]
    report = check_measurement_consistency(x_basis, [direct, lying], probes)
    assert not report.verdict
    assert report.evidence["readings"] == [0, 1]


def test_refining_implementation_agrees_through_a_cover(qutrit):
    lower = subspace_attribute(qutrit, [basis_state(3, 0), basis_state(3, 1)])
    top = extensional_attribute(qutrit, [basis_state(3, 2)])
    z = variable(qutrit, [("u", lower), (2, top)])
    coarse = build_measurer(z)
    fine = build_measurer(basis_variable(qutrit))  # auto-cover: {u: (0, 1), 2: (2,)}
    probes = [
        extensional_attribute(
            qutrit, [basis_state(3, 0), basis_state(3, 2), normalized([1, 1, 0])]
        )
    ]
    report = check_measurement_consistency(z, [coarse, fine], probes)
    assert report.verdict


def test_cover_validation(qutrit, qubit):
    x = basis_variable(qubit)
    m = build_measurer(x)
    with pytest.raises(MeasurerConformanceError):
        check_measurement_consistency(x, [(m, {"zz": (0,)})], [])
    with pytest.raises(MeasurerConformanceError):
        check_measurement_consistency(x, [(m, {0: (7,)})], [])
    with pytest.raises(MeasurerConformanceError):
        check_measurement_consistency(x, [(m, {0: (0,), 1: (0,)})], [])


def test_straddling_implementation_is_rejected(qubit, x_basis):
    diag = build_measurer(state_variable(qubit, [("+", plus()), ("-", minus())]))
    probes = [extensional_attribute(qubit, [basis_state(2, 0)])]
    with pytest.raises(MeasurerConformanceError):
        check_measurement_consistency(x_basis, [diag], probes)


def test_probe_must_stay_in_span(qutrit):
    z = state_variable(qutrit, [(0, basis_state(3, 0)), (1, basis_state(3, 1))])
    m = build_measurer(z, target_dim=3)
    with pytest.raises(DomainError):
        check_measurement_consistency(
            z, [m], [extensional_attribute(qutrit, [basis_state(3, 2)])]
        )


# ---------------------------------------------------------------------------
# Properties

seed_st = st.integers(min_value=0, max_value=2**32 - 1)


def _random_variable(seed, dim=3):
    """Half the draws are orthonormal member states, half are skewed."""
    from ctkit import quantum_substrate

    rng = np.random.default_rng(seed)
    sub = quantum_substrate("s", dim)
    raw = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    if seed % 2:
        q, _ = np.linalg.qr(raw.T.conj())
        states = [normalized(q[:, 0]), normalized(q[:, 1])]
    else:
        states = [normalized(raw[0]), normalized(raw[1])]
        if abs(np.vdot(states[0].vector, states[1].vector)) > 1 - 1e-6:
            return None
    return sub, state_variable(sub, [(0, states[0]), (1, states[1])])


@given(seed_st)
def test_information_implies_distinguishable_implies_measurable(seed):
    from ctkit import QuantumModel

    built = _random_variable(seed)
    if built is None:
        return
    sub, v = built
    model = QuantumModel(sub)
    info = is_information_variable(v, model)
    dist = is_distinguishable(v, model)
    meas = is_measurable(v, model)
    if info.verdict:
        assert dist.verdict
    if dist.verdict:
        assert meas.verdict
    # the cloning sweep must never fall into the unknown branch
    for verdict in info.evidence["cloning"].values():
        assert verdict.status != UNKNOWN


@given(seed_st)
def test_distinguishable_matches_the_task_oracle(seed):
    """The orthogonality fast path agrees with the distinguishing task."""
    from ctkit import QuantumModel, is_task_possible

    built = _random_variable(seed)
    if built is None:
        return
    sub, v = built
    model = QuantumModel(sub)
    by_span = is_distinguishable(v, model).verdict
    by_task = is_task_possible(distinguishing_task(v), model)
    assert by_task.status != UNKNOWN
    assert by_span == (by_task.status == "possible")


def test_product_of_information_variables_is_information(qubit, x_basis):
    from ctkit import QuantumModel, compose_substrates

    pair_model = QuantumModel(compose_substrates(qubit, qubit))
    prod = product_variable(x_basis, x_basis)
    assert set(prod.labels) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert is_information_variable(prod, pair_model).verdict


def test_classical_bar_on_a_composite_keeps_universe_order():
    from ctkit import ClassicalModel, classical_substrate, compose_substrates

    a = classical_substrate("a", range(6))
    pair = compose_substrates(a, classical_substrate("b", "xyz"))
    held = [(5, "z"), (0, "x"), (2, "y")]
    rest = bar(extensional_attribute(pair, held), ClassicalModel(pair))
    assert rest.states == tuple(s for s in pair.universe() if s not in held)


# ---------------------------------------------------------------------------
# The shared cloning construction


def test_cloning_candidates_share_the_outputs():
    from unittest import mock

    from ctkit import QuantumModel, cloning_task, is_task_possible, quantum_substrate
    import ctkit.predicates as predicates

    rng = np.random.default_rng(12)
    d = 16
    sub = quantum_substrate("q16", d)
    v = state_variable(sub, [(k, normalized(rng.normal(size=d) + 1j * rng.normal(size=d)))
                             for k in range(12)])
    model = QuantumModel(sub)
    with mock.patch.object(predicates, "_gram_feasible",
                           wraps=predicates._gram_feasible) as core:
        report = is_information_variable(v, model)
    # one decision, the blank's, on the 12 inputs and the 12 (x, x) outputs;
    # every member is a lone unit state, so it takes the blank's verdict
    assert core.call_count == 1
    g_in, g_cand = core.call_args.args[:2]
    assert g_in.shape == g_cand.shape == (12, 12)
    assert not report.verdict
    assert set(report.evidence) == {"cloning", "computation"}
    assert list(report.evidence["cloning"]) == ["blank", *v.labels]
    assert len({id(verdict) for verdict in report.evidence["cloning"].values()}) == 1
    receptives = [blank_attribute(sub), *v.attributes]
    for verdict, receptive in zip(report.evidence["cloning"].values(), receptives):
        assert verdict.status == is_task_possible(cloning_task(v, receptive), model).status
        assert not verdict.possible


def test_information_variable_stops_at_the_first_clonable_candidate(x_basis, qubit_model):
    from unittest import mock

    import ctkit.predicates as predicates

    with mock.patch.object(predicates, "_gram_feasible",
                           wraps=predicates._gram_feasible) as core:
        report = is_information_variable(x_basis, qubit_model)
    # the blank's cloning decision and the one transposition; no later
    # receptive is decided
    assert core.call_count == 1 + 1
    assert report.verdict
    assert list(report.evidence["cloning"]) == ["blank"]
    assert report.evidence["receptive"] == "blank"
    assert list(report.evidence["computation"].evidence["transpositions"]) == [(0, 1)]


def _same_attribute(a, b):
    if (a.substrate, a.is_subspace, len(a.elements)) != (b.substrate, b.is_subspace, len(b.elements)):
        return False
    return all(type(s) is type(r) and s.dims == r.dims and np.array_equal(
        s.vector if isinstance(s, PureState) else s.matrix,
        r.vector if isinstance(r, PureState) else r.matrix) for s, r in zip(a.elements, b.elements))


def _public_cloning_task(v, receptive):
    """The cloning task built through `product_attribute`, one composite per product."""
    pairs = [(product_attribute(a, receptive), product_attribute(a, a)) for a in v.attributes]
    return task(compose_substrates(v.substrate, v.substrate), pairs, side_effects=True)


def test_a_cloning_sweep_composes_its_substrates_once():
    from unittest import mock

    import ctkit.kernel as kernel
    import ctkit.predicates as predicates

    rng = np.random.default_rng(14)
    d = 4
    sub, twin, big = (quantum_substrate(name, dim) for name, dim in (("q", d), ("q'", d), ("q8", 8)))
    v = state_variable(sub, [(k, normalized(rng.normal(size=d) + 1j * rng.normal(size=d)))
                             for k in range(3)])
    receptives = [blank_attribute(sub), *v.attributes,
                  extensional_attribute(twin, [basis_state(d, 1)])]  # same size, other substrate
    other_size = extensional_attribute(big, [basis_state(8, 0)])
    calls = []
    compose = kernel.compose_substrates

    def counted(a, b):
        calls.append((a.id, b.id))
        return compose(a, b)

    with mock.patch.object(kernel, "compose_substrates", counted), \
            mock.patch.object(predicates, "compose_substrates", counted):
        tasks = list(predicates._cloning_tasks(v, receptives))
        with pytest.raises(InvalidCompositionError, match="task attribute on a different substrate"):
            next(predicates._cloning_tasks(v, [other_size]))
        prod = product_variable(v, v)
    # one shared composite per sweep, and one per product with a receptive on another substrate
    assert calls == [("q", "q")] + [("q", "q'")] * 3 + [("q", "q")] + [("q", "q8")] * 3 + [("q", "q")]
    with pytest.raises(InvalidCompositionError, match="task attribute on a different substrate"):
        _public_cloning_task(v, other_size)
    assert len(tasks) == len(receptives)
    for receptive, got in zip(receptives, tasks):
        want = _public_cloning_task(v, receptive)
        assert (got.substrate, got.side_effects) == (want.substrate, want.side_effects)
        assert len(got.pairs) == len(want.pairs)
        assert all(_same_attribute(a, b) and _same_attribute(c, e)
                   for (a, c), (b, e) in zip(got.pairs, want.pairs))
    factors = [(a1, a2) for a1 in v.attributes for a2 in v.attributes]
    assert prod.labels == tuple((l1, l2) for l1 in v.labels for l2 in v.labels)
    assert all(_same_attribute(got, product_attribute(a1, a2))
               for got, (a1, a2) in zip(prod.attributes, factors))
