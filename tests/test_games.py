"""Games, transforms, the payoff adder, the value derivation, decision support."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctkit import (
    DomainError,
    IllegitimateAttributeError,
    LabelArithmeticError,
    PreconditionError,
    SizeLimitError,
    TransformError,
    UnsupportedInputError,
    apply_adder,
    basis_state,
    build_adder,
    check_decision_support,
    check_equal_value,
    compose_games,
    derive_value,
    derive_value_mn,
    exact_game_value,
    extensional_attribute,
    game_value,
    make_game,
    normalized,
    render_trace,
    states_equal,
    tensor,
    transform_game,
    variable,
)
from ctkit.games import Game
from ctkit.tolerance import tol

from conftest import basis_variable, ket, minus, plus, state_variable

RULE_SEQUENCE = (
    "ShiftRule",
    "ReflectionRule",
    "SymmetricBase",
    "MeasurementNeutrality",
    "EqualValue",
    "Additivity",
    "NonSymmetric",
)


def payoff_variable(qubit, labels=(0, 1)):
    return state_variable(qubit, [(labels[0], basis_state(2, 0)),
                                  (labels[1], basis_state(2, 1))])


def held(qubit, state):
    return extensional_attribute(qubit, [state])


# ---------------------------------------------------------------------------
# Games and values


def test_superposition_game_value(qubit):
    g = make_game(payoff_variable(qubit), held(qubit, plus()))
    assert game_value(g) == pytest.approx(0.5)


def test_sharp_game_value(qubit):
    g = make_game(payoff_variable(qubit), held(qubit, basis_state(2, 1)))
    assert game_value(g) == pytest.approx(1.0)


def test_skew_game_value(qubit):
    x = payoff_variable(qubit, labels=(10, -2))
    g = make_game(x, held(qubit, ket(np.sqrt(1 / 3), np.sqrt(2 / 3))))
    assert game_value(g) == pytest.approx(2.0)


def test_attribute_outside_span_is_illegitimate(qutrit):
    x = state_variable(qutrit, [(0, basis_state(3, 0)), (1, basis_state(3, 1))])
    with pytest.raises(IllegitimateAttributeError):
        make_game(x, extensional_attribute(qutrit, [basis_state(3, 2)]))


def test_payoff_labels_must_be_real(qubit):
    x = state_variable(qubit, [("w", basis_state(2, 0)), ("l", basis_state(2, 1))])
    with pytest.raises(LabelArithmeticError):
        make_game(x, held(qubit, plus()))


def test_compose_games_adds_payoffs(qubit):
    g1 = make_game(payoff_variable(qubit), held(qubit, basis_state(2, 1)))
    g2 = make_game(payoff_variable(qubit), held(qubit, basis_state(2, 0)))
    joint = compose_games(g1, g2)
    assert joint.observable.labels == (0, 1, 2)
    assert joint.children == (g1, g2)
    assert not joint.atomic
    assert game_value(joint) == pytest.approx(1.0)


def test_exact_game_value():
    v = exact_game_value([Fraction(1, 3), Fraction(2, 3)], [10, -2])
    assert v == Fraction(2)
    with pytest.raises(DomainError):
        exact_game_value([Fraction(1, 2)], [1, 2])
    with pytest.raises(DomainError):
        exact_game_value([Fraction(1, 2), Fraction(1, 3)], [1, 2])


# ---------------------------------------------------------------------------
# Transforms


def test_shift_moves_the_value(qubit):
    g = make_game(payoff_variable(qubit), held(qubit, plus()))
    shifted = transform_game(g, "shift", k=3)
    assert shifted.observable.labels == (3, 4)
    assert game_value(shifted) == pytest.approx(3.5)


def test_reflection_negates_the_value(qubit):
    g = make_game(payoff_variable(qubit), held(qubit, plus()))
    mirrored = transform_game(g, "reflection")
    assert game_value(mirrored) == pytest.approx(-0.5)
    assert transform_game(mirrored, "reflection").observable.labels == (0, 1)


def test_permutation_relabels(qubit):
    g = make_game(payoff_variable(qubit), held(qubit, basis_state(2, 0)))
    swapped = transform_game(g, "permutation", mapping={0: 1, 1: 0})
    assert game_value(swapped) == pytest.approx(1.0)


def test_transform_validation(qubit):
    g = make_game(payoff_variable(qubit), held(qubit, plus()))
    with pytest.raises(TransformError):
        transform_game(g, "squash")
    with pytest.raises(TransformError):
        transform_game(g, "permutation")
    with pytest.raises(TransformError):
        transform_game(g, "permutation", mapping={0: 1, 1: 1})
    with pytest.raises(TransformError):
        transform_game(g, "permutation", mapping={0: 1})
    with pytest.raises(LabelArithmeticError):
        transform_game(g, "permutation", mapping={0: "w", 1: 1})


def test_attribute_target_acts_on_the_state(qubit):
    g = make_game(payoff_variable(qubit), held(qubit, basis_state(2, 0)))
    moved = transform_game(g, "permutation", mapping={0: 1, 1: 0}, target="attribute")
    # the held state was pushed through the swap computation
    assert moved.observable.labels == (0, 1)
    assert game_value(moved) == pytest.approx(1.0)


def test_attribute_target_needs_a_closed_label_set(qubit):
    g = make_game(payoff_variable(qubit), held(qubit, plus()))
    with pytest.raises(TransformError):
        transform_game(g, "shift", k=3, target="attribute")


# ---------------------------------------------------------------------------
# The payoff adder


def test_adder_shifts_the_register(qubit):
    adder = build_adder(payoff_variable(qubit), (0, 1, 2))
    src_one = tensor(basis_state(2, 1), basis_state(3, 1))
    assert states_equal(apply_adder(adder, src_one),
                        tensor(basis_state(2, 1), basis_state(3, 2)))
    src_zero = tensor(basis_state(2, 0), basis_state(3, 1))
    assert states_equal(apply_adder(adder, src_zero), src_zero)


def test_adder_is_unitary_even_off_register(qubit):
    adder = build_adder(payoff_variable(qubit), (0, 1, 2))
    u = adder.unitary
    assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-9)
    # 1 + 2 falls off the register; the completion still lands on a basis state
    out = apply_adder(adder, tensor(basis_state(2, 1), basis_state(3, 2)))
    assert max(abs(out.vector)) == pytest.approx(1.0)


def test_adder_unitary_is_the_explicit_shift_permutations(qubit):
    # register (-1, 0, 1, 2), indices 0..3.  Label -1: sums -1, 0, 1 land on
    # indices 0, 1, 2 and -2 falls off, so input 0 takes the free output 3.
    # Label 2: sums 1, 2 land on 2, 3 and 3, 4 fall off, so inputs 2, 3 take
    # the free outputs 0, 1 in order.  Column i of a shift is the image of i.
    adder = build_adder(payoff_variable(qubit, labels=(-1, 2)), (-1, 0, 1, 2))
    shift_minus_one = np.array([[0, 1, 0, 0],
                                [0, 0, 1, 0],
                                [0, 0, 0, 1],
                                [1, 0, 0, 0]])
    shift_two = np.array([[0, 0, 1, 0],
                          [0, 0, 0, 1],
                          [1, 0, 0, 0],
                          [0, 1, 0, 0]])
    expected = np.zeros((8, 8))
    expected[:4, :4], expected[4:, 4:] = shift_minus_one, shift_two
    assert np.array_equal(adder.unitary, expected)


def test_adder_rejects_duplicate_register_labels(qubit):
    with pytest.raises(LabelArithmeticError):
        build_adder(payoff_variable(qubit), (0, 0, 1))


# ---------------------------------------------------------------------------
# Equal value


def test_equal_value_procedure_passes(qubit, qubit_model):
    x = payoff_variable(qubit)
    h = state_variable(qubit, [("+", plus()), ("-", minus())])
    step = check_equal_value(x, h, held(qubit, basis_state(2, 0)), qubit_model)
    assert step.rule == "EqualValue"
    assert step.check
    assert step.computation["end_value"] == pytest.approx(0.5)


def test_equal_value_needs_equal_member_values(qubit, qubit_model):
    x = payoff_variable(qubit)
    h = basis_variable(qubit)  # member values 0 and 1
    with pytest.raises(PreconditionError):
        check_equal_value(x, h, held(qubit, plus()), qubit_model)


# ---------------------------------------------------------------------------
# The derivation


def test_half_half_derivation():
    trace = derive_value_mn(1, 2, (0, 1))
    assert trace.final_value == Fraction(1, 2)
    assert tuple(s.rule for s in trace.steps) == RULE_SEQUENCE
    assert trace.all_checks_pass


def test_third_derivation_with_negative_payoff():
    trace = derive_value_mn(1, 3, (10, -2))
    assert trace.final_value == Fraction(2)
    assert trace.all_checks_pass


def test_degenerate_traces_are_single_steps():
    sharp = derive_value_mn(0, 4, (7, 3))
    assert sharp.final_value == Fraction(3)
    assert [s.rule for s in sharp.steps] == ["EqualValue"]
    assert sharp.all_checks_pass
    flat = derive_value_mn(2, 5, (1, 1))
    assert flat.final_value == Fraction(1)
    assert len(flat.steps) == 1
    assert flat.all_checks_pass


def test_derivation_input_checks():
    with pytest.raises(DomainError):
        derive_value_mn(3, 2, (0, 1))
    with pytest.raises(SizeLimitError):
        derive_value_mn(1, 65, (0, 1))
    with pytest.raises(DomainError):
        derive_value_mn(1, 2, (0, 1, 2))
    with pytest.raises(UnsupportedInputError):
        derive_value_mn(1, 2, (0, "payoff"))


@pytest.mark.parametrize("m, n, payoffs", [
    (2, 3, (123456789, 7)),
    (20, 41, (123456789, 7)),
    (5, 12, (10 ** 9 + 7, -3)),
    (3, 64, (10 ** 9 + 7, 0)),
])
def test_large_payoffs_pass_every_check(m, n, payoffs):
    """Values of payoffs near x carry float rounding near x times epsilon;
    the checks compare them at tol() scaled by the payoffs' size."""
    trace = derive_value_mn(m, n, payoffs)
    assert trace.all_checks_pass
    assert trace.final_value == Fraction(m * payoffs[0] + (n - m) * payoffs[1], n)


@pytest.mark.parametrize("factor, passes", [(0.5, True), (10, False)])
def test_value_checks_hold_to_the_scaled_tolerance(factor, passes, monkeypatch):
    """Every value read from a partition moved by factor x the scaled bound:
    half of it passes, ten times it fails the direct value and Additivity
    (the covariance compares two moved values and passes)."""
    import ctkit.games

    off = factor * tol() * 123456789
    real = ctkit.games._weighted_labels
    monkeypatch.setattr(ctkit.games, "_weighted_labels", lambda part: real(part) + off)
    steps = {s.rule: s for s in derive_value_mn(20, 41, (123456789, 7)).steps}
    assert steps["SymmetricBase"].computation["permutation_covariance"]
    assert steps["SymmetricBase"].check is passes
    assert steps["Additivity"].check is passes


def test_derive_value_refuses_a_weight_denominator_over_64(qubit):
    x = payoff_variable(qubit, labels=(10, -2))
    g = make_game(x, held(qubit, ket(np.sqrt(1 / 65), np.sqrt(64 / 65))))
    with pytest.raises(SizeLimitError, match="^weight denominator 65 exceeds 64$"):
        derive_value(g)


def test_derive_value_refuses_three_payoffs_and_an_irrational_weight(qubit, qutrit):
    x3 = state_variable(qutrit, [(k, basis_state(3, k)) for k in range(3)])
    with pytest.raises(DomainError, match="^the derivation covers two-payoff games$"):
        derive_value(make_game(x3, held(qutrit, basis_state(3, 0))))
    # 1e-7 is more than 1e-9 from every fraction with denominator <= 10**6
    x = payoff_variable(qubit, labels=(10, -2))
    g = make_game(x, held(qubit, ket(np.sqrt(1e-7), np.sqrt(1 - 1e-7))))
    with pytest.raises(UnsupportedInputError, match="^irrational weights are out of"):
        derive_value(g)


def test_float_payoffs_snap_to_fractions():
    trace = derive_value_mn(1, 3, (0.5, 0.1))
    assert trace.final_value == Fraction(7, 30)
    assert trace.all_checks_pass
    with pytest.raises(UnsupportedInputError, match="is not rational enough to derive with$"):
        derive_value_mn(1, 3, (0.5, 0.1234567891234))


def test_derive_value_reads_the_game(qubit):
    x = payoff_variable(qubit, labels=(10, -2))
    g = make_game(x, held(qubit, ket(np.sqrt(1 / 3), np.sqrt(2 / 3))))
    trace = derive_value(g)
    assert trace.final_value == Fraction(2)
    assert trace.all_checks_pass
    assert trace.final_value == exact_game_value(
        [Fraction(1, 3), Fraction(2, 3)], [10, -2]
    )


def test_render_trace_format():
    lines = render_trace(derive_value_mn(1, 2, (0, 1))).splitlines()
    assert len(lines) == len(RULE_SEQUENCE)
    assert lines[0].startswith("step 1: ShiftRule | ")
    assert all(line.endswith("| check=pass") for line in lines)


def test_derivation_is_deterministic():
    a = render_trace(derive_value_mn(2, 5, (3, -1)))
    b = render_trace(derive_value_mn(2, 5, (3, -1)))
    assert a == b


# ---------------------------------------------------------------------------
# Decision support


def test_conjugate_pair_supports_decisions(qubit, qubit_model):
    x = basis_variable(qubit)
    y = state_variable(qubit, [("+", plus()), ("-", minus())])
    report = check_decision_support(qubit_model, x, y)
    assert report.passed
    assert report.reason is None
    assert all(v for _, v, _ in report.checks)
    assert report.appendix_preparation_available
    bell = normalized([1, 0, 0, 1], dims=(2, 2))
    assert states_equal(report.q, bell, atol=1e-9)


def test_classical_model_lacks_complementary_observables(bit, bit_model):
    x = basis_variable(bit)
    y = variable(bit, [(0, x.attribute(1)), (1, x.attribute(0))])
    report = check_decision_support(bit_model, x, y)
    assert not report.passed
    assert report.reason == "no complementary observables"
    assert report.checks == ()


def test_degenerate_pair_fails_r1(qubit, qubit_model):
    x = basis_variable(qubit)
    report = check_decision_support(qubit_model, x, x)
    assert not report.passed
    assert not report.verdict("R1")
    assert report.reason == "observables do not form a superinformation pair"


def test_decision_support_needs_two_valued_observables(qutrit, qutrit_model):
    x = basis_variable(qutrit)
    with pytest.raises(DomainError):
        check_decision_support(qutrit_model, x, x)


# ---------------------------------------------------------------------------
# Properties

payoff_st = st.integers(min_value=-20, max_value=20)
seed_st = st.integers(min_value=0, max_value=2**32 - 1)


def random_game(qubit_labels, seed):
    from ctkit import quantum_substrate

    rng = np.random.default_rng(seed)
    sub = quantum_substrate("q", 2)
    x = state_variable(sub, [(qubit_labels[0], basis_state(2, 0)),
                             (qubit_labels[1], basis_state(2, 1))])
    z = extensional_attribute(
        sub, [normalized(rng.normal(size=2) + 1j * rng.normal(size=2))]
    )
    return make_game(x, z)


@given(payoff_st, payoff_st, payoff_st, payoff_st, seed_st, seed_st)
def test_value_is_additive_under_composition(a1, a2, b1, b2, s1, s2):
    if a1 == a2 or b1 == b2:
        return  # payoff labels must stay distinct
    g1 = random_game((a1, a2), s1)
    g2 = random_game((b1, b2), s2)
    joint = compose_games(g1, g2)
    assert game_value(joint) == pytest.approx(game_value(g1) + game_value(g2))


@given(payoff_st, seed_st)
def test_shift_sweep_tracks_k(k, seed):
    g = random_game((0, 1), seed)
    assert game_value(transform_game(g, "shift", k=k)) == pytest.approx(game_value(g) + k)


@given(payoff_st, seed_st, st.sampled_from(["shift", "reflection", "permutation"]))
def test_a_relabeled_game_keeps_the_weights_make_game_derives(k, seed, kind):
    """An observable transform hands g's weights to the new labels; they are
    exactly the partition `make_game` derives for the relabeled observable."""
    g = random_game((0, 1), seed)
    relabeled = transform_game(g, kind, k=k, mapping={0: 1, 1: 0})
    assert relabeled._partition == make_game(relabeled.observable, g.attribute)._partition


@given(seed_st)
def test_reflection_negates_any_value(seed):
    g = random_game((-3, 7), seed)
    assert game_value(transform_game(g, "reflection")) == pytest.approx(-game_value(g))


@given(seed_st)
def test_intrinsic_part_carries_the_value(seed):
    """The reduced state of a bipartite preparation values like its partition."""
    from ctkit import partial_trace, quantum_substrate

    rng = np.random.default_rng(seed)
    sub = quantum_substrate("q", 2)
    x = payoff_variable(sub)
    joint = normalized(rng.normal(size=4) + 1j * rng.normal(size=4), dims=(2, 2))
    rho = partial_trace(joint, keep=0)
    g = make_game(x, extensional_attribute(sub, [rho]))
    assert game_value(g) == pytest.approx(float(np.real(rho.matrix[1, 1])))


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=2, max_value=8),
       st.sampled_from([(0, 1), (10, -2), (-2, 10), (3, 3)]))
def test_derivation_agrees_with_direct_evaluation(m, n, payoffs):
    if m >= n:
        return
    trace = derive_value_mn(m, n, payoffs)
    assert trace.all_checks_pass
    direct = exact_game_value(
        [Fraction(m, n), Fraction(n - m, n)],
        [Fraction(p) for p in payoffs],
    )
    assert trace.final_value == direct


def test_a_passing_pair_never_asks_for_superinformation(qubit, qubit_model, monkeypatch):
    import ctkit.games

    calls = []
    detect = ctkit.games.detect_superinformation
    monkeypatch.setattr(ctkit.games, "detect_superinformation",
                        lambda *args: calls.append(args) or detect(*args))
    x = basis_variable(qubit)
    y = state_variable(qubit, [("+", plus()), ("-", minus())])
    assert check_decision_support(qubit_model, x, y).passed
    assert calls == []
    failing = check_decision_support(qubit_model, x, x)
    assert failing.reason == "observables do not form a superinformation pair"
    assert len(calls) == 1


def test_the_appendix_trace_is_derived_once_per_tolerance(qubit, qubit_model, monkeypatch):
    import ctkit.games

    calls = []
    derive = ctkit.games.derive_value_mn
    monkeypatch.setattr(ctkit.games, "derive_value_mn",
                        lambda *args: calls.append(args) or derive(*args))
    ctkit.games._appendix_available.cache_clear()
    x = basis_variable(qubit)
    y = state_variable(qubit, [("+", plus()), ("-", minus())])
    for _ in range(3):
        assert check_decision_support(qubit_model, x, y).appendix_preparation_available
    assert calls == [(1, 3, (Fraction(1), Fraction(0)))]
    monkeypatch.setenv("CT_TOL", "1e-8")
    for _ in range(2):
        assert check_decision_support(qubit_model, x, y).appendix_preparation_available
    assert len(calls) == 2


def test_a_game_keeps_its_partition_and_a_direct_game_computes_it(qubit):
    """`make_game` keeps the partition its legitimacy check computed; a Game
    built directly computes it on the first read, to the same value."""
    x = payoff_variable(qubit, (3, -1))
    z = held(qubit, normalized([1, 2j]))
    made, direct = make_game(x, z), Game(x, z, qubit)
    assert "_partition" in vars(made) and "_partition" not in vars(direct)
    assert game_value(direct) == game_value(made) == pytest.approx(3 * 0.2 - 0.8)
    assert vars(direct)["_partition"] == made._partition
