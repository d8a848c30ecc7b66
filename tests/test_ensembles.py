"""Frequencies, exact deviant weights, partitions of unity, E1/E2 sweeps."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctkit import (
    DomainError,
    MixedState,
    PureState,
    RepresentationError,
    SizeLimitError,
    basis_state,
    build_counting_constructor,
    class_key,
    deviant_weight,
    expectation,
    extensional_attribute,
    frequency,
    intrinsic_part,
    intrinsic_partition_preserved,
    normalized,
    partition_of_unity,
    quantum_substrate,
    tensor,
    variable,
    verify_E1_E2,
)
from ctkit.cli import main
from ctkit.ensembles import PartitionOfUnity, exact_probabilities
from ctkit.quantum import apply_measurer

import oracle
from conftest import basis_variable, ket, minus, plus

EPS = Fraction(1, 50)
HALF = (Fraction(1, 2), Fraction(1, 2))
THIRDS = (Fraction(1, 3), Fraction(2, 3))


# ---------------------------------------------------------------------------
# Frequencies


def test_frequency_counts_matches():
    assert frequency(0, (0, 1, 0)) == Fraction(2, 3)
    assert frequency("x", ("y", "y")) == 0
    assert frequency(1, (1, 1, 1, 1)) == 1


def test_frequency_of_empty_string_undefined():
    with pytest.raises(DomainError):
        frequency(0, ())


# ---------------------------------------------------------------------------
# The counting constructor


def test_counting_constructor_flags_the_count(qubit):
    m = build_counting_constructor(0, 3, basis_variable(qubit))
    assert m.source_dim == 8 and m.target_dim == 4
    s = PureState(np.eye(8)[2])  # |010>: two zeros
    out = apply_measurer(m, tensor(s, m.receptive_state()))
    rho_t = intrinsic_part(out, 1)
    assert expectation(rho_t, m.flag_projector(Fraction(2, 3))) == pytest.approx(1.0)


def test_counting_constructor_sharp_on_equal_count_superpositions(qubit):
    m = build_counting_constructor(0, 3, basis_variable(qubit))
    s = normalized(np.eye(8)[2] + np.eye(8)[4])  # (|010> + |100>)/sqrt2
    out = apply_measurer(m, tensor(s, m.receptive_state()))
    rho_t = intrinsic_part(out, 1)
    assert expectation(rho_t, m.flag_projector(Fraction(2, 3))) == pytest.approx(1.0)


def test_counting_constructor_non_sharp_on_mixed_counts(qubit):
    m = build_counting_constructor(0, 3, basis_variable(qubit))
    ghz = normalized(np.eye(8)[0] + np.eye(8)[7])
    out = apply_measurer(m, tensor(ghz, m.receptive_state()))
    rho_t = intrinsic_part(out, 1)
    assert expectation(rho_t, m.flag_projector(Fraction(1))) == pytest.approx(0.5)
    assert expectation(rho_t, m.flag_projector(Fraction(0))) == pytest.approx(0.5)


def test_counting_constructor_guards(qubit, bit):
    x = basis_variable(qubit)
    with pytest.raises(DomainError):
        build_counting_constructor(7, 2, x)
    with pytest.raises(RepresentationError):
        build_counting_constructor(0, 2, basis_variable(bit))
    with pytest.raises(SizeLimitError):
        build_counting_constructor(0, 18, x)


# ---------------------------------------------------------------------------
# Deviant weights


def test_deviant_weight_frozen_value():
    row = deviant_weight(None, 10, EPS, probabilities=list(HALF))
    assert row.exact == Fraction(11, 32)
    assert row.approx == 0.34375
    assert row.render_exact() == "352/1024"


def test_unnormalized_amplitudes_snap_to_exact():
    # equal decimals cancel in the exact normalization, whatever their value
    row = deviant_weight((0.70710678, 0.70710678), 10, "1/50")
    assert row.exact == Fraction(11, 32)
    assert row.natural_denominator == 1024


def test_sharp_ensemble_never_deviates():
    row = deviant_weight((1, 0), 7, EPS)
    assert row.exact == 0
    assert row.render_exact() == "0/1"


def test_single_replica_always_deviates():
    row = deviant_weight(None, 1, EPS, probabilities=list(HALF))
    assert row.exact == 1
    assert row.render_exact() == "2/2"


def test_generous_epsilon_clears_everything():
    row = deviant_weight(None, 4, Fraction(2), probabilities=list(HALF))
    assert row.exact == 0


def test_float_probabilities_fall_back_to_double():
    row = deviant_weight(None, 10, EPS, probabilities=[0.5, 0.5])
    assert row.exact is None
    assert row.render_exact() == ""
    assert row.approx == pytest.approx(0.34375)


def test_irrational_amplitudes_fall_back_to_double():
    a = 1 / np.sqrt(3)
    row = deviant_weight((a, complex(np.sqrt(2) * a)), 9, EPS)
    assert row.exact is None
    assert row.approx == pytest.approx(float(oracle.multinomial_deviant(THIRDS, 9, EPS)))


def test_deviant_weight_input_checks():
    with pytest.raises(DomainError):
        deviant_weight(None, 0, EPS, probabilities=list(HALF))
    with pytest.raises(DomainError):
        deviant_weight(None, 5, EPS, probabilities=[Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(DomainError):
        deviant_weight((0.9, 0.1), 5, EPS)  # squares sum to 0.82
    with pytest.raises(SizeLimitError):
        deviant_weight(None, 100, EPS,
                       probabilities=[Fraction(1, 3)] * 3, guard=50)


# ---------------------------------------------------------------------------
# Partitions of unity and class keys


def test_partition_of_superposition(qubit):
    part = partition_of_unity(plus(), basis_variable(qubit))
    assert part.as_dict() == {0: pytest.approx(0.5), 1: pytest.approx(0.5)}


def test_partition_ignores_phase(qubit):
    x = basis_variable(qubit)
    rotated = PureState(np.exp(1j * 1.1) * plus().vector)
    assert partition_of_unity(rotated, x).items == partition_of_unity(plus(), x).items


def test_partition_accepts_attributes_and_mixtures(qubit):
    x = basis_variable(qubit)
    attr = extensional_attribute(qubit, [plus()])
    assert partition_of_unity(attr, x).value(0) == pytest.approx(0.5)
    mixed = MixedState(np.eye(2) / 2)
    assert partition_of_unity(mixed, x).value(1) == pytest.approx(0.5)


def test_partition_outside_span_is_an_error(qutrit):
    from conftest import state_variable

    x01 = state_variable(qutrit, [(0, basis_state(3, 0)), (1, basis_state(3, 1))])
    with pytest.raises(DomainError):
        partition_of_unity(basis_state(3, 2), x01)


def test_partition_validation():
    with pytest.raises(DomainError):
        PartitionOfUnity(((0, 0.5), (1, 0.4)))
    with pytest.raises(DomainError):
        PartitionOfUnity(((0, 1.5), (1, -0.5)))


def test_class_key_identifies_indistinguishable_preparations(qubit):
    x = basis_variable(qubit)
    assert class_key(plus(), x) == class_key(minus(), x)
    assert class_key(plus(), x) == class_key(MixedState(np.eye(2) / 2), x)
    assert class_key(plus(), x) != class_key(ket(1, 2), x)


def test_class_key_is_deterministic(qubit):
    x = basis_variable(qubit)
    s = ket(0.6, 0.8)
    assert class_key(s, x) == class_key(s, x)


def test_class_key_covariant_under_relabeling(qubit):
    x = basis_variable(qubit)
    swapped = variable(qubit, [(1, x.attribute(0)), (0, x.attribute(1))])
    s = ket(0.6, 0.8)
    assert sorted(class_key(s, x)) == sorted(class_key(s, swapped))


# ---------------------------------------------------------------------------
# E1/E2 sweeps


def test_superposition_sweep_matches_oracle(qubit):
    report = verify_E1_E2(plus(), basis_variable(qubit), [10, 20, 50], EPS,
                          final_bound=0.2)
    assert report.verdict
    assert [row.exact for row in report.rows] == [
        oracle.multinomial_deviant(HALF, n, EPS) for n in (10, 20, 50)
    ]
    assert report.rows[0].exact == Fraction(11, 32)
    assert report.rows[1].exact == Fraction(34495, 131072)
    assert report.rows[2].exact == Fraction(8368282903647, 70368744177664)


def test_sharp_member_sweep_is_identically_zero(qubit):
    report = verify_E1_E2(basis_state(2, 0), basis_variable(qubit), [5, 10, 20], EPS)
    assert report.verdict
    assert all(row.exact == 0 for row in report.rows)


def test_skew_state_sweep_matches_oracle(qubit):
    skew = ket(np.sqrt(1 / 3), np.sqrt(2 / 3))
    report = verify_E1_E2(skew, basis_variable(qubit), [9, 30, 90], EPS,
                          final_bound=0.05)
    assert report.verdict
    # the snapped partition lands on exactly (1/3, 2/3)
    assert report.rows[0].exact == Fraction(4769, 6561)
    assert report.rows[1].exact == Fraction(3971625156401, 22876792454961)
    assert report.rows[2].exact == oracle.multinomial_deviant(THIRDS, 90, EPS)
    assert report.rows[2].approx < report.rows[1].approx < report.rows[0].approx


def test_one_exact_or_float_decision_for_cli_and_sweep(capsys):
    # every denominator is at most 10**6 but their lcm 2*1009*1013 is not, so
    # the CLI and verify_E1_E2 both fall back to doubles
    probs = [Fraction(1, 1009), Fraction(1007, 2018), Fraction(1, 1013), Fraction(1011, 2026)]
    assert sum(probs) == 1 and exact_probabilities(probs) is None
    assert exact_probabilities(probs[:2] + [Fraction(1, 2)]) == probs[:2] + [Fraction(1, 2)]
    tokens = ",".join(f"sqrt({p})" for p in probs)
    assert main(["converge", "--amplitudes", tokens, "--N-sweep", "8,16",
                 "--epsilon", "1/30"]) == 0
    cli_rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    report = verify_E1_E2(ket(*(float(p) ** 0.5 for p in probs)),
                          basis_variable(quantum_substrate("q4", 4)), [8, 16], "1/30",
                          final_bound=1.0)
    for (_, _, exact_text, approx_text), row in zip(cli_rows, report.rows):
        assert exact_text == "" and row.exact is None
        assert row.approx == pytest.approx(float(approx_text), rel=1e-9)


def test_sweep_detects_final_bound_failure(qubit):
    report = verify_E1_E2(plus(), basis_variable(qubit), [10, 20], EPS)
    assert report.monotone
    assert not report.final_ok  # 0.263 is nowhere near 0.005
    assert not report.verdict


# ---------------------------------------------------------------------------
# Intrinsic parts through measurement


@pytest.mark.parametrize("amps", [(1, 1), (1, 0), (np.sqrt(1 / 3), np.sqrt(2 / 3))])
def test_measurement_hands_the_partition_to_both_factors(qubit, amps):
    report = intrinsic_partition_preserved(ket(*amps), basis_variable(qubit))
    assert report.verdict
    part_in = report.evidence["input"]
    part_tgt = report.evidence["target"]
    for label in (0, 1):
        assert part_tgt.value(label) == pytest.approx(part_in.value(label))


# ---------------------------------------------------------------------------
# Properties

probability_st = st.fractions(min_value=0, max_value=1, max_denominator=20)
epsilon_st = st.fractions(min_value=Fraction(1, 200), max_value=1, max_denominator=200)


@settings(deadline=None)
@given(probability_st, st.integers(min_value=1, max_value=12), epsilon_st)
def test_library_matches_binomial_oracle(p, n, eps):
    row = deviant_weight(None, n, eps, probabilities=[p, 1 - p])
    assert row.exact == oracle.binomial_deviant(p, n, eps)


@settings(deadline=None)
@given(
    st.lists(st.fractions(min_value=Fraction(1, 10), max_value=1, max_denominator=10),
             min_size=2, max_size=3),
    st.integers(min_value=1, max_value=9),
    epsilon_st,
)
def test_deviant_and_within_partition_unity(raw, n, eps):
    total = sum(raw)
    probs = [q / total for q in raw]
    row = deviant_weight(None, n, eps, probabilities=probs)
    if row.exact is None:
        return  # denominator bound tripped; nothing exact to check
    assert row.exact + oracle.multinomial_within(probs, n, eps) == 1


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda d: st.lists(st.integers(min_value=0, max_value=9), min_size=d, max_size=d)
    ).filter(any),
    st.integers(min_value=1, max_value=12),
    epsilon_st,
)
def test_exact_and_float_rows_match_the_fraction_oracle(raw, n, eps):
    # zero entries are allowed: those outcomes never occur
    probs = [Fraction(q, sum(raw)) for q in raw]
    deviant = oracle.multinomial_deviant(probs, n, eps)
    row = deviant_weight(None, n, eps, probabilities=probs)
    assert row.exact == deviant
    assert row.exact + oracle.multinomial_within(probs, n, eps) == 1
    assert row.natural_denominator % deviant.denominator == 0
    # doubles cannot classify a count vector whose deviation ties with epsilon
    if oracle.deviation_margin(probs, n, eps) > Fraction(1, 10 ** 9):
        approx = deviant_weight(None, n, eps, probabilities=[float(p) for p in probs]).approx
        assert approx == pytest.approx(float(deviant), rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("n", [10, 100, 1_000, 10_000, 100_000])
def test_float_rows_stay_under_the_hoeffding_ceiling(n):
    # a deviation past eps puts some |k_x/n - p_x| past sqrt(eps/d); Hoeffding
    # (1963) bounds each such tail by 2 exp(-2 n eps/d), and there are d of them
    d, p = 2, 1 / np.sqrt(5)
    for eps in (0.02, 3 / n, 10 / n):  # the ceiling is 0.2 and 1.8e-4 at the last two
        approx = deviant_weight(None, n, eps, probabilities=[p, 1 - p]).approx
        assert math.isfinite(approx)
        assert 0.0 <= approx <= 2 * d * math.exp(-2 * n * eps / d)


def test_float_row_matches_the_exact_row_past_the_double_range():
    # C(5000, 1500) is far past the largest double; the log-space weights are not
    n, eps, probs = 5_000, Fraction(1, 47), [Fraction(3, 10), Fraction(7, 10)]
    assert oracle.deviation_margin(probs, n, eps) > Fraction(1, 10 ** 9)
    exact = deviant_weight(None, n, eps, probabilities=probs)
    approx = deviant_weight(None, n, eps, probabilities=[0.3, 0.7]).approx
    assert 0.0 < approx == pytest.approx(exact.approx, rel=1e-9)


@given(st.integers(min_value=1, max_value=40))
def test_deviant_weight_vanishes_for_generous_epsilon(n):
    # squared deviation is bounded by 2, so epsilon = 2 clears every string
    row = deviant_weight(None, n, Fraction(2), probabilities=list(HALF))
    assert row.exact == 0


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_state_partitions_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    from ctkit import quantum_substrate

    sub = quantum_substrate("s", 3)
    s = normalized(rng.normal(size=3) + 1j * rng.normal(size=3))
    part = partition_of_unity(s, basis_variable(sub))
    assert sum(part.as_dict().values()) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Lines: exact ties at the ends of the within interval, wider sizes, bounded
# float memory


@pytest.mark.parametrize("probs, n, tied", [
    (HALF, 10, (6, 4)),
    ((Fraction(1, 3),) * 3, 9, (5, 2, 2)),
    ((Fraction(1, 4),) * 4, 8, (4, 2, 1, 1)),
])
def test_ties_at_the_interval_ends_count_as_within(probs, n, tied):
    eps = sum((Fraction(k, n) - p) ** 2 for k, p in zip(tied, probs))
    assert eps in (Fraction(1, 50), Fraction(2, 27), Fraction(3, 32))
    row = deviant_weight(None, n, eps, probabilities=list(probs))
    assert row.exact == oracle.multinomial_deviant(probs, n, eps)
    assert row.exact + oracle.multinomial_within(probs, n, eps) == 1
    # just below the tie the tied count vectors turn deviant
    below = deviant_weight(None, n, eps - Fraction(1, 10 ** 12), probabilities=list(probs))
    assert below.exact == oracle.multinomial_deviant(probs, n, eps - Fraction(1, 10 ** 12))
    assert below.exact > row.exact


def _count_vector(d, n, cuts):
    bars = sorted(c % (n + 1) for c in cuts[:d - 1])
    return [b - a for a, b in zip([0, *bars], [*bars, n])]


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda d: st.lists(st.integers(min_value=0, max_value=6), min_size=d, max_size=d)
    ).filter(lambda raw: sum(raw) > 0),
    st.integers(min_value=1, max_value=12),
    st.lists(st.integers(min_value=0, max_value=100), min_size=3, max_size=3),
)
def test_an_epsilon_taken_from_a_count_vector_ties_exactly(raw, n, cuts):
    probs = [Fraction(q, sum(raw)) for q in raw]
    tied = _count_vector(len(probs), n, cuts)
    eps = sum((Fraction(k, n) - p) ** 2 for k, p in zip(tied, probs))
    row = deviant_weight(None, n, eps, probabilities=probs)
    assert row.exact == oracle.multinomial_deviant(probs, n, eps)
    assert row.exact + oracle.multinomial_within(probs, n, eps) == 1


def _largest_n(d, vectors=5_000):
    """The largest n <= 40 with at most `vectors` count vectors, which keeps the
    oracle's Fraction enumeration to a fraction of a second."""
    return max(n for n in range(1, 41) if math.comb(n + d - 1, d - 1) <= vectors)


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=2, max_value=5).flatmap(lambda d: st.tuples(
        st.lists(st.integers(min_value=0, max_value=9), min_size=d, max_size=d).filter(any),
        st.integers(min_value=1, max_value=_largest_n(d)),
    )),
    epsilon_st,
)
def test_rows_match_the_oracle_up_to_five_outcomes(raw_n, eps):
    # d = 2, 3 reach n = 40; d = 4 stops at 29 and d = 5 at 16
    raw, n = raw_n
    probs = [Fraction(q, sum(raw)) for q in raw]
    deviant = oracle.multinomial_deviant(probs, n, eps)
    row = deviant_weight(None, n, eps, probabilities=probs)
    assert row.exact == deviant
    assert row.numerator == deviant * row.natural_denominator
    if oracle.deviation_margin(probs, n, eps) > Fraction(1, 10 ** 9):
        approx = deviant_weight(None, n, eps, probabilities=[float(p) for p in probs]).approx
        assert approx == pytest.approx(float(deviant), rel=1e-9, abs=1e-300)


def test_near_guard_float_row_stays_small_and_under_the_hoeffding_ceiling():
    # 8 006 001 count vectors, just under ENUMERATION_GUARD; one float64
    # temporary over all of them would take 64 MB
    import tracemalloc

    d, n, eps = 3, 4_000, 10 / 4_000
    assert 8 * 10 ** 6 < math.comb(n + d - 1, d - 1) <= 10 ** 7
    tracemalloc.start()
    try:
        approx = deviant_weight(None, n, eps, probabilities=[0.3, 0.25, 0.45]).approx
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(approx)
    assert 0.0 < approx <= 2 * d * math.exp(-2 * n * eps / d)
    assert peak < 16 * 2 ** 20


def test_the_guard_counts_the_head_work_of_every_line():
    # 4 545 100 count vectors, under the guard, but 4 500 250 lines of 298
    # head counts each: refused before any line is walked
    import time

    started = time.perf_counter()
    with pytest.raises(SizeLimitError, match="exceeds the guard"):
        deviant_weight(None, 3, 0.01, probabilities=[1 / 300] * 300)
    assert time.perf_counter() - started < 1.0
    # a lone outcome has one line and no head counts
    row = deviant_weight(None, 7, EPS, probabilities=[Fraction(1)], guard=1)
    assert row.exact == 0
    assert deviant_weight(None, 7, EPS, probabilities=[1.0], guard=1).approx == 0.0
