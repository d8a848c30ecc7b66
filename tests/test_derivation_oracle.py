"""The value derivation's steps 5-7 against `derivation_oracle`, which builds
the o-register as a variable and walks exact labels one at a time: equal
flags, conclusions and exact means, doubles equal up to summation order.
Labels that break one check each, and a reduced state whose partition is
not mirrored, show that every check still reads what it claims to."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctkit import MixedState, derive_value_mn, games
from ctkit.tolerance import tol

import derivation_oracle

SMALL_PAYOFFS = st.one_of(st.integers(-10, 10),
                          st.sampled_from([Fraction(1, 3), Fraction(-7, 2)]))
LARGE_PAYOFFS = st.integers(10 ** 6, 10 ** 12) | st.integers(-10 ** 12, -10 ** 6)
FLOATS = ("target_value", "total_value", "source_value")


@st.composite
def weights(draw):
    n = draw(st.integers(2, 64))
    return draw(st.integers(1, n - 1)), n


def appendix(m, n, payoffs):
    """Steps 5-7 of the library's derivation."""
    trace = derive_value_mn(m, n, payoffs)
    assert [s.rule for s in trace.steps[4:]] == ["EqualValue", "Additivity", "NonSymmetric"]
    return trace.steps[4:]


def assert_same_steps(got, want, payoffs, floats_only=False):
    scale = max(1.0, *(abs(float(p)) for p in payoffs))
    for a, b in zip(got, want, strict=True):
        assert a.computation.keys() == b.computation.keys()
        for key in FLOATS:
            if key in b.computation:
                assert a.computation[key] == pytest.approx(b.computation[key], rel=0,
                                                           abs=1e-12 * scale)
        if floats_only:
            continue
        assert (a.rule, a.premises, a.conclusion, a.check) == (b.rule, b.premises,
                                                                b.conclusion, b.check)
        assert ({k: v for k, v in a.computation.items() if k not in FLOATS}
                == {k: v for k, v in b.computation.items() if k not in FLOATS})


@settings(deadline=None, max_examples=40)
@given(weights(), SMALL_PAYOFFS, SMALL_PAYOFFS)
def test_appendix_steps_match_the_oracle(mn, x1, x2):
    if x1 == x2:
        return
    m, n = mn
    steps = appendix(m, n, (x1, x2))
    assert all(s.check for s in steps)
    assert_same_steps(steps, derivation_oracle.reference_steps(m, n, (x1, x2)), (x1, x2))


@settings(deadline=None, max_examples=15)
@given(weights(), LARGE_PAYOFFS, st.integers(-10, 10))
def test_appendix_floats_match_the_oracle_at_large_payoffs(mn, x1, x2):
    m, n = mn
    steps = appendix(m, n, (x1, x2))
    assert_same_steps(steps, derivation_oracle.reference_steps(m, n, (x1, x2)), (x1, x2),
                      floats_only=True)


# Half-unit labels that break one check of step 5 or 7 each
BROKEN_LABELS = {
    # every block sums to zero and every label has its mirror, but the
    # reversal does not negate them
    "not_negated": (4, 5, [-3, 3, -1, 1, 0]),
    # block one sums to 2: the branch mean misses the value by 1/5
    "block_sum_off": (2, 5, [-1, 3, -2, 0, 2]),
    # the labels of block two are not negated: 3 has no mirror
    "no_mirror_label": (1, 3, [0, -1, 3]),
}


@pytest.mark.parametrize("case", sorted(BROKEN_LABELS))
def test_broken_labels_fail_as_in_the_oracle(case, monkeypatch):
    m, n, h = BROKEN_LABELS[case]
    monkeypatch.setattr(games, "_block_labels", lambda *_: np.array(h))
    steps = appendix(m, n, (10, -2))
    assert not all(s.check for s in steps)
    want = derivation_oracle.reference_steps(m, n, (10, -2), [Fraction(v, 2) for v in h])
    assert_same_steps(steps, want, (10, -2))


def test_an_unmirrored_partition_fails_step_5(monkeypatch):
    """The reduced o-register state moved by +-delta on its diagonal: each
    entry, and the target value, stay within tol of the reflected state's,
    but the two label weights differ by 4 delta = 1.8 tol."""
    delta = 0.45 * tol()
    real = games.intrinsic_part

    def skewed(joint, factor):
        rho = real(joint, factor)
        if factor != 1:
            return rho
        return MixedState(rho.matrix + np.diag([delta, -delta, delta, -delta]))

    monkeypatch.setattr(games, "intrinsic_part", skewed)
    monkeypatch.setattr(derivation_oracle, "intrinsic_part", skewed)
    steps = appendix(2, 4, (1, 0))
    assert not steps[0].check
    assert steps[0].computation["reduced_state_invariant"]
    assert abs(steps[0].computation["target_value"]) <= tol()
    assert_same_steps(steps, derivation_oracle.reference_steps(2, 4, (1, 0)), (1, 0))


def test_the_appendix_makes_no_svd_calls_at_any_size():
    for m, n in [(1, 5), (31, 64)]:
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            assert derive_value_mn(m, n, (10, -2)).all_checks_pass
        assert svd.call_count == 0
