"""The pruned walk over head counts against the unpruned line walk.

`ctkit.ensembles` skips every subtree of count vectors that a Cauchy-Schwarz
bound already puts outside the epsilon-ball, adding its total in closed form,
and binary-splits band sums of at least `_SPLIT_TERMS` terms.  The reference
in `line_oracle.py` visits every line and sums every band term by term.
Exact rows must agree to the integer; float rows to 1e-12 relative.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctkit.ensembles as ensembles
from ctkit import DomainError, deviant_weight

import line_oracle
import oracle

epsilon_st = st.fractions(min_value=Fraction(1, 200), max_value=1, max_denominator=200)


def _raw_weights(max_n):
    """d = 2..5 non-negative integer weights, some of them zero, and an n
    that keeps the unpruned walk quick."""
    return st.integers(min_value=2, max_value=5).flatmap(lambda d: st.tuples(
        st.lists(st.integers(min_value=0, max_value=9), min_size=d, max_size=d).filter(any),
        st.integers(min_value=1, max_value=max_n[d]),
    ))


def _assert_rows_match(probs, n, eps):
    deviant, within, natural = line_oracle.exact_row(probs, n, eps)
    row = deviant_weight(None, n, eps, probabilities=probs)
    assert row.natural_denominator == natural
    assert row.numerator == deviant
    assert deviant + within == natural
    floats = [float(p) for p in probs]
    approx = deviant_weight(None, n, eps, probabilities=floats).approx
    reference = line_oracle.float_row(floats, n, float(eps))
    assert approx == pytest.approx(reference, rel=1e-12, abs=1e-300)


@settings(deadline=None, max_examples=150)
@given(_raw_weights({2: 300, 3: 120, 4: 40, 5: 22}), epsilon_st)
@example(([0, 0, 7], 12), Fraction(1, 50))     # a lone outcome among zeros
@example(([0, 3, 0, 5, 0], 20), Fraction(1, 30))
@example(([2, 3, 2, 4], 30), Fraction(1, 30))
def test_pruned_rows_match_the_unpruned_walk(raw_n, eps):
    raw, n = raw_n
    _assert_rows_match([Fraction(q, sum(raw)) for q in raw], n, eps)


def _count_vector(d, n, cuts):
    bars = sorted(c % (n + 1) for c in cuts[:d - 1])
    return [b - a for a, b in zip([0, *bars], [*bars, n])]


@settings(deadline=None, max_examples=150)
@given(_raw_weights({2: 200, 3: 60, 4: 30, 5: 18}),
       st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=4, max_size=4))
@example(([1, 1, 1, 1, 1], 10), [6, 7, 8, 9])  # ties (6, 1, 1, 1, 1): equal rest offsets
def test_an_epsilon_from_a_count_vector_ties_exactly_in_the_pruned_walk(raw_n, cuts):
    # the tied vector lies on the boundary: it is within, and neither the
    # subtree bound nor the line interval may push it out; just below the
    # tie it deviates
    raw, n = raw_n
    probs = [Fraction(q, sum(raw)) for q in raw]
    tied = _count_vector(len(probs), n, cuts)
    eps = sum((Fraction(k, n) - p) ** 2 for k, p in zip(tied, probs))
    for e in (eps, eps - Fraction(1, 10 ** 12)):
        deviant, within, natural = line_oracle.exact_row(probs, n, e)
        row = deviant_weight(None, n, e, probabilities=probs)
        assert (row.numerator, row.natural_denominator) == (deviant, natural)


def test_a_tie_with_equal_rest_offsets_sits_exactly_on_the_subtree_bound():
    # five equal outcomes, n = 10, tied vector (6, 1, 1, 1, 1): once k_0 = 6
    # (and then k_1 = 1) is fixed, the offsets left are all equal, so
    # Cauchy-Schwarz holds with equality and the subtree's bound is epsilon
    # itself; the subtree must be walked, not added as deviant
    probs = [Fraction(1, 5)] * 5
    n, tied = 10, (6, 1, 1, 1, 1)
    eps = sum((Fraction(k, n) - p) ** 2 for k, p in zip(tied, probs))
    row = deviant_weight(None, n, eps, probabilities=probs)
    assert row.exact == oracle.multinomial_deviant(probs, n, eps)
    below = deviant_weight(None, n, eps - Fraction(1, 10 ** 12), probabilities=probs)
    assert below.exact == oracle.multinomial_deviant(probs, n, eps - Fraction(1, 10 ** 12))
    assert below.exact > row.exact


WIDTHS = (ensembles._SPLIT_TERMS - 1, ensembles._SPLIT_TERMS, ensembles._SPLIT_TERMS + 1)


@pytest.mark.parametrize("width", WIDTHS)
def test_two_outcome_bands_around_the_split_crossover(width):
    # 3/7 * 500 is no half-integer, so the counts j nearest to it are ordered
    # strictly and an epsilon taken from the width-th of them admits exactly
    # width counts, the last one a tie
    n, p = 500, Fraction(3, 7)
    nearest = sorted(range(n + 1), key=lambda j: abs(j - n * p))
    eps = 2 * (Fraction(nearest[width - 1], n) - p) ** 2
    assert sum(2 * (Fraction(j, n) - p) ** 2 <= eps for j in range(n + 1)) == width
    row = deviant_weight(None, n, eps, probabilities=[p, 1 - p])
    assert row.exact == oracle.binomial_deviant(p, n, eps)
    _assert_rows_match([p, 1 - p], n, eps)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("m, u, v", [(300, 4, 7), (1000, 1, 1), (400, 0, 9), (129, 5, 3)])
def test_band_sums_around_the_split_crossover(width, m, u, v):
    for lo in (0, (m - width) // 2, m + 1 - width):
        hi = lo + width - 1
        terms = sum(math.comb(m, j) * u ** j * v ** (m - j) for j in range(lo, hi + 1))
        assert ensembles._band(m, lo, hi, u, v) == terms
    assert ensembles._band(m, 5, 4, u, v) == 0


@pytest.mark.parametrize("probs, n, eps", [
    ([Fraction(3, 13), Fraction(4, 13), Fraction(6, 13)], 700, Fraction(1, 30)),
    ([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)], 900, Fraction(1, 40)),
])
def test_long_lines_binary_split_their_bands(probs, n, eps, monkeypatch):
    widths, band = [], ensembles._band

    def spy(m, lo, hi, u, v):
        widths.append(hi - lo + 1)
        return band(m, lo, hi, u, v)

    monkeypatch.setattr(ensembles, "_band", spy)
    _assert_rows_match(probs, n, eps)
    assert sum(w >= ensembles._SPLIT_TERMS for w in widths) > 10


def test_dropping_a_skipped_subtree_fails_the_sum_check(monkeypatch):
    # every count vector enters through a computed term, so losing one
    # subtree's closed form must break deviant + within == L**n
    walk = ensembles._subtrees

    def lossy(*args):
        dropped = False
        for node in walk(*args):
            if node[4] and not dropped:
                dropped = True
                continue
            yield node

    probs = [Fraction(2, 11), Fraction(3, 11), Fraction(2, 11), Fraction(4, 11)]
    assert deviant_weight(None, 30, Fraction(1, 30), probabilities=probs).numerator
    monkeypatch.setattr(ensembles, "_subtrees", lossy)
    with pytest.raises(DomainError, match="failed to sum to 1"):
        deviant_weight(None, 30, Fraction(1, 30), probabilities=probs)


def test_the_walk_skips_most_lines_far_from_the_ball():
    # d = 4, n = 30: 496 lines, most of them in subtrees already past epsilon
    probs = [Fraction(2, 11), Fraction(3, 11), Fraction(2, 11), Fraction(4, 11)]
    n, eps, den = 30, Fraction(1, 30), 11
    a = [p.numerator * (den // p.denominator) for p in probs]
    top, mass = a[:2], [sum(a[x:]) for x in range(4)]
    dev = [[(k * den - n * ax) ** 2 for k in range(n + 1)] for ax in top]
    rest = [[(m * den - n * mass[x]) ** 2 for m in range(n + 1)] for x in (1, 2)]
    nodes = list(ensembles._subtrees(n, dev, rest, eps.numerator * (n * den) ** 2,
                                     eps.denominator, 1, lambda *_: 1))
    lines = [node for node in nodes if not node[4]]
    assert math.comb(n + 2, 2) == 496
    assert len(lines) < 496 // 4
    assert len(nodes) < 496 * 2 // 3


def test_five_outcomes_at_119_replicas_stay_fast():
    # 9 million count vectors; the unpruned walk took 0.7 s on a 2-CPU machine
    probs = [Fraction(q, 11) for q in (2, 3, 2, 2, 2)]
    started = time.perf_counter()
    row = deviant_weight(None, 119, Fraction(1, 30), probabilities=probs)
    assert time.perf_counter() - started < 0.5
    assert 0 < row.exact < Fraction(1, 100)
