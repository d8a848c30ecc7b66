"""Games of chance, payoff adders, the value derivation, and decision support.

A game pairs a payoff observable (real labels) with an attribute the player
holds.  The engine evaluates values directly, rewrites games by shifts,
reflections and permutations, and reproduces the two-payoff value theorem as
a step-by-step derivation whose every step is certified by a quantum-backend
computation rather than taken on faith.  Its target register has integer
labels in half units and standard kets as members, so the register's
partition of unity is read off the diagonal of its reduced state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from numbers import Real

import numpy as np

from .errors import (
    CtError,
    DomainError,
    IllegitimateAttributeError,
    LabelArithmeticError,
    PreconditionError,
    RepresentationError,
    SizeLimitError,
    TransformError,
    UnsupportedInputError,
)
from .kernel import (
    CLASSICAL,
    Attribute,
    SubstrateSpec,
    Variable,
    _check_labels,
    _member_weights,
    _row_weights,
    _single_state,
    _trusted_attribute,
    _trusted_variable,
    coarsen_variable,
    extensional_attribute,
    product_attribute,
    quantum_substrate,
)
from .ensembles import PartitionOfUnity, _partition_weights, partition_of_unity, verify_E1_E2
from .predicates import (
    _closure_rows,
    _product_variable,
    _row_states,
    detect_superinformation,
    is_generalised_mixture,
)
from .quantum import (
    ControlledMap,
    apply_measurer,
    build_measurer,
    controlled_map,
    intrinsic_part,
    negation_map,
    permutation_computation,
    sharp_value,
    transposition_map,
)
from .states import (
    MixedState,
    PureState,
    _readonly,
    _trusted,
    apply_unitary,
    basis_state,
    normalized,
    states_equal,
    tensor,
)
from .tolerance import tol

DERIVATION_RULES = (
    "Substitutability",
    "Additivity",
    "MeasurementNeutrality",
    "ShiftRule",
    "ReflectionRule",
    "EqualValue",
    "SymmetricBase",
    "NonSymmetric",
)

# y+ = (|0> + |1>)/sqrt(2), the state the derivation's symmetric base step holds
_Y_PLUS = normalized([1, 1])


# ---------------------------------------------------------------------------
# Games


@dataclass(frozen=True)
class Game:
    """A payoff observable together with the attribute the player holds."""

    observable: Variable
    attribute: Attribute
    substrate: SubstrateSpec
    children: tuple = ()

    @property
    def atomic(self) -> bool:
        return not self.children

    @cached_property
    def _partition(self):
        """The attribute's partition of unity over the observable, kept from
        `make_game`'s legitimacy check, or computed on the first read."""
        return partition_of_unity(self.attribute, self.observable)


def _check_payoff_labels(x: Variable) -> None:
    for label in x.labels:
        if not isinstance(label, Real) or isinstance(label, bool):
            raise LabelArithmeticError(f"payoff label {label!r} is not a real number")


def make_game(x: Variable, z: Attribute, children: tuple = ()) -> Game:
    """Validated game; z must admit an X-partition of unity."""
    _check_payoff_labels(x)
    game = Game(observable=x, attribute=z, substrate=x.substrate, children=tuple(children))
    try:
        game._partition
    except DomainError as exc:
        raise IllegitimateAttributeError(f"illegitimate game attribute: {exc}") from exc
    return game


def compose_games(g1: Game, g2: Game) -> Game:
    """The joint game: payoffs add, the player holds both attributes."""
    observable = coarsen_variable(g1.observable, g2.observable, mode="sum")
    attribute = product_attribute(g1.attribute, g2.attribute)
    return make_game(observable, attribute, children=(g1, g2))


def game_value(g: Game) -> float:
    """Expected payoff: sum of partition weights times payoff labels."""
    return _weighted_labels(g._partition)


def _weighted_labels(part) -> float:
    """Sum of a partition of unity's weights times its labels."""
    return float(sum(float(v) * float(l) for l, v in part.items))


def exact_game_value(weights, payoffs) -> Fraction:
    """Direct evaluation from exact weights; the CLI's `value` route."""
    ws = [Fraction(w) for w in weights]
    ps = [Fraction(p) for p in payoffs]
    if len(ws) != len(ps):
        raise DomainError("need one weight per payoff")
    if sum(ws) != 1:
        raise DomainError(f"weights sum to {sum(ws)}, not 1")
    return sum(w * p for w, p in zip(ws, ps))


# ---------------------------------------------------------------------------
# Game transforms


def _member_states(rows: np.ndarray, counts: np.ndarray) -> tuple[PureState, ...]:
    """The one span row of each member of a span block (of a variable,
    `Variable._span_block`): v/|v| for a lone pure state v, which an SVD
    gives up to a sign no member weight sees."""
    if (counts != 1).any():
        raise RepresentationError("member attribute does not denote a single state")
    return _row_states(rows)


def _relabeled(x: Variable, new_labels) -> Variable:
    """x with new labels and its span block; its members are unchanged, so
    only the labels are checked."""
    new_labels = tuple(new_labels)
    if len(set(new_labels)) != len(new_labels):
        raise TransformError("relabeling collapses two payoff labels into one")
    _check_labels(new_labels)
    return _trusted_variable(x.substrate, tuple(zip(new_labels, x.attributes)), x._span)


def transform_game(g: Game, kind: str, k=0, mapping: dict | None = None,
                   target: str = "observable") -> Game:
    """Shift, reflect or permute a game.

    target="observable" relabels the payoffs; target="attribute" realizes the
    transform as a computation acting on the held state, which needs the
    label set closed under the map.
    """
    x = g.observable
    if kind == "shift":
        label_map = {l: l + k for l in x.labels}
    elif kind == "reflection":
        label_map = {l: -l for l in x.labels}
    elif kind == "permutation":
        if mapping is None:
            raise TransformError("permutation transform needs a mapping")
        label_map = dict(mapping)
        if set(label_map) != set(x.labels):
            raise TransformError("mapping must cover exactly the payoff labels")
    else:
        raise TransformError(f"unknown transform kind {kind!r}")

    if target == "observable":
        new_x = _relabeled(x, (label_map[l] for l in x.labels))
        _check_payoff_labels(new_x)
        game = Game(new_x, g.attribute, x.substrate, g.children)
        # g's members and attribute: the same weights, under the new labels
        vars(game)["_partition"] = PartitionOfUnity(
            tuple((label_map[l], w) for l, w in g._partition.items))
        return game
    if target != "attribute":
        raise TransformError(f"unknown transform target {target!r}")
    if set(label_map.values()) != set(x.labels):
        raise TransformError("label set is not closed under the transform")
    u = permutation_computation(label_map, zip(x.labels, _member_states(*x._span_block())))
    state = _single_state(g.attribute, message="game attribute does not denote a single state")
    moved = apply_unitary(state, u)
    return make_game(x, extensional_attribute(x.substrate, (moved,)), children=g.children)


# ---------------------------------------------------------------------------
# The payoff adder


@dataclass(frozen=True)
class AdderSpec:
    """|x>|p> -> |x>|p+x> on a finite payoff register, as a controlled map:
    each payoff label's span controls a shift of the register."""

    source: Variable
    payoff_labels: tuple
    control: ControlledMap

    @property
    def unitary(self) -> np.ndarray:
        """The dense adder unitary; built on request."""
        return self.control.unitary

    def payoff_index(self, label) -> int:
        return self.payoff_labels.index(label)


def build_adder(x: Variable, payoff_labels) -> AdderSpec:
    """Controlled payoff shifts; sums falling off the register are completed
    deterministically (they carry no contract beyond unitarity)."""
    _check_payoff_labels(x)
    payoff_labels = tuple(payoff_labels)
    if len(set(payoff_labels)) != len(payoff_labels):
        raise LabelArithmeticError("payoff register labels must be distinct")
    d_p = len(payoff_labels)
    index = {l: i for i, l in enumerate(payoff_labels)}
    shifts = []
    for label in x.labels:
        # shift[j] = i sends i to j; sums off the register fill the free j in order
        shift = np.full(d_p, -1)
        pending = []
        for i, p in enumerate(payoff_labels):
            try:
                j = index.get(p + label)
            except TypeError:
                raise LabelArithmeticError(
                    f"payoff register label {p!r} cannot be added to variable label {label!r}"
                ) from None
            if j is None:
                pending.append(i)
            else:
                shift[j] = i
        shift[np.flatnonzero(shift < 0)[:len(pending)]] = pending
        shifts.append(shift)
    control = controlled_map(*x._span_block(), shifts, x.substrate.dim, PreconditionError, "adder")
    return AdderSpec(source=x, payoff_labels=payoff_labels, control=control)


def apply_adder(adder: AdderSpec, joint) -> PureState | MixedState:
    """Run the adder on a source (x) payoff-register joint state."""
    dims = (adder.control.control_dim, adder.control.target_dim)
    return adder.control.apply(joint, (0, 1), dims=dims)


# ---------------------------------------------------------------------------
# Derivation machinery


@dataclass(frozen=True)
class DerivationStep:
    rule: str
    premises: tuple
    conclusion: str
    check: bool
    computation: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.rule not in DERIVATION_RULES:
            raise DomainError(f"unknown derivation rule {self.rule!r}")


@dataclass(frozen=True)
class DerivationTrace:
    steps: tuple
    final_value: Fraction

    @property
    def all_checks_pass(self) -> bool:
        return all(step.check for step in self.steps)


def render_trace(trace: DerivationTrace) -> str:
    return "\n".join(
        f"step {i}: {step.rule} | {step.conclusion} | check={'pass' if step.check else 'fail'}"
        for i, step in enumerate(trace.steps, start=1))


def check_equal_value(x: Variable, h: Variable, q: Attribute, model) -> DerivationStep:
    """The equal-value procedure: measure, keep the mixture, replace, re-value.

    All games G_x(h_i) must already share one value v; the step then walks q
    through measurement of h, checks its intrinsic part is still a mixture of
    h, collapses every branch onto the first member by a controlled swap, and
    confirms the resulting sharp attribute is worth v as well.
    """
    atol = tol()
    values = [game_value(make_game(x, attr)) for _, attr in h.members]
    v = values[0]
    if any(abs(u - v) > atol for u in values):
        raise PreconditionError(f"member games have unequal values {values}")
    measurer = build_measurer(h)
    state_q = _single_state(q)
    joint = tensor(state_q, measurer.receptive_state())
    measured = apply_measurer(measurer, joint)
    mixture_kept = True
    try:
        partition_of_unity(intrinsic_part(measured, 0), h)
    except DomainError:
        mixture_kept = False
    # flag k of the record controls the swap of member k with the first
    members = tuple(zip(h.labels, _member_states(*h._span_block())))
    first = h.labels[0]
    swaps = [np.arange(h.substrate.dim)] + [
        permutation_computation(transposition_map(h.labels, first, label), members)
        for label in h.labels[1:]
    ]
    u_rep = controlled_map(np.array(measurer.flags), [1] * len(h), swaps, measurer.target_dim,
                           PreconditionError, "replacement")
    final = u_rep.apply(measured, factors=(1, 0))
    rho_src = intrinsic_part(final, 0)
    sharp_ok = _member_weights(rho_src, *h._span_block())[0] >= 1.0 - atol
    end_value = game_value(make_game(x, h.attribute(first)))
    value_ok = abs(end_value - v) <= atol
    return DerivationStep(
        rule="EqualValue",
        premises=tuple(f"V{{G({l!r})}} = {v:.9g}" for l in h.labels),
        conclusion=f"V{{G(q)}} = {v:.9g}",
        check=mixture_kept and sharp_ok and value_ok,
        computation={
            "mixture_kept": mixture_kept,
            "collapsed_sharp": sharp_ok,
            "end_value": end_value,
        },
    )


def _as_payoff(value) -> Fraction:
    """An exact payoff that also has a finite float, which the checks compare."""
    if isinstance(value, bool) or not isinstance(value, (Fraction, int, float)):
        raise UnsupportedInputError(f"cannot treat {value!r} as a payoff")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise UnsupportedInputError("payoff is too large for a float") from None
    if not finite:
        raise UnsupportedInputError(f"payoff {value!r} is not finite")
    if isinstance(value, float):
        frac = Fraction(value).limit_denominator(10 ** 6)
        if abs(float(frac) - value) > 1e-9:
            raise UnsupportedInputError(f"payoff {value!r} is not rational enough to derive with")
        return frac
    return Fraction(value)


def _payoff_tol(x1: Fraction, x2: Fraction) -> float:
    """tol() for a value computed in floats, whose rounding grows with the payoffs."""
    return tol() * max(1.0, abs(float(x1)), abs(float(x2)))


def derive_value(g: Game) -> DerivationTrace:
    """Full derivation for a two-payoff game with rational weights m/n."""
    if len(g.observable) != 2:
        raise DomainError("the derivation covers two-payoff games")
    (l1, f1), (l2, _) = g._partition.items
    snap = Fraction(float(f1)).limit_denominator(10 ** 6)
    if abs(float(snap) - float(f1)) > 1e-9:
        raise UnsupportedInputError("irrational weights are out of the derivation's scope")
    return derive_value_mn(snap.numerator, snap.denominator, (l1, l2))


def derive_value_mn(m: int, n: int, payoffs) -> DerivationTrace:
    """Derivation for the canonical state sqrt(m/n)|x1> + sqrt((n-m)/n)|x2>."""
    if n < 1 or not 0 <= m <= n:
        raise DomainError(f"weights {m}/{n} do not describe a partition")
    if n > 64:
        raise SizeLimitError(f"weight denominator {n} exceeds 64")
    payoffs = tuple(payoffs)
    if len(payoffs) != 2:
        raise DomainError("the derivation covers exactly two payoffs")
    x1, x2 = (_as_payoff(p) for p in payoffs)
    final = (m * x1 + (n - m) * x2) / n

    if x1 == x2 or m == 0 or m == n:
        return _degenerate_trace(m, n, x1, x2, final)

    x = _payoff_variable(x1, x2)
    steps = [*_symmetric_base_steps(x, x1, x2)]
    steps.extend(_appendix_steps(x, m, n, x1, x2, final))
    return DerivationTrace(steps=tuple(steps), final_value=final)


def _payoff_variable(x1: Fraction, x2: Fraction) -> Variable:
    """The payoff register: x1 and x2 (distinct) on the two standard kets,
    which are valid, disjoint and their own span rows, so the variable is
    built unchecked and handed the identity block."""
    sub = quantum_substrate(f"payoff[{x1},{x2}]", 2)
    rows = _readonly(np.eye(2, dtype=complex))
    return _trusted_variable(sub, tuple(
        (l, _trusted_attribute(sub, (s,))) for l, s in zip((x1, x2), _row_states(rows))),
        (rows, _readonly(np.ones(2, np.intp))))


def _degenerate_trace(m, n, x1, x2, final) -> DerivationTrace:
    # a sharp attribute, or both payoffs equal: P5's trivial case
    if x1 == x2:
        check = True
        computation = {"reason": "both payoffs equal; every branch pays the same"}
    else:
        x = _payoff_variable(x1, x2)
        state = basis_state(2, 0) if m == n else basis_state(2, 1)
        expect = x1 if m == n else x2
        check = sharp_value(state, x) == expect and final == expect
        computation = {"sharp_at": float(expect)}
    step = DerivationStep(
        rule="EqualValue",
        premises=(f"weights {m}/{n}", f"payoffs {x1}, {x2}"),
        conclusion=f"V = {final} (sharp or constant-payoff game)",
        check=check,
        computation=computation,
    )
    return DerivationTrace(steps=(step,), final_value=final)


def _symmetric_base_steps(x: Variable, x1: Fraction, x2: Fraction):
    """Steps 1-3: shift and reflection force the symmetric value (x1+x2)/2;
    x is the payoff variable of x1 and x2."""
    atol = _payoff_tol(x1, x2)
    k = -(x1 + x2)
    v_sym = -k / 2

    # shift: the label identity T_{-(x1+x2)} = R o S, checked exactly
    swap = {x1: x2, x2: x1}
    shift_identity = all(l + k == -swap[l] for l in (x1, x2))
    yield DerivationStep(
        rule="ShiftRule",
        premises=("uniform shift covariance",),
        conclusion=f"V{{G_T{k}(X)(y+)}} = V{{G_X(y+)}} + ({k})",
        check=shift_identity,
        computation={"label_identity": "T_k = R o S with k = -(x1+x2)",
                     "holds": shift_identity},
    )

    # reflection: negation closure holds in the centered labeling
    centered = {x1: x1 - v_sym, x2: x2 - v_sym}
    try:
        negation_map(tuple(centered.values()))
        closure = True
    except TransformError:
        closure = False
    yield DerivationStep(
        rule="ReflectionRule",
        premises=("reflection antisymmetry",),
        conclusion="V{G_R(S(X))(y+)} = -V{G_S(X)(y+)}",
        check=closure,
        computation={"centered_labels": tuple(map(str, centered.values())),
                     "closed_under_negation": closure},
    )

    # symmetric base: S fixes y+, so the two sides close to (x1+x2)/2; S(y+)
    # is the held state of `transform_game(g, "permutation", swap, target="attribute")`
    s_unitary = permutation_computation(swap, zip(x.labels, _member_states(*x._span_block())))
    moved = apply_unitary(_Y_PLUS, s_unitary)
    s_fixes = states_equal(moved, _Y_PLUS)
    g = make_game(x, extensional_attribute(x.substrate, (_Y_PLUS,)))
    g_swapped = transform_game(g, "permutation", mapping=swap)
    g_moved = make_game(x, extensional_attribute(x.substrate, (moved,)))
    covariance = abs(game_value(g_swapped) - game_value(g_moved)) <= atol
    value = game_value(g)
    direct = abs(value - float(v_sym)) <= atol
    yield DerivationStep(
        rule="SymmetricBase",
        premises=("ShiftRule", "ReflectionRule", "S(y+) in y+"),
        conclusion=f"2 V{{G_X(y+)}} = {-k}; V{{G_X(y+)}} = {v_sym}",
        check=s_fixes and covariance and direct,
        computation={"swap_fixes_y_plus": s_fixes,
                     "permutation_covariance": covariance,
                     "direct_value": value},
    )


def _block_labels(m: int, n: int) -> np.ndarray:
    """Reflection-symmetric payoff labels for the n-dim target register, in
    half units: h[j] is twice the label of |j>, so every entry is an integer.

    Block one (indices 0..m-1) and block two (m..n-1) are each centered on
    zero, so each block sums to zero and the per-block reversal negates the
    labels while fixing the uniform block states.
    """
    return np.concatenate([2 * np.arange(m) - (m - 1), 2 * np.arange(n - m) - (n - m - 1)])


def _appendix_steps(x: Variable, m: int, n: int, x1: Fraction, x2: Fraction,
                    final: Fraction):
    """Steps 4-7; the o-register's partition is its reduced state's diagonal
    summed per half-unit label (`_block_labels`)."""
    atol = tol()
    b1, b2 = _member_states(*x._span_block())
    amp1 = math.sqrt(m / n)
    amp2 = math.sqrt((n - m) / n)
    y_state = normalized(amp1 * b1.vector + amp2 * b2.vector)

    block = np.arange(n) < m
    o1 = normalized(block.astype(float))
    o2 = normalized((~block).astype(float))
    measurer = build_measurer(x, flag_states={x1: o1, x2: o2})
    measured = apply_measurer(measurer, tensor(y_state, measurer.receptive_state()))
    s_amps = amp1 * np.outer(b1.vector, o1.vector) + amp2 * np.outer(b2.vector, o2.vector)
    s_state = _trusted(PureState, vector=_readonly(s_amps.ravel()),
                       dims=(2, n))  # unit: <o1|o2> = 0
    identity_ok = states_equal(measured, s_state)
    yield DerivationStep(
        rule="MeasurementNeutrality",
        premises=("the o-measurer of X",),
        conclusion=(f"V{{G_X(y)}} = V{{G_X(s)}} with "
                    f"s = sqrt({m}/{n})|x1>|o1> + sqrt({n - m}/{n})|x2>|o2>"),
        check=identity_ok,
        computation={"state_identity": identity_ok},
    )

    # target-factor value is zero: per-block reversal fixes o1, o2 and
    # negates the centered labels, so the partition is reflection invariant
    h = _block_labels(m, n)
    sums_zero = bool(h[:m].sum() == 0 and h[m:].sum() == 0)
    flip = np.where(block, m - 1, n + m - 1) - np.arange(n)  # per-block reversal, an involution
    negates = bool(np.array_equal(h[flip], -h))
    fixes_o = all(states_equal(_trusted(PureState, vector=_readonly(o.vector[flip]),
                                        dims=o.dims), o) for o in (o1, o2))  # unit: permuted
    rho_o = intrinsic_part(measured, 1).matrix
    invariant = float(np.abs(rho_o[flip][:, flip] - rho_o).max()) <= atol
    # h runs over -(n-1)..n-1: the labels in use, ascending, and their weights
    lams = np.flatnonzero(np.bincount(h + n - 1)) - (n - 1)
    weight_o = _partition_weights(
        np.bincount(h + n - 1, weights=rho_o.diagonal().real)[lams + n - 1], atol)
    value_o = float(weight_o @ lams) / 2
    mirrored = (bool(np.array_equal(lams, -lams[::-1]))  # unique labels ascend
                and float(np.abs(weight_o - weight_o[::-1]).max()) <= atol)
    zero_ok = abs(value_o) <= atol
    yield DerivationStep(
        rule="EqualValue",
        premises=("reflection-invariant partition on the target",),
        conclusion="V{target factor of s} = 0",
        check=sums_zero and negates and fixes_o and invariant and mirrored and zero_ok,
        computation={
            "block_sums_zero": sums_zero,
            "reversal_negates_labels": negates,
            "reversal_fixes_o_states": fixes_o,
            "reduced_state_invariant": invariant,
            "target_value": value_o,
        },
    )

    # additivity: V over the summed payoff equals source value plus zero;
    # amps[i, j] = <b_i (x) e_j|s>
    amps = np.array([b1.vector, b2.vector]).conj() @ s_amps
    payoffs = np.array([[float(x1)], [float(x2)]])
    total = float(np.sum(np.abs(amps) ** 2 * (payoffs + h / 2)))
    source_value = _weighted_labels(partition_of_unity(intrinsic_part(measured, 0), x))
    additive = abs(total - (source_value + value_o)) <= _payoff_tol(x1, x2)
    yield DerivationStep(
        rule="Additivity",
        premises=("V{target} = 0",),
        conclusion="V{G_{X+L}(s)} = V{G_X(s)} + V{G_L(s)} = V{G_X(y)} + 0",
        check=additive,
        computation={"total_value": total, "source_value": source_value},
    )

    # the n-branch expansion is uniform, so the symmetric result applies;
    # branch (i, j) is there when e_j lies in block i
    branch = np.array([block, ~block])
    uniform = float(np.abs(np.abs(amps) - branch / math.sqrt(n)).max()) <= atol
    branches = int(branch.sum())
    mean = (m * x1 + (n - m) * x2 + Fraction(int(h.sum()), 2)) / n
    arithmetic = mean == final and branches == n
    yield DerivationStep(
        rule="NonSymmetric",
        premises=("uniform n-branch expansion", "symmetric case value = branch mean"),
        conclusion=f"V{{G_X(y)}} = ({m}*{x1} + {n - m}*{x2})/{n} = {final}",
        check=uniform and arithmetic,
        computation={"branches": branches, "mean": str(mean)},
    )


# ---------------------------------------------------------------------------
# Decision support (the Table 1 conditions)


@dataclass(frozen=True)
class DecisionSupportReport:
    checks: tuple  # (name, verdict, detail) in order T1, R1, R2, R3, R4
    passed: bool
    reason: str | None
    appendix_preparation_available: bool
    q: PureState | None = None

    def verdict(self, name: str) -> bool:
        for n, v, _ in self.checks:
            if n == name:
                return v
        raise KeyError(name)


def _nontrivial_mixture(attr: Attribute, of: Variable, model) -> bool:
    report = is_generalised_mixture(attr, of, model)
    return report.verdict and "trivial" not in report.evidence


@lru_cache(maxsize=None)
def _appendix_available(atol: float) -> bool:
    """Whether the 1/3 appendix derivation passes; it reads nothing but the
    tolerance atol, so it is derived once per tolerance."""
    try:
        return derive_value_mn(1, 3, (Fraction(1), Fraction(0))).all_checks_pass
    except CtError:
        return False


def check_decision_support(model, x: Variable, y: Variable) -> DecisionSupportReport:
    """Verify T1 and R1-R4 for the observable pair; failures are verdicts.

    The members' span rows serve the checks.  T1 reads the summed pair
    variable's partition off the products of x's rows when they are
    orthonormal (no pair variable, no SVD); R4's diagonal states and the
    members of its swaps are outer products of the rows."""
    if getattr(model, "kind", None) == CLASSICAL:
        return DecisionSupportReport(checks=(), passed=False, reason="no complementary observables",
                                     appendix_preparation_available=False)
    if len(x) != 2 or len(y) != 2:
        raise DomainError("decision support covers two-valued observables")
    atol = tol()
    checks = []

    def record(name, fn):
        try:
            verdict, detail = fn()
        except CtError as exc:
            verdict, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, verdict, detail))

    (rx, cx), (ry, cy) = x._span_block(), y._span_block()
    xs, ys = _member_states(rx, cx), _member_states(ry, cy)

    def swap(labels, states):
        """The computation exchanging the two members."""
        return permutation_computation(transposition_map(labels, *labels), tuple(zip(labels, states)))

    def diagonal(rows):
        """(|s0>|s0> + |s1>|s1>) / sqrt(2) on the doubled substrate, for the
        members' span rows s0 and s1, and the rows |s_l>|s_l>."""
        doubled = (rows[:, :, None] * rows[:, None, :]).reshape(2, -1)  # as `tensor` forms them
        return normalized(doubled.sum(0) / math.sqrt(2), dims=(x.substrate.dim,) * 2), doubled

    # built once for the checks that share them; a build that raises is rerun
    # at its next use, so each of those checks records its error
    swap_x, diagonal_x = cache(lambda: swap(x.labels, xs)), cache(lambda: diagonal(rx))

    def t1():
        z = ys[0]
        sweep = verify_E1_E2(z, x, (8, 24), Fraction(1, 20), final_bound=0.5)
        # a mixed member's span depends on tol(), coarsen_variable refuses
        # subspaces and labels without arithmetic, and products of rows that
        # are not orthonormal do not span the pair's members orthonormally:
        # those build the pair variable
        if x._span is None or any(a.is_subspace for a in x.attributes) or not all(
                isinstance(l, Real) and not isinstance(l, bool) for l in x.labels) \
                or _closure_rows(rx) is not rx:
            part_pair = partition_of_unity(tensor(z, z), coarsen_variable(x, x, mode="sum"))
        else:
            # the summed pair variable's member s is spanned by the orthonormal
            # products u_a (x) u_b of x's rows with l_a + l_b = s, on each of
            # which z (x) z weighs w_a w_b: its partition, with no SVD
            ids: dict = {}  # sum -> member, as coarsen_variable assigns them
            sums = [ids.setdefault(a + b, len(ids)) for a in x.labels for b in x.labels]
            w = _row_weights(z, rx)
            part_pair = PartitionOfUnity(tuple(zip(ids, _partition_weights(
                np.bincount(sums, np.outer(w, w).ravel()), atol).tolist())))
        return (sweep.verdict, {
            "single": sweep.partition.as_dict(),
            "pair_labels": part_pair.labels,
            "sweep_rows": [float(r.approx) for r in sweep.rows],
        })

    def r1():
        for name, v, other, of in (("X", x, y, "Y"), ("Y", y, x, "X")):
            for label, attr in v.members:
                if not _nontrivial_mixture(attr, other, model):
                    return False, f"member {label!r} of {name} is not a non-trivial mixture of {of}"
        return True, "all four members are non-trivial mixtures of the other observable"

    def r2():
        s_x, s_y = swap_x(), swap(y.labels, ys)
        for s, states, name in ((s_x, ys, "S_x moves a member of Y"), (s_y, xs, "S_y moves a member of X")):
            if not all(states_equal(apply_unitary(v, s), v, atol) for v in states):
                return False, name
        return True, "both swaps fix the other observable's members"

    def r3():
        m = build_measurer(x)
        reduced = []
        for v in ys:
            out = apply_measurer(m, tensor(v, m.receptive_state()))
            reduced.append(intrinsic_part(out, 0).matrix)
        equal = float(np.abs(reduced[0] - reduced[1]).max()) <= atol
        s_x = swap_x()
        swap_inv = float(np.abs(s_x @ reduced[0] @ s_x.conj().T - reduced[0]).max()) <= atol
        return equal and swap_inv, {"reduced_equal": equal, "swap_invariant": swap_inv}

    def r4():
        (q_x, doubled_x), (q_y, doubled_y) = diagonal_x(), diagonal(ry)
        if not states_equal(q_x, q_y, atol):
            return False, "the two diagonal superpositions differ"
        # the members (l, l) of each observable's product with itself, built alone
        diag_x, diag_y = (_product_variable(v, v, zip(v.members, v.members)) for v in (x, y))
        q_attr = _trusted_attribute(diag_x.substrate, (q_x,))
        mix_x, mix_y = (_nontrivial_mixture(q_attr, v, model) for v in (diag_x, diag_y))
        swaps = [swap([(l, l) for l in v.labels], _row_states(doubled))
                 for v, doubled in ((x, doubled_x), (y, doubled_y))]
        inv_x, inv_y = (states_equal(apply_unitary(q_x, s), q_x, atol) for s in swaps)
        return mix_x and mix_y and inv_x and inv_y, {
            "mixture_of_Sx": mix_x, "mixture_of_Sy": mix_y,
            "swap_xx_invariant": inv_x, "swap_yy_invariant": inv_y}

    record("T1", t1)
    record("R1", r1)
    record("R2", r2)
    record("R3", r3)
    record("R4", r4)

    q_state = diagonal_x()[0] if checks[4][1] else None
    passed = all(v for _, v, _ in checks)
    reason = None
    if not passed and not detect_superinformation(x, y, model).verdict:
        reason = "observables do not form a superinformation pair"
    return DecisionSupportReport(checks=tuple(checks), passed=passed, reason=reason,
                                 appendix_preparation_available=_appendix_available(atol), q=q_state)
