"""Predicates over variables: computation, information, observables, superinformation.

Each predicate returns a PredicateReport whose evidence field carries the
underlying possibility verdicts or subspace computations, so a verdict can be
re-derived without rerunning the search.  The quantum fast paths (pairwise
span orthogonality in place of the task oracle) are used only where a test
proves them equivalent to the oracle route.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DomainError,
    MeasurerConformanceError,
    RepresentationError,
)
from .kernel import (
    CLASSICAL,
    POSSIBLE,
    QUANTUM,
    Attribute,
    SubstrateSpec,
    Task,
    Variable,
    _check_member_substrates,
    _first_overlap,
    _first_span_overlap,
    _holds_mixed,
    _member_weights,
    _row_basis,
    _single_state,
    _trusted_attribute,
    attribute_equal,
    attribute_projector,
    attribute_span,
    attribute_subset,
    attributes_disjoint,
    compose_substrates,
    contains_state,
    extensional_attribute,
    is_task_possible,
    product_attribute,
    subspace_attribute,
    task,
    variable,
)
from .quantum import MeasurerSpec, apply_measurer, intrinsic_part
from .states import PureState, _readonly, _trusted, basis_state, expectation, tensor
from .tolerance import tol


@dataclass(frozen=True)
class PredicateReport:
    """Outcome of one predicate check, with its supporting computation."""

    predicate: str
    subject: str
    verdict: bool
    evidence: dict

    def __bool__(self) -> bool:
        return self.verdict


def _subject(*parts) -> str:
    return " ".join(str(p) for p in parts)


def _report(predicate: str, v: Variable, verdict: bool, evidence: dict) -> PredicateReport:
    """A report on the variable v, named by its substrate and labels."""
    return PredicateReport(predicate, _subject(v.substrate.id, v.labels), verdict, evidence)


# ---------------------------------------------------------------------------
# Task builders (shared by predicates and by the oracle-equivalence tests)


def blank_attribute(substrate: SubstrateSpec) -> Attribute:
    """A fixed receptive attribute: the first classical label or |0>."""
    if substrate.kind == CLASSICAL:
        return extensional_attribute(substrate, (substrate.universe()[0],))
    return extensional_attribute(substrate, (basis_state(substrate.dim, 0),))


def _cloning_tasks(v: Variable, receptives, side_effects: bool = True):
    """The cloning task of v for each receptive attribute in turn, built on
    demand; the composite substrate and the (x, x) outputs are built once.

    Inputs x (x) r and x' (x) r share a state only if x and x' do, so the
    task is not checked again, unless a factor lists a mixed state (see
    `kernel`) or the receptive lives on a substrate of another size."""
    s2 = compose_substrates(v.substrate, v.substrate)
    outputs = [product_attribute(attr, attr) for attr in v.attributes]
    mixed = any(map(_holds_mixed, v.attributes))
    for receptive in receptives:
        pairs = tuple((product_attribute(attr, receptive), out)
                      for attr, out in zip(v.attributes, outputs))
        if mixed or _holds_mixed(receptive) or receptive.substrate.size() != v.substrate.size():
            yield task(s2, pairs, side_effects=side_effects)
        else:
            yield _trusted(Task, substrate=s2, pairs=pairs, side_effects=side_effects)


def _cloning_verdicts(v: Variable, model):
    """(name, verdict) of cloning v onto the blank, then onto each member."""
    names, receptives = zip(("blank", blank_attribute(v.substrate)), *v.members)
    for name, clone in zip(names, _cloning_tasks(v, receptives)):
        yield name, is_task_possible(clone, model)


def cloning_task(v: Variable, receptive: Attribute, side_effects: bool = True) -> Task:
    """The cloning task for v: (x, receptive) -> (x, x) for every member x."""
    return next(_cloning_tasks(v, (receptive,), side_effects))


def permutation_task(v: Variable, mapping: dict, side_effects: bool = True) -> Task:
    """The relabeling task x_l -> x_{mapping[l]} over all members of v; its
    inputs are v's members, so it is not checked again."""
    members = dict(v.members)
    pairs = tuple((a, members[mapping.get(l, l)]) for l, a in v.members)
    return _trusted(Task, substrate=v.substrate, pairs=pairs, side_effects=side_effects)


def distinguishing_task(v: Variable, side_effects: bool = True) -> Task:
    """The task sending member k of v to the k-th basis flag of the substrate.

    Only defined when the substrate can hold len(v) orthogonal flags; used by
    the equivalence test for the orthogonality fast path.
    """
    if v.substrate.kind != QUANTUM:
        raise RepresentationError("distinguishing_task builds quantum flags")
    d = v.substrate.dim
    if len(v) > d:
        raise DomainError(f"{len(v)} flags do not fit in dimension {d}")
    pairs = [(attr, extensional_attribute(v.substrate, (basis_state(d, k),)))
             for k, (_, attr) in enumerate(v.members)]
    return task(v.substrate, pairs, side_effects=side_effects)


def product_variable(v1: Variable, v2: Variable) -> Variable:
    """Members (l1, l2) -> x1 x x2 on the composite substrate; unchecked
    unless a member lists a mixed state (see `kernel`)."""
    members = tuple(((l1, l2), product_attribute(a1, a2))
                    for l1, a1 in v1.members for l2, a2 in v2.members)
    substrate = compose_substrates(v1.substrate, v2.substrate)
    if any(map(_holds_mixed, v1.attributes + v2.attributes)):
        return variable(substrate, members)
    return _trusted(Variable, substrate=substrate, members=members)


# ---------------------------------------------------------------------------
# Computation / information variables


def is_computation_variable(v: Variable, model) -> PredicateReport:
    """Every relabeling of v must be a possible task (side effects allowed).

    Transpositions generate the permutation group, so one verdict per
    transposition is recorded as evidence.
    """
    labels = v.labels
    checks = {}
    for a, b in itertools.combinations(labels, 2):
        swap = {a: b, b: a}
        checks[(a, b)] = is_task_possible(permutation_task(v, swap), model)
    ok = all(verdict.status == POSSIBLE for verdict in checks.values())
    return _report("is_computation_variable", v, ok, {"transpositions": checks})


def is_information_variable(v: Variable, model) -> PredicateReport:
    """Computation variable whose cloning task is possible for some blank.

    The cloning check runs first: a non-orthogonal pair fails it with a
    clean amplitude-ratio certificate, so the later permutation sweep never
    reaches the oracle's unknown branch.
    """
    clone_checks = {}
    clone_ok = None
    for name, verdict in _cloning_verdicts(v, model):
        clone_checks[name] = verdict
        if verdict.status == POSSIBLE:
            clone_ok = name
            break
    if clone_ok is None:
        return _report("is_information_variable", v, False,
                       {"cloning": clone_checks, "computation": None})
    comp = is_computation_variable(v, model)
    return _report("is_information_variable", v, comp.verdict,
                   {"cloning": clone_checks, "receptive": clone_ok, "computation": comp})


# ---------------------------------------------------------------------------
# Distinguishability and measurability


def _span_orthogonality(v: Variable) -> tuple[bool, dict | None]:
    """The verdict distinguishability and measurability share, with its
    quantum evidence: the member spans must be pairwise orthogonal (the
    task-oracle equivalent, by test).  Classical member disjointness already
    suffices: (True, None)."""
    if v.substrate.kind == CLASSICAL:
        return True, None
    hit = _first_span_overlap([attribute_span(a) for a in v.attributes], tol())
    witness = None if hit is None else (v.labels[hit[0]], v.labels[hit[1]], hit[2])
    return hit is None, {"orthogonal": hit is None, "witness": witness}


def is_distinguishable(v: Variable, model) -> PredicateReport:
    """Can the members of v be mapped onto an information variable?"""
    ok, evidence = _span_orthogonality(v)
    return _report("is_distinguishable", v, ok,
                   evidence or {"reason": "disjoint classical attributes map to distinct labels"})


def is_measurable(v: Variable, model, non_perturbing: bool = False) -> PredicateReport:
    """Is the tagging task (x, blank) -> (y_x, 'x') possible?

    The standard construction keeps y_x = x, so the non-perturbing refinement
    holds whenever the plain task does; the flag is recorded in the evidence.
    """
    ok, evidence = _span_orthogonality(v)
    if evidence is None:
        evidence = {"non_perturbing": non_perturbing,
                    "reason": "classical copy onto a fresh register"}
    else:
        evidence.update(non_perturbing=non_perturbing, perturbs=False if ok else None)
    return _report("is_measurable", v, ok, evidence)


# ---------------------------------------------------------------------------
# Bar, span closure, observables


def bar(x: Attribute, model) -> Attribute:
    """All attributes distinguishable from x, as one attribute.

    Quantum: the orthogonal complement of span(x), possibly the zero
    subspace.  Classical: the set complement within the universe.
    """
    if x.substrate.kind == CLASSICAL:
        held = set(x.states)
        rest = tuple(s for s in x.substrate.universe() if s not in held)
        if not rest:
            raise DomainError("bar of the full classical universe is empty")
        return extensional_attribute(x.substrate, rest)
    span = attribute_span(x)
    # the rows of vh past the span's rows are orthogonal to it (all of them for a zero span)
    rest = np.linalg.svd(span)[2][span.shape[0]:]
    return _trusted_attribute(x.substrate, _svd_states(rest), is_subspace=True)


def _svd_states(rows) -> tuple:
    """Orthonormal rows of an SVD as states, unchecked."""
    return tuple(_trusted(PureState, vector=_readonly(row), dims=(row.size,)) for row in rows)


def span_closure(v: Variable | Attribute) -> Attribute:
    """The full-subspace attribute spanned by a variable's member states."""
    substrate = v.substrate
    parts = [attribute_span(a) for a in (v.attributes if isinstance(v, Variable) else (v,))]
    stacked = np.vstack([p for p in parts if p.size] or [np.zeros((0, substrate.dim))])
    if stacked.shape[0] == 0:
        return subspace_attribute(substrate, ())
    return _trusted_attribute(substrate, _svd_states(_row_basis(stacked)), is_subspace=True)


def is_observable(v: Variable, model) -> PredicateReport:
    """Each member must equal its own double bar (its span closure).

    Quantum: subspace-represented members always pass; an extensional member
    passes only when it is a single state, since a finite state list can
    exhaust a subspace only in dimension one.  Classical complements are
    involutive, so every classical variable passes.
    """
    if v.substrate.kind == CLASSICAL:
        return _report("is_observable", v, True,
                       {"reason": "classical set complement is involutive"})
    failures = {}
    for label, attr in v.members:
        if attr.is_subspace:
            continue
        if len(attr.states) == 1 and isinstance(attr.states[0], PureState):
            continue
        failures[label] = {
            "states": len(attr.states),
            "span_dim": int(attribute_span(attr).shape[0]),
        }
    return _report("is_observable", v, not failures, {"open_members": failures})


# ---------------------------------------------------------------------------
# Superinformation


def detect_superinformation(x: Variable, y: Variable, model) -> PredicateReport:
    """Two information observables, mutually disjoint, with an unclonable union."""
    report = partial(PredicateReport, "detect_superinformation",
                     _subject(x.substrate.id, x.labels, "|", y.labels))
    for name, v in (("X", x), ("Y", y)):
        info = is_information_variable(v, model)
        obs = is_observable(v, model)
        if not (info.verdict and obs.verdict):
            return report(False, {"failed": f"{name} is not an information observable",
                                  "information": info, "observable": obs})
    return report(*_superinformation_pair(x, y, model))


def _superinformation_pair(x: Variable, y: Variable, model) -> tuple[bool, dict]:
    """(verdict, evidence) for two information observables: mutually disjoint,
    with an unclonable union.  Members of one variable never overlap, so the
    first overlap in x's members followed by y's is the first cross pair."""
    if (hit := _first_overlap(x.attributes + y.attributes)) is not None:
        i, j, witness = hit
        return False, {"failed": "cross disjointness",
                       "pair": (x.labels[i], y.labels[j - len(x)]), "witness": witness}
    # _first_overlap found no shared state, so only the substrates are checked
    members = tuple((("x", l), a) for l, a in x.members) + \
        tuple((("y", l), a) for l, a in y.members)
    _check_member_substrates(members, x.substrate)
    union = _trusted(Variable, substrate=x.substrate, members=members)
    union_info = is_information_variable(union, model)
    return not union_info.verdict, {"union_information": union_info}


# ---------------------------------------------------------------------------
# Restriction and generalised mixtures


def restricted_variable(x: Variable, y: Attribute) -> Variable:
    """X_y: the members of x with nonzero overlap with y's state."""
    if x.substrate.kind != QUANTUM:
        raise RepresentationError("restriction is defined on the quantum backend")
    state = _single_state(y)
    weights = _member_weights(state, x.attributes)
    members = [member for member, weight in zip(x.members, weights) if weight > tol()]
    if not members:
        raise DomainError("restriction is empty: y has no overlap with any member")
    return _trusted(Variable, substrate=x.substrate, members=tuple(members))


def is_generalised_mixture(z: Attribute, h: Variable, model) -> PredicateReport:
    """Is z a (possibly trivial) generalised mixture of the variable h?

    Non-trivially: z disjoint from and not inside any member, with the span
    projector of h sharp in z.  Classically the span adds nothing beyond the
    union, so only membership survives.
    """
    report = partial(PredicateReport, "is_generalised_mixture",
                     _subject(z.substrate.id, "z vs", h.labels))
    for label, attr in h.members:
        if attribute_equal(z, attr):
            return report(True, {"trivial": label})
    if z.substrate.kind == CLASSICAL:
        return report(False, {"reason": "no classical attribute lies in the span "
                                        "of members it is disjoint from"})
    for label, attr in h.members:
        disjoint, witness = attributes_disjoint(z, attr)
        if not disjoint:
            return report(False, {"failed": "not disjoint", "member": label, "witness": witness})
        if attribute_subset(z, attr):
            return report(False, {"failed": "contained in a member", "member": label})
    proj = attribute_projector(span_closure(h))
    atol = tol()
    if z.is_subspace:
        span = attribute_span(z)
        worst = 1.0 if not span.size else \
            float(np.abs(span.conj() @ proj @ span.T - np.eye(span.shape[0])).max())
    else:
        worst = max(abs(1.0 - expectation(s, proj)) for s in z.states)
    return report(worst <= atol, {"span_sharpness_gap": worst})


def generalised_mixture_kind(state, h: Variable, model) -> str:
    """Classify a single state against h: 'member', 'mixture' or 'outside'."""
    z = extensional_attribute(h.substrate, (state,))
    report = is_generalised_mixture(z, h, model)
    if report.verdict:
        return "member" if "trivial" in report.evidence else "mixture"
    # containment in a member counts as sharp membership, not a mixture
    for _, attr in h.members:
        if contains_state(attr, state):
            return "member"
    return "outside"


# ---------------------------------------------------------------------------
# Measurement consistency (two implementations must agree)


def _normalize_cover(z: Variable, impl: MeasurerSpec, cover: dict | None) -> dict:
    """Map each label of z to the implementation labels refining it.

    Without an explicit cover the assignment is derived semantically: an
    implementation outcome's span must sit inside exactly one member span.  An
    explicit cover is taken on faith structurally; probing decides whether
    it was honest.
    """
    if cover is not None:
        seen = []
        for zl, impl_labels in cover.items():
            if zl not in z.labels:
                raise MeasurerConformanceError(f"cover names unknown label {zl!r}")
            for il in impl_labels:
                if il not in impl.labels:
                    raise MeasurerConformanceError(
                        f"cover names unknown implementation label {il!r}")
                if il in seen:
                    raise MeasurerConformanceError(
                        f"implementation label {il!r} assigned twice")
                seen.append(il)
        return {zl: tuple(impl_labels) for zl, impl_labels in cover.items()}
    atol = tol()
    member_spans = [(label, attribute_span(attr)) for label, attr in z.members]
    member_spans = [(label, span) for label, span in member_spans if span.size]
    derived: dict = {label: [] for label in z.labels}
    for il in impl.labels:
        rows = impl.span(il)
        if rows.shape[0] == 0:
            continue
        home = None
        overlaps = []
        for zl, span in member_spans:
            overlap = span.conj() @ rows.T  # <z_a|s_b>
            overlaps.append(overlap)
            # containment: every s_b equals its projection onto span(z)
            if float(np.abs(rows.T - span.T @ overlap).max()) <= 1e-7:
                home = zl
                break
        if home is None:
            if any(float(np.abs(o).max()) > atol for o in overlaps):
                raise MeasurerConformanceError(
                    f"implementation outcome {il!r} straddles members of the variable"
                )
            continue  # acts outside the measured span entirely
        derived[home].append(il)
    return {zl: tuple(ils) for zl, ils in derived.items()}


def check_measurement_consistency(
    z: Variable,
    implementations,
    probes,
) -> PredicateReport:
    """All implementations must agree wherever any of them is sharp.

    implementations: MeasurerSpec or (MeasurerSpec, cover) pairs, where a
    cover maps each label of z to that implementation's outcome labels.
    probes: attributes inside the span closure of z.
    """
    atol = tol()
    normalized = []
    for item in implementations:
        if isinstance(item, tuple):
            spec, cover = item
        else:
            spec, cover = item, None
        normalized.append((spec, _normalize_cover(z, spec, cover)))

    span_proj = attribute_projector(span_closure(z))
    outcomes_log = []
    for probe in probes:
        for s in probe.elements:
            if abs(1.0 - expectation(s, span_proj)) > atol:
                raise DomainError("probe leaves the span closure of the variable")
            readings = []
            for spec, cover in normalized:
                joint = tensor(s, spec.receptive_state())
                out = apply_measurer(spec, joint)
                rho_t = intrinsic_part(out, 1)
                sharp_at = None
                for zl in z.labels:
                    w = sum(
                        expectation(rho_t, spec.flag_projector(il))
                        for il in cover.get(zl, ())
                    )
                    if w >= 1.0 - atol:
                        sharp_at = zl
                        break
                readings.append(sharp_at)
            outcomes_log.append((s, readings))
            fixed = [r for r in readings if r is not None]
            if fixed and (len(fixed) < len(readings) or len(set(fixed)) > 1):
                return _report("check_measurement_consistency", z, False,
                               {"counterexample": s, "readings": readings})
    return _report("check_measurement_consistency", z, True, {"probes": len(outcomes_log)})
