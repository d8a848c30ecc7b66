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
    _first_span_overlap,
    _single_state,
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
from .states import PureState, basis_state, expectation, tensor
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


def cloning_task(v: Variable, receptive: Attribute, side_effects: bool = True) -> Task:
    """The cloning task for v: (x, receptive) -> (x, x) for every member x."""
    s2 = compose_substrates(v.substrate, v.substrate)
    pairs = []
    for _, attr in v.members:
        pairs.append((product_attribute(attr, receptive),
                      product_attribute(attr, attr)))
    return task(s2, pairs, side_effects=side_effects)


def permutation_task(v: Variable, mapping: dict, side_effects: bool = True) -> Task:
    """The relabeling task x_l -> x_{mapping[l]} over all members of v."""
    pairs = [(v.attribute(l), v.attribute(mapping.get(l, l))) for l in v.labels]
    return task(v.substrate, pairs, side_effects=side_effects)


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
    pairs = []
    for k, (_, attr) in enumerate(v.members):
        flag = extensional_attribute(v.substrate, (basis_state(d, k),))
        pairs.append((attr, flag))
    return task(v.substrate, pairs, side_effects=side_effects)


def product_variable(v1: Variable, v2: Variable) -> Variable:
    """Members (l1, l2) -> x1 x x2 on the composite substrate."""
    members = []
    for l1, a1 in v1.members:
        for l2, a2 in v2.members:
            members.append(((l1, l2), product_attribute(a1, a2)))
    return variable(compose_substrates(v1.substrate, v2.substrate), members)


# ---------------------------------------------------------------------------
# Computation / information variables


def is_computation_variable(v: Variable, model) -> PredicateReport:
    """Every relabeling of v must be a possible task (side effects allowed).

    Transpositions generate the permutation group, so one verdict per
    transposition is recorded as evidence.
    """
    labels = v.labels
    checks = {}
    ok = True
    for a, b in itertools.combinations(labels, 2):
        swap = {a: b, b: a}
        verdict = is_task_possible(permutation_task(v, swap), model)
        checks[(a, b)] = verdict
        if verdict.status != POSSIBLE:
            ok = False
    return _report("is_computation_variable", v, ok, {"transpositions": checks})


def is_information_variable(v: Variable, model) -> PredicateReport:
    """Computation variable whose cloning task is possible for some blank.

    The cloning check runs first: a non-orthogonal pair fails it with a
    clean amplitude-ratio certificate, so the later permutation sweep never
    reaches the oracle's unknown branch.
    """
    candidates = [("blank", blank_attribute(v.substrate))]
    for label, attr in v.members:
        candidates.append((label, attr))
    clone_checks = {}
    clone_ok = None
    for name, receptive in candidates:
        verdict = is_task_possible(cloning_task(v, receptive), model)
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
        universe = x.substrate.universe()
        rest = tuple(s for s in universe if s not in set(x.states))
        if not rest:
            raise DomainError("bar of the full classical universe is empty")
        return extensional_attribute(x.substrate, rest)
    span = attribute_span(x)
    d = x.substrate.dim
    if span.shape[0] == 0:
        return subspace_attribute(x.substrate, tuple(basis_state(d, k) for k in range(d)))
    # eigenvectors of I - P with eigenvalue 1 span the orthogonal complement
    proj = np.eye(d) - span.T @ span.conj()
    vals, vecs = np.linalg.eigh(proj)
    basis = [PureState(vecs[:, k]) for k in range(d) if vals[k] > 0.5]
    return subspace_attribute(x.substrate, tuple(basis))


def span_closure(v: Variable | Attribute) -> Attribute:
    """The full-subspace attribute spanned by a variable's member states."""
    if isinstance(v, Variable):
        substrate = v.substrate
        parts = [attribute_span(a) for a in v.attributes]
    else:
        substrate = v.substrate
        parts = [attribute_span(v)]
    if substrate.kind != QUANTUM:
        raise RepresentationError("span closure is a quantum notion")
    stacked = np.vstack([p for p in parts if p.size] or [np.zeros((0, substrate.dim))])
    if stacked.shape[0] == 0:
        return subspace_attribute(substrate, ())
    _, sing, vh = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(sing > 1e-12))
    return subspace_attribute(substrate, tuple(PureState(row) for row in vh[:rank]))


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
    subject = _subject(x.substrate.id, x.labels, "|", y.labels)
    for name, v in (("X", x), ("Y", y)):
        info = is_information_variable(v, model)
        obs = is_observable(v, model)
        if not (info.verdict and obs.verdict):
            return PredicateReport(
                predicate="detect_superinformation",
                subject=subject,
                verdict=False,
                evidence={"failed": f"{name} is not an information observable",
                          "information": info, "observable": obs},
            )
    for lx, ax in x.members:
        for ly, ay in y.members:
            disjoint, witness = attributes_disjoint(ax, ay)
            if not disjoint:
                return PredicateReport(
                    predicate="detect_superinformation",
                    subject=subject,
                    verdict=False,
                    evidence={"failed": "cross disjointness",
                              "pair": (lx, ly), "witness": witness},
                )
    union = variable(
        x.substrate,
        [(("x", l), a) for l, a in x.members] + [(("y", l), a) for l, a in y.members],
    )
    union_info = is_information_variable(union, model)
    return PredicateReport(
        predicate="detect_superinformation",
        subject=subject,
        verdict=not union_info.verdict,
        evidence={"union_information": union_info},
    )


# ---------------------------------------------------------------------------
# Restriction and generalised mixtures


def restricted_variable(x: Variable, y: Attribute) -> Variable:
    """X_y: the members of x with nonzero overlap with y's state."""
    if x.substrate.kind != QUANTUM:
        raise RepresentationError("restriction is defined on the quantum backend")
    state = _single_state(y)
    members = []
    for label, attr in x.members:
        if expectation(state, attribute_projector(attr)) > tol():
            members.append((label, attr))
    if not members:
        raise DomainError("restriction is empty: y has no overlap with any member")
    return variable(x.substrate, members)


def is_generalised_mixture(z: Attribute, h: Variable, model) -> PredicateReport:
    """Is z a (possibly trivial) generalised mixture of the variable h?

    Non-trivially: z disjoint from and not inside any member, with the span
    projector of h sharp in z.  Classically the span adds nothing beyond the
    union, so only membership survives.
    """
    subject = _subject(z.substrate.id, "z vs", h.labels)
    for label, attr in h.members:
        if attribute_equal(z, attr):
            return PredicateReport(
                predicate="is_generalised_mixture",
                subject=subject,
                verdict=True,
                evidence={"trivial": label},
            )
    if z.substrate.kind == CLASSICAL:
        return PredicateReport(
            predicate="is_generalised_mixture",
            subject=subject,
            verdict=False,
            evidence={"reason": "no classical attribute lies in the span "
                                "of members it is disjoint from"},
        )
    for label, attr in h.members:
        disjoint, witness = attributes_disjoint(z, attr)
        if not disjoint:
            return PredicateReport(
                predicate="is_generalised_mixture",
                subject=subject,
                verdict=False,
                evidence={"failed": "not disjoint", "member": label, "witness": witness},
            )
        if attribute_subset(z, attr):
            return PredicateReport(
                predicate="is_generalised_mixture",
                subject=subject,
                verdict=False,
                evidence={"failed": "contained in a member", "member": label},
            )
    proj = attribute_projector(span_closure(h))
    atol = tol()
    if z.is_subspace:
        span = attribute_span(z)
        dev = float(np.abs(span.conj() @ proj @ span.T - np.eye(span.shape[0])).max()) if span.size else 1.0
        sharp = dev <= atol
        worst = dev
    else:
        worst = 0.0
        for s in z.states:
            gap = abs(1.0 - expectation(s, proj))
            worst = max(worst, gap)
        sharp = worst <= atol
    return PredicateReport(
        predicate="is_generalised_mixture",
        subject=subject,
        verdict=sharp,
        evidence={"span_sharpness_gap": worst},
    )


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
        states = probe.basis if probe.is_subspace else probe.states
        for s in states:
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
