"""Predicates over variables: computation, information, observables, superinformation.

Each predicate returns a PredicateReport whose evidence field carries the
underlying possibility verdicts or subspace computations, so a verdict can be
re-derived without rerunning the search.  The quantum fast paths (pairwise
span orthogonality in place of the task oracle) are used only where a test
proves them equivalent to the oracle route.

The information-variable sweeps ask the oracle only what earlier answers do
not fix: a computation variable is decided by its n-1 star transpositions
(l0 lk), which generate the permutation group, and a quantum member that
lists one unit pure state r takes the blank's cloning verdict, since its
cloning inputs have the blank's Gram matrix G <r|r> = G (see
`is_computation_variable` and `_cloning_verdicts`).  `tests/sweep_oracle.py`
keeps the exhaustive sweeps as the reference.  On a `QuantumModel` whose
variable lists only pure states they build no task either: possibility
there depends on Gram matrices alone, so the Gram matrix of the member
states is formed once (`_member_gram`) and each task's Gram matrices go
straight to the oracle's Gram-level core (`quantum._gram_feasible`), the
one `unitary_task_feasible` ends in (the Gram route).
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
    _member_sums,
    _member_weights,
    _product_attribute,
    _pure_rows,
    _row_basis,
    _row_weights,
    _single_state,
    _slack,
    _stacked_span_rows,
    _trusted_attribute,
    _trusted_variable,
    attribute_equal,
    attribute_span,
    attribute_subset,
    attributes_disjoint,
    compose_substrates,
    contains_state,
    extensional_attribute,
    is_task_possible,
    product_attribute,
    task,
    variable,
)
from .quantum import MeasurerSpec, QuantumModel, _gram_feasible, apply_measurer, intrinsic_part
from .states import PureState, _readonly, _trusted, basis_state, tensor
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
    product = _products_on(s2)
    outputs = [product(attr, attr) for attr in v.attributes]
    mixed = any(map(_holds_mixed, v.attributes))
    for receptive in receptives:
        pairs = tuple((product(attr, receptive), out)
                      for attr, out in zip(v.attributes, outputs))
        if mixed or _holds_mixed(receptive) or receptive.substrate.size() != v.substrate.size():
            yield task(s2, pairs, side_effects=side_effects)
        else:
            yield _trusted(Task, substrate=s2, pairs=pairs, side_effects=side_effects)


def _products_on(composite: SubstrateSpec):
    """`product_attribute`, on the given composite of two substrates for
    factors on exactly those two, and on a composite of their own for any
    other factors: the public route's products, with one composite."""
    sub_a, sub_b = composite.factors

    def product(a: Attribute, b: Attribute) -> Attribute:
        if a.substrate == sub_a and b.substrate == sub_b:
            return _product_attribute(a, b, composite)
        return product_attribute(a, b)
    return product


def _member_gram(v: Variable, model):
    """The Gram route's data for v: the Gram matrix G of all member states,
    from their raw vectors (`kernel._pure_rows`) so that off-unit states keep
    their norms, and the index of each state's member.  None for the task
    route: a model that is not a `QuantumModel`, a member that is a subspace,
    or a state that is not pure (a mixed state, a classical label)."""
    if isinstance(model, QuantumModel) and not any(a.is_subspace for a in v.attributes) and (
            u := _pure_rows([s for a in v.attributes for s in a.elements])) is not None:
        return u.conj() @ u.T, np.arange(len(v)).repeat([len(a.elements) for a in v.attributes])


def _gram_verdict(g, to, g_cand, owners, model, r=np.ones((1, 1))):
    """`quantum._gram_feasible`, side effects allowed, on the task whose
    inputs are the member states of `_member_gram`'s G = g, each times every
    state of a receptive whose states have the Gram matrix r (1: none), so
    the inputs have the Gram matrix G (x) r, and whose candidate outputs
    have the Gram matrix g_cand: an input of state i may take, in order,
    each candidate c with owners[c] == to[i].  owners is sorted."""
    lo, hi = (np.searchsorted(owners, to.repeat(len(r)), s).tolist() for s in ("left", "right"))
    g_in = (g[:, None, :, None] * r[:, None]).reshape(len(g) * len(r), -1)  # G (x) r
    return _gram_feasible(g_in, g_cand, [list(range(a, b)) for a, b in zip(lo, hi)], True, model)


def _cloning_verdicts(v: Variable, model, route=...):
    """(name, verdict) of cloning v onto the blank, then onto each member.

    On the Gram route (`_member_gram`, formed here unless handed in as
    route) no task is built.  Since
    <s (x) r|s' (x) r'> = <s|s'> <r|r'>, the inputs x (x) r have the Gram
    matrix G (x) R, where R is the Gram matrix of the receptive's states
    (<r|r> for a lone state r, 1 for the blank |0>), and the candidates
    x (x) x of every receptive have the entrywise product G o G over each
    member's pairs of states.  A member r that lists one unit pure state
    gives G <r|r> = G, so the core, which decides from those matrices alone,
    would repeat the blank's verdict: r takes that verdict.  Any other
    member, an off-unit one included, is decided on its own.  The task route
    builds the cloning task of the blank and of each member that does not
    share its verdict; a classical witness names the receptive's label.
    """
    route = _member_gram(v, model) if route is ... else route
    own = (k for k, r in enumerate(v.attributes) if not _unit_pure(r))  # in turn, as needed
    if route is None:
        tasks = _cloning_tasks(v, (blank_attribute(v.substrate), *(v.attributes[k] for k in own)))
        verdicts = (is_task_possible(t, model) for t in tasks)
    else:
        g, owner = route
        s, t = np.nonzero(owner[:, None] == owner)  # each member's state pairs, in order
        g_cand = g.take(s, 0).take(s, 1) * g.take(t, 0).take(t, 1)
        grams = itertools.chain([np.ones((1, 1))], (g[owner == k][:, owner == k] for k in own))
        verdicts = (_gram_verdict(g, owner, g_cand, owner[s], model, r) for r in grams)
    first = next(verdicts)
    yield "blank", first
    for label, r in v.members:
        yield label, first if _unit_pure(r) else next(verdicts)


def _unit_pure(attr: Attribute) -> bool:
    """Whether attr lists one pure state whose norm is 1 up to rounding."""
    if attr.is_subspace or len(attr.elements) != 1:
        return False
    (state,) = attr.elements
    return isinstance(state, PureState) and \
        abs(float(np.vdot(state.vector, state.vector).real) - 1.0) <= _slack(state.dim)


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
    return _product_variable(v1, v2, [(m1, m2) for m1 in v1.members for m2 in v2.members])


def _product_variable(v1: Variable, v2: Variable, pairs) -> Variable:
    """The variable of the products x1 x x2, labelled (l1, l2), of the pairs
    of members ((l1, x1), (l2, x2)) of v1 and v2 in pairs: all of them for
    `product_variable`, or decision support's diagonal (l, l); checked as
    `product_variable` is."""
    substrate = compose_substrates(v1.substrate, v2.substrate)
    product = _products_on(substrate)
    members = tuple(((l1, l2), product(a1, a2)) for (l1, a1), (l2, a2) in pairs)
    checked = any(map(_holds_mixed, v1.attributes + v2.attributes))
    return (variable if checked else _trusted_variable)(substrate, members)


# ---------------------------------------------------------------------------
# Computation / information variables


def is_computation_variable(v: Variable, model) -> PredicateReport:
    """Every relabeling of v must be a possible task (side effects allowed).

    The star transpositions (l0 lk), k = 1..n-1, of the first label l0
    generate the permutation group, since (a b) = (l0 a)(l0 b)(l0 a), and a
    serial composition of possible tasks is possible.  So their n-1
    verdicts, in label order, decide every relabeling and are recorded as
    evidence.  On the Gram route (`_member_gram`) each is decided from the
    member states' Gram matrix G alone: the inputs and the candidates both
    have Gram matrix G, and the inputs of l0 take the states of lk and
    those of lk the states of l0.
    """
    return _computation_report(v, model, _member_gram(v, model))


def _computation_report(v: Variable, model, route) -> PredicateReport:
    """`is_computation_variable` on v's `_member_gram` route (None: the task route)."""
    first, *rest = v.labels
    checks = {(first, b): _transposition_verdict(route, k, model) if route else is_task_possible(
        permutation_task(v, {first: b, b: first}), model) for k, b in enumerate(rest, 1)}
    ok = all(verdict.status == POSSIBLE for verdict in checks.values())
    return _report("is_computation_variable", v, ok, {"transpositions": checks})


def _transposition_verdict(route, k: int, model):
    """The core's verdict on the star transposition (l0 lk) of the members
    of route (`_member_gram`): member l0's states go to lk's and back, so
    the candidates are the member states themselves, and each input wants
    those of its member's image, its owner with 0 and k swapped."""
    g, owner = route
    return _gram_verdict(g, owner + k * (owner == 0) - k * (owner == k), g, owner, model)


def is_information_variable(v: Variable, model) -> PredicateReport:
    """Computation variable whose cloning task is possible for some blank.

    The cloning check runs first: a non-orthogonal pair fails it with a
    clean amplitude-ratio certificate, so the later permutation sweep never
    reaches the oracle's unknown branch.  The receptives are the blank, then
    each member in label order, until one clones; a quantum member that
    lists one unit pure state shares the blank's verdict (see
    `_cloning_verdicts`).  The computation check then asks about the n-1
    star transpositions only (see `is_computation_variable`).  On a
    `QuantumModel` with pure-state members both decide from the Gram matrix
    of the member states (`_member_gram`), formed once, and build no task.
    """
    clone_checks = {}
    clone_ok = None
    route = _member_gram(v, model)
    for name, verdict in _cloning_verdicts(v, model, route):
        clone_checks[name] = verdict
        if verdict.status == POSSIBLE:
            clone_ok = name
            break
    if clone_ok is None:
        return _report("is_information_variable", v, False,
                       {"cloning": clone_checks, "computation": None})
    comp = _computation_report(v, model, route)
    return _report("is_information_variable", v, comp.verdict,
                   {"cloning": clone_checks, "receptive": clone_ok, "computation": comp})


# ---------------------------------------------------------------------------
# Distinguishability and measurability


def _span_orthogonality(v: Variable) -> tuple[bool, dict | None]:
    """The verdict distinguishability and measurability share, with its
    quantum evidence: the member spans must be pairwise orthogonal (the
    task-oracle equivalent, by test), decided on the stacked span rows, with
    the witness overlap measured on the pair's `attribute_span` rows.
    Classical member disjointness already suffices: (True, None)."""
    if v.substrate.kind == CLASSICAL:
        return True, None
    hit = _first_span_overlap(*v._span_block(), tol())
    if hit is not None:
        a, b = (attribute_span(v.attributes[k]) for k in hit[:2])
        hit = (v.labels[hit[0]], v.labels[hit[1]], float(np.abs(a.conj() @ b.T).max()))
    return hit is None, {"orthogonal": hit is None, "witness": hit}


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
    return _trusted_attribute(x.substrate, _row_states(rest), is_subspace=True)


def _row_states(rows) -> tuple:
    """Orthonormal rows (of an SVD, or a member's one span row) as states, unchecked."""
    return tuple(_trusted(PureState, vector=_readonly(row), dims=(row.size,)) for row in rows)


def span_closure(v: Variable | Attribute) -> Attribute:
    """The full-subspace attribute spanned by the members' stacked span rows,
    which are its basis when orthonormal to rounding (no SVD), as for a
    variable's orthogonal members; otherwise their `_row_basis`."""
    rows, _ = v._span_block() if isinstance(v, Variable) else _stacked_span_rows((v,))
    return _trusted_attribute(v.substrate, _row_states(_closure_rows(rows)), is_subspace=True)


def _closure_rows(rows: np.ndarray) -> np.ndarray:
    """`span_closure`'s basis: rows when orthonormal to rounding, else their `_row_basis`."""
    orthonormal = np.abs(rows @ rows.conj().T - np.eye(len(rows))).max(initial=0) <= _slack(rows.shape[1])
    return rows if orthonormal else _row_basis(rows)


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
    union = _trusted_variable(x.substrate, members)
    union_info = is_information_variable(union, model)
    return not union_info.verdict, {"union_information": union_info}


# ---------------------------------------------------------------------------
# Restriction and generalised mixtures


def restricted_variable(x: Variable, y: Attribute) -> Variable:
    """X_y: the members of x with nonzero overlap with y's state."""
    if x.substrate.kind != QUANTUM:
        raise RepresentationError("restriction is defined on the quantum backend")
    rows, counts = x._span_block()
    keep = _member_weights(_single_state(y), rows, counts) > tol()
    if not keep.any():
        raise DomainError("restriction is empty: y has no overlap with any member")
    members = tuple(member for member, kept in zip(x.members, keep) if kept)
    return _trusted_variable(x.substrate, members, x._span and (
        _readonly(rows[np.repeat(keep, counts)]), _readonly(counts[keep])))


def is_generalised_mixture(z: Attribute, h: Variable, model) -> PredicateReport:
    """Is z a (possibly trivial) generalised mixture of the variable h?

    Non-trivially: z disjoint from and not inside any member, with the span
    projector of h sharp in z, read off the span rows of h: each state's row
    weights sum to 1, and a subspace's overlaps O with the rows have O O^dag = I.
    Classically the span adds nothing beyond the union, so only membership survives.

    When neither z nor a member of h lists a mixed state, one product of
    z's vectors (its states, or its basis) with h's span block gives the
    overlaps O.  The member tests run only on the members whose squared
    overlaps, summed over z's vectors and the member's rows
    (`_member_sums`), reach the floor: a member state r equal to a state s
    of z puts |<s|r>|/|r| >= (1 - atol)/|r| of s in the member's span, and
    a state checked when it was built, or a product of two, has
    |r| <= (1 + atol)^2; a subspace z, whose rank and containment tests
    meet a member only where they overlap by nearly 1, takes the floor 1/2.
    The members not nominated pass every test, so the first hit, its
    evidence and its witness are the loop's.  When the block is its own
    closure, O gives the sharpness gap too.  With a mixed state every
    member is tested and the gap is read state by state.
    """
    report = partial(PredicateReport, "is_generalised_mixture",
                     _subject(z.substrate.id, "z vs", h.labels))
    atol = tol()
    members, overlaps = h.members, None
    if z.substrate.kind == QUANTUM and z.elements and h._span is not None \
            and not _holds_mixed(z) and z.substrate.dim == h.substrate.dim:
        rows, counts = h._span
        overlaps = np.array([v.vector for v in z.elements]).conj() @ rows.T  # pure states or a basis
        edge = 0.5 if z.is_subspace else (1.0 - atol) / (1.0 + atol) ** 2 - _slack(rows.shape[1])
        near = _member_sums((weights := np.abs(overlaps) ** 2).sum(0), counts) >= edge ** 2
        members = [member for member, kept in zip(members, near) if kept]
    for label, attr in members:
        if attribute_equal(z, attr):
            return report(True, {"trivial": label})
    if z.substrate.kind == CLASSICAL:
        return report(False, {"reason": "no classical attribute lies in the span "
                                        "of members it is disjoint from"})
    for label, attr in members:
        disjoint, witness = attributes_disjoint(z, attr)
        if not disjoint:
            return report(False, {"failed": "not disjoint", "member": label, "witness": witness})
        if attribute_subset(z, attr):
            return report(False, {"failed": "contained in a member", "member": label})
    rows = _closure_rows(h._span_block()[0])
    if overlaps is None or rows is not h._span[0]:  # else the block is the closure's basis
        overlaps = attribute_span(z).conj() @ rows.T if z.is_subspace else None
    if z.is_subspace:
        worst = 1.0 if not overlaps.size else \
            float(np.abs(overlaps @ overlaps.conj().T - np.eye(len(overlaps))).max())
    elif overlaps is not None:
        worst = float(np.abs(1.0 - weights.sum(1)).max())
    else:
        worst = max(abs(1.0 - float(np.sum(_row_weights(s, rows)))) for s in z.states)
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

    span_rows = attribute_span(span_closure(z))
    outcomes_log = []
    for probe in probes:
        for s in probe.elements:
            if abs(1.0 - float(np.sum(_row_weights(s, span_rows)))) > atol:
                raise DomainError("probe leaves the span closure of the variable")
            readings = []
            for spec, cover in normalized:
                joint = tensor(s, spec.receptive_state())
                out = apply_measurer(spec, joint)
                weights = _row_weights(intrinsic_part(out, 1), np.array(spec.flags))
                sharp_at = None
                for zl in z.labels:
                    w = sum(weights[spec.labels.index(il)] for il in cover.get(zl, ()))
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
