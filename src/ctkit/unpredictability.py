"""The predictor construction and the unpredictability certificate.

An X-predictor for a variable Z of input attributes writes, next to the
X-measurer's record, a prediction that the comparer then certifies: for every
z in Z the comparison of measurement record against prediction must come out
sharply yes.  For Z containing a non-trivial mixture of X no such device
exists, and the analysis below says exactly which constraint kills it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DegenerateInputError,
    DispatchError,
    PreconditionError,
    UnsupportedInputError,
)
from .kernel import (
    POSSIBLE,
    QUANTUM,
    Attribute,
    Variable,
    _member_weights,
    _single_state,
)
from .predicates import (
    _cloning_verdicts,
    is_generalised_mixture,
    is_observable,
    restricted_variable,
)
from .quantum import (
    MeasurerSpec,
    apply_measurer,
    build_measurer,
    comparer_for_measurers,
    sharp_value,
)
from .states import PureState, partial_trace, tensor
from .tolerance import tol

PREDICTOR_EXISTS = "exists"
PREDICTOR_IMPOSSIBLE = "impossible"


@dataclass(frozen=True)
class PredictorProblem:
    """An observable, the inputs to predict for, and the measurer in play."""

    x: Variable
    z: Variable
    measurer: MeasurerSpec


@dataclass(frozen=True)
class PredictorVerdict:
    status: str
    predictions: dict | None
    certificate: dict = field(default_factory=dict)

    @property
    def exists(self) -> bool:
        return self.status == PREDICTOR_EXISTS


def _single_pure_state(attr: Attribute) -> PureState:
    return _single_state(attr, UnsupportedInputError, "input attribute must denote a single state",
                         "input attribute must denote a single pure state")


def predictor_feasible(problem: PredictorProblem, model) -> PredictorVerdict:
    """Decide whether an X-predictor exists for every input in Z.

    Sharp inputs force their prediction outright.  A non-trivial mixture
    input z makes the post-measurement record entangled with the source, and
    the comparer can only stay sharp if every cross term c_x p_x' (x != x')
    vanishes; with two or more branches that drives the prediction vector to
    zero.  On top of that, predictions for distinct inputs must be pairwise
    orthogonal (the prediction variable is itself an information variable),
    which can already be unsatisfiable when the forced flags fill the whole
    prediction register.
    """
    if getattr(model, "kind", None) != QUANTUM:
        raise DispatchError("predictor analysis runs on the quantum backend")
    if not is_observable(problem.x, model).verdict:
        raise PreconditionError("the predicted variable must be an observable")
    atol = tol()
    x = problem.x
    forced: dict = {}
    mixtures: list = []
    for zl, attr in problem.z.members:
        state = _single_pure_state(attr)
        label = sharp_value(state, x)
        if label is not None:
            forced[zl] = label
            continue
        if not is_generalised_mixture(attr, x, model).verdict:
            raise UnsupportedInputError(
                f"input {zl!r} is neither sharp in the observable nor a "
                f"generalised mixture of it"
            )
        weights = _member_weights(state, *x._span_block())
        support = {xl: float(w) for xl, w in zip(x.labels, weights) if w > atol}
        mixtures.append((zl, support))

    if not mixtures:
        predictions = dict(forced)
        replay = replay_predictor(problem, predictions)
        return PredictorVerdict(
            status=PREDICTOR_EXISTS,
            predictions=predictions,
            certificate={"replay": replay},
        )

    zl, support = mixtures[0]
    distinct_forced = sorted(set(forced.values()), key=repr)
    if len(distinct_forced) >= problem.measurer.target_dim:
        certificate = {
            "branch": "orthogonality",
            "member": zl,
            "forced_flags": distinct_forced,
            "detail": "the prediction for this input must be orthogonal to "
                      "every forced prediction flag, and those flags already "
                      "fill the prediction register",
        }
    else:
        certificate = {
            "branch": "cross-terms",
            "member": zl,
            "support": support,
            "detail": "sharp comparison requires c_x p_x' = 0 for x != x'; "
                      "with two or more nonzero branches the prediction "
                      "vector must vanish",
        }
    return PredictorVerdict(
        status=PREDICTOR_IMPOSSIBLE,
        predictions=None,
        certificate=certificate,
    )


def replay_predictor(problem: PredictorProblem, predictions: dict) -> dict:
    """Run the prediction network for each input and compare record vs guess.

    Network: prepare z next to a receptive target, run the measurer, adjoin
    the predicted flag on a third register, then compare registers two and
    three.  Returns the comparison outcome per input label.
    """
    m = problem.measurer
    comparer = comparer_for_measurers(m, m)
    outcomes = {}
    for zl, attr in problem.z.members:
        state = _single_pure_state(attr)
        joint = tensor(state, m.receptive_state())
        measured = apply_measurer(m, joint)
        with_guess = tensor(measured, m.flag_state(predictions[zl]))
        record_and_guess = partial_trace(with_guess, (1, 2))
        outcomes[zl] = comparer.compare(record_and_guess)
    return outcomes


@dataclass(frozen=True)
class UnpredictabilityCertificate:
    """Joint record of the cloning and predictor impossibility for Z = X_y + y."""

    z: Variable
    cloning: dict
    predictor: PredictorVerdict
    problem: PredictorProblem

    @property
    def cloning_possible(self) -> bool:
        return any(v.status == POSSIBLE for v in self.cloning.values())

    @property
    def agree(self) -> bool:
        return self.cloning_possible == self.predictor.exists

    @property
    def unpredictable(self) -> bool:
        return (not self.cloning_possible) and (not self.predictor.exists)


def unpredictability_certificate(x: Variable, y: Attribute, model) -> UnpredictabilityCertificate:
    """Certify that Z = X_y u {y} can be neither cloned nor predicted.

    y must not be sharp in x: a sharp y collapses Z into a subset of x,
    which is perfectly predictable.
    """
    state = _single_pure_state(y)
    if sharp_value(state, x) is not None:
        raise DegenerateInputError(
            "y is sharp in the observable; its restriction is predictable"
        )
    x_y = restricted_variable(x, y)
    z = Variable(
        x.substrate,
        list(x_y.members) + [(("mixture", "y"), y)],
    )
    cloning = dict(_cloning_verdicts(z, model))
    measurer = build_measurer(x)
    problem = PredictorProblem(x=x, z=z, measurer=measurer)
    predictor = predictor_feasible(problem, model)
    return UnpredictabilityCertificate(
        z=z,
        cloning=cloning,
        predictor=predictor,
        problem=problem,
    )
