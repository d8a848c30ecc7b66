"""The classical possibility oracle: choice functions over finite universes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctkit import (
    IMPOSSIBLE,
    POSSIBLE,
    ClassicalModel,
    SizeLimitError,
    classical_substrate,
    extensional_attribute,
    is_task_possible,
    replay_witness,
    task,
)

from possibility_oracle import hall_violator


def attr(sub, *labels):
    return extensional_attribute(sub, labels)


@pytest.fixture
def light():
    return classical_substrate("traffic-light", ["red", "amber", "green", "off"])


def test_reset_to_off_possible_with_side_effects(light):
    # many-to-one, so garbage must go somewhere
    on = attr(light, "red", "amber", "green")
    off = attr(light, "off")
    t = task(light, [(on, off)], side_effects=True)
    verdict = is_task_possible(t, ClassicalModel(light))
    assert verdict.status == POSSIBLE
    assert verdict.witness["ancilla_states"] == 3
    assert replay_witness(t, ClassicalModel(light), verdict)


def test_reset_to_off_impossible_without_side_effects(light):
    on = attr(light, "red", "amber", "green")
    off = attr(light, "off")
    t = task(light, [(on, off)], side_effects=False)
    verdict = is_task_possible(t, ClassicalModel(light))
    assert verdict.status == IMPOSSIBLE
    assert "injective" in verdict.certificate


def test_injective_flip_needs_no_side_effects(bit, bit_model):
    flip = task(bit, [(attr(bit, 0), attr(bit, 1)), (attr(bit, 1), attr(bit, 0))])
    verdict = is_task_possible(flip, bit_model)
    assert verdict.status == POSSIBLE
    assert verdict.witness["assignment"] == {0: 1, 1: 0}


def test_merge_impossible_without_side_effects(bit, bit_model):
    merge = task(bit, [(attr(bit, 0, 1), attr(bit, 0))])
    assert is_task_possible(merge, bit_model).status == IMPOSSIBLE


def test_merge_possible_with_side_effects(bit, bit_model):
    merge = task(bit, [(attr(bit, 0, 1), attr(bit, 0))], side_effects=True)
    verdict = is_task_possible(merge, bit_model)
    assert verdict.status == POSSIBLE
    assert replay_witness(merge, bit_model, verdict)


def test_wide_output_gives_a_choice(light):
    # one input, several allowed outputs: any pick works
    t = task(light, [(attr(light, "red"), attr(light, "amber", "green"))])
    verdict = is_task_possible(t, ClassicalModel(light))
    assert verdict.status == POSSIBLE
    assert verdict.witness["assignment"]["red"] in ("amber", "green")


def _pigeonhole_task(n):
    """n inputs, each onto the same n - 1 outputs, without side effects."""
    sub = classical_substrate("pigeons", [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n - 1)])
    holes = attr(sub, *(f"b{i}" for i in range(n - 1)))
    return task(sub, [(attr(sub, f"a{i}"), holes) for i in range(n)])


def test_assignment_guard_trips():
    # with side effects each input takes its first option: no search, no budget
    sub = classical_substrate("wide", list(range(10)))
    everything = attr(sub, *range(10))
    t = task(sub, [(everything, everything)], side_effects=True)
    model = ClassicalModel(sub, assignment_guard=1)
    verdict = is_task_possible(t, model)
    assert verdict.status == POSSIBLE and verdict.nodes == 10
    assert replay_witness(t, model, verdict)
    # the matching counts its edge looks: 255 for ten pigeons in nine holes
    pigeons = _pigeonhole_task(10)
    with pytest.raises(SizeLimitError, match="node budget of 254"):
        is_task_possible(pigeons, ClassicalModel(pigeons.substrate, assignment_guard=254))
    verdict = is_task_possible(pigeons, ClassicalModel(pigeons.substrate, assignment_guard=255))
    assert verdict.status == IMPOSSIBLE and verdict.nodes == 255


def test_seven_inputs_onto_ten_outputs_at_the_default_budget():
    # a choice space of 10**7, decided by the matching in 84 edge looks
    sub = classical_substrate("s", [f"a{i}" for i in range(7)] + [f"b{i}" for i in range(10)])
    t = task(sub, [(attr(sub, *(f"a{i}" for i in range(7))),
                    attr(sub, *(f"b{i}" for i in range(10))))])
    model = ClassicalModel(sub)
    verdict = is_task_possible(t, model)
    assert verdict.status == POSSIBLE and verdict.nodes == 84
    assert replay_witness(t, model, verdict)


def test_pigeonhole_matching_visits_at_most_inputs_times_edges():
    t = _pigeonhole_task(10)
    verdict = is_task_possible(t, ClassicalModel(t.substrate, assignment_guard=10**12))
    assert verdict.status == IMPOSSIBLE
    assert "10 input states compete for 9" in verdict.certificate
    assert 0 < verdict.nodes <= 10 * (10 * 9)


def test_failed_matching_names_a_hall_violator(light):
    # three inputs, three outputs in all, but red and amber share one
    t = task(light, [(attr(light, "red", "amber"), attr(light, "off")),
                     (attr(light, "green"), attr(light, "red", "amber"))])
    verdict = is_task_possible(t, ClassicalModel(light))
    assert verdict.status == IMPOSSIBLE
    inputs, reach = hall_violator(t, verdict.certificate)
    assert sorted(inputs) == ["amber", "red"] and reach == {"off"}
    assert len(reach) < len(inputs)


def test_two_thousand_single_option_inputs():
    n = 2000
    sub = classical_substrate("wide", [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)])
    t = task(sub, [(attr(sub, f"a{i}"), attr(sub, f"b{(7 * i) % n}")) for i in range(n)])
    model = ClassicalModel(sub)
    verdict = is_task_possible(t, model)
    assert verdict.status == POSSIBLE
    assert replay_witness(t, model, verdict)


def test_augmenting_path_through_every_input():
    # inputs 0..n-1 take b_i first; input n only fits b_0, and every other
    # input moves one place along: one augmenting path of length n
    n = 1500
    sub = classical_substrate("chain", [f"a{i}" for i in range(n + 1)] + [f"b{i}" for i in range(n + 1)])
    pairs = [(attr(sub, f"a{i}"), attr(sub, f"b{i}", f"b{i + 1}")) for i in range(n)]
    pairs.append((attr(sub, f"a{n}"), attr(sub, "b0")))
    t = task(sub, pairs)
    model = ClassicalModel(sub, assignment_guard=10**1000)
    verdict = is_task_possible(t, model)
    assert verdict.status == POSSIBLE
    assert verdict.witness["assignment"][f"a{n}"] == "b0"
    assert replay_witness(t, model, verdict)


def test_tampered_witness_rejected(bit, bit_model):
    flip = task(bit, [(attr(bit, 0), attr(bit, 1)), (attr(bit, 1), attr(bit, 0))])
    verdict = is_task_possible(flip, bit_model)
    bad = {"assignment": {0: 0, 1: 0}}
    assert not bit_model.check_witness(flip, bad)


# ---------------------------------------------------------------------------
# Properties

universe_st = st.integers(min_value=2, max_value=5)


@given(universe_st, st.data())
def test_permutation_tasks_always_possible(n, data):
    image = data.draw(st.permutations(list(range(n))))
    sub = classical_substrate("u", list(range(n)))
    t = task(sub, [(attr(sub, k), attr(sub, image[k])) for k in range(n)])
    assert is_task_possible(t, ClassicalModel(sub)).status == POSSIBLE


@given(universe_st, st.data())
def test_dropping_pairs_preserves_possibility(n, data):
    """A subtask of a possible task is possible (monotonicity)."""
    image = data.draw(st.permutations(list(range(n))))
    keep = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1))
    sub = classical_substrate("u", list(range(n)))
    model = ClassicalModel(sub)
    whole = task(sub, [(attr(sub, k), attr(sub, image[k])) for k in range(n)])
    part = task(sub, [p for k, p in enumerate(whole.pairs) if k in keep])
    assert is_task_possible(whole, model).status == POSSIBLE
    assert is_task_possible(part, model).status == POSSIBLE


@given(universe_st, st.data())
def test_side_effects_never_hurt(n, data):
    """Possible without side effects implies possible with them."""
    size = data.draw(st.integers(min_value=1, max_value=n))
    src = data.draw(st.permutations(list(range(n))))
    dst = data.draw(st.permutations(list(range(n))))
    sub = classical_substrate("u", list(range(n)))
    model = ClassicalModel(sub)
    pairs = [(attr(sub, src[k]), attr(sub, dst[k])) for k in range(size)]
    plain = is_task_possible(task(sub, pairs), model)
    relaxed = is_task_possible(task(sub, pairs, side_effects=True), model)
    if plain.status == POSSIBLE:
        assert relaxed.status == POSSIBLE


@given(universe_st, st.data())
def test_every_witness_replays(n, data):
    image = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))
    sub = classical_substrate("u", list(range(n)))
    model = ClassicalModel(sub)
    t = task(sub, [(attr(sub, k), attr(sub, image[k])) for k in range(n)], side_effects=True)
    verdict = is_task_possible(t, model)
    assert verdict.status == POSSIBLE
    assert replay_witness(t, model, verdict)
