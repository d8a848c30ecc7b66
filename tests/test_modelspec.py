"""JSON model documents: resolution, scalar grammar, error paths."""

import copy
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from ctkit import (
    CtError,
    DisjointnessError,
    ModelSpecError,
    StateError,
    parse_model_spec,
    states_equal,
)
from ctkit.cli import main
from ctkit.modelspec import real_token, sqrt_radicand

from conftest import FIXTURE_DIR, plus


def write_doc(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


QUBIT_DOC = {
    "kind": "quantum",
    "id": "qubit",
    "dimension": 2,
    "states": {
        "zero": [1, 0],
        "plus": ["sqrt(1/2)", "sqrt(1/2)"],
    },
    "attributes": {
        "z": {"kind": "set", "states": ["zero"]},
        "p": {"kind": "set", "states": ["plus"]},
    },
    "variables": {"V": [[0, "z"], [1, "p"]]},
    "tasks": {},
}


# ---------------------------------------------------------------------------
# Scalar grammar


def test_sqrt_radicand_parses():
    assert sqrt_radicand("sqrt(1/2)") == (1, Fraction(1, 2))
    assert sqrt_radicand("-sqrt( 3 / 4 )") == (-1, Fraction(3, 4))
    assert sqrt_radicand("sqrt(2)") == (1, Fraction(2))
    assert sqrt_radicand("2/3") is None
    with pytest.raises(ModelSpecError):
        sqrt_radicand("sqrt(1/0)")


def test_real_token_forms():
    assert real_token(7, "x") == 7.0
    assert real_token("3/4", "x") == 0.75
    assert real_token("sqrt(1/2)", "x") == pytest.approx(np.sqrt(0.5))
    with pytest.raises(ModelSpecError):
        real_token(True, "x")
    with pytest.raises(ModelSpecError):
        real_token("three", "x")


# ---------------------------------------------------------------------------
# Loading the shipped fixtures


def test_qubit_fixture_loads():
    doc = parse_model_spec(FIXTURE_DIR / "qubit.json")
    assert doc.kind == "quantum"
    assert doc.substrate.id == "qubit"
    assert set(doc.variables) == {"X", "Y"}
    assert doc.variables["X"].labels == (0, 1)
    assert states_equal(doc.states["plus"], plus())
    assert doc.states["q"].dims == (2, 2)  # the entangled pair state
    assert doc.model.kind == "quantum"


def test_classical_fixture_loads():
    doc = parse_model_spec(FIXTURE_DIR / "classical_bit.json")
    assert doc.kind == "classical"
    assert doc.substrate.labels == (0, 1)
    assert doc.states == {}
    assert not doc.tasks["flip"].side_effects


def test_traffic_light_fixture_tasks():
    doc = parse_model_spec(FIXTURE_DIR / "traffic_light.json")
    assert doc.tasks["reset"].side_effects
    assert not doc.tasks["collapse"].side_effects


# ---------------------------------------------------------------------------
# Documents built on the fly


def test_minimal_quantum_document(tmp_path):
    doc = parse_model_spec(write_doc(tmp_path, QUBIT_DOC))
    assert states_equal(doc.states["plus"], plus())
    assert doc.variables["V"].labels == (0, 1)


def test_complex_pair_amplitudes(tmp_path):
    raw = dict(QUBIT_DOC, states={"i": [["0", "sqrt(1/2)"], [0, "sqrt(1/2)"]]},
               attributes={}, variables={})
    doc = parse_model_spec(write_doc(tmp_path, raw))
    assert np.allclose(doc.states["i"].vector, [1j / np.sqrt(2), 1j / np.sqrt(2)])


def test_multi_copy_state_uses_dims(tmp_path):
    raw = dict(QUBIT_DOC, attributes={}, variables={})
    raw["states"] = {"pair": {"vector": [1, 0, 0, 0], "dims": [2, 2]}}
    doc = parse_model_spec(write_doc(tmp_path, raw))
    assert doc.states["pair"].dims == (2, 2)


def test_substrate_id_defaults_to_the_file_stem(tmp_path):
    raw = {k: v for k, v in QUBIT_DOC.items() if k != "id"}
    doc = parse_model_spec(write_doc(tmp_path, raw, name="bench.json"))
    assert doc.substrate.id == "bench"


# ---------------------------------------------------------------------------
# Error paths


def test_missing_file_names_the_path(tmp_path):
    with pytest.raises(ModelSpecError, match="nowhere.json"):
        parse_model_spec(tmp_path / "nowhere.json")


def test_invalid_json_reports_the_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "quantum",\n  "dimension": }')
    with pytest.raises(ModelSpecError, match="line 2"):
        parse_model_spec(path)


def test_unknown_section_rejected(tmp_path):
    raw = dict(QUBIT_DOC, extras={})
    with pytest.raises(ModelSpecError, match="extras"):
        parse_model_spec(write_doc(tmp_path, raw))


def test_kind_is_required(tmp_path):
    raw = {k: v for k, v in QUBIT_DOC.items() if k != "kind"}
    with pytest.raises(ModelSpecError, match="kind"):
        parse_model_spec(write_doc(tmp_path, raw))


def test_classical_documents_have_no_states(tmp_path):
    raw = {"kind": "classical", "labels": [0, 1], "states": {"s": [1, 0]}}
    with pytest.raises(ModelSpecError, match="states"):
        parse_model_spec(write_doc(tmp_path, raw))


def test_quantum_documents_have_no_labels(tmp_path):
    raw = dict(QUBIT_DOC, labels=[0, 1])
    with pytest.raises(ModelSpecError, match="labels"):
        parse_model_spec(write_doc(tmp_path, raw))


def test_vector_length_must_match_dimension(tmp_path):
    raw = dict(QUBIT_DOC, states={"bad": [1, 0, 0]}, attributes={}, variables={})
    with pytest.raises(ModelSpecError, match="states.bad"):
        parse_model_spec(write_doc(tmp_path, raw))


def test_dims_must_be_substrate_copies(tmp_path):
    raw = dict(QUBIT_DOC, attributes={}, variables={})
    raw["states"] = {"odd": {"vector": [1, 0, 0, 0, 0, 0], "dims": [2, 3]}}
    with pytest.raises(ModelSpecError, match="dims"):
        parse_model_spec(write_doc(tmp_path, raw))


def test_dims_must_be_integers(tmp_path):
    # 2.0 equals 2, but float dims would break every reshape of the state
    raw = dict(QUBIT_DOC, attributes={}, variables={})
    raw["states"] = {"pair": {"vector": [1, 0, 0, 0], "dims": [2, 2.0]}}
    with pytest.raises(ModelSpecError, match=r"states\.pair\.dims\[1\]: .* got 2\.0"):
        parse_model_spec(write_doc(tmp_path, raw))


def test_non_unit_state_keeps_the_state_error(tmp_path):
    raw = dict(QUBIT_DOC, states={"long": [1, 1]}, attributes={}, variables={})
    with pytest.raises(StateError, match="'long'"):
        parse_model_spec(write_doc(tmp_path, raw))


def test_unknown_state_reference(tmp_path):
    raw = dict(QUBIT_DOC)
    raw["attributes"] = {"z": {"kind": "set", "states": ["ghost"]}}
    raw["variables"] = {}
    with pytest.raises(ModelSpecError, match="ghost"):
        parse_model_spec(write_doc(tmp_path, raw))


def test_unknown_attribute_reference(tmp_path):
    raw = dict(QUBIT_DOC, variables={"V": [[0, "ghost"]]})
    with pytest.raises(ModelSpecError, match="ghost"):
        parse_model_spec(write_doc(tmp_path, raw))


def test_overlapping_variable_keeps_the_disjointness_error(tmp_path):
    raw = dict(QUBIT_DOC, variables={"V": [[0, "z"], [1, "z"]]})
    with pytest.raises(DisjointnessError, match="'V'"):
        parse_model_spec(write_doc(tmp_path, raw))


def test_task_side_effects_must_be_boolean(tmp_path):
    raw = dict(QUBIT_DOC, tasks={"t": {"side_effects": 1, "pairs": []}})
    with pytest.raises(ModelSpecError, match="side_effects"):
        parse_model_spec(write_doc(tmp_path, raw))


def test_variable_labels_may_be_numbers_or_strings(tmp_path):
    raw = dict(QUBIT_DOC, variables={"V": [[0.5, "z"], ["high", "p"]]})
    doc = parse_model_spec(write_doc(tmp_path, raw))
    assert doc.variables["V"].labels == (0.5, "high")
    bad = dict(QUBIT_DOC, variables={"V": [[True, "z"]]})
    with pytest.raises(ModelSpecError, match="label"):
        parse_model_spec(write_doc(tmp_path, bad))


def test_references_must_be_names(tmp_path):
    for bad in ({}, [], ["z"], 0, None):
        raw = dict(QUBIT_DOC, variables={"V": [[0, bad]]})
        with pytest.raises(ModelSpecError, match=r"variables\.V\[0\]: unknown attribute"):
            parse_model_spec(write_doc(tmp_path, raw))
        raw = dict(QUBIT_DOC, tasks={"t": {"pairs": [["z", bad]]}})
        with pytest.raises(ModelSpecError, match=r"tasks\.t\.pairs\[0\]: unknown attribute"):
            parse_model_spec(write_doc(tmp_path, raw))
        raw = dict(QUBIT_DOC, attributes={"z": {"kind": "subspace", "basis": [bad]}},
                   variables={})
        with pytest.raises(ModelSpecError, match=r"attributes\.z\.basis\[0\]: unknown state"):
            parse_model_spec(write_doc(tmp_path, raw))


@pytest.mark.parametrize("edit, message", [
    # the command-line repro: an object where an attribute name belongs
    (lambda raw: raw["variables"]["Y"][1].__setitem__(1, {}),
     "error: variables.Y[1]: unknown attribute {}"),
    (lambda raw: raw["attributes"]["r"].__setitem__("labels", [["red"]]),
     "error: attribute 'r': state ['red'] is not in the universe of 'traffic-light'"),
])
def test_bad_references_and_labels_exit_2(tmp_path, capsys, edit, message):
    raw = json.loads((FIXTURE_DIR / "traffic_light.json").read_text())
    edit(raw)
    assert main(["check-model", str(write_doc(tmp_path, raw))]) == 2
    assert capsys.readouterr().err.strip() == message


def test_non_finite_amplitudes_are_refused(tmp_path, capsys):
    for bad in (float("nan"), float("inf")):
        raw = dict(QUBIT_DOC, states={"zero": [1, 0], "b": [bad, 1]}, variables={})
        path = write_doc(tmp_path, raw)
        with pytest.raises(StateError, match="state 'b': "):
            parse_model_spec(path)
        assert main(["check-model", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: state 'b': ")


# ---------------------------------------------------------------------------
# Seeded fuzz: mutated fixtures parse or raise CtError, never anything else

_FUZZ_VALUES = ({}, [], None, True, 0, 1, -1, 2.5, "", "x", "1/0", "sqrt(1/2)",
                [0, 1], ["x"], [{}], {"kind": "set"}, float("nan"), float("inf"))


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def mutate(doc, rng):
    """One random edit of a JSON document: replace a value (by a stock value,
    a declared name or another node), drop it, or repeat a list entry."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))[1:]
    path = paths[rng.randrange(len(paths))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    names = [n for sec in ("states", "attributes") for n in doc.get(sec, {})]
    op = rng.randrange(4)
    if op == 0:
        parent[key] = rng.choice(_FUZZ_VALUES + tuple(names))
    elif op == 1:
        del parent[key]
    elif op == 2:
        other = doc
        for k in paths[rng.randrange(len(paths))]:
            other = other[k]
        parent[key] = copy.deepcopy(other)
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key + "_copy"] = copy.deepcopy(parent[key])
    return doc


def test_mutated_fixtures_parse_or_raise_ct_errors(tmp_path, capsys):
    rng = random.Random(10)
    fixtures = sorted(FIXTURE_DIR.glob("*.json"))
    for i in range(240):
        raw = json.loads(fixtures[i % len(fixtures)].read_text())
        path = write_doc(tmp_path, mutate(raw, rng))
        try:
            parse_model_spec(path)
            parsed = True
        except CtError:
            parsed = False
        code = main(["check-model", str(path)])
        err = capsys.readouterr().err
        if parsed:
            assert code in (0, 1), (i, err)
        else:
            assert code == 2 and err.startswith("error: "), (i, err)
        assert "Traceback" not in err
