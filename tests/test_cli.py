"""Command line contract: printed bytes, exit codes, CSV determinism."""

import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ctkit.cli
import ctkit.predicates
from ctkit.cli import CSV_HEADER, RunReport, _parser, main, run_command
from ctkit.modelspec import parse_model_spec
from ctkit.predicates import detect_superinformation

from conftest import FIXTURE_DIR

QUBIT = str(FIXTURE_DIR / "qubit.json")
BIT = str(FIXTURE_DIR / "classical_bit.json")
DEGENERATE = str(FIXTURE_DIR / "qubit_degenerate.json")

CONVERGE_10 = [
    "converge",
    "--amplitudes", "0.70710678,0.70710678",
    "--N-sweep", "10",
    "--epsilon", "0.02",
]


# ---------------------------------------------------------------------------
# The three documented invocations, byte for byte


def test_converge_pinned_row(capsys):
    report = run_command(CONVERGE_10)
    out = capsys.readouterr().out
    assert out == f"{CSV_HEADER}\n10,0.02,352/1024,0.34375\n"
    assert report.exit_code == 0


def test_value_pinned_output(capsys):
    report = run_command(["value", "--weights", "1/3,2/3", "--payoffs", "10,-2"])
    assert capsys.readouterr().out == "2\n"
    assert report.exit_code == 0


def test_check_model_reports_superinformation(capsys):
    report = run_command(["check-model", QUBIT])
    out = capsys.readouterr().out
    assert "superinformation: true" in out.splitlines()
    assert report.exit_code == 0


# ---------------------------------------------------------------------------
# Exit codes


def test_classical_model_exits_one(capsys):
    report = run_command(["check-model", BIT])
    out = capsys.readouterr().out
    assert "superinformation: false" in out
    assert report.exit_code == 1


def test_main_wraps_library_errors(capsys):
    code = main(["check-model", str(FIXTURE_DIR / "absent.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "absent.json" in err


def test_unknown_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["value", "--weights", "1", "--payoffs", "1", "--wat"])
    assert info.value.code == 2


def test_parser_is_built_on_first_use_and_kept(capsys):
    done = subprocess.run(
        [sys.executable, "-c", "import ctkit.cli; print(ctkit.cli._parser.cache_info().currsize)"],
        capture_output=True, text=True,
    )
    assert done.stdout == "0\n"  # importing the module builds nothing
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["value", "--weights", "1", "--payoffs", "1", "--wat"])
        assert info.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "unrecognized arguments: --wat" in errors[0]
    assert _parser() is _parser()


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_bad_amplitude_normalization_exits_two(capsys):
    code = main(["converge", "--amplitudes", "0.9,0.9",
                 "--N-sweep", "10", "--epsilon", "0.02"])
    assert code == 2
    assert "sum" in capsys.readouterr().err


def test_predict_on_sharp_state_exits_two(capsys):
    code = main(["predict", QUBIT, "--observable", "X", "--state", "zero"])
    assert code == 2
    assert "sharp" in capsys.readouterr().err


def test_predict_unknown_state_exits_two(capsys):
    code = main(["predict", QUBIT, "--observable", "X", "--state", "ghost"])
    assert code == 2
    assert "ghost" in capsys.readouterr().err


def test_predict_counts_z_in_a_complex_basis(tmp_path, capsys):
    # b0, b1, b2 is orthonormal but not closed under complex conjugation, so
    # reading weights off the conjugate span would count the wrong members
    b0 = np.array([1, 1j, 0]) / math.sqrt(2)
    b1 = np.array([1, -1j, 1]) / math.sqrt(3)
    b2 = np.array([1, -1j, -2]) / math.sqrt(6)
    s = (b0 + b1) / math.sqrt(2)

    def pairs(v):
        return [[float(a.real), float(a.imag)] for a in v]

    doc = {
        "kind": "quantum", "id": "qutrit", "dimension": 3,
        "states": {"b0": pairs(b0), "b1": pairs(b1), "b2": pairs(b2), "s": pairs(s)},
        "attributes": {f"a{k}": {"kind": "set", "states": [f"b{k}"]} for k in range(3)},
        "variables": {"X": [[k, f"a{k}"] for k in range(3)]},
    }
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(doc))
    report = run_command(["predict", str(path), "--observable", "X", "--state", "s"])
    assert capsys.readouterr().out == (
        "observable: X\nstate: s\nmembers of Z: 3\ncloning: impossible\n"
        "predictor: impossible\nunpredictable: true\n")
    assert report.exit_code == 0


@pytest.mark.parametrize("value", ["abc", "-1", "0.5", "nan", "inf", "0"])
def test_bad_ct_tol_exits_two_without_a_traceback(value):
    env = dict(os.environ, CT_TOL=value)
    done = subprocess.run([sys.executable, "-m", "ctkit", "check-model", QUBIT],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: CT_TOL=")
    assert "Traceback" not in done.stderr


def test_ct_tol_at_the_ceiling_is_accepted(monkeypatch, capsys):
    monkeypatch.setenv("CT_TOL", "1e-3")
    assert main(["check-model", QUBIT]) == 0
    assert "superinformation: true" in capsys.readouterr().out


def test_run_report_exit_code_tracks_verdicts():
    with pytest.raises(ValueError):
        RunReport(command="x", inputs="", verdicts=(("a", False),),
                  elapsed=0.0, exit_code=0)
    report = RunReport(command="x", inputs="", verdicts=(("a", True),),
                       elapsed=0.0, exit_code=0)
    assert report.exit_code == 0


# ---------------------------------------------------------------------------
# converge details


def test_converge_echoes_the_epsilon_token(capsys):
    run_command(["converge", "--amplitudes", "sqrt(1/2),sqrt(1/2)",
                 "--N-sweep", "10", "--epsilon", "1/50"])
    out = capsys.readouterr().out
    assert "10,1/50,352/1024,0.34375" in out


def test_converge_csv_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["converge", "--amplitudes", "sqrt(1/2),sqrt(1/2)",
            "--N-sweep", "10,20", "--epsilon", "0.02"]
    run_command(argv + ["--csv", str(first)])
    run_command(argv + ["--csv", str(second)])
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert text.endswith("\n")
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 3


def test_converge_irrational_amplitudes_fall_back_to_floats(capsys):
    run_command(["converge", "--amplitudes", "0.6,0.8",
                 "--N-sweep", "5", "--epsilon", "0.02"])
    row = capsys.readouterr().out.splitlines()[1]
    n, eps, exact, approx = row.split(",")
    assert (n, eps) == ("5", "0.02")
    assert exact != ""  # 0.36/0.64 snap to exact rationals
    assert 0.0 <= float(approx) <= 1.0


def test_converge_float_row_past_the_double_range_of_the_binomial(capsys):
    # C(1100, 550) is past the largest double; the row used to die with OverflowError
    code = main(["converge", "--amplitudes", "0.3,0.9539392014169456",
                 "--N-sweep", "1100", "--epsilon", "0.02"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == CSV_HEADER
    n, eps, exact, approx = lines[1].split(",")
    assert (n, eps, exact) == ("1100", "0.02", "")
    assert math.isfinite(float(approx)) and 0.0 <= float(approx) < 1e-20


# ---------------------------------------------------------------------------
# derive and decision-support reports


def test_derive_prints_trace_then_value(capsys):
    report = run_command(["derive", "--m", "1", "--n", "2", "--payoffs", "0,1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("step 1: ShiftRule | ")
    assert all("check=pass" in line for line in lines[:-1])
    assert lines[-1] == "value: 1/2"
    assert report.exit_code == 0


def test_derive_rejects_three_payoffs(capsys):
    assert main(["derive", "--m", "1", "--n", "2", "--payoffs", "0,1,2"]) == 2


def test_derive_checks_a_large_payoff_at_its_scale(capsys):
    assert main(["derive", "--m", "20", "--n", "41", "--payoffs", "123456789,7"]) == 0
    assert "check=fail" not in capsys.readouterr().out


def test_derive_refuses_a_payoff_past_the_floats(capsys):
    assert main(["derive", "--m", "1", "--n", "3", "--payoffs", "1e400,0"]) == 2
    assert "payoff is too large for a float" in capsys.readouterr().err


def test_decision_support_qubit_passes(capsys):
    report = run_command(["decision-support", QUBIT])
    out = capsys.readouterr().out
    assert "decision-support: pass" in out
    for check in ("T1", "R1", "R2", "R3", "R4"):
        assert f"{check}: pass" in out
    assert report.exit_code == 0


def test_decision_support_classical_gives_the_reason(capsys):
    report = run_command(["decision-support", BIT])
    out = capsys.readouterr().out
    assert "decision-support: fail" in out
    assert "reason: no complementary observables" in out
    assert report.exit_code == 1


def test_decision_support_degenerate_fails_r1(capsys):
    report = run_command(["decision-support", DEGENERATE])
    out = capsys.readouterr().out
    assert "R1: fail" in out
    assert report.exit_code == 1


# ---------------------------------------------------------------------------
# check-model decides each variable once


def _qutrit_doc(states, attributes, variables):
    return {"kind": "quantum", "id": "qutrit", "dimension": 3, "states": states,
            "attributes": {name: {"kind": "set", "states": held}
                           for name, held in attributes.items()},
            "variables": variables}


# Y: a real basis; Z: an information variable whose member {|0>, |1>} is no
# observable, so no pair with Z counts, though Z and Y are disjoint with an
# unclonable union; W: Y relabeled, so Y and W are not cross-disjoint
QUTRIT_WITH_A_NON_OBSERVABLE = _qutrit_doc(
    {"k0": [1, 0, 0], "k1": [0, 1, 0], "k2": [0, 0, 1],
     "f0": ["sqrt(1/3)", "sqrt(1/3)", "sqrt(1/3)"],
     "f1": ["sqrt(1/2)", "-sqrt(1/2)", 0],
     "f2": ["sqrt(1/6)", "sqrt(1/6)", "-sqrt(2/3)"]},
    {"y0": ["f0"], "y1": ["f1"], "y2": ["f2"], "low": ["k0", "k1"], "high": ["k2"]},
    {"Y": [[0, "y0"], [1, "y1"], [2, "y2"]], "Z": [["low", "low"], ["high", "high"]],
     "W": [[0, "y1"], [1, "y2"], [2, "y0"]]})

# X and Y both pass, but share the member |0>, so they are not cross-disjoint
QUTRIT_WITH_A_SHARED_MEMBER = _qutrit_doc(
    {"k0": [1, 0, 0], "k1": [0, 1, 0], "k2": [0, 0, 1],
     "p": [0, "sqrt(1/2)", "sqrt(1/2)"], "m": [0, "sqrt(1/2)", "-sqrt(1/2)"]},
    {"x0": ["k0"], "x1": ["k1"], "x2": ["k2"], "yp": ["p"], "ym": ["m"]},
    {"X": [[0, "x0"], [1, "x1"], [2, "x2"]], "Y": [[0, "x0"], ["+", "yp"], ["-", "ym"]]})


@pytest.mark.parametrize("fixture, info, obs", [
    ("qubit", 3, 2), ("traffic_light", 3, 2),
    ("qubit_degenerate", 2, 2), ("classical_bit", 2, 2)])
def test_check_model_decides_each_variable_once(fixture, info, obs, monkeypatch, capsys):
    """Two variables each, decided once; only a pair of information
    observables has its union decided (5/4/1 calls when every pair went
    through detect_superinformation)."""
    calls = {"is_information_variable": 0, "is_observable": 0, "detect_superinformation": 0}
    for module in (ctkit.cli, ctkit.predicates):
        for name in calls:
            if hasattr(module, name):
                def counted(*args, _name=name, _inner=getattr(module, name), **kwargs):
                    calls[_name] += 1
                    return _inner(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    run_command(["check-model", str(FIXTURE_DIR / f"{fixture}.json")])
    capsys.readouterr()
    assert calls == {"is_information_variable": info, "is_observable": obs,
                     "detect_superinformation": 0}


@pytest.mark.parametrize("spec", [
    "qubit", "traffic_light", "qubit_degenerate", "classical_bit",
    "non_observable", "shared_member"])
def test_check_model_agrees_with_detect_superinformation(spec, tmp_path, capsys):
    written = {"non_observable": QUTRIT_WITH_A_NON_OBSERVABLE,
               "shared_member": QUTRIT_WITH_A_SHARED_MEMBER}
    path = FIXTURE_DIR / f"{spec}.json"
    if spec in written:
        path = tmp_path / f"{spec}.json"
        path.write_text(json.dumps(written[spec]))
    run_command(["check-model", str(path)])
    lines = capsys.readouterr().out.splitlines()
    doc = parse_model_spec(str(path))
    reports = [detect_superinformation(a, b, doc.model)
               for a, b in itertools.combinations(doc.variables.values(), 2)]
    want = any(r.verdict for r in reports)
    assert lines[-1] == f"superinformation: {'true' if want else 'false'}"
    # each written document shows the case it was written for
    if spec == "non_observable":
        assert "variable Z: information variable, not an observable" in lines
        assert not want
    if spec == "shared_member":
        assert lines[1:3] == ["variable X: information observable",
                              "variable Y: information observable"]
        assert [r.evidence["failed"] for r in reports] == ["cross disjointness"]


# ---------------------------------------------------------------------------
# One end-to-end process run


def test_module_entry_point_subprocess():
    done = subprocess.run(
        [sys.executable, "-m", "ctkit", "value",
         "--weights", "1/3,2/3", "--payoffs", "10,-2"],
        capture_output=True,
    )
    assert done.returncode == 0
    assert done.stdout == b"2\n"


def test_check_model_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """Two inputs of a task share three states; the one named is the first in
    the first input's order, whatever the hash seed (seeds 0 and 2 used to
    name 'red' and 'amber')."""
    doc = json.loads((FIXTURE_DIR / "traffic_light.json").read_text())
    doc["tasks"]["collapse"]["pairs"] = [["lit", "r"], ["lit", "g"]]
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(doc))
    runs = [subprocess.run([sys.executable, "-m", "ctkit", "check-model", str(path)],
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed))
            for seed in ("0", "2")]
    assert [(r.returncode, r.stdout, r.stderr) for r in runs] == [(
        2, "", "error: task 'collapse': task input attributes overlap (shared state: 'red')\n")] * 2
