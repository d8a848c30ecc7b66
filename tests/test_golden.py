"""Golden outputs: the stdout and exit code of every README command, of
`check-model` and `decision-support` on each fixture, of `derive` for four
(m, n), and of the six demos, compared byte for byte with `tests/golden/`.

The CLI runs in-process through `ctkit.cli.main` and the demos through
`runpy`, from the repository root so the relative fixture paths resolve.
After a deliberate change of output, rewrite the files with
`CTKIT_GOLDEN_UPDATE=1 python3 -m pytest tests/test_golden.py` and review
the diff.
"""

import os
import runpy
from pathlib import Path

import pytest

from ctkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = ("classical_bit", "qubit", "qubit_degenerate", "traffic_light")

# name -> (CT_TOL or None, argv)
README_COMMANDS = {
    "readme_check_model_qubit": (None, ["check-model", "fixtures/qubit.json"]),
    "readme_predict_qubit_x_skew": (
        None, ["predict", "fixtures/qubit.json", "--observable", "X", "--state", "skew"]),
    "readme_converge_sweep": (None, [
        "converge", "--amplitudes", "0.70710678,0.70710678",
        "--N-sweep", "10,20,50", "--epsilon", "0.02"]),
    "readme_converge_one_row": (None, [
        "converge", "--amplitudes", "0.70710678,0.70710678",
        "--N-sweep", "10", "--epsilon", "0.02"]),
    "readme_value": (None, ["value", "--weights", "1/3,2/3", "--payoffs", "10,-2"]),
    "readme_derive_1_3": (None, ["derive", "--m", "1", "--n", "3", "--payoffs", "10,-2"]),
    "readme_decision_support_qubit": (None, ["decision-support", "fixtures/qubit.json"]),
    "readme_check_model_qubit_tol": ("1e-7", ["check-model", "fixtures/qubit.json"]),
}
CLI_CASES = dict(README_COMMANDS)
for fixture in FIXTURES:
    for command in ("check-model", "decision-support"):
        CLI_CASES.setdefault(
            f"{command.replace('-', '_')}_{fixture}", (None, [command, f"fixtures/{fixture}.json"]))
for m, n in ((2, 5), (3, 7), (1, 2)):
    CLI_CASES[f"derive_{m}_{n}"] = (
        None, ["derive", "--m", str(m), "--n", str(n), "--payoffs", "10,-2"])
# check-model and decision-support on qubit.json are README commands already
del CLI_CASES["check_model_qubit"], CLI_CASES["decision_support_qubit"]

DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _compare(name: str, stdout: str, code: int) -> None:
    got = f"# exit {code}\n{stdout}"
    path = GOLDEN / f"{name}.txt"
    if os.environ.get("CTKIT_GOLDEN_UPDATE"):
        GOLDEN.mkdir(exist_ok=True)
        path.write_text(got)
        return
    assert got == path.read_text(), f"output of {name} differs from {path.name}"


def test_the_cases_are_the_documented_ones():
    assert len(CLI_CASES) == 17 and len(DEMOS) == 6


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_is_golden(name, capsys, monkeypatch):
    ct_tol, argv = CLI_CASES[name]
    monkeypatch.chdir(ROOT)
    if ct_tol is None:
        monkeypatch.delenv("CT_TOL", raising=False)
    else:
        monkeypatch.setenv("CT_TOL", ct_tol)
    code = main(argv)
    _compare(name, capsys.readouterr().out, code)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_is_golden(demo, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("CT_TOL", raising=False)
    code = 0
    try:
        runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    except SystemExit as exc:
        code = exc.code or 0
    _compare(f"demo_{Path(demo).stem}", capsys.readouterr().out, code)
