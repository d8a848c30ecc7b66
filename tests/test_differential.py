"""The committed differential check (`tests/differential.py`): the repository
against itself differs nowhere, an edited error message is the one case
reported, check-model's bytes over mutated, perturbed and overlapping
documents do not depend on the hash seed, and most perturbed documents reach
a verdict."""

import shutil
import subprocess
import sys

import differential
from differential import ROOT

# the seeded case list reaches this message in one case only
MESSAGE = "is neither sharp in the observable"


def _differential(against) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "differential.py"), "--against", str(against)],
        capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_the_repository_against_itself_differs_nowhere():
    assert _differential(ROOT) == ["0 of 1223 cases differ"]


def test_an_edited_error_message_is_the_one_case_reported(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    module = tmp_path / "src" / "ctkit" / "unpredictability.py"
    source = module.read_text()
    assert source.count(MESSAGE) == 1
    module.write_text(source.replace(MESSAGE, "is not sharp in the observable"))
    assert _differential(tmp_path) == [
        "differs: predict_doc_169",
        "  --- stderr (against)",
        "  +++ stderr (this tree)",
        "  @@ -1 +1 @@",
        "  -error: input ('mixture', 'y') is not sharp in the observable nor a generalised "
        "mixture of it",
        "  +error: input ('mixture', 'y') is neither sharp in the observable nor a generalised "
        "mixture of it",
        "1 of 1223 cases differ",
    ]


def test_check_model_on_mutated_documents_does_not_depend_on_the_hash_seed(tmp_path):
    cases = [case for case in differential.document_cases(tmp_path, 48)
             if case["argv"][0] == "check-model"]
    runs = [differential.run_tree(ROOT / "src", cases, seed) for seed in ("0", "2")]
    assert len(runs[0]) == 48
    assert differential.differing(cases, *runs) == []


def test_perturbed_documents_mostly_reach_a_verdict_whatever_the_hash_seed(tmp_path):
    cases = [case for case in differential.document_cases(tmp_path, 200, "perturbed")
             if case["argv"][0] == "check-model"]
    runs = [differential.run_tree(ROOT / "src", cases, seed) for seed in ("0", "2")]
    assert len(runs[0]) == 200
    assert differential.differing(cases, *runs) == []
    # exit 0 or 1 is a verdict; 2 is a document the loader refuses
    verdicts = sum(code in (0, 1) for code, _, _ in runs[0])
    assert verdicts >= 100, verdicts
    assert all(code in (0, 1, 2) for code, _, _ in runs[0])


def test_the_shared_label_named_does_not_depend_on_the_hash_seed(tmp_path):
    """Two classical attributes share two or more string labels, whose set
    order moves with the hash seed; each document is refused naming one of
    them, the same one under either seed."""
    cases = [case for case in differential.document_cases(tmp_path, 24, "overlapping")
             if case["argv"][0] == "check-model"]
    runs = [differential.run_tree(ROOT / "src", cases, seed) for seed in ("0", "2")]
    assert len(runs[0]) == 24
    assert differential.differing(cases, *runs) == []
    assert all(code == 2 and "overlap (shared state: '" in err for code, _, err in runs[0])
