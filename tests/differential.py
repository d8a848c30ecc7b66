"""Differential check: one fixed case list run against two copies of the library.

The cases are the commands of `tests/test_golden.py`, the six demos, and
two families of model documents from `tests/mutator.py`, each document put
through `check-model`, `predict` and `decision-support`: mutated documents
(`mutate`, seed 10), which mostly exercise the loader's refusals, and
perturbed documents (`perturb`, seed 13), edited within the grammar so
that most reach a verdict.  Each source tree runs the
whole list in one subprocess, with that tree's `src` first on the path and
this repository's root as the working directory, so the fixtures, the demos
and the documents are the same on both sides and only the library differs.
Every case whose exit code, stdout or stderr differs is printed, then the
count.  Both runs use PYTHONHASHSEED=0; `tests/test_differential.py` runs
one tree under two seeds with the same runner.

    git worktree add ../parent HEAD^1
    python3 tests/differential.py --against ../parent [--documents 200]

The exit code is 0 whenever the comparison ran, with or without
differences: an intended change of output is for review, not a failure.
"""

import argparse
import contextlib
import difflib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = 200


def golden_cases() -> list[dict]:
    """The CLI commands and demos that `tests/test_golden.py` pins."""
    from test_golden import CLI_CASES, DEMOS  # imports ctkit, so not at module level
    cases = [{"name": name, "ct_tol": ct_tol, "argv": argv}
             for name, (ct_tol, argv) in sorted(CLI_CASES.items())]
    return cases + [{"name": f"demo_{Path(demo).stem}", "demo": demo} for demo in DEMOS]


def document_cases(directory: Path, count: int, family: str = "doc") -> list[dict]:
    """count mutated (family "doc"), perturbed ("perturbed") or overlapping
    ("overlapping", not in the default case list) fixtures written to
    directory, each as three cases: check-model, predict (README's
    `--observable X --state skew`, which only the qubit fixture's edits can
    pass) and decision-support."""
    from mutator import mutated_documents, overlapping_documents, perturbed_documents
    fixtures = sorted((ROOT / "fixtures").glob("*.json"))
    documents = {"doc": mutated_documents, "perturbed": perturbed_documents,
                 "overlapping": overlapping_documents}[family]
    cases = []
    for i, doc in enumerate(documents(fixtures, count)):
        path = directory / f"{family}_{i:03d}.json"
        path.write_text(json.dumps(doc))
        for command, extra in (("check-model", []),
                               ("predict", ["--observable", "X", "--state", "skew"]),
                               ("decision-support", [])):
            cases.append({"name": f"{command}_{family}_{i:03d}",
                          "argv": [command, str(path), *extra]})
    return cases


def run_tree(src: Path, cases: list[dict], hash_seed: str = "0") -> list[list]:
    """[exit code, stdout, stderr] of each case, run in one subprocess that
    imports ctkit from src."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(Path(src).resolve())],
        input=json.dumps(cases), capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed), check=False)
    if done.returncode != 0:
        raise RuntimeError(f"the worker for {src} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def differing(cases: list[dict], a: list[list], b: list[list]) -> list[tuple]:
    """(name, result in a, result in b) of each case whose results differ,
    in case order."""
    return [(case["name"], x, y) for case, x, y in zip(cases, a, b) if x != y]


def _report(name: str, a: list, b: list) -> str:
    lines = [f"differs: {name}"]
    if a[0] != b[0]:
        lines.append(f"  exit {a[0]!r} -> {b[0]!r}")
    for field, x, y in (("stdout", a[1], b[1]), ("stderr", a[2], b[2])):
        lines += ["  " + line.rstrip("\n") for line in difflib.unified_diff(
            x.splitlines(True), y.splitlines(True), f"{field} (against)", f"{field} (this tree)")]
    return "\n".join(lines)


def _run_case(case: dict, cli_main) -> list:
    """Run one case in this process; an exception that escapes the command
    is recorded by type and message, since a traceback names the tree's paths."""
    os.environ.pop("CT_TOL", None)
    if case.get("ct_tol") is not None:
        os.environ["CT_TOL"] = case["ct_tol"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if "demo" in case:
                runpy.run_path(str(ROOT / "demos" / case["demo"]), run_name="__main__")
                code = 0
            else:
                code = cli_main(case["argv"])
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:  # recorded; the worker goes on to the next case
            code = "uncaught"
            err.write(f"{type(exc).__name__}: {exc}\n")
    err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return [code, out.getvalue(), err.getvalue()]


def _worker(src: Path) -> None:
    sys.path.insert(0, str(src))
    import ctkit
    from ctkit.cli import main
    if Path(ctkit.__file__).resolve().parent != src / "ctkit":
        raise RuntimeError(f"ctkit was imported from {ctkit.__file__}, not from {src}")
    cases = json.loads(sys.stdin.read())
    results = [_run_case(case, main) for case in cases]
    sys.stdout.write(json.dumps(results))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", type=Path, help="root of the other source tree")
    parser.add_argument("--documents", type=int, default=DOCUMENTS,
                        help=f"documents of each family to run (default {DOCUMENTS})")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        _worker(args.worker)
        return 0
    if args.against is None or not (args.against / "src" / "ctkit").is_dir():
        parser.error("--against must name a tree with src/ctkit")
    sys.path.insert(1, str(ROOT / "src"))  # test_golden imports ctkit
    with tempfile.TemporaryDirectory() as tmp:
        cases = (golden_cases() + document_cases(Path(tmp), args.documents)
                 + document_cases(Path(tmp), args.documents, "perturbed"))
        theirs = run_tree(args.against / "src", cases)
        ours = run_tree(ROOT / "src", cases)
    changed = differing(cases, theirs, ours)
    for name, x, y in changed:
        print(_report(name, x, y))
    print(f"{len(changed)} of {len(cases)} cases differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
