#!/usr/bin/env python3
"""Mutant runner: each mutant breaks the protocol in one place, and a test must notice.

    python3 mutants/run.py

A mutant is one exact text replacement in one file of the tree, with the
guarantee it breaks and the tests that must fail once it is applied. For
each mutant, in turn, the runner copies the tree to a temporary
directory, applies the mutant there and runs its tests in one child
process with a timeout. The mutant is killed when they fail, a timeout
included, and survives when they pass. First, the tests of every mutant
run once on an unmutated copy, which must pass, so that a test broken for
another reason kills nothing.

Exits 0 when every mutant is killed, 1 otherwise: a survivor, a
replacement that does not match exactly once, tests that do not run, or
an unmutated copy that fails. A survivor is a gap in the tests, mended by
a new test, never by dropping the mutant. Needs only the standard library
and pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# what the copy leaves out: version control, caches and benchmark output
SKIP = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}


def _ignore(directory: str, names: list[str]) -> set[str]:
    skip = SKIP | ({"out"} if os.path.abspath(directory) == os.path.join(ROOT, "bench") else set())
    return skip.intersection(names)


TIMEOUT_S = 300  # per child process; the kernel tests take about 5 s
KERNEL_TESTS = ("tests/test_scaffold.py", "tests/test_play.py", "tests/test_strategies.py")


class Mutant(NamedTuple):
    name: str
    breaks: str  # the guarantee it breaks
    path: str  # relative to the tree's root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest arguments, relative to the tree's root


MUTANTS = (
    Mutant(
        "outcome-bp-pays-left",
        "a revealed odd parity pays the right player",
        "src/commitlotto/scaffold.py",
        "KernelRow(ROLE_OUTCOME_BP, 1, BRANCH_REVEAL, None, (SIDE_LEFT, SIDE_RIGHT), SIDE_RIGHT, 5)",
        "KernelRow(ROLE_OUTCOME_BP, 1, BRANCH_REVEAL, None, (SIDE_LEFT, SIDE_RIGHT), SIDE_LEFT, 5)",
        KERNEL_TESTS,
    ),
    Mutant(
        "reveal-opens-no-side",
        "the reveal opens the left player's commitment",
        "src/commitlotto/scaffold.py",
        "KernelRow(ROLE_REVEAL, 0, BRANCH_REVEAL, None, (SIDE_LEFT,), None, 4)",
        "KernelRow(ROLE_REVEAL, 0, BRANCH_REVEAL, None, (), None, 4)",
        KERNEL_TESTS,
    ),
    Mutant(
        "t1-t2-swapped",
        "outcome b unlocks at t1, before outcome a at t2",
        "src/commitlotto/scaffold.py",
        "T1, T2 = 1, 2",
        "T1, T2 = 2, 1",
        KERNEL_TESTS,
    ),
    Mutant(
        "outcome-b-spends-the-reveal",
        "outcome b times out the entry, racing the reveal",
        "src/commitlotto/scaffold.py",
        "KernelRow(ROLE_OUTCOME_B, 0, BRANCH_TIMEOUT, T1, (), SIDE_RIGHT, 1)",
        "KernelRow(ROLE_OUTCOME_B, 1, BRANCH_TIMEOUT, T1, (), SIDE_RIGHT, 1)",
        KERNEL_TESTS,
    ),
    Mutant(
        "join-combo-sides-swapped",
        "a combo is its side choices, left-major, as `split_combo` reads it",
        "src/commitlotto/scaffold.py",
        "return left * choices + right",
        "return right * choices + left",
        KERNEL_TESTS,
    ),
    Mutant(
        "compression-takes-the-other-side",
        "a compression spends the outcomes that pay its candidate's side",
        "src/commitlotto/scaffold.py",
        "for row in _PAYING[side]]",
        "for row in _PAYING[1 - side]]",
        KERNEL_TESTS,
    ),
)


class Outcome(NamedTuple):
    status: str  # "passed", "failed", "timeout" or "error"
    detail: str
    seconds: float


def run_tests(tree: str, tests: tuple[str, ...]) -> Outcome:
    """Run `tests` in a copy of the tree, in one child process."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome("timeout", f"no result in {TIMEOUT_S} s", time.perf_counter() - start)
    seconds = time.perf_counter() - start
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    last = lines[-1].strip("= ") if lines else proc.stderr.strip()[-200:]
    # pytest: 0 all passed, 1 some failed, 2 interrupted (a collection error
    # included); 3, 4 and 5 are pytest's own errors and collecting no test
    status = {0: "passed", 1: "failed", 2: "failed"}.get(proc.returncode, "error")
    return Outcome(status, last, seconds)


def copy_tree(dest: str) -> str:
    tree = os.path.join(dest, "tree")
    shutil.copytree(ROOT, tree, ignore=_ignore)
    return tree


def apply(tree: str, mutant: Mutant) -> str:
    """Apply `mutant` to the copy; a problem with its text, or "" when applied."""
    path = os.path.join(tree, mutant.path)
    with open(path, encoding="utf-8") as fp:
        text = fp.read()
    count = text.count(mutant.old)
    if count != 1:
        return f"its text occurs {count} times in {mutant.path}, not once"
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text.replace(mutant.old, mutant.new))
    return ""


def main() -> int:
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        baseline = run_tests(copy_tree(tmp), tests)
    print(f"unmutated  {baseline.status:8} {baseline.detail} ({baseline.seconds:.1f} s)", flush=True)
    if baseline.status != "passed":
        print("the unmutated tree must pass the mutants' tests; no mutant was run")
        return 1

    tally = dict.fromkeys(("killed", "survived", "error"), 0)
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
            tree = copy_tree(tmp)
            problem = apply(tree, mutant)
            if problem:
                verdict, detail = "error", problem
            else:
                outcome = run_tests(tree, mutant.tests)
                verdict = {"passed": "survived", "failed": "killed", "timeout": "killed"}.get(outcome.status, "error")
                detail = f"{outcome.detail} ({outcome.seconds:.1f} s)"
        tally[verdict] += 1
        print(f"{verdict:8}   {mutant.name}: {mutant.breaks}; {detail}", flush=True)
    print(f"{len(MUTANTS)} mutants: " + ", ".join(f"{count} {verdict}" for verdict, count in tally.items()))
    return 0 if tally["killed"] == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
