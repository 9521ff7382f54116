"""A process that runs only contract trials never loads the scaffold stack.

Each check starts a fresh interpreter, since this test process has long
since imported every module of the package.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SCAFFOLD_STACK = ("commitlotto.chain", "commitlotto.scaffold", "commitlotto.script")

PROBE = """
import sys
from commitlotto import harness

def loaded():
    return [name for name in {stack!r} if name in sys.modules]

def play(backend):
    cfg = harness.ScenarioConfig(backend=backend, n=4, strategies=("honest",) * 4)
    assert harness.run_trial(cfg, 0).winner is not None

play("ethereum")
print(loaded())
{then}
print(loaded())
"""


def probe(then: str) -> list[str]:
    """The scaffold-stack modules loaded after one ethereum trial, then after `then`."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = PROBE.format(stack=SCAFFOLD_STACK, then=then)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("then", ["harness.ScaffoldRuntime", 'play("bitcoin-plain")'])
def test_a_contract_trial_leaves_the_scaffold_stack_unloaded_until_a_scaffold_runtime_is_asked_for(then):
    assert probe(then) == ["[]", repr(list(SCAFFOLD_STACK))]
