"""Examples run: every example script exits 0 in a fresh interpreter.

An example imports the public API the way a user would, so a rename or
signature change that the unit tests port silently breaks it.  All six
take a few seconds together; ``autotune_demo.py`` is the slowest.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXAMPLES = sorted(name for name in os.listdir(os.path.join(ROOT, "examples"))
                  if name.endswith(".py"))


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", name)], env=env,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
