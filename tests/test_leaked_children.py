"""The suite's session check fails a run that leaks a Python child.

Each test runs a one-test pytest session in a subprocess, with the
suite's ``pytest_sessionfinish`` hook (``tests/conftest.py``) as its
conftest and a short grace period.
"""

import os
import pathlib
import signal
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent

CONFTEST = """\
import tests.conftest as suite

suite.CHILD_GRACE_S = 0.5
pytest_sessionfinish = suite.pytest_sessionfinish
"""

#: A test that starts a sleeping Python child, records its pid and
#: then either leaves it running or stops it.
SESSION = """\
import pathlib
import subprocess
import sys


def test_starts_a_child():
    child = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"])
    pathlib.Path({pid_file!r}).write_text(str(child.pid))
    if {stop!r}:
        child.kill()
        child.wait()
"""


def _run_session(tmp_path, stop):
    pid_file = tmp_path / "child.pid"
    (tmp_path / "conftest.py").write_text(CONFTEST)
    (tmp_path / "test_child.py").write_text(
        SESSION.format(pid_file=str(pid_file), stop=stop))
    path = [str(REPO), str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(tmp_path)], cwd=tmp_path, env=env, capture_output=True,
            text=True, timeout=120)
    finally:
        if pid_file.exists():
            try:
                os.kill(int(pid_file.read_text()), signal.SIGKILL)
            except ProcessLookupError:
                pass


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_a_leaked_child_fails_the_session(tmp_path):
    result = _run_session(tmp_path, stop=False)
    assert "1 passed" in result.stdout, result.stdout
    assert "leaked Python child processes still running" in result.stdout
    assert result.returncode == pytest.ExitCode.TESTS_FAILED


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_a_stopped_child_passes_the_session(tmp_path):
    result = _run_session(tmp_path, stop=True)
    assert "1 passed" in result.stdout, result.stdout
    assert "leaked" not in result.stdout
    assert result.returncode == pytest.ExitCode.OK
