"""Session-wide checks of the test suite.

A test that starts a process must also stop it: a pool worker or
subprocess that outlives its test keeps running after the suite exits.
So the suite fails when, at its end, the pytest process still has a
live Python child.  Children get :data:`CHILD_GRACE_S` to exit first,
so a pool that is shutting down as the last test returns is not
flagged.  The one exception is the ``multiprocessing`` resource tracker
a spawn pool starts: it serves this process for its whole life and
exits when this process closes its end of the tracker's pipe.
"""

import os
import sys
import time

import pytest

#: Seconds the session waits for its Python children to exit.
CHILD_GRACE_S = 5.0


def live_python_children(pid=None):
    """Pids of the live Python processes whose parent is ``pid``.

    Read from ``/proc``; ``pid`` defaults to this process.  A zombie (an
    exited child its parent has not reaped) is not live.  Returns an
    empty list where ``/proc`` is missing.
    """
    parent = os.getpid() if pid is None else pid
    try:
        entries = os.listdir("/proc")
    except OSError:
        return []
    children = []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while the scan ran
        # ``pid (comm) state ppid ...``; comm may hold spaces or ')'.
        comm = stat[stat.index("(") + 1:stat.rindex(")")]
        state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
        if (int(ppid) == parent and state != "Z"
                and comm.startswith("python")):
            children.append(int(entry))
    return sorted(children)


def _leaked_children():
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    own = getattr(getattr(tracker, "_resource_tracker", None), "_pid", None)
    return [pid for pid in live_python_children() if pid != own]


def pytest_sessionfinish(session, exitstatus):
    deadline = time.monotonic() + CHILD_GRACE_S
    children = _leaked_children()
    while children and time.monotonic() < deadline:
        time.sleep(0.1)
        children = _leaked_children()
    if not children:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line("leaked Python child processes still running:",
                            red=True)
        for child in children:
            reporter.write_line(f"  {child}: {_command_line(child)}")
    session.exitstatus = pytest.ExitCode.TESTS_FAILED


def _command_line(pid):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(
                errors="replace").strip()
    except OSError:
        return "?"
