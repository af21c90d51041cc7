"""Host-cost benchmark of the simulator: five workloads, one command.

Run from the repository root::

    python -m bench run --workload ring-small --seed 1
    python -m bench run --all --out runs.jsonl
    python -m bench compare parent.jsonl change.jsonl --claim ops_per_s@ring-small

The benchmark drives the program under test (``src/repro``) from the
outside: it imports the package from this checkout's ``src`` directory,
never from an installed copy, so a run measures exactly the code next to
it.  See ``bench/README.md`` for the workloads, metrics and bounds.
"""

from __future__ import annotations

import pathlib
import sys

#: The checkout root (the directory holding ``BENCHMARK.json``).
ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Source tree of the program under test.
SRC = ROOT / "src"


class CheckoutError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def use_checkout_src() -> None:
    """Put this checkout's ``src`` first on ``sys.path`` and verify it wins.

    Raises :class:`CheckoutError` when ``src/repro`` is missing (a bare
    copy of the benchmark) or when ``repro`` resolves somewhere else.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    location = pathlib.Path(repro.__file__).resolve()
    if SRC not in location.parents:
        raise CheckoutError(f"repro imported from {location}, not from {SRC}")
