"""Zero-caller guard: every public definition in ``src/`` has a caller.

A public top-level function, public class or public method of a public
class fails here when no code in ``src/``, ``bench/``, ``tools/``,
``examples/`` or ``benchmarks/`` references its name.  Tests do not
count: a path only tests reach is a path nothing runs.  A reference is
a name, an attribute, a ``from ... import`` outside a package
``__init__``, or a string constant equal to the name (``bench/trace.py``
wraps methods by name).  The definition itself, package ``__init__``
re-exports and ``__all__`` lists are not references.

The scan matches by bare name, so a method counts as called when any
object's attribute of that name is used.  It catches deletions that
leave an orphan behind, not every unused override.

:data:`ALLOWED` names the public definitions that had no caller when
the guard was written, each with the reason it stays for now.  An entry
must still be defined and still be uncalled, so the list only shrinks.

The same holds for configuration: every field of the records in
:data:`CONFIG_CLASSES` must be read.  A field passes when the caller
trees load an attribute of its name anywhere but in its own class's
``__post_init__`` (validating a field is not using it).  There is no
allowlist for fields.
"""

import ast
import dataclasses
import functools
import pathlib

import pytest

from repro.campaign.policy import RetryPolicy
from repro.cluster.jobs import JobSpec
from repro.cluster.runtime import ClusterConfig
from repro.core.runtime import AIACCConfig
from repro.obs.detectors import DetectorConfig
from repro.sim.cuda import GPUSpec
from repro.sim.topology import NodeSpec

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Trees whose code counts as a caller.
CALLER_TREES = ("src", "bench", "tools", "examples", "benchmarks")

#: Configuration records whose every field must be read.
CONFIG_CLASSES = (AIACCConfig, NodeSpec, GPUSpec, ClusterConfig,
                  DetectorConfig, JobSpec, RetryPolicy)

#: Public definitions without a caller, by dotted path, with the reason
#: each is kept.
ALLOWED = {
    "repro.campaign.grid.RunSpec.from_json":
        "inverse of RunSpec.to_json; the round-trip test reads it",
    "repro.collectives.alltoall.gather":
        "numeric collective API (§IX primitives), tested bit-exact",
    "repro.collectives.alltoall.reduce":
        "numeric collective API (§IX primitives), tested bit-exact",
    "repro.collectives.alltoall.scatter":
        "numeric collective API (§IX primitives), tested bit-exact",
    "repro.collectives.cost_model.halving_doubling_time_s":
        "closed-form model the timed halving-doubling is tested against",
    "repro.collectives.cost_model.hierarchical_allreduce_time_s":
        "closed-form model the timed hierarchical ring is tested against",
    "repro.collectives.cost_model.ina_time_s":
        "closed-form model the timed in-network aggregation is tested "
        "against",
    "repro.collectives.cost_model.multi_tree_time_s":
        "closed-form model the timed multi-tree is tested against",
    "repro.collectives.hierarchical.hierarchical_allreduce":
        "numeric face of the hierarchical algorithm, tested bit-exact",
    "repro.collectives.planner.planned_numeric_allreduce":
        "numeric face of the planner algorithms, tested bit-exact",
    "repro.core.debugging.GradientDebugger.warnings":
        "human-readable report of the NaN debugger (§IV)",
    "repro.core.perseus.PerseusSession.broadcast_parameters":
        "Horovod API (hvd.broadcast_parameters)",
    "repro.core.perseus.PerseusSession.local_size":
        "Horovod API (hvd.local_size)",
    "repro.core.perseus.PerseusSession.pending_counts":
        "introspection of the decentralized push/reduce path (§V-A)",
    "repro.core.perseus.PerseusSession.push_gradient":
        "decentralized gradient push of the numeric API (§V-A.2)",
    "repro.core.perseus.PerseusSession.reduce_ready":
        "decentralized synchronization round of the numeric API (§V-A)",
    "repro.core.perseus.init":
        "Horovod API (hvd.init); translated scripts call it",
    "repro.core.streams.CommStreamPool.in_flight":
        "stream-pool occupancy the engine and fault tests read",
    "repro.sim.kernel.Simulator.queue_length":
        "heap size the model-based pool machine reads to single-step "
        "the simulator",
    "repro.sim.network.solve_rates_reference":
        "the tests' reference solver for the fair-share allocation",
    "repro.training.resilience.optimal_checkpoint_interval":
        "Young's checkpoint interval, the closed-form cadence answer",
}


def _python_files(tree: str):
    return sorted((ROOT / tree).rglob("*.py"))


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def public_definitions() -> dict[str, str]:
    """Dotted path -> bare name of every public definition in ``src/``."""
    found = {}
    for path in _python_files("src"):
        module = _module_name(path)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            found[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)) \
                            and not item.name.startswith("_"):
                        found[f"{module}.{node.name}.{item.name}"] = \
                            item.name
    return found


def referenced_names() -> set[str]:
    """Every name the caller trees reference (see the module doc)."""
    names = set()
    for tree in CALLER_TREES:
        for path in _python_files(tree):
            package_init = path.name == "__init__.py"
            module = ast.parse(path.read_text())
            skipped = set()
            for node in ast.walk(module):
                if isinstance(node, ast.Assign) and any(
                        isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets):
                    skipped.update(id(sub) for sub in ast.walk(node))
            for node in ast.walk(module):
                if id(node) in skipped:
                    continue
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    names.add(node.value)
                elif isinstance(node, ast.ImportFrom) and not package_init:
                    names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_has_a_caller():
    names = referenced_names()
    orphans = sorted(path for path, name in public_definitions().items()
                     if name not in names and path not in ALLOWED)
    assert orphans == [], (
        "public definitions nothing in "
        f"{', '.join(CALLER_TREES)} references: {orphans}")


def test_allowed_entries_are_still_defined_and_uncalled():
    definitions = public_definitions()
    names = referenced_names()
    stale = sorted(path for path in ALLOWED
                   if path not in definitions
                   or definitions[path] in names)
    assert stale == [], f"drop these from ALLOWED: {stale}"


@functools.cache
def attribute_loads() -> dict[str, set[str | None]]:
    """Attribute name -> where the caller trees load it: the class whose
    ``__post_init__`` holds the load, or ``None`` anywhere else."""
    loads: dict[str, set[str | None]] = {}
    for tree in CALLER_TREES:
        for path in _python_files(tree):
            module = ast.parse(path.read_text())
            owner = {}
            for cls in ast.walk(module):
                if isinstance(cls, ast.ClassDef):
                    for item in cls.body:
                        if isinstance(item, ast.FunctionDef) \
                                and item.name == "__post_init__":
                            owner.update((id(node), cls.name)
                                         for node in ast.walk(item))
            for node in ast.walk(module):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    loads.setdefault(node.attr, set()).add(
                        owner.get(id(node)))
    return loads


@pytest.mark.parametrize("cls,field", [
    pytest.param(cls, field.name, id=f"{cls.__name__}.{field.name}")
    for cls in CONFIG_CLASSES for field in dataclasses.fields(cls)])
def test_every_config_field_is_read(cls, field):
    readers = attribute_loads().get(field, set()) - {cls.__name__}
    assert readers, (
        f"nothing in {', '.join(CALLER_TREES)} reads {cls.__name__}."
        f"{field} outside its own __post_init__")
