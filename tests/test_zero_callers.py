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
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Trees whose code counts as a caller.
CALLER_TREES = ("src", "bench", "tools", "examples", "benchmarks")

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
    "repro.collectives.primitives.concat_chunks":
        "inverse of split_chunks for the numeric collectives",
    "repro.collectives.primitives.split_chunks":
        "chunking primitive of the numeric collectives",
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
    "repro.obs.timeline.StepTimeline.merge":
        "folds per-rank timelines together, tested",
    "repro.sim.kernel.Simulator.queue_length":
        "kernel introspection the kernel tests read",
    "repro.sim.network.solve_rates_reference":
        "the tests' reference solver for the fair-share allocation",
    "repro.sim.resources.Resource.available":
        "free-slot count the resource tests read",
    "repro.sim.resources.Resource.try_acquire":
        "non-blocking acquire of the resource API, tested",
    "repro.sim.resources.Store.put":
        "public deposit of the store API, tested",
    "repro.training.lr_schedule.StepDecay":
        "step-decay schedule beside the paper's linear decay, tested",
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
