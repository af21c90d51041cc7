"""Source-to-source translation (paper §IV "Programming interface").

Two entry points, matching the two porting paths the paper describes:

:func:`translate_horovod_source`
    "porting Horovod distributed training programs to AIACC-Training ...
    means just changing one line of the code by replacing the import
    package from Horovod to Perseus."  Rewrites ``import horovod.<fw>``
    (and ``from horovod.<fw> import ...``) to the Perseus module.

:func:`translate_sequential_source`
    "AIACC-Training uses a compiler-based source-to-source translator to
    automatically convert the user program to AIACC-Training's Perseus
    API for distributed training."  An AST pass that, on a vanilla
    single-GPU training script:

    * inserts the Perseus import and ``init()`` call,
    * wraps recognised optimizer constructions (``SGD(...)`` /
      ``Adam(...)`` / ``AdamSGD(...)``) in ``DistributedOptimizer``,
    * scales the learning-rate keyword by the worker count (standard
      linear-scaling rule).
"""

from __future__ import annotations

import ast
import re

from repro.errors import TranslationError, require_count

#: Module that replaces horovod.* imports.
PERSEUS_MODULE = "repro.core.perseus"

#: Optimizer constructors the sequential translator recognises.
_OPTIMIZER_NAMES = {"SGD", "Adam", "AdamSGD"}

_HOROVOD_IMPORT = re.compile(
    r"^(\s*)import\s+horovod(?:\.\w+)*\s+as\s+(\w+)\s*$", re.MULTILINE)
_HOROVOD_FROM = re.compile(
    r"^(\s*)from\s+horovod(?:\.\w+)*\s+import\s+(.+)$", re.MULTILINE)
_HOROVOD_PLAIN = re.compile(
    r"^(\s*)import\s+horovod(?:\.\w+)*\s*$", re.MULTILINE)


def translate_horovod_source(source: str) -> str:
    """Rewrite Horovod imports to Perseus (the one-line port)."""
    try:
        ast.parse(source)
    except SyntaxError as exc:
        raise TranslationError(f"input is not valid Python: {exc}") from exc
    out = _HOROVOD_IMPORT.sub(
        rf"\1import {PERSEUS_MODULE} as \2", source)
    out = _HOROVOD_FROM.sub(
        rf"\1from {PERSEUS_MODULE} import \2", out)
    out = _HOROVOD_PLAIN.sub(
        rf"\1import {PERSEUS_MODULE}", out)
    if out == source and "horovod" in source:
        raise TranslationError(
            "found the string 'horovod' but no import to rewrite; "
            "is the import generated dynamically?"
        )
    return out


class _SequentialTransformer(ast.NodeTransformer):
    """Wraps optimizers and scales learning rates for data parallelism."""

    def __init__(self, session_var: str) -> None:
        self.session_var = session_var
        self.optimizers_wrapped = 0

    def visit_Call(self, node: ast.Call) -> ast.AST:
        self.generic_visit(node)
        name = self._callee_name(node)
        if name not in _OPTIMIZER_NAMES:
            return node
        self.optimizers_wrapped += 1
        for keyword in node.keywords:
            if keyword.arg in ("lr", "learning_rate"):
                keyword.value = ast.BinOp(
                    left=keyword.value,
                    op=ast.Mult(),
                    right=ast.Call(
                        func=ast.Attribute(
                            value=ast.Name(self.session_var, ast.Load()),
                            attr="size", ctx=ast.Load()),
                        args=[], keywords=[]),
                )
        return ast.Call(
            func=ast.Name("DistributedOptimizer", ast.Load()),
            args=[node],
            keywords=[ast.keyword(
                arg="session",
                value=ast.Name(self.session_var, ast.Load()))],
        )

    @staticmethod
    def _callee_name(node: ast.Call) -> str | None:
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return None


def translate_sequential_source(source: str, num_workers: int = 8,
                                session_var: str = "_perseus") -> str:
    """Convert a sequential training script to the Perseus API.

    Raises :class:`TranslationError` when no optimizer construction is
    found — the script would not actually be distributed, and silent
    no-op translation is worse than an error.
    """
    require_count("num_workers", num_workers, 1, TranslationError)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise TranslationError(f"input is not valid Python: {exc}") from exc

    transformer = _SequentialTransformer(session_var)
    tree = transformer.visit(tree)
    if transformer.optimizers_wrapped == 0:
        raise TranslationError(
            "no recognised optimizer construction "
            f"({sorted(_OPTIMIZER_NAMES)}) found in the script"
        )

    prelude = ast.parse(
        f"import {PERSEUS_MODULE} as perseus\n"
        "from repro.training.optimizer import DistributedOptimizer\n"
        f"{session_var} = perseus.init(size={num_workers})\n"
    ).body
    # Keep a module docstring (if any) first.
    body = list(tree.body)
    insert_at = 1 if (body and isinstance(body[0], ast.Expr)
                      and isinstance(body[0].value, ast.Constant)
                      and isinstance(body[0].value.value, str)) else 0
    tree.body = body[:insert_at] + prelude + body[insert_at:]
    ast.fix_missing_locations(tree)
    return ast.unparse(tree)
