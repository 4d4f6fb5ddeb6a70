"""STAR007: lease-board mutations must be fenced.

The farm's correctness under SIGKILLed workers (PR 7) rests on two
invariants of ``repro/lab/lease.py``: every multi-statement mutation
of the ``leases`` table happens inside an explicit ``BEGIN IMMEDIATE``
transaction (claims from separate processes race on one SQLite file),
and every owner-scoped mutation goes through the fence-checked helper
(``_fenced_update``) so a zombie worker's stale token is rejected
instead of overwriting the thief's progress. Today those invariants
live only in tests; this rule pins them structurally.

A finding is any ``execute``/``executemany`` call whose SQL literal
mutates the ``leases`` table (``UPDATE``/``INSERT``/``DELETE``/
``REPLACE`` mentioning the table) from a lease-protocol module,
unless the enclosing function either

* is on the sanctioned-helper roster (``_fenced_update`` — the fence
  predicate *is* its WHERE clause), or
* opens a transaction itself (its body calls ``self._begin()``), with
  the mutation's commit/rollback discipline left to review.

SQL built outside a literal (f-strings aside from the
``_fenced_update`` SET interpolation, string variables) cannot be
classified and is conservatively ignored — the rule errs toward false
negatives, and the farm smoke tests remain the behavioural backstop.
"""

from __future__ import annotations

import ast
import re
from typing import FrozenSet, Iterable, Iterator, Optional

from repro.lint.engine import FileContext, Finding, Rule

#: The lease-protocol modules, by exact path.
DEFAULT_MODULES = (
    "repro/lab/lease.py",
    "repro/lab/farm.py",
)
DEFAULT_HELPERS = frozenset({"_fenced_update"})

_MUTATION = re.compile(
    r"^\s*(UPDATE|INSERT|DELETE|REPLACE)\b", re.IGNORECASE)
_TABLE = re.compile(r"\bleases\b", re.IGNORECASE)


def _sql_literal(node: ast.expr) -> Optional[str]:
    """The SQL text of an argument, when statically known.

    String constants and the ``"... %s ..." % args`` /
    ``"...".format(...)`` / f-string shapes used to interpolate SET
    clauses all resolve to their template text (placeholders dropped),
    which is enough to classify the statement kind and target table.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return _sql_literal(node.left)
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "format"):
        return _sql_literal(node.func.value)
    if isinstance(node, ast.JoinedStr):
        parts = [v.value for v in node.values
                 if isinstance(v, ast.Constant)
                 and isinstance(v.value, str)]
        return "".join(parts) if parts else None
    return None


def _calls_begin(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_begin"):
            return True
    return False


class LeaseFencingRule(Rule):
    code = "STAR007"
    name = "lease-fencing"
    description = (
        "a lease-board mutation bypasses the fenced helpers / "
        "BEGIN IMMEDIATE transactions"
    )

    def __init__(self,
                 modules: Iterable[str] = DEFAULT_MODULES,
                 helpers: FrozenSet[str] = DEFAULT_HELPERS) -> None:
        self.modules = frozenset(modules)
        self.helpers = helpers

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module_path not in self.modules:
            return
        yield from self._walk(ctx, ctx.tree, enclosing=None)

    def _walk(self, ctx: FileContext, node: ast.AST,
              enclosing: Optional[ast.AST]) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                yield from self._walk(ctx, child, enclosing=child)
            else:
                if isinstance(child, ast.Call):
                    finding = self._check_call(ctx, child, enclosing)
                    if finding is not None:
                        yield finding
                yield from self._walk(ctx, child, enclosing)

    def _check_call(self, ctx: FileContext, call: ast.Call,
                    enclosing: Optional[ast.AST]) -> Optional[Finding]:
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in ("execute", "executemany")):
            return None
        if not call.args:
            return None
        sql = _sql_literal(call.args[0])
        if sql is None:
            return None
        if not (_MUTATION.match(sql) and _TABLE.search(sql)):
            return None
        if enclosing is not None:
            name = getattr(enclosing, "name", "")
            if name in self.helpers:
                return None
            if _calls_begin(enclosing):
                return None
        return ctx.finding(
            self.code, call,
            "mutation of the lease board outside a BEGIN IMMEDIATE "
            "transaction; route it through a fenced helper or open "
            "the transaction with self._begin() and commit/rollback",
        )
