"""STAR001: every NVM touch must be counted.

All write-traffic and recovery-cost figures are computed from the NVM's
per-region stat counters (``repro.mem.nvm``), so reaching around the
counted ``read_*``/``write_*`` API — e.g. iterating ``nvm._meta``
directly — silently removes traffic from the results. That is exactly
the bug class PR 3 fixed by hand; this rule machine-detects it.

Three detectors, from syntactic to whole-program:

1. **Direct access** (the PR 4 heuristic, kept): an attribute access
   ``<recv>._data/_meta/_ra/_st`` where the receiver is NVM-shaped —
   a name or attribute called ``nvm`` (or ending in ``nvm``).
2. **Inherited access**: ``self._data`` (and friends) inside a method
   of a project-local ``NVM`` subclass. The receiver is ``self``, so
   the name heuristic is blind to it, but the class hierarchy in the
   :class:`~repro.lint.project.ProjectContext` is not.
3. **Helper indirection**: a call-graph effect propagation. Any
   function parameter whose body (transitively, through further
   project-local calls) reaches a region attribute carries a
   region-access effect; a call site that binds an NVM-shaped argument
   to an effectful parameter is the uncounted access, reported where
   the NVM value flows in. This kills the receiver-name false
   negative: ``def scan(mem): return len(mem._data)`` plus
   ``scan(machine.nvm)`` is now a finding at the call.

The NVM class itself (``repro/mem/nvm.py``) is the counted API and is
exempt; the sanctioned uncounted accessors it exports (``peek_*``,
``flush_*``, ``tamper_*``, ``data_lines``, ``meta_lines``,
``st_slots``, ``*_is_touched``) are the escape hatch for oracles,
battery flushes and attackers — and for a recovery that uses
``data_lines``/``meta_lines`` to *choose* what to read, as long as it
charges every read it skips through the counted API (Phoenix's probe
charges its untouched counter blocks with
``NVM.read_untouched_blocks``). The batched epoch engine
(``repro/sim/batch.py``) is the second counted implementation of the
same API — it binds the region dicts *and* their traffic counters
locally and bumps both together, with scalar parity enforced by
``tests/test_batch_parity.py`` — so it shares the exemption.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import FileContext, Finding, Rule
from repro.lint.project import FunctionInfo, ProjectContext

_REGIONS = frozenset({"_data", "_meta", "_ra", "_st"})

# the counted API lives here; its subclass detection keys off this class
_NVM_MODULE = "repro/mem/nvm.py"
_NVM_CLASS = "NVM"

# qualified-function -> {positional param index -> regions reached}
_Effects = Dict[str, Dict[int, Set[str]]]


def _is_nvm_receiver(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "nvm" or node.id.endswith("nvm")
    if isinstance(node, ast.Attribute):
        return node.attr == "nvm" or node.attr.endswith("nvm")
    return False


def _param_effects(fn: FunctionInfo) -> Dict[int, Set[str]]:
    """Direct region touches on ``fn``'s bindable parameters."""
    params = fn.positional_params
    index = {name: i for i, name in enumerate(params)}
    out: Dict[int, Set[str]] = {}
    for node in ast.walk(fn.node):
        if (isinstance(node, ast.Attribute) and node.attr in _REGIONS
                and isinstance(node.value, ast.Name)
                and node.value.id in index):
            out.setdefault(index[node.value.id], set()).add(node.attr)
    return out


def compute_region_effects(project: ProjectContext) -> _Effects:
    """Fixpoint: which parameters reach NVM region internals.

    Seeded with direct ``param._region`` touches, then propagated
    backwards through resolved call sites: if ``f`` passes its own
    parameter ``p`` into an effectful position of ``g``, then ``f.p``
    inherits ``g``'s effect. Iterates to a fixpoint (the effect
    lattice is finite and grows monotonically, so this terminates).
    """
    effects: _Effects = {}
    for fn in project.iter_functions():
        direct = _param_effects(fn)
        if direct:
            effects[fn.qualified] = direct

    changed = True
    while changed:
        changed = False
        for fn in project.iter_functions():
            index = {name: i for i, name
                     in enumerate(fn.positional_params)}
            if not index:
                continue
            for call in ast.walk(fn.node):
                if not isinstance(call, ast.Call):
                    continue
                callee = project.resolve_call(
                    fn.module_path, call, fn.class_name)
                if callee is None:
                    continue
                callee_effects = effects.get(callee.qualified)
                if not callee_effects:
                    continue
                for arg_index, arg in _bound_args(callee, call):
                    regions = callee_effects.get(arg_index)
                    if (not regions or not isinstance(arg, ast.Name)
                            or arg.id not in index):
                        continue
                    mine = effects.setdefault(
                        fn.qualified, {}
                    ).setdefault(index[arg.id], set())
                    if not regions <= mine:
                        mine |= regions
                        changed = True
    return effects


def _bound_args(callee: FunctionInfo,
                call: ast.Call) -> Iterator[Tuple[int, ast.expr]]:
    """(positional index in callee, argument expr) for each binding
    this call makes that we can resolve statically."""
    params = callee.positional_params
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if i < len(params):
            yield i, arg
    index = {name: i for i, name in enumerate(params)}
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in index:
            yield index[keyword.arg], keyword.value


class UncountedNvmAccessRule(Rule):
    code = "STAR001"
    name = "uncounted-nvm-access"
    description = (
        "direct access to NVM region internals bypasses the counted "
        "traffic API"
    )

    def __init__(self,
                 exempt_modules: Iterable[str] = (
                     "repro/mem/nvm.py", "repro/sim/batch.py",
                 )) -> None:
        self.exempt_modules = frozenset(exempt_modules)
        self._project: Optional[ProjectContext] = None
        self._effects: _Effects = {}
        self._nvm_subclasses: Set[str] = set()
        """Qualified names of project-local NVM subclasses."""

    def begin(self, project: ProjectContext) -> None:
        self._project = project
        self._effects = compute_region_effects(project)
        self._nvm_subclasses = {
            cls.qualified
            for cls in project.subclasses_of(_NVM_MODULE, _NVM_CLASS)
        }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module_path in self.exempt_modules:
            return
        yield from self._direct_accesses(ctx)
        if self._project is not None:
            yield from self._inherited_accesses(ctx)
            yield from self._effectful_calls(ctx)

    # ------------------------------------------------------------------
    # detector 1: receiver-name heuristic
    # ------------------------------------------------------------------
    def _direct_accesses(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in _REGIONS and _is_nvm_receiver(node.value):
                yield ctx.finding(
                    self.code,
                    node,
                    "uncounted access to NVM internals (%r); use the "
                    "counted read_*/write_* API or a sanctioned "
                    "accessor (peek_*, data_lines(), meta_lines(), ...)"
                    % node.attr,
                )

    # ------------------------------------------------------------------
    # detector 2: self.<region> in NVM subclasses
    # ------------------------------------------------------------------
    def _inherited_accesses(self, ctx: FileContext) -> Iterator[Finding]:
        assert self._project is not None
        info = self._project.module(ctx.module_path)
        if info is None:
            return
        for cls in info.classes.values():
            if cls.qualified not in self._nvm_subclasses:
                continue
            for node in ast.walk(cls.node):
                if (isinstance(node, ast.Attribute)
                        and node.attr in _REGIONS
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    yield ctx.finding(
                        self.code,
                        node,
                        "NVM subclass %r reaches region %r through "
                        "self, bypassing the counted API; add a "
                        "counted accessor to the NVM base instead"
                        % (cls.name, node.attr),
                    )

    # ------------------------------------------------------------------
    # detector 3: NVM flowing into effectful helper parameters
    # ------------------------------------------------------------------
    def _effectful_calls(self, ctx: FileContext) -> Iterator[Finding]:
        assert self._project is not None
        for fn, body in self._project.enclosing_functions(
                ctx.module_path):
            for call in ast.walk(body):
                if not isinstance(call, ast.Call):
                    continue
                yield from self._check_call(ctx, fn, call)
        # module-level calls (no enclosing function)
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for call in ast.walk(stmt):
                if isinstance(call, ast.Call):
                    yield from self._check_call(ctx, None, call)

    def _check_call(self, ctx: FileContext,
                    caller: Optional[FunctionInfo],
                    call: ast.Call) -> Iterator[Finding]:
        assert self._project is not None
        callee = self._project.resolve_call(
            ctx.module_path, call,
            caller.class_name if caller is not None else None,
        )
        if callee is None or callee.module_path in self.exempt_modules:
            return
        callee_effects = self._effects.get(callee.qualified)
        if not callee_effects:
            return
        for arg_index, arg in _bound_args(callee, call):
            regions = callee_effects.get(arg_index)
            if not regions or not _is_nvm_receiver(arg):
                continue
            params = callee.positional_params
            param = params[arg_index] if arg_index < len(params) \
                else "?"
            yield ctx.finding(
                self.code,
                call,
                "passes NVM to %s() whose parameter %r reaches region "
                "internals (%s) uncounted; route through the counted "
                "read_*/write_* API instead"
                % (callee.name, param,
                   ", ".join(sorted(regions))),
            )
