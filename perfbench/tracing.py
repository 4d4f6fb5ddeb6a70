"""Span recorder and layer wrappers for the traced benchmark run.

Spans are recorded from outside the simulator: :func:`instrument`
replaces public functions and methods of each layer with a thin
wrapper that logs one span per call (name, start, end, parent span)
into a :class:`SpanRecorder`. Nothing under ``src/`` is modified; the
originals are put back when the ``with`` block ends.

A span's *self time* is its duration minus the durations of its direct
child spans. Summed over every span of a pass, self times equal the
time covered by top-level spans, so the harness's root span
(``bench.pass``) turns the remainder — time no layer wrapper saw —
into a self time of its own, and the split closes on the pass's wall
time.

The batched pipeline (``Machine(batch=...)``) fuses the hierarchy,
controller, MAC and pad paths into one interpreter loop, so on a
batched workload only calls that *leave* the fused engine (scheme
hooks, ``strict``'s ``persist_branch`` chain, MAC-cache misses) show
up as spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

ROOT_SPAN = "bench.pass"

LAYERS = ("workloads", "sim", "mem", "tree", "crypto", "schemes",
          "recovery", "obs", "lab", "fuzz")
"""Layer prefixes, in the order the report lists them."""

# (span name, module, attribute path); an attribute path "A.f" patches
# method ``f`` of class ``A``, a bare "f" patches the module-level
# binding (callers that did ``from module import f`` look it up there).
FIXED_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.machine", "Machine.run"),
    ("sim.persist_branch", "repro.sim.controller",
     "SecureMemoryController.persist_branch"),
    ("sim.read_data", "repro.sim.controller",
     "SecureMemoryController.read_data"),
    ("sim.write_data", "repro.sim.controller",
     "SecureMemoryController.write_data"),
    ("mem.access", "repro.mem.hierarchy", "CacheHierarchy.access"),
    ("tree.node_mac", "repro.tree.sit", "SITAuthenticator.node_mac"),
    ("tree.data_mac", "repro.tree.sit", "SITAuthenticator.data_mac"),
    ("crypto.encrypt", "repro.crypto.otp", "CounterModeEngine.encrypt"),
    ("crypto.decrypt", "repro.crypto.otp", "CounterModeEngine.decrypt"),
    ("recovery.recover", "repro.sim.machine", "Machine.recover"),
    ("obs.result", "repro.sim.machine", "Machine.result"),
    ("lab.execute", "repro.lab.scheduler", "execute"),
    ("lab.put", "repro.lab.store", "ResultStore.put"),
    ("lab.scheduler_run", "repro.lab.scheduler", "Scheduler.run"),
    ("fuzz.materialize_trace", "repro.fuzz.executor", "materialize_trace"),
    ("fuzz.audit_machine", "repro.fuzz.executor", "audit_machine"),
    ("fuzz.audit_machine", "repro.fuzz.oracle", "audit_machine"),
    ("fuzz.judge", "repro.fuzz.executor", "judge"),
)

SCHEME_SPANS: Tuple[Tuple[str, str], ...] = (
    ("strict", "after_data_write"),
    ("anubis", "on_cache_install"), ("anubis", "on_cache_evict"),
    ("anubis", "on_parent_modified"),
    ("phoenix", "on_cache_install"), ("phoenix", "on_cache_evict"),
    ("phoenix", "on_parent_modified"),
    ("star", "on_dirty_transition"), ("star", "on_crash"),
)
"""The hooks each scheme overrides (inherited base hooks are no-ops the
batched engine elides). The list is fixed so the declared metric set
does not change when a scheme gains a hook; a pair the scheme no longer
overrides is left unwrapped and reports zero."""

SPAN_NAMES: Tuple[str, ...] = tuple(sorted(
    {name for name, _, _ in FIXED_TARGETS}
    | {"workloads.ops", "fuzz.attack_prepare", "fuzz.attack_apply"}
    | {"schemes.%s.%s" % pair for pair in SCHEME_SPANS}
))
"""Every span name :func:`instrument` can record."""

COUNTERS = ("recovery.stale_lines", "recovery.nvm_reads")
"""Counts recorded at span boundaries (from each recovery report)."""


class SpanRecorder:
    """Every span of a traced pass, kept in flat in-memory arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ix = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: List[int] = []
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_ix.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def split(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` over the recorded spans."""
        n = len(self.start)
        child = [0.0] * n
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        start, end, parent, name_ix = (self.start, self.end, self.parent,
                                       self.name_ix)
        # a parent is always opened before its children, so walking
        # backwards finishes every child sum before its parent is read
        for i in range(n - 1, -1, -1):
            duration = end[i] - start[i]
            nid = name_ix[i]
            calls[nid] += 1
            self_s[nid] += duration - child[i]
            p = parent[i]
            if p >= 0:
                child[p] += duration
        return {name: (calls[i], self_s[i])
                for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """One JSON header line, then the raw columns (native order)."""
        header = {
            "names": self.names, "spans": len(self),
            "columns": [["name_ix", "H"], ["start", "d"], ["end", "d"],
                        ["parent", "q"]],
            "counts": self.counts,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ix, self.start, self.end,
                           self.parent):
                column.tofile(handle)
        tmp.replace(path)


def read_spans(path: Path) -> SpanRecorder:
    """Load a file written by :meth:`SpanRecorder.write`."""
    recorder = SpanRecorder()
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        for name in header["names"]:
            recorder.name_id(name)
        for column in (recorder.name_ix, recorder.start, recorder.end,
                       recorder.parent):
            column.fromfile(handle, header["spans"])
    recorder.counts.update(header["counts"])
    return recorder


def busy_wait(seconds: float) -> None:
    """Spin (not sleep) so an injected delay costs CPU like real work."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def _wrapper(fn: Callable, name_id: int,
             recorder: Optional[SpanRecorder], delay_s: float,
             on_result: Optional[Callable]) -> Callable:
    if recorder is None:
        def delayed(*args, **kwargs):
            busy_wait(delay_s)
            return fn(*args, **kwargs)
        return functools.wraps(fn)(delayed)
    open_span, close_span = recorder.open, recorder.close

    def traced(*args, **kwargs):
        index = open_span(name_id)
        try:
            if delay_s:
                busy_wait(delay_s)
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        finally:
            close_span(index)
    return functools.wraps(fn)(traced)


def _targets() -> Iterator[Tuple[str, object, str]]:
    """``(span name, owner, attribute)`` for every wrapped callable."""
    for name, module_name, path in FIXED_TARGETS:
        owner: object = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        yield name, owner, attr

    from repro.workloads.registry import WORKLOAD_CLASSES
    for cls in WORKLOAD_CLASSES.values():
        yield "workloads.ops", cls, "ops"

    from repro.schemes import SIT_SCHEMES, PersistenceScheme
    for short, hook in SCHEME_SPANS:
        cls = SIT_SCHEMES[short]
        if getattr(cls, hook) is not getattr(PersistenceScheme, hook):
            yield "schemes.%s.%s" % (short, hook), cls, hook

    from repro.fuzz.attacks import ATTACK_CLASSES
    for cls in ATTACK_CLASSES.values():
        for method in ("prepare", "apply"):
            if method in vars(cls):
                yield "fuzz.attack_" + method, cls, method


def _materialized_ops(fn: Callable) -> Callable:
    """``Workload.ops`` generating the whole stream inside its span.

    The traced run times trace generation as its own span instead of
    interleaving it with replay; the ops are identical either way.
    """
    def ops(self):
        return iter(list(fn(self)))
    return functools.wraps(fn)(ops)


@contextlib.contextmanager
def instrument(recorder: Optional[SpanRecorder],
               delays: Optional[Dict[str, float]] = None
               ) -> Iterator[None]:
    """Wrap every layer target for the duration of the block.

    With a ``recorder``, each call records a span. ``delays`` maps a
    span name to seconds of busy-waiting added inside that span on
    every call (the slowdown self-test); without a recorder, only the
    delayed targets are wrapped.
    """
    delays = dict(delays or {})
    unknown = set(delays) - set(SPAN_NAMES)
    if unknown:
        raise ValueError("unknown span(s): %s" % ", ".join(sorted(unknown)))
    plan = []
    for name, owner, attr in _targets():
        if recorder is None and name not in delays:
            continue
        # originals are read before anything is patched, so a subclass
        # inheriting a wrapped hook wraps the real function, not a
        # wrapper (each scheme gets its own span name)
        had_own = attr in vars(owner)
        plan.append((name, owner, attr, getattr(owner, attr), had_own))

    def count_recovery(report) -> None:
        recorder.counts["recovery.stale_lines"] += report.stale_lines
        recorder.counts["recovery.nvm_reads"] += report.nvm_reads

    try:
        for name, owner, attr, fn, _ in plan:
            if name == "workloads.ops" and recorder is not None:
                fn = _materialized_ops(fn)
            name_id = recorder.name_id(name) if recorder is not None else 0
            on_result = count_recovery if name == "recovery.recover" \
                else None
            setattr(owner, attr, _wrapper(fn, name_id, recorder,
                                          delays.get(name, 0.0),
                                          on_result))
        yield
    finally:
        for _, owner, attr, fn, had_own in reversed(plan):
            if had_own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)
