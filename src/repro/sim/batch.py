"""Batched epoch execution for the simulator hot path.

The scalar path (``Machine.apply``) walks roughly 450 Python calls per
trace op: machine -> hierarchy -> controller -> cache/NVM/stats, each
layer re-deriving addresses and re-binding attributes. This module is
the opt-in alternative: it slices the reference stream into *epochs*,
precomputes per-op address decode / set-index / tree-ancestor math for
the whole epoch at once (with numpy when available), and then replays
the epoch through one fused interpreter whose state lives in local
variables.

The engine operates on the SAME canonical objects the scalar path uses —
the metadata-cache ``OrderedDict`` buckets, the ``CachedNode`` payloads,
the NVM dicts, the write-pending queue, the ADR region behind the STAR
bitmap hooks. It is an execution strategy, not a second model: crash,
recover, audits and mid-run fallback to ``Machine.apply`` all see
exactly the state a scalar replay would have produced. Bit-identical
parity (final NVM image, stats counters, telemetry, timing floats,
recovery reports) is pinned by ``tests/test_batch_parity.py``.

What the fusion changes, and why it is safe:

* **Counter batching** — hot stat counters accumulate in local ints and
  flush through ``Stats.add`` once per run. Addition commutes, and
  counters are only created when non-zero, so snapshots match the
  scalar run exactly (including which counters exist).
* **Deferred distribution flushes** — histogram observations (WPQ
  occupancy, persist levels, cascade depths) accumulate in local
  arrays and merge into the shared ``Histogram`` objects once per run.
  Histogram state (count/total/min/max/buckets) is a commutative
  monoid, so the merged result is identical to per-call observation.
  Gauges likewise: the engine tracks the running level and peak
  locally and stores value + high-watermark at the end.
* **Scheme-hook elision** — hooks a scheme inherits from
  :class:`~repro.schemes.base.PersistenceScheme` are no-ops by
  definition and are skipped; overridden hooks are called at the same
  sequence points with the same arguments.
* **Same-line run preaggregation** — N consecutive persistent writes
  covered by one counter block cost one metadata lookup/pin pass: the
  block is known resident, dirty and most-recently-used, so the
  repeated probe is pure overhead. A run breaks on any event that can
  reorder the metadata cache (force flush, fill, write-back, barrier),
  after which the next write takes the full path again.
* **Float-op order** — the timing model's additions replay in exactly
  the scalar order (per-op instruction advance, per-write WPQ stalls),
  so ``cycles``/``ipc`` match to the last bit. The WPQ's completion
  deque and bank state are mutated in place with the same algorithm as
  :meth:`~repro.mem.writequeue.WritePendingQueue.enqueue`; its
  monotonic-clock guard is provably satisfied inside a run (simulated
  time never decreases), so only the final clock is written back.

Ineligible machines (bank-level device timing, an installed sanitizer
or profiler, an active NVM trace) transparently fall back to the scalar
loop — those features wrap or observe the very calls the fusion
removes.
"""

from __future__ import annotations

import gc as _gc
from typing import List, Optional, Sequence

from repro.config import COUNTER_BITS, LSB_BITS
from repro.errors import IntegrityError, RecoveryError
from repro.mem.cache import CacheLine, EvictionDeadlock
from repro.mem.nvm import NVM
from repro.schemes.base import PersistenceScheme
from repro.tree.node import CachedNode, DataLineImage, NodeImage
from repro.util.bitfield import check_width, mask
from repro.workloads.trace import Op, OpKind

try:  # vector prepass; the engine degrades to pure-Python decode
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the image
    _np = None

_LSB_MASK = mask(LSB_BITS)
_COUNTER_LIMIT = 1 << COUNTER_BITS

DEFAULT_EPOCH = 256
"""Default ops per epoch for ``Machine(batch=True)``."""

_NUMPY_MIN_OPS = 32
"""Below this epoch population the numpy round-trip costs more than the
scalar decode it replaces."""

SCALAR_PARITY_EXEMPT = frozenset({
    # Scalar-controller fields the epoch pipeline deliberately never
    # touches; star-lint STAR006 requires every other controller field
    # to be referenced here. Keep each entry justified:
    "config",      # construction-time wiring only; geometry/threshold
                   # are re-derived from it before the hot loop starts
    "layout",      # address-map queries happen through geometry, which
                   # the engine binds directly
    "cache_tree",  # recovery/debug surface; epochs run strictly
                   # between recoveries, so the pipeline never walks it
})

_READ, _WRITE, _PERSIST = 0, 1, 2


def _overridden(scheme, name: str):
    """The scheme's override of hook ``name``, or ``None`` when it
    inherits the base no-op (so the fused loop can skip the call)."""
    if getattr(type(scheme), name) is getattr(PersistenceScheme, name):
        return None
    return getattr(scheme, name)


def eligible(machine) -> bool:
    """Whether ``machine`` can run under the fused epoch engine.

    Device timing, the write sanitizer, the phase profiler and NVM
    address tracing all hook the per-call seams the fusion removes, so
    those machines take the scalar path. So does any machine with a
    subclassed NVM (e.g. wear-leveling remaps the data region inside
    ``write_data``) — the engine's fused stores assume the base model's
    direct line semantics.
    """
    return (
        machine.timing.device is None
        and machine.sanitizer is None
        and machine.profiler is None
        and machine.nvm.trace is None
        and type(machine.nvm) is NVM
    )


def _flush_int_histogram(hist, acc) -> None:
    """Merge an int-indexed observation-count array into a histogram.

    ``acc[v]`` holds how many times value ``v`` was observed. Histogram
    state is commutative, so a deferred bulk merge equals per-call
    ``observe`` exactly (values here are positive ints or zero; zero
    lands in the dedicated zero bucket like ``observe(0)`` would).
    """
    buckets = hist._buckets
    for value, n in enumerate(acc):
        if not n:
            continue
        hist.count += n
        hist.total += value * n
        if hist.min is None or value < hist.min:
            hist.min = value
        if hist.max is None or value > hist.max:
            hist.max = value
        if value > 0:
            exponent = (value - 1).bit_length()
            buckets[exponent] = buckets.get(exponent, 0) + n
        else:
            hist._zero += n


class EpochEngine:
    """Fused epoch interpreter over a machine's canonical state.

    One engine serves one :class:`~repro.sim.machine.Machine`; it holds
    no simulation state of its own beyond the epoch size — every
    :meth:`run` re-binds the machine's current components, so it stays
    correct across crash/recover cycles (which swap the scheme's
    volatile state and reset the WPQ).
    """

    __slots__ = ("machine", "epoch_size")

    def __init__(self, machine, epoch_size: int = DEFAULT_EPOCH) -> None:
        if epoch_size < 1:
            raise ValueError("epoch size must be >= 1")
        self.machine = machine
        self.epoch_size = epoch_size

    # ------------------------------------------------------------------
    # epoch prepass: vectorized decode
    # ------------------------------------------------------------------
    @staticmethod
    def _decode(chunk: Sequence[Op], arity: int, prev_write_cb: int):
        """Per-op arrays for one epoch: kind / addr / instruction gap /
        persistence, the level-0 tree ancestor (counter block) and its
        slot, and the same-counter-block run mask.

        ``prev_write_cb`` is the counter block of the trailing
        persistent write of the previous epoch (or -1), so runs survive
        epoch boundaries.
        """
        kinds: List[int] = []
        addrs: List[int] = []
        gaps: List[int] = []
        pers: List[bool] = []
        read_kind, write_kind = OpKind.READ, OpKind.WRITE
        for op in chunk:
            kind = op.kind
            kinds.append(
                _READ if kind is read_kind
                else _WRITE if kind is write_kind else _PERSIST
            )
            addrs.append(op.addr)
            gaps.append(op.instructions)
            pers.append(op.persistent)
        count = len(kinds)
        if _np is not None and count >= _NUMPY_MIN_OPS:
            addr_vec = _np.asarray(addrs, dtype=_np.int64)
            cb_vec = addr_vec // arity
            slot_vec = addr_vec - cb_vec * arity
            is_pwrite = (
                (_np.asarray(kinds, dtype=_np.int8) == _WRITE)
                & _np.asarray(pers, dtype=bool)
            )
            same = _np.zeros(count, dtype=bool)
            if count > 1:
                same[1:] = (
                    is_pwrite[1:] & is_pwrite[:-1]
                    & (cb_vec[1:] == cb_vec[:-1])
                )
            if is_pwrite[0] and cb_vec[0] == prev_write_cb:
                same[0] = True
            cbs = cb_vec.tolist()
            slots = slot_vec.tolist()
            same_run = same.tolist()
        else:
            cbs = [addr // arity for addr in addrs]
            slots = [addr % arity for addr in addrs]
            same_run = [False] * count
            last_cb = prev_write_cb
            for i in range(count):
                if kinds[i] == _WRITE and pers[i]:
                    same_run[i] = cbs[i] == last_cb
                    last_cb = cbs[i]
                else:
                    last_cb = -1
        return kinds, addrs, gaps, pers, cbs, slots, same_run

    # ------------------------------------------------------------------
    # the fused replay
    # ------------------------------------------------------------------
    def run(self, ops: Sequence[Op]) -> None:
        """Replay ``ops`` through the fused interpreter.

        Raises the same exceptions the scalar path would
        (``RecoveryError`` on a crashed machine, ``IntegrityError`` on
        MAC mismatches); accumulated counters and timing are flushed
        back even when an op raises, so the machine state stays exactly
        as far along as the faulting scalar replay.
        """
        machine = self.machine
        if machine.crashed:
            raise RecoveryError("machine has crashed; recover first")

        # ---------------- bindings: timing ----------------
        timing = machine.timing
        cpu = timing.cpu
        base_cpi = cpu.base_cpi
        cycle_ns = cpu.cycle_ns
        sfence = cpu.sfence_ns
        hit_lat = timing._hit_latency_ns
        hit_top = len(hit_lat) - 1
        read_lat = timing.nvm.read_latency_ns
        now = timing.now_ns
        instructions = timing.instructions
        read_stall = timing.read_stall_ns
        write_stall = timing.write_stall_ns
        barrier_stall = timing.barrier_stall_ns

        # ---------------- bindings: WPQ (inlined timing model) --------
        # The deque and bank state are the queue's own objects, mutated
        # with the same algorithm as WritePendingQueue.enqueue; simulated
        # time is non-decreasing inside a run, so the monotonic-clock
        # guard cannot fire and only the final clock is written back.
        wpq = timing.wpq
        wpq_completions = wpq._completions
        wpq_pop = wpq_completions.popleft
        wpq_push = wpq_completions.append
        wpq_capacity = wpq.capacity
        wpq_service = wpq.service_ns
        wpq_single_port = wpq.ports == 1
        port_free = wpq._port_free_ns[0] if wpq_single_port else 0.0
        occ_hist = wpq._occupancy_hist
        # occupancy is observed pre-insert, so values stay <= capacity
        occ_acc = [0] * (wpq_capacity + 1) if occ_hist is not None else None
        wpq_full_stalls = 0

        # ---------------- bindings: CPU hierarchy ----------------
        cpu_caches = machine.hierarchy._levels
        ncpu = len(cpu_caches)
        lvl_sets = [cache._sets for cache in cpu_caches]
        lvl_nsets = [cache.num_sets for cache in cpu_caches]
        lvl_ways = [cache.ways for cache in cpu_caches]
        lvl_pins = [cache._pinned for cache in cpu_caches]

        # ---------------- bindings: controller ----------------
        ctrl = machine.controller
        geo = ctrl.geometry
        arity = geo.arity
        num_data_lines = geo.num_data_lines
        level_offsets = geo._level_offsets
        num_levels = geo.num_levels
        top_level = geo.top_level
        meta = ctrl.meta_cache
        msets = meta._sets
        mnum_sets = meta.num_sets
        mways = meta.ways
        mpinned = meta._pinned
        meta_gauge = meta._resident_gauge
        meta_res_peak = meta._resident
        root = ctrl.registers.sit_root
        flush_threshold = ctrl._flush_threshold
        persist_hist = ctrl._persist_level_hist
        cascade_hist = ctrl._cascade_hist
        persist_acc = (
            [0] * (num_levels + 1) if persist_hist is not None else None
        )
        cascade_acc: dict = {}

        # ---------------- bindings: crypto ----------------
        auth = ctrl.auth
        node_mac = auth.node_mac
        data_mac = auth.data_mac
        one_time_pad = ctrl.cme.one_time_pad
        # frozen-image construction bypasses the dataclass __init__ +
        # __post_init__ pair: every field below is valid by construction
        # (counters are width-checked at increment, MACs and LSBs are
        # masked), so the validation would re-prove known facts ~1100
        # times per 300-op cell
        obj_new = object.__new__
        obj_set = object.__setattr__

        # ---------------- bindings: NVM ----------------
        nvm = ctrl.nvm
        nvm_data = nvm._data
        nvm_meta = nvm._meta
        wear = nvm.wear
        c_dr, c_dw = nvm._c_data_reads, nvm._c_data_writes
        c_mr, c_mw = nvm._c_meta_reads, nvm._c_meta_writes
        c_rr, c_rw = nvm._c_ra_reads, nvm._c_ra_writes
        c_sr, c_sw = nvm._c_st_reads, nvm._c_st_writes
        zero_image = NodeImage.zero()
        data_lines_grew = meta_lines_grew = False

        # running totals so each charge point reads the counters once
        last_r = c_dr.value + c_mr.value + c_rr.value + c_sr.value
        last_w = c_dw.value + c_mw.value + c_rw.value + c_sw.value

        # ---------------- bindings: stats / telemetry ----------------
        stats = machine.stats
        gauge_set = stats.gauge_set  # no-op when telemetry is off
        registry = stats.registry
        # stats.event is the instance attribute the flight recorder
        # rebinds when it arms the event log on a dark machine; honoring
        # a rebinding (and the disabled-registry no-op) here keeps that
        # contract while skipping the facade hop on the default path
        emit = stats.__dict__.get("event")
        if emit is None:
            emit = registry.events.emit

        # ---------------- bindings: scheme hooks ----------------
        scheme = ctrl.scheme
        hook_dirty = _overridden(scheme, "on_dirty_transition")
        hook_parent = _overridden(scheme, "on_parent_modified")
        hook_data_persist = _overridden(scheme, "on_data_persist")
        hook_meta_persist = _overridden(scheme, "on_metadata_persist")
        hook_after_write = _overridden(scheme, "after_data_write")
        hook_install = _overridden(scheme, "on_cache_install")
        hook_evict = _overridden(scheme, "on_cache_evict")
        # Run preaggregation assumes nothing outside the fused write
        # path touches the metadata cache between two writes of a run.
        # A scheme whose hooks reach back into the controller (Phoenix's
        # periodic persist, strict's branch write-through) breaks that
        # assumption, so runs stay off for it — every write then takes
        # the full, always-correct path.
        runs_allowed = hook_after_write is None and (
            hook_parent is None
            or getattr(type(scheme), "parent_hook_is_cache_neutral", False)
        )

        # hot counters: accumulate locally, flush once (only if > 0, so
        # the set of created counters matches the scalar run)
        meta_hits = meta_misses = verifications = 0
        data_reads_c = data_writes_c = 0
        force_flushes = meta_evictions = meta_persists = 0
        root_child_persists = 0
        cpu_read_hits = cpu_read_misses = 0
        cpu_write_hits = cpu_write_misses = cpu_llc_wb = 0
        sit_level_acc: dict = {}

        # ---------------- fused controller ops ----------------

        def charge() -> None:
            """Apply the op's NVM traffic to the timing model.

            Reads lump into one stall; each write runs the inlined WPQ
            enqueue, advancing ``now`` exactly like the scalar
            ``TimingModel.memory_writes`` loop.
            """
            nonlocal now, read_stall, write_stall, last_r, last_w
            nonlocal port_free, wpq_full_stalls
            r = c_dr.value + c_mr.value + c_rr.value + c_sr.value
            delta = r - last_r
            if delta:
                last_r = r
                stall = delta * read_lat
                read_stall += stall
                now += stall
            w = c_dw.value + c_mw.value + c_rw.value + c_sw.value
            delta = w - last_w
            if delta:
                last_w = w
                while delta:
                    delta -= 1
                    while wpq_completions and wpq_completions[0] <= now:
                        wpq_pop()
                    depth = len(wpq_completions)
                    if occ_acc is not None:
                        occ_acc[depth] += 1
                    if depth >= wpq_capacity:
                        wpq_full_stalls += 1
                        stall = wpq_completions[0] - now
                        write_stall += stall
                        now += stall
                        while wpq_completions and \
                                wpq_completions[0] <= now:
                            wpq_pop()
                    if wpq_single_port:
                        start = now if now > port_free else port_free
                        port_free = start + wpq_service
                        wpq_push(port_free)
                    else:  # pragma: no cover - multi-bank configs
                        free = wpq._port_free_ns
                        port = min(range(len(free)),
                                   key=free.__getitem__)
                        start = now if now > free[port] else free[port]
                        free[port] = start + wpq_service
                        wpq_push(free[port])

        def spill(from_level: int, addr: int,
                  wb_list: Optional[List[int]]) -> None:
            """Push an evicted CPU line toward memory (dirty only)."""
            nonlocal cpu_llc_wb
            index = from_level + 1
            if index >= ncpu:
                cpu_llc_wb += 1
                if wb_list is not None:
                    wb_list.append(addr)
                return
            bucket = lvl_sets[index][addr % lvl_nsets[index]]
            line = bucket.get(addr)
            if line is not None:
                line.dirty = True
                return
            if len(bucket) >= lvl_ways[index]:
                victim = next(iter(bucket.values()))
                del bucket[victim.addr]
                cpu_caches[index]._resident -= 1
                if victim.dirty:
                    spill(index, victim.addr, wb_list)
            bucket[addr] = CacheLine(addr, None, True)
            cpu_caches[index]._resident += 1

        def fill_through(addr: int, upto: int,
                         wb_list: Optional[List[int]]) -> None:
            """Install ``addr`` clean into CPU levels [0, upto)."""
            stop = upto if upto < ncpu else ncpu
            for index in range(stop):
                bucket = lvl_sets[index][addr % lvl_nsets[index]]
                line = bucket.get(addr)
                if line is not None:
                    bucket.move_to_end(addr)
                    continue
                if len(bucket) >= lvl_ways[index]:
                    victim = None
                    pinned = lvl_pins[index]
                    for cand in bucket.values():
                        if cand.addr not in pinned:
                            victim = cand
                            break
                    if victim is None:
                        raise EvictionDeadlock(
                            "%s: all %d ways of set %d are pinned"
                            % (cpu_caches[index].name, lvl_ways[index],
                               addr % lvl_nsets[index])
                        )
                    del bucket[victim.addr]
                    cpu_caches[index]._resident -= 1
                    if victim.dirty:
                        spill(index, victim.addr, wb_list)
                bucket[addr] = CacheLine(addr, None, False)
                cpu_caches[index]._resident += 1

        def get_node(level: int, index: int, pins: List[int]):
            """Fused ``SecureMemoryController._get_node``."""
            nonlocal meta_hits, meta_misses, verifications
            addr = level_offsets[level] + index
            bucket = msets[addr % mnum_sets]
            line = bucket.get(addr)
            if line is not None:
                bucket.move_to_end(addr)
                meta_hits += 1
                return line.payload
            meta_misses += 1
            c_mr.value += 1
            image = nvm_meta.get(addr)
            touched = image is not None
            if not touched:
                image = zero_image
            if level == top_level:
                parent_counter = root.counters[index]
            else:
                parent = get_node(level + 1, index // arity, pins)
                parent_counter = parent.counters[index % arity]
            # the parent fetch can cascade and install this very node
            line = bucket.get(addr)
            if line is not None:
                bucket.move_to_end(addr)
                return line.payload
            if touched:
                verifications += 1
                counters = image.counters
                lsbs = image.lsbs
                if node_mac((level, index), counters, parent_counter,
                            lsbs) != image.mac:
                    raise IntegrityError(
                        "MAC mismatch fetching metadata node %r"
                        % ((level, index),)
                    )
            elif parent_counter != 0:
                raise IntegrityError(
                    "metadata node %r was persisted %d times but its NVM "
                    "line is missing" % ((level, index), parent_counter)
                )
            # CachedNode.from_image minus the arity re-check: the image
            # came from write_image (or is the zero singleton), so its
            # counter tuple already has the right width
            cached = obj_new(CachedNode)
            cached.counters = list(image.counters)
            cached.persisted_counters = list(image.counters)
            # fused _install: evict until the set has room
            while True:
                line = bucket.get(addr)
                if line is not None:
                    return line.payload
                if len(bucket) < mways:
                    break
                victim = None
                for cand in bucket.values():
                    if cand.addr not in mpinned:
                        victim = cand
                        break
                if victim is None:
                    raise EvictionDeadlock(
                        "%s: all %d ways of set %d are pinned"
                        % (meta.name, mways, addr % mnum_sets)
                    )
                evict_line(victim, pins)
            bucket[addr] = CacheLine(addr, cached, False)
            resident = meta._resident + 1
            meta._resident = resident
            nonlocal meta_res_peak
            if resident > meta_res_peak:
                meta_res_peak = resident
            if hook_install is not None:
                hook_install(addr)
            return cached

        def evict_line(victim, pins: List[int]) -> None:
            """Fused ``_evict_line`` (scoped pin while persisting)."""
            nonlocal meta_evictions
            meta_evictions += 1
            vaddr = victim.addr
            emit("meta_evict", addr=vaddr, dirty=victim.dirty)
            if victim.dirty:
                mpinned[vaddr] = mpinned.get(vaddr, 0) + 1
                try:
                    for level in range(num_levels):
                        if vaddr < level_offsets[level + 1]:
                            persist_node(level,
                                         vaddr - level_offsets[level],
                                         victim.payload, pins)
                            break
                finally:
                    count = mpinned.get(vaddr, 0)
                    if count <= 1:
                        mpinned.pop(vaddr, None)
                    else:
                        mpinned[vaddr] = count - 1
            bucket = msets[vaddr % mnum_sets]
            del bucket[vaddr]
            meta._resident -= 1
            if hook_evict is not None:
                hook_evict(vaddr)

        def write_image(level: int, index: int, cached,
                        parent_counter: int) -> None:
            """Fused ``_write_node_image``: mint, write, mark clean."""
            nonlocal meta_persists, meta_lines_grew
            addr = level_offsets[level] + index
            lsbs = parent_counter & _LSB_MASK
            counters = tuple(cached.counters)
            mac = node_mac((level, index), counters, parent_counter, lsbs)
            image = obj_new(NodeImage)
            obj_set(image, "counters", counters)
            obj_set(image, "mac", mac)
            obj_set(image, "lsbs", lsbs)
            c_mw.value += 1
            key = ("meta", addr)
            wear[key] = wear.get(key, 0) + 1
            if addr not in nvm_meta:
                meta_lines_grew = True
            nvm_meta[addr] = image
            cached.persisted_counters = list(counters)
            meta_persists += 1
            sit_level_acc[level] = sit_level_acc.get(level, 0) + 1
            if persist_acc is not None:
                persist_acc[level] += 1
            if hook_meta_persist is not None:
                hook_meta_persist((level, index), image)
            line = msets[addr % mnum_sets].get(addr)
            if line is not None and line.dirty:
                line.dirty = False
                if hook_dirty is not None:
                    hook_dirty(addr, False)

        def persist_node(level: int, index: int, cached,
                         pins: List[int]) -> None:
            """Fused ``_persist_node`` (+ ``_persist_node_inner``).

            Cascade depth tracks through the controller's own attributes
            so scheme hooks that re-enter the scalar persist path (e.g.
            Phoenix's periodic persist) keep nesting into the same
            histogram observation, exactly as in a scalar replay.
            """
            nonlocal force_flushes, root_child_persists
            ctrl._cascade_depth += 1
            if ctrl._cascade_depth > ctrl._cascade_peak:
                ctrl._cascade_peak = ctrl._cascade_depth
            try:
                if level == top_level:
                    root.increment(index)
                    root_child_persists += 1
                    if hook_parent is not None:
                        hook_parent(None, root, index)
                    write_image(level, index, cached, root.counters[index])
                    return
                plevel = level + 1
                pindex = index // arity
                parent = get_node(plevel, pindex, pins)
                parent_addr = level_offsets[plevel] + pindex
                mpinned[parent_addr] = mpinned.get(parent_addr, 0) + 1
                try:
                    slot = index % arity
                    pcounters = parent.counters
                    value = pcounters[slot] + 1
                    if value >= _COUNTER_LIMIT:
                        check_width(value, COUNTER_BITS, "counter")
                    pcounters[slot] = value
                    pline = msets[parent_addr % mnum_sets].get(parent_addr)
                    if pline is None:
                        raise KeyError(
                            "%s: line %d not resident"
                            % (meta.name, parent_addr)
                        )
                    if not pline.dirty:
                        pline.dirty = True
                        if hook_dirty is not None:
                            hook_dirty(parent_addr, True)
                    if hook_parent is not None:
                        hook_parent((plevel, pindex), parent, slot)
                    write_image(level, index, cached, value)
                    if (value - parent.persisted_counters[slot]
                            >= flush_threshold):
                        force_flushes += 1
                        emit("force_flush", level=plevel,
                             index=pindex, slot=slot)
                        persist_node(plevel, pindex, parent, pins)
                finally:
                    count = mpinned.get(parent_addr, 0)
                    if count <= 1:
                        mpinned.pop(parent_addr, None)
                    else:
                        mpinned[parent_addr] = count - 1
            finally:
                depth = ctrl._cascade_depth - 1
                ctrl._cascade_depth = depth
                if depth == 0:
                    peak = ctrl._cascade_peak
                    if cascade_hist is not None:
                        cascade_acc[peak] = cascade_acc.get(peak, 0) + 1
                    ctrl._cascade_peak = 0

        def unpin_all(pins: List[int]) -> None:
            for addr in pins:
                count = mpinned.get(addr, 0)
                if count <= 1:
                    mpinned.pop(addr, None)
                else:
                    mpinned[addr] = count - 1
            pins.clear()

        def make_data_image(addr: int, counter: int) -> DataLineImage:
            """Encrypt + data-MAC mint for a zeroed line.

            XORing the pad with an all-zero plaintext returns the pad
            itself, so the scalar ``cme.encrypt`` round-trip through
            int conversion is skipped; the bytes are identical.
            """
            ciphertext = one_time_pad(addr, counter)
            lsbs = counter & _LSB_MASK
            mac = data_mac(addr, ciphertext, counter, lsbs)
            image = obj_new(DataLineImage)
            obj_set(image, "ciphertext", ciphertext)
            obj_set(image, "mac", mac)
            obj_set(image, "lsbs", lsbs)
            return image

        def write_data(addr: int, cb: int, slot: int):
            """Fused ``SecureMemoryController.write_data``.

            Returns the counter block's :class:`CachedNode` when the
            write left it resident, dirty and MRU with no cascade (the
            precondition for continuing a same-line run), else ``None``.
            """
            nonlocal data_writes_c, force_flushes, data_lines_grew
            if not 0 <= addr < num_data_lines:
                raise ValueError("data line %d out of range" % addr)
            pins: List[int] = []
            try:
                block = get_node(0, cb, pins)
                mpinned[cb] = mpinned.get(cb, 0) + 1
                pins.append(cb)
                counters = block.counters
                counter = counters[slot] + 1
                if counter >= _COUNTER_LIMIT:
                    check_width(counter, COUNTER_BITS, "counter")
                counters[slot] = counter
                line = msets[cb % mnum_sets].get(cb)
                if not line.dirty:
                    line.dirty = True
                    if hook_dirty is not None:
                        hook_dirty(cb, True)
                if hook_parent is not None:
                    hook_parent((0, cb), block, slot)
                image = make_data_image(addr, counter)
                c_dw.value += 1
                key = ("data", addr)
                wear[key] = wear.get(key, 0) + 1
                if addr not in nvm_data:
                    data_lines_grew = True
                nvm_data[addr] = image
                data_writes_c += 1
                if hook_data_persist is not None:
                    hook_data_persist(addr, image)
                if counter - block.persisted_counters[slot] \
                        >= flush_threshold:
                    force_flushes += 1
                    emit("force_flush", level=0, index=cb, slot=slot)
                    persist_node(0, cb, block, pins)
                    block = None  # the flush reordered the cache: no run
                if hook_after_write is not None:
                    hook_after_write(addr, (0, cb))
                return block
            finally:
                unpin_all(pins)

        def read_data(addr: int) -> None:
            """Fused ``SecureMemoryController.read_data``.

            The decrypt of the scalar path is pure pad derivation whose
            output the machine discards; everything observable (stats,
            NVM traffic, verification, cache movement) is identical.
            """
            nonlocal data_reads_c
            pins: List[int] = []
            try:
                # scalar order: the read counts (and reads NVM) before
                # the address is validated by counter_block_for
                data_reads_c += 1
                c_dr.value += 1
                image = nvm_data.get(addr)
                if not 0 <= addr < num_data_lines:
                    raise ValueError("data line %d out of range" % addr)
                block = get_node(0, addr // arity, pins)
                counter = block.counters[addr % arity]
                if image is None:
                    if counter != 0:
                        raise IntegrityError(
                            "data line %d has a non-zero counter but no "
                            "NVM content" % addr
                        )
                    return
                ciphertext = image.ciphertext
                lsbs = image.lsbs
                if data_mac(addr, ciphertext, counter, lsbs) != image.mac:
                    raise IntegrityError(
                        "MAC mismatch reading data line %d" % addr
                    )
            finally:
                unpin_all(pins)

        # ---------------- the epoch loop ----------------
        epoch_size = self.epoch_size
        ops = list(ops)
        total = len(ops)
        # run state survives epoch boundaries: _decode's same-run mask
        # for an epoch's first op is computed against prev_write_cb
        prev_write_cb = -1
        run_block = None
        # the loop allocates heavily (images, lines, tuples) and keeps
        # no cycles worth collecting mid-run; suspending the cyclic GC
        # avoids threshold collections triggered by that churn
        gc_was_enabled = _gc.isenabled()
        if gc_was_enabled:
            _gc.disable()
        try:
            for start in range(0, total, epoch_size):
                chunk = ops[start:start + epoch_size]
                kinds, addrs, gaps, pers, cbs, slots, same_run = (
                    self._decode(chunk, arity, prev_write_cb)
                )
                for i, kind in enumerate(kinds):
                    gap = gaps[i]
                    instructions += gap
                    now += gap * base_cpi * cycle_ns
                    if kind == _PERSIST:
                        # inlined WPQ drain_time + sfence
                        while wpq_completions and \
                                wpq_completions[0] <= now:
                            wpq_pop()
                        if wpq_completions:
                            stall = wpq_completions[-1] - now
                            barrier_stall += stall
                            now += stall
                        now += sfence
                        run_block = None
                        prev_write_cb = -1
                        continue
                    addr = addrs[i]
                    # ---- run fast path: same counter block, no
                    # cache-visible event since the previous write ----
                    if run_block is not None and same_run[i]:
                        # CPU probe still runs (hit bookkeeping + LRU)
                        hit_level = -1
                        for li in range(ncpu):
                            bucket = lvl_sets[li][addr % lvl_nsets[li]]
                            line = bucket.get(addr)
                            if line is not None:
                                bucket.move_to_end(addr)
                                hit_level = li
                                break
                        if hit_level >= 0:
                            cpu_write_hits += 1
                        else:
                            cpu_write_misses += 1
                        wb: List[int] = []
                        fill_through(
                            addr,
                            hit_level if hit_level >= 0 else ncpu,
                            wb,
                        )
                        for li in range(ncpu):
                            line = lvl_sets[li][
                                addr % lvl_nsets[li]].get(addr)
                            if line is not None:
                                line.dirty = False
                        if hit_level >= 0:
                            now += hit_lat[
                                hit_level if hit_level < hit_top
                                else hit_top
                            ]
                        block = run_block
                        meta_hits += 1
                        counters = block.counters
                        slot = slots[i]
                        counter = counters[slot] + 1
                        if counter >= _COUNTER_LIMIT:
                            check_width(counter, COUNTER_BITS, "counter")
                        counters[slot] = counter
                        if hook_parent is not None:
                            hook_parent((0, cbs[i]), block, slot)
                        image = make_data_image(addr, counter)
                        c_dw.value += 1
                        key = ("data", addr)
                        wear[key] = wear.get(key, 0) + 1
                        if addr not in nvm_data:
                            data_lines_grew = True
                        nvm_data[addr] = image
                        data_writes_c += 1
                        if hook_data_persist is not None:
                            hook_data_persist(addr, image)
                        if counter - block.persisted_counters[slot] \
                                >= flush_threshold:
                            force_flushes += 1
                            cb = cbs[i]
                            emit("force_flush", level=0, index=cb,
                                 slot=slot)
                            pins: List[int] = []
                            mpinned[cb] = mpinned.get(cb, 0) + 1
                            pins.append(cb)
                            try:
                                persist_node(0, cb, block, pins)
                            finally:
                                unpin_all(pins)
                            run_block = None
                        charge()
                        if wb:
                            run_block = None
                            prev_write_cb = -1
                            for line_addr in wb:
                                write_data(
                                    line_addr, line_addr // arity,
                                    line_addr % arity,
                                )
                                charge()
                        if run_block is None:
                            prev_write_cb = -1
                        continue
                    # ---- CPU hierarchy probe (touch on hit) ----
                    hit_level = -1
                    for li in range(ncpu):
                        bucket = lvl_sets[li][addr % lvl_nsets[li]]
                        line = bucket.get(addr)
                        if line is not None:
                            bucket.move_to_end(addr)
                            hit_level = li
                            break
                    if kind == _READ:
                        run_block = None
                        prev_write_cb = -1
                        if hit_level >= 0:
                            cpu_read_hits += 1
                            fill_through(addr, hit_level, None)
                            now += hit_lat[
                                hit_level if hit_level < hit_top
                                else hit_top
                            ]
                            continue
                        cpu_read_misses += 1
                        wb = []
                        fill_through(addr, ncpu, wb)
                        read_data(addr)
                        charge()
                    elif pers[i]:
                        # ---- persistent write (full path) ----
                        if hit_level >= 0:
                            cpu_write_hits += 1
                        else:
                            cpu_write_misses += 1
                        wb = []
                        fill_through(
                            addr, hit_level if hit_level >= 0 else ncpu,
                            wb,
                        )
                        for li in range(ncpu):
                            line = lvl_sets[li][
                                addr % lvl_nsets[li]].get(addr)
                            if line is not None:
                                line.dirty = False
                        if hit_level >= 0:
                            now += hit_lat[
                                hit_level if hit_level < hit_top
                                else hit_top
                            ]
                        cb = cbs[i]
                        run_block = write_data(addr, cb, slots[i])
                        if not runs_allowed:
                            run_block = None
                        charge()
                        if wb:
                            run_block = None
                        elif run_block is not None:
                            prev_write_cb = cb
                    else:
                        # ---- scratch write ----
                        run_block = None
                        if hit_level >= 0:
                            cpu_write_hits += 1
                        else:
                            cpu_write_misses += 1
                        wb = []
                        if hit_level < 0:
                            fill_through(addr, ncpu, wb)
                        else:
                            fill_through(addr, hit_level, wb)
                        l1_line = lvl_sets[0][addr % lvl_nsets[0]].get(
                            addr
                        )
                        l1_line.dirty = True
                        if hit_level >= 0:
                            now += hit_lat[
                                hit_level if hit_level < hit_top
                                else hit_top
                            ]
                        if hit_level < 0:
                            # scratch miss: one fill from memory
                            read_data(addr)
                            charge()
                    # ---- service collected write-backs ----
                    if wb:
                        run_block = None
                        prev_write_cb = -1
                        for line_addr in wb:
                            write_data(
                                line_addr, line_addr // arity,
                                line_addr % arity,
                            )
                            charge()
                    if run_block is None:
                        prev_write_cb = -1
        finally:
            if gc_was_enabled:
                _gc.enable()
            # ---- flush accumulated counters (created only if > 0) ----
            add = stats.add
            if meta_hits:
                add("meta_cache.hits", meta_hits)
            if meta_misses:
                add("meta_cache.misses", meta_misses)
            if verifications:
                add("ctrl.verifications", verifications)
            if data_reads_c:
                add("ctrl.data_reads", data_reads_c)
            if data_writes_c:
                add("ctrl.data_writes", data_writes_c)
            if force_flushes:
                add("ctrl.force_flushes", force_flushes)
            if meta_evictions:
                add("ctrl.meta_evictions", meta_evictions)
            if meta_persists:
                add("ctrl.meta_persists", meta_persists)
            if root_child_persists:
                add("ctrl.root_child_persists", root_child_persists)
            if cpu_read_hits:
                add("cpu.read_hits", cpu_read_hits)
            if cpu_read_misses:
                add("cpu.read_misses", cpu_read_misses)
            if cpu_write_hits:
                add("cpu.write_hits", cpu_write_hits)
            if cpu_write_misses:
                add("cpu.write_misses", cpu_write_misses)
            if cpu_llc_wb:
                add("cpu.llc_writebacks", cpu_llc_wb)
            if wpq_full_stalls:
                add("wpq.full_stalls", wpq_full_stalls)
            sit_counters = ctrl._sit_level_writes
            for level in sorted(sit_level_acc):
                counter = sit_counters.get(level)
                if counter is None:
                    counter = sit_counters[level] = registry.counter(
                        "sit.level%d.writes" % level
                    )
                counter.value += sit_level_acc[level]
            # ---- flush deferred distributions / gauges ----
            if occ_acc is not None:
                _flush_int_histogram(occ_hist, occ_acc)
            if persist_acc is not None:
                _flush_int_histogram(persist_hist, persist_acc)
            if cascade_hist is not None:
                for peak in cascade_acc:
                    n = cascade_acc[peak]
                    cascade_hist.count += n
                    cascade_hist.total += peak * n
                    if cascade_hist.min is None \
                            or peak < cascade_hist.min:
                        cascade_hist.min = peak
                    if cascade_hist.max is None \
                            or peak > cascade_hist.max:
                        cascade_hist.max = peak
                    exponent = (peak - 1).bit_length()
                    cascade_hist._buckets[exponent] = (
                        cascade_hist._buckets.get(exponent, 0) + n
                    )
            if meta_gauge is not None:
                meta_gauge.value = meta._resident
                if meta_res_peak > meta_gauge.high:
                    meta_gauge.high = meta_res_peak
            if data_lines_grew:
                gauge_set("nvm.data_lines_touched", len(nvm_data))
            if meta_lines_grew:
                gauge_set("nvm.meta_lines_touched", len(nvm_meta))
            # ---- write timing / WPQ clocks back ----
            if wpq_single_port:
                wpq._port_free_ns[0] = port_free
            wpq._clock_ns = now
            timing.now_ns = now
            timing.instructions = instructions
            timing.read_stall_ns = read_stall
            timing.write_stall_ns = write_stall
            timing.barrier_stall_ns = barrier_stall


def run_batched(machine, ops: Sequence[Op],
                epoch_size: int = DEFAULT_EPOCH) -> bool:
    """Replay ``ops`` on ``machine`` via the epoch engine if eligible.

    Returns ``True`` when the batched replay ran; ``False`` tells the
    caller to take the scalar path (the machine uses device timing, a
    sanitizer, a profiler, or NVM tracing).
    """
    if not eligible(machine):
        return False
    EpochEngine(machine, epoch_size).run(ops)
    return True
