"""The full simulated machine.

Wires a workload trace through the CPU cache hierarchy into the secure
memory controller, accumulates timing/energy, and implements the crash /
recovery lifecycle:

* :meth:`Machine.run` replays trace ops,
* :meth:`Machine.crash` models a power failure: the cache-tree root is
  latched into the on-chip register (in hardware it is maintained there
  continuously), the scheme performs its ADR battery flush, all volatile
  state is dropped, and an oracle snapshot of the dirty metadata is kept
  for test verification,
* :meth:`Machine.recover` invokes the scheme's recovery procedure with a
  fresh stat namespace so recovery traffic is reported separately, and
  prices that traffic on the report (:func:`~repro.schemes.base
  .measure_recovery`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple, Union

from repro.config import SystemConfig
from repro.errors import RecoveryError, VerificationError
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.nvm import NVM
from repro.schemes.base import (
    PersistenceScheme,
    RecoveryReport,
    measure_recovery,
)
from repro.sim.controller import SecureMemoryController
from repro.sim.energy import energy_from_stats
from repro.sim.registers import OnChipRegisters
from repro.sim.results import RunResult
from repro.sim.timing import TimingModel
from repro.util.stats import Stats
from repro.workloads.trace import Op, OpKind


class Machine:
    """A secure-NVM system under one persistence scheme."""

    def __init__(self, config: SystemConfig,
                 scheme: Union[str, PersistenceScheme] = "star",
                 registers: Optional[OnChipRegisters] = None,
                 nvm: Optional[NVM] = None,
                 telemetry: bool = True,
                 sanitize: bool = False,
                 profile: bool = False,
                 batch: Union[bool, int, None] = None) -> None:
        """``registers`` and ``nvm`` allow booting a machine on state
        that survived a crash (the reboot-after-recovery scenario).
        ``telemetry=False`` turns off histograms/spans/events (counters
        always count) for overhead-sensitive sweeps. ``sanitize=True``
        installs the runtime write sanitizers (``repro.sim.sanitize``);
        ``profile=True`` installs the deterministic phase profiler
        (``repro.obs.profile``); both off by default, so hot paths
        stay unwrapped. ``batch`` opts :meth:`run` into the fused epoch
        pipeline (``repro.sim.batch``): ``True`` uses the default epoch
        size, an int sets it; bit-identical to the scalar path, and
        machines the engine cannot serve (device timing, sanitizer,
        profiler, NVM tracing) silently fall back to scalar replay."""
        self.config = config
        self.stats = Stats(enabled=telemetry)
        self.recovery_stats: Optional[Stats] = None
        if nvm is None:
            self.nvm = NVM(self.stats)
        else:
            self.nvm = nvm
            self.nvm.stats = self.stats
        self.registers = registers if registers is not None \
            else OnChipRegisters()
        if isinstance(scheme, str):
            # imported here to break the schemes -> core -> sim cycle
            from repro.schemes import make_scheme
            scheme = make_scheme(scheme)
        self.scheme = scheme
        self.controller = SecureMemoryController(
            config, self.nvm, scheme, self.registers, self.stats
        )
        levels = [
            cache for cache in (config.l1, config.l2, config.llc)
            if cache is not None
        ]
        self.hierarchy = CacheHierarchy(levels, self.stats)
        device = None
        if config.device_timing:
            from repro.mem.device import PCMDevice

            device = PCMDevice(
                config.nvm, config.device_banks, config.device_row_lines
            )
            self._region_bases = self._build_region_bases()
        self.timing = TimingModel(
            config.cpu, config.nvm, device=device, stats=self.stats
        )
        self.crashed = False
        self.pre_crash_dirty: Dict[int, Tuple[int, ...]] = {}
        self._dirty_fraction_at_crash: Optional[float] = None
        self.sanitizer = None
        if sanitize:
            # imported lazily: the sanitizer is diagnostics, not hot path
            from repro.sim.sanitize import install_sanitizers

            self.sanitizer = install_sanitizers(self)
        self.profiler = None
        if profile:
            # same opt-in wrap-on-install pattern as the sanitizer
            from repro.obs.profile import install_profiler

            self.profiler = install_profiler(self)
        if batch is not None and batch is not False and batch is not True:
            if not isinstance(batch, int) or batch < 1:
                raise ValueError("batch must be True or an epoch size >= 1")
        self.batch = batch

    # ==================================================================
    # running traces
    # ==================================================================
    def run(self, ops: Iterable[Op]) -> None:
        """Replay a trace through the machine.

        With ``batch`` set, the fused epoch pipeline replays the trace
        (falling back to the scalar per-op loop when the machine is
        ineligible); otherwise every op goes through :meth:`apply`.
        """
        batch = self.batch
        if batch:
            from repro.sim.batch import DEFAULT_EPOCH, run_batched

            epoch = DEFAULT_EPOCH if batch is True else batch
            if run_batched(self, ops, epoch):
                return
        for op in ops:
            self.apply(op)

    def apply(self, op: Op) -> None:
        if self.crashed:
            raise RecoveryError("machine has crashed; recover first")
        self.timing.advance_instructions(op.instructions)
        if op.kind is OpKind.PERSIST:
            self.timing.persist_barrier()
            return
        if op.kind is OpKind.READ:
            self._apply_read(op.addr)
        else:
            self._apply_write(op.addr, op.persistent)

    def _apply_read(self, addr: int) -> None:
        event = self.hierarchy.access(addr, is_write=False)
        if event.hit_level is not None:
            self.timing.cache_hit(event.hit_level)
        else:
            self._charged(self.controller.read_data, addr)
        self._service_writebacks(event.writebacks)

    def _apply_write(self, addr: int, persistent: bool) -> None:
        event = self.hierarchy.access(
            addr, is_write=True, persistent=persistent
        )
        if event.hit_level is not None:
            self.timing.cache_hit(event.hit_level)
        if event.fills:
            self._charged(self.controller.read_data, addr)
        for line in event.persists:
            self._charged(self.controller.write_data, line)
        self._service_writebacks(event.writebacks)

    def _service_writebacks(self, lines) -> None:
        for line in lines:
            self._charged(self.controller.write_data, line)

    def _charged(self, operation, addr: int) -> None:
        """Run a controller operation and charge its NVM traffic."""
        if self.timing.device is not None:
            self._charged_via_device(operation, addr)
            return
        reads_before = self.nvm.total_reads()
        writes_before = self.nvm.total_writes()
        operation(addr)
        self.timing.memory_reads(self.nvm.total_reads() - reads_before)
        self.timing.memory_writes(self.nvm.total_writes() - writes_before)

    # ------------------------------------------------------------------
    # bank-level device timing (opt-in, config.device_timing)
    # ------------------------------------------------------------------
    def _charged_via_device(self, operation, addr: int) -> None:
        """Route every NVM access's address through the PCM device."""
        self.nvm.trace = []
        try:
            operation(addr)
            events = self.nvm.trace
        finally:
            self.nvm.trace = None
        for op, region, key in events:
            line = self._physical_line(region, key)
            if op == "r":
                self.timing.device_read(line)
            else:
                self.timing.device_write(line)

    def _build_region_bases(self):
        """Disjoint physical ranges for the four NVM regions."""
        layout = self.controller.layout
        meta_base = layout.num_data_lines
        ra_base = meta_base + layout.total_meta_lines
        layer_offsets = [0]
        for count in layout.index_layers:
            layer_offsets.append(layer_offsets[-1] + count)
        st_base = ra_base + layer_offsets[-1]
        return {
            "meta": meta_base,
            "ra": ra_base,
            "ra_layers": layer_offsets,
            "st": st_base,
        }

    def _physical_line(self, region: str, key) -> int:
        bases = self._region_bases
        if region == "data":
            return key
        if region == "meta":
            return bases["meta"] + key
        if region == "ra":
            layer, index = key
            return bases["ra"] + bases["ra_layers"][layer - 1] + index
        return bases["st"] + key

    # ==================================================================
    # crash / recovery lifecycle
    # ==================================================================
    def crash(self) -> None:
        """Power failure: drop volatile state, keep NVM + registers.

        The cache-tree root register is latched from the current dirty
        cache population — in hardware it is maintained incrementally and
        holds exactly this value at the instant of the crash.
        """
        if self.crashed:
            raise RecoveryError("machine already crashed")
        self.registers.cache_tree_root = (
            self.controller.compute_cache_tree_root()
        )
        self.scheme.on_crash()
        self.pre_crash_dirty = {
            line.addr: tuple(line.payload.counters)
            for line in self.controller.meta_cache.dirty_lines()
        }
        self._dirty_fraction_at_crash = self.controller.dirty_fraction()
        self.stats.event(
            "crash",
            dirty_lines=len(self.pre_crash_dirty),
            dirty_fraction=round(self._dirty_fraction_at_crash, 4),
        )
        self.controller.meta_cache.clear()
        self.hierarchy.drop()
        self.timing.wpq.reset()
        self.crashed = True

    def recover(self, raise_on_failure: bool = False) -> RecoveryReport:
        """Run the scheme's recovery; traffic lands in a fresh Stats
        and is priced on the returned report."""
        if not self.crashed:
            raise RecoveryError("recover called without a crash")
        recovery_stats = Stats(enabled=self.stats.enabled)
        run_events = self.stats.registry.events
        if run_events.enabled and not recovery_stats.enabled:
            # the flight recorder armed the event log on an otherwise
            # dark machine; keep recording through recovery
            from repro.obs.flight import arm_flight_recorder

            arm_flight_recorder(recovery_stats)
        # keep the run's JSONL trail complete: recovery events stream
        # into the same sink (the run log still owns and closes it)
        run_sink = self.stats.registry.events.sink
        if run_sink is not None:
            recovery_stats.registry.events.attach_sink(run_sink)
        saved = self.nvm.stats
        self.nvm.stats = recovery_stats
        try:
            report = measure_recovery(
                lambda: self.scheme.recover(self), self.nvm,
                self.config.recovery_line_access_ns,
            )
        finally:
            self.nvm.stats = saved
        self.recovery_stats = recovery_stats
        self.crashed = False
        # Re-attach the scheme so its volatile state (Anubis/Phoenix ST
        # slot mirrors, STAR's bitmap manager + ADR residency) restarts
        # from the recovered NVM, exactly as a reboot would rebuild it.
        # Without this, continuing to run on the same Machine leaked
        # shadow-table ways (IndexError after a few crash cycles) and
        # replayed stale ADR bits into the next recovery.
        self.scheme.attach(self.controller)
        if self.sanitizer is not None:
            self.sanitizer.rewire_scheme()
        if raise_on_failure and not report.verified:
            raise VerificationError(
                "recovery verification failed: attack detected"
            )
        return report

    def oracle_check(self, report: RecoveryReport) -> bool:
        """Did recovery restore every pre-crash dirty node exactly?"""
        for line, counters in self.pre_crash_dirty.items():
            if report.restored.get(line) != counters:
                return False
        return True

    # ==================================================================
    # results
    # ==================================================================
    def _adr_hit_ratio(self) -> float:
        """Traffic-free fraction of bitmap-line accesses (Table II).

        Cold misses (first touches, no recovery-area copy to read) cost
        no NVM traffic, so only real ``adr.misses`` count against the
        ratio.
        """
        accesses = self.stats.get("adr.accesses")
        if accesses == 0:
            return 0.0
        return (accesses - self.stats.get("adr.misses")) / accesses

    def result(self, workload: str = "",
               recovery: Optional[RecoveryReport] = None) -> RunResult:
        energy = energy_from_stats(
            self.stats, self.config.nvm, self.timing.now_ns
        )
        extras: dict = {}
        if self.stats.enabled:
            from repro.obs.export import telemetry_snapshot

            telemetry = {"run": telemetry_snapshot(self.stats.registry)}
            if self.recovery_stats is not None:
                telemetry["recovery"] = telemetry_snapshot(
                    self.recovery_stats.registry
                )
            extras["telemetry"] = telemetry
        return RunResult(
            scheme=self.scheme.name,
            workload=workload,
            stats=self.stats.snapshot(),
            instructions=self.timing.instructions,
            cycles=self.timing.cycles,
            ipc=self.timing.ipc,
            energy_read_nj=energy.read_nj,
            energy_write_nj=energy.write_nj,
            energy_static_nj=energy.static_nj,
            dirty_fraction=(
                self._dirty_fraction_at_crash
                if self._dirty_fraction_at_crash is not None
                else self.controller.dirty_fraction()
            ),
            adr_hit_ratio=self._adr_hit_ratio(),
            recovery=recovery,
            extras=extras,
        )
