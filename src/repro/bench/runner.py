"""Experiment driver: run scheme x workload grids and collect results.

Every figure/table reproduction in :mod:`repro.bench.experiments` is a
thin layer over :func:`run_grid`. The default experiment scale is a
1/256-scale machine (64 MB NVM, 64 KB metadata cache — see
:func:`repro.config.sim_config` for the scaling argument); ``scale``
picks smaller/larger grids for quick smoke runs or higher fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from repro.config import SystemConfig, sim_config
from repro.sim.machine import Machine
from repro.sim.results import RunResult
from repro.workloads.registry import ALL_WORKLOADS, make_workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lab.bridge import LabCache

GridKey = Tuple[str, str]
"""(scheme name, workload name)."""


@dataclass(frozen=True)
class BenchScale:
    """One experiment scale: machine size + per-workload op counts."""

    memory_bytes: int
    metadata_cache_bytes: int
    llc_bytes: int
    micro_operations: int
    macro_operations: int

    def operations_for(self, workload: str) -> int:
        if workload in ("tpcc",):
            return self.macro_operations
        return self.micro_operations


SCALES: Dict[str, BenchScale] = {
    "smoke": BenchScale(
        memory_bytes=8 * 1024 ** 2,
        metadata_cache_bytes=4 * 1024,
        llc_bytes=32 * 1024,
        micro_operations=300,
        macro_operations=60,
    ),
    "default": BenchScale(
        memory_bytes=32 * 1024 ** 2,
        metadata_cache_bytes=64 * 1024,
        llc_bytes=64 * 1024,
        micro_operations=1500,
        macro_operations=250,
    ),
    "large": BenchScale(
        memory_bytes=128 * 1024 ** 2,
        metadata_cache_bytes=32 * 1024,
        llc_bytes=256 * 1024,
        micro_operations=6000,
        macro_operations=1000,
    ),
}

PAPER_SCHEMES: List[str] = ["wb", "strict", "anubis", "star"]

DEFAULT_BATCH: Union[bool, int, None] = None
"""Process-wide pipeline default for :func:`run_one`.

``None`` replays through the canonical per-reference loop; ``True`` or
an epoch size opts every run whose caller did not pass ``batch``
explicitly into the batched epoch pipeline (``star-bench --batch`` sets
this). Results are bit-identical either way, so the knob never changes
an experiment's numbers — only how long it takes to produce them.
"""


def set_default_batch(batch: Union[bool, int, None]) -> None:
    """Select the default execution pipeline for this process."""
    global DEFAULT_BATCH
    DEFAULT_BATCH = batch


def config_for_scale(scale: str = "default",
                     adr_bitmap_lines: int = 16,
                     bitmap_fanout: int = 128) -> SystemConfig:
    """The machine configuration used by the named experiment scale."""
    try:
        spec = SCALES[scale]
    except KeyError:
        raise ValueError(
            "unknown scale %r (choose from %s)"
            % (scale, ", ".join(sorted(SCALES)))
        ) from None
    return sim_config(
        memory_bytes=spec.memory_bytes,
        metadata_cache_bytes=spec.metadata_cache_bytes,
        llc_bytes=spec.llc_bytes,
        adr_bitmap_lines=adr_bitmap_lines,
        bitmap_fanout=bitmap_fanout,
    )


def run_one(config: SystemConfig, scheme: str, workload: str,
            operations: int, seed: int = 42,
            crash_and_recover: bool = False,
            telemetry: bool = True,
            events_jsonl: Optional[str] = None,
            batch: Union[bool, int, None] = None,
            lab: Optional["LabCache"] = None) -> RunResult:
    """Run one workload under one scheme; optionally crash + recover.

    Telemetry (histograms, spans, the structured event log) is on by
    default and lands in ``RunResult.extras["telemetry"]``;
    ``events_jsonl`` additionally streams the event log to a JSONL file
    while the run executes.

    ``batch`` selects the batched epoch pipeline
    (:mod:`repro.sim.batch`) with the given epoch size; ``None`` defers
    to the process-wide :data:`DEFAULT_BATCH` (scalar unless
    ``star-bench --batch`` / :func:`set_default_batch` chose
    otherwise). Results are bit-identical either way (pinned by
    ``tests/test_batch_parity.py``), so the flag is purely a speed
    choice.

    ``lab`` routes the cell through a :class:`repro.lab.bridge.LabCache`: a
    cell already in the store is deserialized instead of re-simulated,
    a missing one is computed once and committed. Lab cells carry the
    counter snapshot but no live telemetry objects, so ``telemetry``
    and ``events_jsonl`` are ignored on that path.
    """
    if lab is not None:
        return lab.run_one(
            config, scheme, workload, operations, seed=seed,
            crash_and_recover=crash_and_recover,
        )
    if batch is None:
        batch = DEFAULT_BATCH
    machine = Machine(config, scheme=scheme, telemetry=telemetry,
                      batch=batch)
    if events_jsonl is not None:
        machine.stats.registry.events.open_sink(events_jsonl)
    try:
        bench = make_workload(
            workload, config.num_data_lines, operations=operations,
            seed=seed
        )
        machine.run(bench.ops())
        recovery = None
        if crash_and_recover:
            machine.crash()
            recovery = machine.recover()
    finally:
        machine.stats.registry.events.close_sink()
    return machine.result(workload, recovery=recovery)


def run_grid(config: SystemConfig,
             schemes: Optional[Iterable[str]] = None,
             workloads: Optional[Iterable[str]] = None,
             operations: Optional[Dict[str, int]] = None,
             scale: str = "default",
             seed: int = 42,
             lab: Optional["LabCache"] = None) -> Dict[GridKey, RunResult]:
    """Run every (scheme, workload) pair and return the result grid."""
    spec = SCALES[scale]
    schemes = list(schemes) if schemes is not None else list(PAPER_SCHEMES)
    workloads = (
        list(workloads) if workloads is not None else list(ALL_WORKLOADS)
    )
    grid: Dict[GridKey, RunResult] = {}
    for workload in workloads:
        ops = (
            operations[workload]
            if operations and workload in operations
            else spec.operations_for(workload)
        )
        for scheme in schemes:
            grid[(scheme, workload)] = run_one(
                config, scheme, workload, ops, seed=seed, lab=lab
            )
    return grid


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the conventional average for normalized ratios)."""
    values = [value for value in values if value > 0]
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
