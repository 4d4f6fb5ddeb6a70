"""Cell execution: turn a :class:`RunSpec` into its result payload.

The payload is *pure data about the simulation* — counters, timing
model outputs, energy, recovery report — and is fully determined by
the spec: no wall clocks, no process identity, no ordering effects.
That property is what makes the store content-addressed and lets a
sharded campaign stay bit-identical to a serial one (the cross-process
determinism tests pin it).

``payload_to_run_result`` rebuilds a :class:`~repro.sim.results
.RunResult` from a stored payload so the figure reproductions can
consume cached cells through their existing code paths. Telemetry
extras (histograms/spans/events) are not stored — a cached cell
carries counters and derived scalars, which is everything the figures
read.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Dict, Optional

from repro.errors import ConfigError
from repro.lab.spec import RunSpec
from repro.schemes.base import RecoveryReport
from repro.sim.results import RunResult

PAYLOAD_VERSION = 1

_RECOVERY_FIELDS = tuple(
    field.name for field in fields(RecoveryReport)
    if field.name != "restored"
)


def _recovery_payload(report: Optional[RecoveryReport]
                      ) -> Optional[Dict]:
    """A recovery report as JSON scalars.

    The oracle ``restored`` map (meta line -> counter tuple) is a test
    artifact proportional to the dirty set and is deliberately not
    persisted.
    """
    if report is None:
        return None
    values = asdict(report)
    return {name: values[name] for name in _RECOVERY_FIELDS}


def _filter_stats(stats: Dict[str, int], spec: RunSpec
                  ) -> Dict[str, int]:
    if not spec.metrics:
        return dict(stats)
    prefixes = tuple(spec.metrics)
    return {
        name: value for name, value in stats.items()
        if name.startswith(prefixes)
    }


def run_result_payload(spec: RunSpec, result: RunResult) -> Dict:
    """Serialize one bench run, applying the spec's metric selection."""
    return {
        "version": PAYLOAD_VERSION,
        "scheme": result.scheme,
        "workload": result.workload,
        "stats": _filter_stats(result.stats, spec),
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "energy_read_nj": result.energy_read_nj,
        "energy_write_nj": result.energy_write_nj,
        "energy_static_nj": result.energy_static_nj,
        "dirty_fraction": result.dirty_fraction,
        "adr_hit_ratio": result.adr_hit_ratio,
        "recovery": _recovery_payload(result.recovery),
    }


def payload_to_run_result(payload: Dict) -> RunResult:
    """Rebuild a ``RunResult`` from a stored bench payload."""
    recovery = None
    if payload.get("recovery") is not None:
        recovery = RecoveryReport(**payload["recovery"])
    return RunResult(
        scheme=payload["scheme"],
        workload=payload["workload"],
        stats=dict(payload["stats"]),
        instructions=payload["instructions"],
        cycles=payload["cycles"],
        ipc=payload["ipc"],
        energy_read_nj=payload["energy_read_nj"],
        energy_write_nj=payload["energy_write_nj"],
        energy_static_nj=payload["energy_static_nj"],
        dirty_fraction=payload["dirty_fraction"],
        adr_hit_ratio=payload["adr_hit_ratio"],
        recovery=recovery,
        extras={"lab": True},
    )


# ----------------------------------------------------------------------
# executors by kind
# ----------------------------------------------------------------------
def _execute_bench(spec: RunSpec) -> Dict:
    from repro.bench.runner import run_one

    result = run_one(
        spec.system_config(), spec.scheme, spec.workload,
        spec.operations, seed=spec.seed,
        crash_and_recover=spec.crash_and_recover,
        telemetry=False,
    )
    return run_result_payload(spec, result)


def _execute_fuzz(spec: RunSpec) -> Dict:
    from repro.fuzz.executor import run_case
    from repro.fuzz.sampling import FuzzCase

    params = spec.params
    case = FuzzCase.from_dict(dict(
        params, workload=spec.workload, scheme=spec.scheme,
        seed=spec.seed, operations=spec.operations,
    ))
    result = run_case(case, defect=params.get("defect"),
                      sanitize=params.get("sanitize", False))
    return {
        "version": PAYLOAD_VERSION,
        "fuzz": result.to_dict(),
        "failed": result.failed,
    }


def execute(spec: RunSpec) -> Dict:
    """Run one cell and return its deterministic payload."""
    if spec.kind == "bench":
        return _execute_bench(spec)
    if spec.kind == "fuzz":
        return _execute_fuzz(spec)
    raise ConfigError("no executor for spec kind %r" % spec.kind)
