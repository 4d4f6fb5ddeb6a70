"""Declarative run specifications with canonical content hashes.

A :class:`RunSpec` fully determines one lab cell: the machine
configuration, the persistence scheme, the workload and its seed, the
crash behaviour and (for fuzz jobs) the sampled case parameters. Its
``spec_hash`` is a SHA-256 over a canonical JSON encoding — sorted
keys, no whitespace variance, schema-versioned — so the same
computation always lands on the same store key, across processes and
platforms, and *any* semantic change (one more operation, a different
ADR budget) lands on a different one.

``canonical_config`` / ``config_from_canonical`` round-trip a full
:class:`~repro.config.SystemConfig` through plain JSON data, which
keeps specs self-contained: a resumed campaign rebuilds its machines
from the journal alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.config import (
    CacheConfig,
    CPUConfig,
    NVMTimings,
    StarConfig,
    SystemConfig,
)
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.fuzz.sampling import FuzzCase

SCHEMA_VERSION = 1
"""Bumping this invalidates every cached cell (the version is hashed)."""

KINDS = ("bench", "fuzz")


def canonical_json(payload: object) -> str:
    """The one true JSON encoding used for hashing and digests."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def canonical_config(config: SystemConfig) -> Dict:
    """A ``SystemConfig`` as plain, JSON-safe, order-stable data."""
    payload = asdict(config)
    payload["crypto_key"] = config.crypto_key.hex()
    return payload


def config_from_canonical(payload: Dict) -> SystemConfig:
    """Rebuild the exact ``SystemConfig`` a canonical dict came from."""
    data = dict(payload)

    def cache(entry: Optional[Dict]) -> Optional[CacheConfig]:
        return None if entry is None else CacheConfig(**entry)

    try:
        return SystemConfig(
            memory_bytes=data["memory_bytes"],
            metadata_cache=cache(data["metadata_cache"]),
            llc=cache(data["llc"]),
            l2=cache(data.get("l2")),
            l1=cache(data.get("l1")),
            nvm=NVMTimings(**data["nvm"]),
            cpu=CPUConfig(**data["cpu"]),
            star=StarConfig(**data["star"]),
            recovery_line_access_ns=data["recovery_line_access_ns"],
            crypto_key=bytes.fromhex(data["crypto_key"]),
            device_timing=data["device_timing"],
            device_banks=data["device_banks"],
            device_row_lines=data["device_row_lines"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            "malformed canonical config: %s" % exc
        ) from None


def config_digest(config: SystemConfig) -> str:
    """Short content digest of a configuration (provenance field)."""
    encoded = canonical_json(canonical_config(config)).encode("ascii")
    return hashlib.sha256(encoded).hexdigest()[:16]


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined lab cell.

    ``kind`` selects the executor: ``"bench"`` runs one scheme/workload
    simulation (optionally crash + recover), ``"fuzz"`` runs one
    crash-consistency fuzz case whose sampled parameters live in
    ``params``. ``metrics`` optionally narrows which stats counters the
    result record keeps (empty tuple = all of them).
    """

    kind: str
    scheme: str
    workload: str
    operations: int
    seed: int
    config: Dict
    crash_and_recover: bool = False
    params: Dict = field(default_factory=dict)
    metrics: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                "unknown spec kind %r (choose from %s)"
                % (self.kind, ", ".join(KINDS))
            )
        if self.operations < 1:
            raise ConfigError("spec needs at least one operation")

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def canonical(self) -> Dict:
        """The hashed identity of this spec (includes the schema)."""
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "scheme": self.scheme,
            "workload": self.workload,
            "operations": self.operations,
            "seed": self.seed,
            "config": self.config,
            "crash_and_recover": self.crash_and_recover,
            "params": self.params,
            "metrics": list(self.metrics),
        }

    @property
    def spec_hash(self) -> str:
        encoded = canonical_json(self.canonical()).encode("ascii")
        return hashlib.sha256(encoded).hexdigest()

    @property
    def label(self) -> str:
        """Short human handle used in tables and progress lines."""
        return "%s:%s/%s@%d" % (
            self.kind, self.scheme, self.workload, self.seed
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        payload = asdict(self)
        payload["metrics"] = list(self.metrics)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunSpec":
        fields = {
            key: payload[key]
            for key in cls.__dataclass_fields__
            if key in payload
        }
        fields["metrics"] = tuple(fields.get("metrics", ()))
        return cls(**fields)

    def system_config(self) -> SystemConfig:
        return config_from_canonical(self.config)


# ----------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------
def bench_spec(config: SystemConfig, scheme: str, workload: str,
               operations: int, seed: int = 42,
               crash_and_recover: bool = False,
               metrics: Tuple[str, ...] = ()) -> RunSpec:
    """The spec of one figure/table cell (`repro.bench.runner.run_one`)."""
    return RunSpec(
        kind="bench",
        scheme=scheme,
        workload=workload,
        operations=operations,
        seed=seed,
        config=canonical_config(config),
        crash_and_recover=crash_and_recover,
        metrics=tuple(metrics),
    )


def fuzz_spec(case: "FuzzCase", sanitize: bool = False,
              defect: Optional[str] = None) -> RunSpec:
    """The spec of one fuzz case (crash fractions ride in ``params``).

    ``case`` is a :class:`repro.fuzz.sampling.FuzzCase`; the machine is
    the fixed campaign config. ``sanitize`` and ``defect`` (see
    :func:`repro.fuzz.executor.run_case`) join ``params`` only when
    set, so a plain case keeps its hash and its stored cell.
    """
    from repro.fuzz.executor import campaign_config

    params: Dict = {
        "index": case.index,
        "crash_frac": case.crash_frac,
        "prepare_frac": case.prepare_frac,
        "attack": case.attack,
        "attack_seed": case.attack_seed,
    }
    if sanitize:
        params["sanitize"] = True
    if defect is not None:
        params["defect"] = defect
    return RunSpec(
        kind="fuzz",
        scheme=case.scheme,
        workload=case.workload,
        operations=case.operations,
        seed=case.seed,
        config=canonical_config(campaign_config()),
        crash_and_recover=True,
        params=params,
    )
