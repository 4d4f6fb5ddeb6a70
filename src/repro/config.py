"""System configuration (the paper's Table I, made programmable).

Every structural parameter of the simulated machine lives here: NVM
capacity and PCM timings, the CPU cache hierarchy, the security-metadata
cache in the memory controller, and the STAR-specific parameters (bitmap
lines in ADR, multi-layer index fanout, MAC/LSB bit widths).

Two factory functions cover the common cases:

* :func:`paper_config` — the configuration of Table I (16 GB PCM, 512 KB
  metadata cache, 16 bitmap lines). Structural parameters are exact; the
  simulated *touched* footprint is sparse so this is cheap to hold.
* :func:`small_config` — a scaled-down machine for unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError

LINE_SIZE = 64
"""Bytes per memory line; everything in the paper is 64B-granular."""

PAPER_LINE_ACCESS_NS = 100.0
"""The per-64B-line NVM access cost the paper assumes (Section IV-F)."""

TREE_ARITY = 8
"""SIT fanout: 8 counters per node, 8 children per node."""

COUNTER_BITS = 56
"""Width of each of the eight per-node counters."""

MAC_FIELD_BITS = 64
"""Total MAC field width in a node or data line."""

MAC_BITS = 54
"""Effective MAC width; 54-bit MACs are safe (Morphable Counters)."""

LSB_BITS = MAC_FIELD_BITS - MAC_BITS
"""Spare bits in the MAC field used for the parent-counter LSBs (10)."""

ADDRESS_BITS = 64
"""Width of a line address (or a node's index within its level) in the
MAC and pad messages."""

BITMAP_FANOUT = LINE_SIZE * 8
"""Lines covered by one bitmap line: 512 bits -> 512 metadata lines."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one set-associative cache."""

    size_bytes: int
    ways: int
    line_size: int = LINE_SIZE

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.ways > 0, "cache must have at least one way")
        _require(
            self.size_bytes % (self.ways * self.line_size) == 0,
            "cache size must be a multiple of ways * line size",
        )
        _require(
            _is_power_of_two(self.num_sets),
            "number of cache sets must be a power of two",
        )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_size)


@dataclass(frozen=True)
class NVMTimings:
    """PCM latency (ns) and energy (nJ / 64B line) parameters.

    The latency values follow Table I (tRCD/tCL/tCWD/tFAW/tWTR/tWR =
    48/15/13/50/7.5/300 ns). Energy uses the asymmetric read/write values
    common to the PCM literature; all evaluation results that use them are
    reported normalized to the write-back baseline.
    """

    t_rcd_ns: float = 48.0
    t_cl_ns: float = 15.0
    t_cwd_ns: float = 13.0
    t_faw_ns: float = 50.0
    t_wtr_ns: float = 7.5
    t_wr_ns: float = 300.0
    read_energy_nj: float = 0.5
    write_energy_nj: float = 2.5
    static_power_w: float = 0.002
    """Background (peripheral/refresh-free standby) power at sim scale.

    NVMain reports background energy alongside access energy; without it
    a traffic-only model over-attributes energy to write amplification.
    The value is calibrated so background and dynamic energy are of the
    same order for the write-back baseline at the default experiment
    scale, which is where the paper's normalized numbers sit.
    """

    @property
    def read_latency_ns(self) -> float:
        """Array read latency seen by a demand miss."""
        return self.t_rcd_ns + self.t_cl_ns

    @property
    def write_latency_ns(self) -> float:
        """Cell write service time (the long PCM write pulse)."""
        return self.t_wr_ns


@dataclass(frozen=True)
class CPUConfig:
    """A simple in-order multi-core model used for relative IPC."""

    cores: int = 8
    freq_ghz: float = 2.0
    base_cpi: float = 1.0
    write_queue_entries: int = 32
    write_ports: int = 1
    """Parallel PCM banks draining the write-pending queue."""
    sfence_ns: float = 10.0
    """Fixed pipeline cost of the ordering fence itself."""

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz


@dataclass(frozen=True)
class StarConfig:
    """Parameters specific to the STAR mechanisms."""

    adr_bitmap_lines: int = 16
    bitmap_fanout: int = BITMAP_FANOUT
    cache_tree_arity: int = TREE_ARITY
    counter_flush_threshold: int = (1 << LSB_BITS) - 1

    def __post_init__(self) -> None:
        _require(self.adr_bitmap_lines >= 1, "need at least one ADR line")
        _require(self.bitmap_fanout > 1, "bitmap fanout must exceed 1")
        _require(
            0 < self.counter_flush_threshold < (1 << LSB_BITS),
            "flush threshold must be below the LSB wrap-around",
        )


@dataclass(frozen=True)
class SystemConfig:
    """The full machine: NVM, CPU caches, metadata cache and STAR knobs."""

    memory_bytes: int
    metadata_cache: CacheConfig
    llc: CacheConfig
    l2: CacheConfig = None  # type: ignore[assignment]
    l1: CacheConfig = None  # type: ignore[assignment]
    nvm: NVMTimings = field(default_factory=NVMTimings)
    cpu: CPUConfig = field(default_factory=CPUConfig)
    star: StarConfig = field(default_factory=StarConfig)
    recovery_line_access_ns: float = PAPER_LINE_ACCESS_NS
    crypto_key: bytes = b"star-reproduction-key"
    device_timing: bool = False
    """Opt-in bank-level PCM timing (``repro.mem.device``) instead of
    the flat-latency + write-queue model."""
    device_banks: int = 8
    device_row_lines: int = 32

    def __post_init__(self) -> None:
        _require(self.memory_bytes >= LINE_SIZE * TREE_ARITY,
                 "memory must hold at least one counter block of data")
        _require(self.memory_bytes % LINE_SIZE == 0,
                 "memory size must be line aligned")

    @property
    def num_data_lines(self) -> int:
        return self.memory_bytes // LINE_SIZE

    def with_metadata_cache_bytes(self, size_bytes: int) -> "SystemConfig":
        """A copy with a resized metadata cache (for sweeps, Fig. 14)."""
        new_cache = replace(self.metadata_cache, size_bytes=size_bytes)
        return replace(self, metadata_cache=new_cache)

    def with_adr_lines(self, lines: int) -> "SystemConfig":
        """A copy with a different ADR bitmap-line budget (Table II)."""
        return replace(self, star=replace(self.star, adr_bitmap_lines=lines))


def paper_config() -> SystemConfig:
    """The Table I configuration of the paper.

    16 GB PCM main memory, 64 KB/512 KB/4 MB L1/L2/L3, a 512 KB 8-way
    metadata cache in the memory controller and 16 bitmap lines in ADR.
    """
    return SystemConfig(
        memory_bytes=16 * 1024 ** 3,
        metadata_cache=CacheConfig(size_bytes=512 * 1024, ways=8),
        llc=CacheConfig(size_bytes=4 * 1024 ** 2, ways=8),
        l2=CacheConfig(size_bytes=512 * 1024, ways=8),
        l1=CacheConfig(size_bytes=64 * 1024, ways=2),
    )


def sim_config(
    memory_bytes: int = 64 * 1024 ** 2,
    metadata_cache_bytes: int = 64 * 1024,
    llc_bytes: int = 512 * 1024,
    adr_bitmap_lines: int = 16,
    bitmap_fanout: int = 64,
) -> SystemConfig:
    """A scaled machine whose *ratios* match the paper.

    The paper simulates 16 GB of PCM with a 512 KB metadata cache. Holding
    a trace that pressures a 512 KB metadata cache is slow in pure Python,
    so experiments default to a proportionally scaled machine. All
    mechanisms (tree height, bitmap layers, ADR pressure) are derived from
    these sizes, and the reported metrics are ratios, which are preserved
    under scaling.

    ``bitmap_fanout`` scales with the machine: hardware bitmap lines hold
    512 bits, covering 32 KB of metadata each; at 1/256-scale memory a
    64-bit coverage per line reproduces the same ratio of bitmap lines to
    live metadata, hence the same ADR pressure as the paper's Table II.
    """
    return SystemConfig(
        memory_bytes=memory_bytes,
        metadata_cache=CacheConfig(size_bytes=metadata_cache_bytes, ways=8),
        llc=CacheConfig(size_bytes=llc_bytes, ways=8),
        star=StarConfig(
            adr_bitmap_lines=adr_bitmap_lines,
            bitmap_fanout=bitmap_fanout,
        ),
    )


def small_config(
    memory_bytes: int = 1024 * 1024,
    metadata_cache_bytes: int = 4 * 1024,
    llc_bytes: int = 16 * 1024,
    adr_bitmap_lines: int = 4,
) -> SystemConfig:
    """A tiny machine for unit tests: deep evictions with short traces."""
    return SystemConfig(
        memory_bytes=memory_bytes,
        metadata_cache=CacheConfig(size_bytes=metadata_cache_bytes, ways=4),
        llc=CacheConfig(size_bytes=llc_bytes, ways=4),
        star=StarConfig(adr_bitmap_lines=adr_bitmap_lines),
    )
