"""The persistence-scheme interface.

The secure memory controller implements the mechanism every evaluated
scheme shares: counter-mode encryption, the lazy SGX integrity tree, the
metadata cache and its eviction cascade. A :class:`PersistenceScheme`
customizes what *extra* persistence work happens around those events and
how (whether) the security metadata are recovered after a crash.

Hooks and the events that fire them:

========================  ====================================================
hook                      fired when
========================  ====================================================
``on_dirty_transition``   a cached metadata line flips clean<->dirty
``on_parent_modified``    a parent counter increments (data write or child
                          eviction) — the modification STAR coalesces and
                          Anubis shadows
``on_data_persist``       a user-data line (+ MAC side-band) was written
``on_metadata_persist``   a metadata line was written to NVM
``after_data_write``      a data write completed (strict persistence flushes
                          the whole branch here)
``on_cache_install`` /    metadata cache slot management (Anubis' shadow
``on_cache_evict``        table mirrors cache slots)
``on_crash``              power fails: flush whatever the scheme keeps in ADR
========================  ====================================================

Telemetry: every hook runs with the machine's
:class:`~repro.util.stats.Stats` at hand (``self.controller.stats``),
whose registry also carries histograms, spans and the structured event
log — see :mod:`repro.obs` and ``docs/observability.md`` for the naming
conventions a scheme should follow (prefix scheme-private metrics with
the scheme name, e.g. ``anubis.st_writes``). During :meth:`recover`,
use ``machine.nvm.stats`` so recovery telemetry lands in the separate
recovery namespace the machine reports under
``RunResult.extras["telemetry"]["recovery"]``.

Recovery: :meth:`PersistenceScheme.recover` restores, verifies and
reports what it restored. It does not price itself: the caller runs it
through :func:`measure_recovery`, which fills the report's counted NVM
traffic and its recovery time. A scheme that re-mints SIT nodes writes
each one through :func:`restore_node`.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, TYPE_CHECKING, Tuple

from repro.errors import RecoveryError
from repro.tree.geometry import NodeId
from repro.tree.node import CachedNode, DataLineImage, NodeImage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mem.nvm import NVM
    from repro.sim.controller import SecureMemoryController


@dataclass
class RecoveryReport:
    """Outcome of one post-crash recovery run."""

    scheme: str
    stale_lines: int = 0
    restored_lines: int = 0
    nvm_reads: int = 0
    nvm_writes: int = 0
    verified: bool = True
    recovery_time_ns: float = 0.0
    restored: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    """meta_index -> restored counter tuple (test oracle)."""

    ra_lines_cleared: int = 0
    """Non-zero recovery-area index lines zeroed after verification
    (STAR): counted NVM writes on the recovery critical path."""

    st_restored_lines: int = 0
    """Lines reinstated from a shadow table (Anubis ST; Phoenix uses it
    for tree nodes only)."""

    probed_blocks: int = 0
    """Counter blocks examined by Osiris-style probing (Phoenix)."""

    probed_stale_lines: int = 0
    """Probed counter blocks found stale (persisted NVM copy behind the
    probed value) — kept separate from ST-recovered ``stale_lines`` so
    the two recovery mechanisms are not conflated."""

    @property
    def recovery_time_s(self) -> float:
        return self.recovery_time_ns / 1e9

    @property
    def line_accesses(self) -> int:
        return self.nvm_reads + self.nvm_writes


def measure_recovery(recover: Callable[[], RecoveryReport], nvm: "NVM",
                     line_ns: float) -> RecoveryReport:
    """Run one recovery and price it with the paper's cost model.

    Fills the report's ``nvm_reads`` and ``nvm_writes`` with the counted
    NVM line accesses the recovery made, and ``recovery_time_ns`` with
    their count times ``line_ns`` (Section IV-F: 100 ns per 64-byte
    line).
    """
    reads_before = nvm.total_reads()
    writes_before = nvm.total_writes()
    report = recover()
    report.nvm_reads = nvm.total_reads() - reads_before
    report.nvm_writes = nvm.total_writes() - writes_before
    report.recovery_time_ns = report.line_accesses * line_ns
    return report


def restore_node(machine, node_id: NodeId, counters: Tuple[int, ...],
                 restored: Dict[int, Tuple[int, ...]]) -> NodeImage:
    """Re-mint a restored SIT node under its parent counter and write it.

    The parent counter comes from the on-chip SIT root for a top-level
    node, from ``restored`` (meta line -> counters) when the parent was
    itself restored, and otherwise from a counted NVM read of the
    parent.
    """
    controller = machine.controller
    geometry = controller.geometry
    nvm = machine.nvm
    if geometry.is_top_level(node_id):
        parent_counter = machine.registers.sit_root.counters[node_id[1]]
    else:
        parent_line = geometry.meta_index(geometry.parent_of(node_id))
        slot = geometry.slot_in_parent(node_id)
        if parent_line in restored:
            parent_counter = restored[parent_line][slot]
        else:
            parent_image, _touched = nvm.read_meta(parent_line)
            parent_counter = parent_image.counters[slot]
    image = controller.auth.make_node_image(node_id, counters,
                                            parent_counter)
    nvm.write_meta(geometry.meta_index(node_id), image)
    return image


class PersistenceScheme(ABC):
    """Base class: every hook defaults to 'do nothing extra'."""

    name: str = "abstract"
    supports_sit_recovery: bool = False

    parent_hook_is_cache_neutral: bool = False
    """Whether an overridden :meth:`on_parent_modified` is guaranteed
    never to touch the metadata cache (probe, pin, install, evict or
    persist through the controller). The batched epoch engine
    (:mod:`repro.sim.batch`) may only preaggregate same-counter-block
    write runs when this holds — a hook that reaches back into the
    cache would invalidate the run's residency/LRU assumptions.
    Schemes whose hook only emits side-band NVM traffic (e.g. Anubis'
    shadow-table writes) opt in by setting this to ``True``."""

    def __init__(self) -> None:
        self.controller: Optional["SecureMemoryController"] = None

    def attach(self, controller: "SecureMemoryController") -> None:
        """Bind the scheme to its controller (called once at build)."""
        self.controller = controller

    # ------------------------------------------------------------------
    # runtime hooks (all optional)
    # ------------------------------------------------------------------
    def on_dirty_transition(self, meta_index: int,
                            became_dirty: bool) -> None:
        """A cached metadata line changed dirty state."""

    def on_parent_modified(self, parent: Optional[NodeId],
                           node: CachedNode, slot: int) -> None:
        """A parent counter was incremented (``parent is None`` = root)."""

    def on_data_persist(self, address: int, image: DataLineImage) -> None:
        """A user-data line reached NVM."""

    def on_metadata_persist(self, node: NodeId, image: NodeImage) -> None:
        """A metadata line reached NVM."""

    def after_data_write(self, address: int, counter_block: NodeId) -> None:
        """A data write completed (post-encryption, post-NVM-write)."""

    def on_cache_install(self, meta_index: int) -> None:
        """A metadata line became resident in the metadata cache."""

    def on_cache_evict(self, meta_index: int) -> None:
        """A metadata line left the metadata cache."""

    def on_crash(self) -> None:
        """Power failed: perform battery-backed flushes."""

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self, machine) -> RecoveryReport:
        """Restore stale metadata after a crash.

        ``machine`` is the crashed :class:`~repro.sim.machine.Machine`;
        schemes read its NVM and on-chip registers. The returned report
        says what was restored and whether it verified; the machine
        fills its traffic and time (:func:`measure_recovery`). Schemes
        that cannot recover SIT metadata raise :class:`RecoveryError`.
        """
        raise RecoveryError(
            "scheme %r does not support SIT recovery" % self.name
        )


