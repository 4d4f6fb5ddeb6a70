"""Osiris and Triad-NVM: the counter-only / BMT recovery baselines.

The paper cannot compare STAR against these directly — "Osiris and
Triad-NVM can't be used to recover the counter blocks and integrity
tree nodes in SIT-based persistent memory" (Section IV-A) — so this
package implements them on the BMT substrate they were designed for,
both to complete the system inventory and to make that incompatibility
demonstrable (see tests/test_bmt.py).

* **Osiris** (MICRO'18): counter blocks are persisted only every Nth
  update (and on minor overflow). Recovery probes each minor counter
  from its stale value upward until the per-line MAC (standing in for
  Osiris' ECC check) verifies, then rebuilds the Merkle tree and
  compares its root against the on-chip register.
* **Triad-NVM** (ISCA'19): counter blocks and the N lowest tree levels
  are written through with every data write (the 2-4x write overhead the
  paper quotes); recovery rebuilds the tree bottom-up from the always-
  fresh counter blocks and compares the root.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bmt.counters import (
    CachedCounterBlock,
    MINOR_LIMIT,
    SplitCounterImage,
)
from repro.bmt.tree import HASH_ARITY, HashNodeImage, rebuild_tree
from repro.schemes.base import RecoveryReport


class BMTScheme:
    """Base: persistence policy + recovery for the BMT controller."""

    name = "bmt-abstract"

    def attach(self, controller) -> None:
        self.controller = controller

    def on_data_write(self, address: int, block_index: int,
                      block: CachedCounterBlock,
                      overflowed: bool) -> None:
        """Called after every data-line write."""

    def recover(self, controller) -> RecoveryReport:
        """Restore the counter blocks and report what was restored;
        :meth:`BMTController.recover` fills the traffic and time."""
        raise NotImplementedError


class BmtWriteBackScheme(BMTScheme):
    """No counter persistence at all: the unrecoverable baseline."""

    name = "bmt-wb"


class OsirisScheme(BMTScheme):
    """Persist every Nth counter update; recover by probing."""

    name = "osiris"

    def __init__(self, persist_stride: int = 4) -> None:
        if persist_stride < 1:
            raise ValueError("persist stride must be >= 1")
        self.persist_stride = persist_stride

    def on_data_write(self, address: int, block_index: int,
                      block: CachedCounterBlock,
                      overflowed: bool) -> None:
        if overflowed or \
                block.writes_since_persist >= self.persist_stride:
            self.controller.persist_block(block_index)

    def recover(self, controller) -> RecoveryReport:
        nvm = controller.nvm
        geometry = controller.geometry
        restored_images: List[SplitCounterImage] = []
        probe_failures = 0
        for index in range(geometry.num_counter_blocks):
            stale = controller._nvm_block(index)
            minors = list(stale.minors)
            for line in geometry.page_lines(index):
                slot = geometry.minor_slot(line)
                image = nvm.read_data(line)
                if image is None:
                    continue
                found = None
                for delta in range(self.persist_stride + 1):
                    candidate = stale.minors[slot] + delta
                    if candidate > MINOR_LIMIT:
                        break  # overflow forces a persist: no wrap
                    if controller._verify_line(
                        line, image, stale.major, candidate
                    ):
                        found = candidate
                        break
                if found is None:
                    probe_failures += 1
                else:
                    minors[slot] = found
            restored_images.append(
                SplitCounterImage(stale.major, tuple(minors))
            )
        _levels, root = rebuild_tree(
            geometry, controller.hasher, restored_images
        )
        verified = (
            probe_failures == 0 and root == controller.persistent_root
        )
        restored: Dict[int, Tuple[int, ...]] = {}
        for index, image in enumerate(restored_images):
            nvm.write_meta(index, image)
            restored[index] = (image.major,) + image.minors
        return RecoveryReport(
            scheme=self.name,
            stale_lines=geometry.num_counter_blocks,
            restored_lines=len(restored_images),
            verified=verified,
            restored=restored,
        )


class SuperMemScheme(BMTScheme):
    """SuperMem-style write-through counters with coalescing (§V).

    SuperMem (MICRO'19) keeps counters crash-consistent by writing the
    counter block through with every data write — but observes that a
    block covers a whole page, so bursts of writes to the same page
    produce back-to-back updates of the *same* counter line, which its
    Counter Write Coalescing (CWC) merges while the line still sits in
    the (ADR-protected, hence persistent) write queue.

    The model: a counter-block write is skipped when that block's
    previous write is still within the last ``wpq_window`` NVM writes;
    blocks pending in the queue at a crash are flushed by the ADR
    battery, so recovery still finds every counter fresh.
    """

    name = "supermem"

    def __init__(self, wpq_window: int = 16) -> None:
        if wpq_window < 0:
            raise ValueError("WPQ window must be >= 0")
        self.wpq_window = wpq_window
        self._pending: Dict[int, int] = {}  # block -> age rank
        self._clock = 0

    def on_data_write(self, address: int, block_index: int,
                      block: CachedCounterBlock,
                      overflowed: bool) -> None:
        self._clock += 1
        self._expire()
        if block_index in self._pending:
            # the previous write of this block is still queued: merge
            self._pending[block_index] = self._clock
            self.controller.stats.add("supermem.coalesced_writes")
            return
        self.controller.persist_block(block_index)
        self._pending[block_index] = self._clock

    def _expire(self) -> None:
        horizon = self._clock - self.wpq_window
        for block_index in [
            index for index, rank in self._pending.items()
            if rank <= horizon
        ]:
            del self._pending[block_index]

    def on_crash(self) -> None:
        """ADR flush: coalesced blocks still in the queue are durable."""
        for block_index in list(self._pending):
            block = self.controller._blocks.get(block_index)
            if block is not None:
                self.controller.nvm.flush_meta(
                    block_index, block.snapshot()
                )
        self._pending.clear()

    def recover(self, controller) -> RecoveryReport:
        """Write-through + ADR queue: nothing is ever stale."""
        restored = {}
        for index in range(controller.geometry.num_counter_blocks):
            image = controller._nvm_block(index)
            restored[index] = (image.major,) + image.minors
        return RecoveryReport(
            scheme=self.name,
            stale_lines=0,
            restored_lines=len(restored),
            verified=True,
            restored=restored,
        )


class TriadNvmScheme(BMTScheme):
    """Write-through counter blocks + the N lowest tree levels."""

    name = "triad"

    def __init__(self, persisted_levels: int = 1) -> None:
        if persisted_levels < 0:
            raise ValueError("persisted levels must be >= 0")
        self.persisted_levels = persisted_levels

    def on_data_write(self, address: int, block_index: int,
                      block: CachedCounterBlock,
                      overflowed: bool) -> None:
        controller = self.controller
        controller.persist_block(block_index)
        levels = min(self.persisted_levels,
                     controller.geometry.num_hash_levels)
        child_index = block_index
        for level in range(levels):
            node_index = child_index // HASH_ARITY
            image = self._node_image(controller, level, node_index)
            controller.nvm.write_meta(
                controller.geometry.node_meta_index(level, node_index),
                image,
            )
            controller.stats.add("bmt.tree_level_persists")
            child_index = node_index

    def _node_image(self, controller, level: int,
                    node_index: int) -> HashNodeImage:
        """Recompute one hash node from the live child digests."""
        geometry = controller.geometry
        hasher = controller.hasher
        first = node_index * HASH_ARITY
        digests: List[int] = []
        if level == 0:
            last = min(first + HASH_ARITY, geometry.num_counter_blocks)
            for index in range(first, last):
                digests.append(hasher.counter_block_digest(
                    index, controller.block_image(index)
                ))
        else:
            last = min(first + HASH_ARITY,
                       geometry.level_counts[level - 1])
            for index in range(first, last):
                digests.append(hasher.node_digest(
                    level - 1,
                    index,
                    self._node_image(controller, level - 1, index),
                ))
        digests += [0] * (HASH_ARITY - len(digests))
        return HashNodeImage(tuple(digests))

    def recover(self, controller) -> RecoveryReport:
        """Rebuild the whole tree from the write-through counter blocks
        — possible for BMT, impossible for SIT (Section II-E)."""
        nvm = controller.nvm
        geometry = controller.geometry
        images: List[SplitCounterImage] = []
        for index in range(geometry.num_counter_blocks):
            images.append(controller._nvm_block(index))
        levels, root = rebuild_tree(geometry, controller.hasher, images)
        verified = root == controller.persistent_root
        for level, nodes in enumerate(levels):
            for node_index, node in enumerate(nodes):
                nvm.write_meta(
                    geometry.node_meta_index(level, node_index), node
                )
        restored = {
            index: (image.major,) + image.minors
            for index, image in enumerate(images)
        }
        return RecoveryReport(
            scheme=self.name,
            stale_lines=geometry.num_counter_blocks,
            restored_lines=len(images),
            verified=verified,
            restored=restored,
        )
