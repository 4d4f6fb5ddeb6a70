"""The Phoenix baseline (Section II-E, "concurrent work").

Phoenix combines the two prior ideas: counter blocks are *not* shadowed
on every write — they are persisted only every Nth modification and
recovered Osiris-style by probing counter candidates against the
per-line data MACs — while the intermediate SIT nodes keep Anubis'
shadow-table treatment. Compared with Anubis this removes the ST write
that accompanied every *data* write, leaving only the (much rarer) ST
writes for tree-node modifications.

The paper positions STAR against Phoenix: "unlike Phoenix, our STAR
removes the extra writes of the whole tree, including the counter
blocks and intermediate tree nodes". This implementation reproduces
that contrast: Phoenix lands between Anubis and STAR in write traffic,
and its recovery must probe every counter block (it cannot tell stale
from fresh ones) where STAR walks its bitmap index.

That probe is the *modelled* cost and stays whole: every counter block
and every child data line is charged as a counted NVM read, which is
the Fig. 14(b) contrast. The *host* cost scales with the touched lines
instead. A block none of whose lines was ever written (no data child,
no persisted image, no shadow-table restore) reads as zeros and probes
to zeros, so :meth:`PhoenixScheme.recover` probes only the other blocks
line by line and charges each run of untouched blocks in one
:meth:`~repro.mem.nvm.NVM.read_untouched_blocks` call, with the same
counters and trace entries the per-line reads would have produced.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.schemes.anubis import AnubisScheme
from repro.schemes.base import RecoveryReport, restore_node
from repro.tree.geometry import NodeId
from repro.tree.node import CachedNode


class PhoenixScheme(AnubisScheme):
    """Osiris-relaxed counter blocks + Anubis ST for tree nodes."""

    name = "phoenix"
    supports_sit_recovery = True
    # unlike Anubis, the parent hook persists counter blocks through
    # the controller every Nth write — that re-enters the metadata
    # cache, so batched write runs must stay disabled
    parent_hook_is_cache_neutral = False

    def __init__(self, persist_stride: int = 4) -> None:
        super().__init__()
        if persist_stride < 1:
            raise ValueError("persist stride must be >= 1")
        self.persist_stride = persist_stride
        self._block_writes: Dict[int, int] = {}

    def attach(self, controller) -> None:
        super().attach(controller)
        # the stride counts are controller state: a reboot loses them
        self._block_writes.clear()

    # ------------------------------------------------------------------
    # runtime: shadow only the tree levels; relax the counter blocks
    # ------------------------------------------------------------------
    def on_parent_modified(self, parent: Optional[NodeId],
                           node: CachedNode, slot: int) -> None:
        if parent is None:
            return
        if parent[0] == 0:
            # a counter block modified by a data write: no ST write;
            # persist it every Nth modification to bound the probe
            # distance (the Osiris relaxation)
            meta_index = self.controller.geometry.meta_index(parent)
            count = self._block_writes.get(meta_index, 0) + 1
            if count >= self.persist_stride:
                self._block_writes[meta_index] = 0
                self.controller.persist_metadata_line(parent)
                self.controller.stats.add("phoenix.periodic_persists")
            else:
                self._block_writes[meta_index] = count
            return
        super().on_parent_modified(parent, node, slot)
        self.controller.stats.add("phoenix.st_writes")

    # ------------------------------------------------------------------
    # recovery: ST for tree nodes, Osiris probing for counter blocks
    # ------------------------------------------------------------------
    def recover(self, machine) -> RecoveryReport:
        node_report = super().recover(machine)
        nvm = machine.nvm
        geometry = machine.controller.geometry

        restored = dict(node_report.restored)
        probe_failures = 0
        probed_stale = 0
        probed_blocks = geometry.level_counts[0]
        # Only blocks with a written child or a written image (an ST
        # restore writes one too) can probe to anything but their zero
        # image; the rest are charged their reads in bulk. Level-0
        # lines come first in the flat metadata order, so block b is
        # metadata line b.
        arity = geometry.arity
        live = {line // arity for line in nvm.data_lines()}
        live.update(nvm.meta_lines())
        stats = nvm.stats
        with stats.span("recovery.phoenix.probe",
                        blocks=probed_blocks) as probe_span:
            next_block = 0
            for line in sorted(live):
                if line >= probed_blocks:
                    break
                nvm.read_untouched_blocks(geometry, next_block, line)
                next_block = line + 1
                block_id = (0, line)
                stale, _touched = nvm.read_meta(line)
                counters, failures = self._probe_block(
                    machine, block_id, stale
                )
                probe_failures += failures
                if counters != stale.counters:
                    # the probed counters moved past the persisted copy:
                    # this block really was stale at the crash
                    probed_stale += 1
                elif line not in restored:
                    continue  # nothing moved since the last persist
                restored[line] = counters
                stats.event("recover_line", meta_index=line, level=0)
                restore_node(machine, block_id, counters, restored)
            nvm.read_untouched_blocks(geometry, next_block, probed_blocks)
            if probe_span is not None:
                probe_span.attrs["failures"] = probe_failures
                probe_span.attrs["stale"] = probed_stale

        # stale_lines is the count of lines that actually went stale
        # (ST-shadowed tree nodes + probed-stale counter blocks) — NOT
        # len(restored), which also counts fresh blocks rewritten only
        # because their ST twin was reinstated. The old conflation made
        # Phoenix's reported stale set track restored-line volume.
        return RecoveryReport(
            scheme=self.name,
            stale_lines=node_report.stale_lines + probed_stale,
            restored_lines=len(restored),
            verified=node_report.verified and probe_failures == 0,
            restored=restored,
            st_restored_lines=node_report.restored_lines,
            probed_blocks=probed_blocks,
            probed_stale_lines=probed_stale,
        )

    def _probe_block(self, machine, block_id: NodeId,
                     stale) -> Tuple[Tuple[int, ...], int]:
        """Osiris-style reconstruction of one counter block."""
        nvm = machine.nvm
        geometry = machine.controller.geometry
        auth = machine.controller.auth
        counters = list(stale.counters)
        failures = 0
        children = geometry.children_of(block_id)
        for slot in range(geometry.arity):
            if slot >= len(children):
                continue
            image = nvm.read_data(children[slot])
            if image is None:
                if stale.counters[slot] != 0:
                    # the persisted counter says this line was written,
                    # but it is gone: detectable erasure. (An erasure
                    # *before* the block's first persist is not — one of
                    # the gaps STAR's cache-tree closes.)
                    failures += 1
                continue
            found = None
            for delta in range(self.persist_stride + 1):
                candidate = stale.counters[slot] + delta
                if auth.verify_data_image(children[slot], image,
                                          candidate):
                    found = candidate
                    break
            if found is None:
                failures += 1
            else:
                nvm.stats.observe(
                    "phoenix.probe_distance",
                    found - stale.counters[slot],
                )
                counters[slot] = found
        return tuple(counters), failures

    def on_cache_evict(self, meta_index: int) -> None:
        super().on_cache_evict(meta_index)
        self._block_writes.pop(meta_index, None)
