"""The STAR recovery process (Section III-F).

After a crash, the NVM plus the on-chip registers are all that remain.
Recovery proceeds in four phases:

1. **Locate** — walk the multi-layer index from the on-chip top line,
   reading only non-zero bitmap lines from the recovery area; the set
   bits are exactly the metadata lines that were dirty in the metadata
   cache (hence stale in NVM) when power failed.
2. **Restore counters** — for each stale node, read its stale NVM image
   (the counter MSBs) and its eight children; each child's spare MAC bits
   carry the 10 LSBs of the corresponding counter as of the child's last
   persist, which is also its value at the crash (the parent counter only
   moves when that child persists). :func:`reconstruct_counter` combines
   MSBs and LSBs exactly.
3. **Recompute MACs** — each restored node's MAC needs its parent's
   counter: taken from the restored set when the parent was itself stale,
   from NVM when it was clean, or from the on-chip SIT root for top-level
   nodes. :func:`~repro.schemes.base.restore_node` writes the restored
   image back to NVM.
4. **Verify** — the restored nodes are placed back into their cache sets,
   the set-MACs and the cache-tree root recomputed, and the root compared
   against the on-chip register. Any replay of (data, MAC, LSB) tuples or
   bitmap tampering during recovery yields a mismatch.

Per stale node this touches ten lines (itself + eight children + parent)
plus one write — the cost model behind Fig. 14(b). The caller counts
and prices that traffic (:func:`~repro.schemes.base.measure_recovery`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.bitmap import locate_stale_lines
from repro.core.cachetree import CacheTree
from repro.core.index import MultiLayerIndex
from repro.core.synergy import reconstruct_counter_observed
from repro.mem.nvm import NVM
from repro.schemes.base import RecoveryReport, restore_node
from repro.tree.geometry import NodeId, TreeGeometry


def recover_star(machine, index: MultiLayerIndex) -> RecoveryReport:
    """Run STAR recovery against a crashed machine's NVM and registers,
    walking the scheme's multi-layer ``index``."""
    config = machine.config
    nvm = machine.nvm
    registers = machine.registers
    geometry = machine.controller.geometry
    stats = nvm.stats

    with stats.span("recovery.star") as root_span:
        # phase 1: locate the stale metadata, remembering which RA lines
        # the walk read as non-zero — those are the only index lines that
        # need clearing afterwards
        with stats.span("recovery.locate") as locate_span:
            stale, nonzero_ra = locate_stale_lines(
                index, nvm, registers.index_top_line
            )
            if locate_span is not None:
                locate_span.attrs["lines"] = len(stale)
        stats.observe("recovery.stale_batch", len(stale))

        # phase 2: restore every stale node's counters from child LSBs
        restored: Dict[int, Tuple[int, ...]] = {}
        with stats.span("recovery.restore", lines=len(stale)):
            for line in stale:
                node_id = geometry.node_at(line)
                image, _touched = nvm.read_meta(line)
                restored[line] = _restore_counters(
                    geometry, nvm, node_id, image, stats
                )
                stats.event("recover_line", meta_index=line,
                            level=node_id[0])

        # phase 3: recompute MACs (parents first available), write back
        restored_macs: Dict[int, int] = {}
        with stats.span("recovery.remac", lines=len(stale)):
            for line in stale:
                restored_macs[line] = restore_node(
                    machine, geometry.node_at(line), restored[line],
                    restored,
                ).mac

        # phase 4: rebuild the cache-tree, verify against the register
        with stats.span("recovery.verify") as verify_span:
            tree = CacheTree(
                config.crypto_key, config.metadata_cache.num_sets,
                config.star.cache_tree_arity,
            )
            root = tree.root_from_entries(sorted(restored_macs.items()))
            verified = root == registers.cache_tree_root
            if verify_span is not None:
                verify_span.attrs["verified"] = verified

        if verified:
            # the restored lines are no longer stale: zero exactly the
            # non-zero RA lines the locate walk visited so a later crash
            # does not claim them again. These are real NVM writes on
            # the recovery critical path (no battery involved), so they
            # go through the counted write_ra — and because the walk
            # only ever reads non-zero lines, the clearing cost scales
            # with the stale-line count, not the index size.
            for key in nonzero_ra:
                nvm.write_ra(key, 0)
            registers.index_top_line = 0
            # the rebooted machine starts with an empty (all-clean)
            # cache; re-arm the root register accordingly so an
            # immediate second crash-recovery cycle verifies trivially
            registers.cache_tree_root = tree.root_from_entries([])
        if root_span is not None:
            root_span.attrs["verified"] = verified

    return RecoveryReport(
        scheme="star",
        stale_lines=len(stale),
        restored_lines=len(restored),
        verified=verified,
        restored=restored,
        ra_lines_cleared=len(nonzero_ra) if verified else 0,
    )


def _restore_counters(geometry: TreeGeometry, nvm: NVM, node_id: NodeId,
                      image, stats=None) -> Tuple[int, ...]:
    """Phase-2 reconstruction of one node's eight counters."""
    level, _index = node_id
    children = geometry.children_of(node_id)
    counters: List[int] = []
    for slot in range(geometry.arity):
        stale_counter = image.counters[slot]
        lsbs: Optional[int] = None
        if slot < len(children):
            if level == 0:
                child = nvm.read_data(children[slot])
                if child is not None:
                    lsbs = child.lsbs
            else:
                child_line = geometry.meta_index((level - 1, children[slot]))
                child_image, touched = nvm.read_meta(child_line)
                if touched:
                    lsbs = child_image.lsbs
        if lsbs is None:
            # the child was never persisted, so this counter never moved
            counters.append(stale_counter)
        else:
            counters.append(
                reconstruct_counter_observed(stale_counter, lsbs, stats)
            )
    return tuple(counters)

