"""The non-volatile memory device model.

A sparse line store with four regions, mirroring the paper's layout:

* **data** — user-data lines (ciphertext + MAC side-band, Synergy-style).
* **meta** — security metadata lines (counter blocks + SIT nodes), indexed
  by the flat metadata index of :class:`~repro.tree.geometry.TreeGeometry`.
* **ra** — the Recovery Area holding spilled bitmap lines (Section III-C).
* **st** — the Anubis shadow table region (only used by that baseline).

Every read/write bumps a named stat counter; the energy and write-traffic
results (Figs. 11 and 13) are computed from these counters. ``tamper_*``
methods mutate lines *without* touching the counters — they model an
attacker with physical access to the DIMM and are used by the attack
tests (Section III-E/F).

Untouched lines read back as their "shredded" zero state: a fresh secure
NVM is assumed to be initialized with zero counters (Silent Shredder);
reads of never-written lines are flagged so the integrity machinery can
skip MAC checks that would otherwise need a bootstrapping pass.

Every access method is hot (they ARE the simulator's traffic), so the
per-region counters are bound once as Counter objects instead of going
through the ``Stats.add`` name lookup. ``stats`` is a property: the
machine swaps in a fresh Stats namespace around recovery, and the setter
rebinds the counters to the new registry.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.tree.node import DataLineImage, NodeImage
from repro.util.stats import Stats

BitmapLineKey = Tuple[int, int]
"""(layer, index) of a bitmap line in the multi-layer index."""


class NVM:
    """Sparse, stat-counting non-volatile line store."""

    def __init__(self, stats: Optional[Stats] = None) -> None:
        self._stats = stats if stats is not None else Stats()
        self._data: Dict[int, DataLineImage] = {}
        self._meta: Dict[int, NodeImage] = {}
        self._ra: Dict[BitmapLineKey, int] = {}
        self._st: Dict[int, object] = {}
        self.wear: Dict[Tuple[str, object], int] = {}
        """Per-line write counts, keyed by (region, line key) — the
        input to the endurance model (PCM cells wear out after 1e7-1e9
        writes; limited endurance is the paper's core motivation)."""
        self.trace: Optional[list] = None
        """When set to a list, every access appends
        ``(op, region, key)`` — the address feed for the bank-level
        device timing model."""
        self._bind_counters()

    @property
    def stats(self) -> Stats:
        return self._stats

    @stats.setter
    def stats(self, value: Stats) -> None:
        self._stats = value
        self._bind_counters()

    def _bind_counters(self) -> None:
        registry = self._stats.registry
        self._c_data_reads = registry.counter("nvm.data_reads")
        self._c_data_writes = registry.counter("nvm.data_writes")
        self._c_meta_reads = registry.counter("nvm.meta_reads")
        self._c_meta_writes = registry.counter("nvm.meta_writes")
        self._c_ra_reads = registry.counter("nvm.ra_reads")
        self._c_ra_writes = registry.counter("nvm.ra_writes")
        self._c_st_reads = registry.counter("nvm.st_reads")
        self._c_st_writes = registry.counter("nvm.st_writes")

    def _wear_out(self, region: str, key) -> None:
        wear_key = (region, key)
        self.wear[wear_key] = self.wear.get(wear_key, 0) + 1

    # ------------------------------------------------------------------
    # user data region
    # ------------------------------------------------------------------
    def read_data(self, line: int) -> Optional[DataLineImage]:
        """Read a data line; ``None`` when it was never written."""
        self._c_data_reads.value += 1
        if self.trace is not None:
            self.trace.append(("r", "data", line))
        return self._data.get(line)

    def write_data(self, line: int, image: DataLineImage) -> None:
        self._c_data_writes.value += 1
        if self.trace is not None:
            self.trace.append(("w", "data", line))
        wear_key = ("data", line)
        wear = self.wear
        wear[wear_key] = wear.get(wear_key, 0) + 1
        # the touched-lines gauge only moves on first touch
        if line not in self._data:
            self._stats.gauge_set(
                "nvm.data_lines_touched", len(self._data) + 1
            )
        self._data[line] = image

    def migrate_data(self, source: int, destination: int) -> bool:
        """Move a data line between physical slots, counted.

        The wear-leveling gap rotation is real device traffic: one
        line read at ``source``, one line write at ``destination``.
        Counts, wear and the address trace all see it; the touched
        gauge does not move (one slot vacated, one filled). Returns
        ``False`` (and counts nothing) when ``source`` holds no line.
        """
        content = self._data.pop(source, None)
        if content is None:
            return False
        self._c_data_reads.value += 1
        self._c_data_writes.value += 1
        if self.trace is not None:
            self.trace.append(("r", "data", source))
            self.trace.append(("w", "data", destination))
        self._wear_out("data", destination)
        self._data[destination] = content
        return True

    def peek_data(self, line: int) -> Optional[DataLineImage]:
        """Read without counting traffic (test oracles, attackers)."""
        return self._data.get(line)

    def data_lines(self):
        """All touched data line numbers, ascending (oracle scans)."""
        return sorted(self._data)

    # ------------------------------------------------------------------
    # security metadata region
    # ------------------------------------------------------------------
    def read_meta(self, meta_index: int) -> Tuple[NodeImage, bool]:
        """Read a metadata line; the flag is False for untouched lines."""
        self._c_meta_reads.value += 1
        if self.trace is not None:
            self.trace.append(("r", "meta", meta_index))
        image = self._meta.get(meta_index)
        if image is None:
            return NodeImage.zero(), False
        return image, True

    def write_meta(self, meta_index: int, image: NodeImage) -> None:
        self._c_meta_writes.value += 1
        if self.trace is not None:
            self.trace.append(("w", "meta", meta_index))
        wear_key = ("meta", meta_index)
        wear = self.wear
        wear[wear_key] = wear.get(wear_key, 0) + 1
        if meta_index not in self._meta:
            self._stats.gauge_set(
                "nvm.meta_lines_touched", len(self._meta) + 1
            )
        self._meta[meta_index] = image

    def flush_meta(self, meta_index: int, image: NodeImage) -> None:
        """ADR battery flush of a queued metadata write at power
        failure: durable, but not runtime traffic."""
        self._meta[meta_index] = image

    def peek_meta(self, meta_index: int) -> Optional[NodeImage]:
        return self._meta.get(meta_index)

    def meta_lines(self):
        """All touched metadata line numbers, ascending (oracle scans)."""
        return sorted(self._meta)

    def meta_is_touched(self, meta_index: int) -> bool:
        return meta_index in self._meta

    def read_untouched_blocks(self, geometry, start: int,
                              stop: int) -> None:
        """Count the probe of counter blocks ``start..stop-1`` in bulk.

        Charges exactly what calling :meth:`read_meta` on each block's
        level-0 line and then :meth:`read_data` on each of its children
        would: the same counters and, when tracing, the same trace
        entries in the same order. The caller guarantees that none of
        these lines was ever written, so every read would return the
        zero state and nothing is returned here. Level-0 lines come
        first in the flat metadata order, so block ``b`` is line ``b``.
        """
        if self.trace is not None:
            # the address feed needs every line: replay them one by one
            for block in range(start, stop):
                self.read_meta(block)
                for line in geometry.children_of((0, block)):
                    self.read_data(line)
            return
        if start >= stop:
            return
        self._c_meta_reads.value += stop - start
        self._c_data_reads.value += (
            min(stop * geometry.arity, geometry.num_data_lines)
            - start * geometry.arity
        )

    # ------------------------------------------------------------------
    # recovery area (spilled bitmap lines)
    # ------------------------------------------------------------------
    def read_ra(self, key: BitmapLineKey) -> int:
        self._c_ra_reads.value += 1
        if self.trace is not None:
            self.trace.append(("r", "ra", key))
        return self._ra.get(key, 0)

    def write_ra(self, key: BitmapLineKey, value: int) -> None:
        self._c_ra_writes.value += 1
        if self.trace is not None:
            self.trace.append(("w", "ra", key))
        wear_key = ("ra", key)
        wear = self.wear
        wear[wear_key] = wear.get(wear_key, 0) + 1
        if key not in self._ra:
            self._stats.gauge_set(
                "nvm.ra_lines_touched", len(self._ra) + 1
            )
        self._ra[key] = value

    def flush_ra(self, key: BitmapLineKey, value: int) -> None:
        """ADR battery flush at power failure: not runtime traffic."""
        self._ra[key] = value

    def peek_ra(self, key: BitmapLineKey) -> int:
        return self._ra.get(key, 0)

    def ra_is_touched(self, key: BitmapLineKey) -> bool:
        """Whether the recovery area holds a copy of this bitmap line."""
        return key in self._ra

    # ------------------------------------------------------------------
    # Anubis shadow table region
    # ------------------------------------------------------------------
    def read_st(self, slot: int) -> Optional[object]:
        self._c_st_reads.value += 1
        if self.trace is not None:
            self.trace.append(("r", "st", slot))
        return self._st.get(slot)

    def write_st(self, slot: int, entry: object) -> None:
        self._c_st_writes.value += 1
        if self.trace is not None:
            self.trace.append(("w", "st", slot))
        wear_key = ("st", slot)
        wear = self.wear
        wear[wear_key] = wear.get(wear_key, 0) + 1
        if slot not in self._st:
            self._stats.gauge_set(
                "nvm.st_slots_touched", len(self._st) + 1
            )
        self._st[slot] = entry

    def clear_st(self, slot: int) -> None:
        """Invalidate a shadow-table slot (tag reuse; not NVM traffic).

        Models Anubis' slot tags becoming invalid when the shadowed cache
        way is reassigned — the stale entry must not win over a newer one
        during the recovery scan.
        """
        self._st.pop(slot, None)

    def st_slots(self):
        """All occupied shadow-table slots (recovery scan)."""
        return sorted(self._st)

    # ------------------------------------------------------------------
    # attacker interface: mutate lines without touching stat counters
    # ------------------------------------------------------------------
    def tamper_data(self, line: int, image: DataLineImage) -> None:
        self._data[line] = image

    def tamper_meta(self, meta_index: int, image: NodeImage) -> None:
        self._meta[meta_index] = image

    def tamper_ra(self, key: BitmapLineKey, value: int) -> None:
        self._ra[key] = value

    # ------------------------------------------------------------------
    # aggregate traffic
    # ------------------------------------------------------------------
    def total_writes(self) -> int:
        """All NVM line writes, every region."""
        return (
            self._c_data_writes.value
            + self._c_meta_writes.value
            + self._c_ra_writes.value
            + self._c_st_writes.value
        )

    def total_reads(self) -> int:
        """All NVM line reads, every region."""
        return (
            self._c_data_reads.value
            + self._c_meta_reads.value
            + self._c_ra_reads.value
            + self._c_st_reads.value
        )
