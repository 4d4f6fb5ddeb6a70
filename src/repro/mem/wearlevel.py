"""Start-Gap wear leveling (Qureshi et al., MICRO'09 — the paper's
reference [26] for PCM lifetime management).

The paper motivates STAR with PCM's limited endurance; production PCM
controllers pair low write traffic with wear leveling. Start-Gap is the
canonical algebraic scheme: the physical space holds one spare line (the
*gap*); every ``gap_write_interval`` writes the line adjacent to the gap
is copied into it, rotating the mapping one step, so a logically hot
line migrates across the whole device over time.

Mapping (with ``N`` logical lines and ``N + 1`` physical slots)::

    physical = (logical + start) mod N
    if physical >= gap:  physical += 1

``gap`` walks from N down to 0; when it reaches 0 it resets to N and
``start`` advances — after N full gap rotations every logical line has
visited every physical slot.

:class:`WearLevelingNVM` layers the remapper over the data region of
the plain :class:`~repro.mem.nvm.NVM`; gap moves cost one extra line
read + write, counted as regular traffic.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.mem.nvm import NVM
from repro.tree.node import DataLineImage
from repro.util.stats import Stats


class StartGapRemapper:
    """The Start-Gap address algebra plus its rotation schedule."""

    def __init__(self, num_lines: int,
                 gap_write_interval: int = 100) -> None:
        if num_lines < 1:
            raise ValueError("need at least one line")
        if gap_write_interval < 1:
            raise ValueError("gap interval must be >= 1")
        self.num_lines = num_lines
        self.gap_write_interval = gap_write_interval
        self.start = 0
        self.gap = num_lines  # the spare slot, initially at the end
        self._writes_since_move = 0
        self.gap_moves = 0

    def translate(self, logical: int) -> int:
        """Logical line -> physical slot (always a bijection)."""
        if not 0 <= logical < self.num_lines:
            raise ValueError("logical line %d out of range" % logical)
        physical = (logical + self.start) % self.num_lines
        if physical >= self.gap:
            physical += 1
        return physical

    def logical_of(self, physical: int) -> int:
        """Physical slot -> logical line (inverse of :meth:`translate`;
        the gap slot holds no line)."""
        if not 0 <= physical <= self.num_lines or physical == self.gap:
            raise ValueError("physical slot %d holds no line" % physical)
        if physical > self.gap:
            physical -= 1
        return (physical - self.start) % self.num_lines

    def note_write(self) -> Optional[Tuple[int, int]]:
        """Account one write; when this write triggers a gap move,
        returns the (source, destination) physical slots of the
        migration copy."""
        self._writes_since_move += 1
        if self._writes_since_move < self.gap_write_interval:
            return None
        self._writes_since_move = 0
        return self._move_gap()

    def _move_gap(self) -> Tuple[int, int]:
        """Rotate the gap one step; returns the migration copy.

        The content adjacent to the gap moves into it and the vacated
        slot becomes the new gap. When the gap sits at slot 0 the
        adjacency wraps: slot N's content moves into slot 0 and the
        ``start`` register advances — that is what keeps the algebraic
        mapping consistent across the wrap.
        """
        self.gap_moves += 1
        destination = self.gap
        if self.gap == 0:
            source = self.num_lines
            self.start = (self.start + 1) % self.num_lines
        else:
            source = self.gap - 1
        self.gap = source
        return source, destination


class WearLevelingNVM(NVM):
    """An NVM whose data region is start-gap remapped.

    Metadata/RA/ST regions keep their identity mapping: the paper's
    wear problem concentrates on data and shadow regions, and remapping
    metadata would complicate the recovery walk without changing any
    evaluated quantity.
    """

    def __init__(self, num_data_lines: int,
                 gap_write_interval: int = 100,
                 stats: Optional[Stats] = None) -> None:
        super().__init__(stats)
        self.remapper = StartGapRemapper(
            num_data_lines, gap_write_interval
        )

    def read_data(self, line: int) -> Optional[DataLineImage]:
        return super().read_data(self.remapper.translate(line))

    def peek_data(self, line: int) -> Optional[DataLineImage]:
        return super().peek_data(self.remapper.translate(line))

    def tamper_data(self, line: int, image: DataLineImage) -> None:
        super().tamper_data(self.remapper.translate(line), image)

    def data_lines(self):
        """All touched *logical* data lines, ascending — the numbering
        that :meth:`peek_data` and :meth:`tamper_data` take."""
        logical_of = self.remapper.logical_of
        return sorted(logical_of(slot) for slot in super().data_lines())

    def write_data(self, line: int, image: DataLineImage) -> None:
        super().write_data(self.remapper.translate(line), image)
        migration = self.remapper.note_write()
        if migration is not None:
            source, destination = migration
            self.stats.add("wearlevel.gap_moves")
            # the migration is a real device read + write, routed
            # through the counted API so the address trace sees it too
            self.migrate_data(source, destination)
