"""The STAR persistence scheme (Section III).

STAR adds no extra NVM writes on the persist path: the modifications of a
parent node travel inside its child's spare MAC bits (counter-MAC
synergization, handled by the controller's common persist path — the LSBs
are always in the written image; STAR is the scheme that *uses* them for
recovery). What STAR does add is bookkeeping:

* bitmap-line maintenance on every dirty-state transition of a cached
  metadata line (Section III-C) — the only source of extra traffic,
  measured in Fig. 10,
* the ADR battery flush of resident bitmap lines at a crash,
* the recovery procedure of Section III-F, including cache-tree
  verification.
"""

from __future__ import annotations

from repro.core.bitmap import BitmapLineManager
from repro.core.index import MultiLayerIndex
from repro.core.recovery import recover_star
from repro.schemes.base import PersistenceScheme, RecoveryReport


class StarScheme(PersistenceScheme):
    """Counter-MAC synergization + bitmap lines + cache-tree recovery."""

    name = "star"
    supports_sit_recovery = True

    def __init__(self) -> None:
        super().__init__()
        self.bitmap: BitmapLineManager = None  # type: ignore[assignment]

    def attach(self, controller) -> None:
        super().attach(controller)
        index = MultiLayerIndex(
            controller.geometry.total_nodes,
            controller.config.star.bitmap_fanout,
        )
        self.bitmap = BitmapLineManager(
            index,
            controller.nvm,
            controller.registers,
            controller.config.star.adr_bitmap_lines,
            stats=controller.stats,
        )

    def on_dirty_transition(self, meta_index: int,
                            became_dirty: bool) -> None:
        if became_dirty:
            self.bitmap.mark_stale(meta_index)
        else:
            self.bitmap.mark_fresh(meta_index)

    def on_crash(self) -> None:
        self.controller.stats.event(
            "adr_flush", resident_lines=len(self.bitmap.adr)
        )
        self.bitmap.flush_on_power_failure()

    def recover(self, machine) -> RecoveryReport:
        return recover_star(machine, self.bitmap.index)
