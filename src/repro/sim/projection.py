"""Analytic projection of recovery time to arbitrary machine scales.

Fig. 14(b) reports recovery time for metadata caches up to 4 MB on a
16 GB machine — sizes a pure-Python functional simulation cannot hold.
The paper itself uses an analytic cost model there ("we assume that
fetching and updating one metadata (64 bytes) from NVM consume 100ns"),
so this module does the same: it takes the per-line access counts
*measured* on the scaled simulation and replays them at any cache size.

* STAR restores only the stale lines: the dirty fraction of the cache
  times ~11 line accesses each (1 stale read + 8 child reads + 1 parent
  read + 1 write, Section IV-F).
* Anubis scans its shadow table, which mirrors the whole cache:
  ~3 accesses per cache line (ST read + node read + node write).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import LINE_SIZE, PAPER_LINE_ACCESS_NS

STAR_ACCESSES_PER_STALE_LINE = 11.0
"""Paper model: 10 reads (self + 8 children + parent) + 1 write."""

ANUBIS_ACCESSES_PER_CACHE_LINE = 3.0
"""Paper model: ST read + node read + node write per shadowed slot."""


@dataclass(frozen=True)
class RecoveryProjection:
    """Projected recovery time for one metadata cache size."""

    cache_bytes: int
    star_seconds: float
    anubis_seconds: float

    @property
    def cache_lines(self) -> int:
        return self.cache_bytes // LINE_SIZE


def project_star_seconds(cache_bytes: int,
                         dirty_fraction: float,
                         accesses_per_stale: float =
                         STAR_ACCESSES_PER_STALE_LINE,
                         line_ns: float = PAPER_LINE_ACCESS_NS) -> float:
    """STAR's recovery time for a cache of ``cache_bytes``."""
    if not 0.0 <= dirty_fraction <= 1.0:
        raise ValueError("dirty fraction must be in [0, 1]")
    lines = cache_bytes // LINE_SIZE
    return lines * dirty_fraction * accesses_per_stale * line_ns * 1e-9


def project_anubis_seconds(cache_bytes: int,
                           accesses_per_line: float =
                           ANUBIS_ACCESSES_PER_CACHE_LINE,
                           line_ns: float = PAPER_LINE_ACCESS_NS
                           ) -> float:
    """Anubis' recovery time: fixed by the cache size, not dirtiness."""
    lines = cache_bytes // LINE_SIZE
    return lines * accesses_per_line * line_ns * 1e-9


def project(cache_bytes: int, dirty_fraction: float,
            star_accesses_per_stale: float = STAR_ACCESSES_PER_STALE_LINE,
            anubis_accesses_per_line: float =
            ANUBIS_ACCESSES_PER_CACHE_LINE,
            line_ns: float = PAPER_LINE_ACCESS_NS) -> RecoveryProjection:
    """Both schemes at once (one row of Fig. 14b)."""
    return RecoveryProjection(
        cache_bytes=cache_bytes,
        star_seconds=project_star_seconds(
            cache_bytes, dirty_fraction, star_accesses_per_stale, line_ns
        ),
        anubis_seconds=project_anubis_seconds(
            cache_bytes, anubis_accesses_per_line, line_ns
        ),
    )
