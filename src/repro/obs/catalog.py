"""The metric catalogue: every stat name the simulator may emit.

The telemetry registry (PR 1) auto-creates instruments on first use,
which keeps call sites terse but means a typo in a metric name silently
forks a new, never-read counter instead of failing. This module is the
closed list of sanctioned names; the STAR004 lint rule checks both
directions against it (names used but not catalogued, and catalogue
entries no code emits).

``METRICS`` maps exact names to their instrument kind. Families whose
names are minted at runtime (per-level, per-scheme, per-attack) are
declared once in ``METRIC_PATTERNS`` using printf placeholders:
``%s`` matches one dot-free name segment, ``%d`` matches digits.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

METRICS: Dict[str, str] = {
    "adr.accesses": "counter",
    "adr.cold_misses": "counter",
    "adr.hits": "counter",
    "adr.misses": "counter",
    "adr.resident_lines": "gauge",
    "adr.spills": "counter",
    "anubis.st_writes": "counter",
    "bitmap.mark_fresh": "counter",
    "bitmap.mark_stale": "counter",
    "bmt.block_persists": "counter",
    "bmt.data_reads": "counter",
    "bmt.data_writes": "counter",
    "bmt.minor_overflows": "counter",
    "bmt.reencryption_writes": "counter",
    "bmt.tree_level_persists": "counter",
    "cpu.llc_writebacks": "counter",
    "cpu.read_hits": "counter",
    "cpu.read_misses": "counter",
    "cpu.write_hits": "counter",
    "cpu.write_misses": "counter",
    "ctrl.cascade_depth": "histogram",
    "ctrl.data_reads": "counter",
    "ctrl.data_writes": "counter",
    "ctrl.force_flushes": "counter",
    "ctrl.meta_evictions": "counter",
    "ctrl.meta_persists": "counter",
    "ctrl.root_child_persists": "counter",
    "ctrl.verifications": "counter",
    "fuzz.cases": "counter",
    "fuzz.failures": "counter",
    "fuzz.tamper_applied": "counter",
    "fuzz.violations": "counter",
    "lab.campaign.wall_s": "gauge",
    "lab.farm.cells": "gauge",
    "lab.farm.cells_done": "counter",
    "lab.farm.cells_failed": "counter",
    "lab.farm.cells_requeued": "counter",
    "lab.farm.done": "gauge",
    "lab.farm.failed": "gauge",
    "lab.farm.lease_renewals": "counter",
    "lab.farm.leased": "gauge",
    "lab.farm.leases_claimed": "counter",
    "lab.farm.leases_stolen": "counter",
    "lab.farm.merged_records": "counter",
    "lab.farm.pending": "gauge",
    "lab.farm.stale_fences": "counter",
    "lab.farm.wall_s": "gauge",
    "lab.job.wall_ms": "histogram",
    "lab.jobs.completed": "counter",
    "lab.jobs.failed": "counter",
    "lab.jobs.resumed": "counter",
    "lab.jobs.retried": "counter",
    "lab.jobs.scheduled": "counter",
    "lab.jobs.timeouts": "counter",
    "lab.store.hits": "counter",
    "lab.store.misses": "counter",
    "lab.store.puts": "counter",
    "lab.store.quarantined": "counter",
    "live.heartbeats_corrupt": "gauge",
    "live.heartbeats_written": "counter",
    "live.snapshot_age_s": "gauge",
    "live.workers": "gauge",
    "live.workers_stale": "gauge",
    "meta_cache.hits": "counter",
    "meta_cache.misses": "counter",
    "nvm.data_lines_touched": "gauge",
    "nvm.data_reads": "counter",
    "nvm.data_writes": "counter",
    "nvm.meta_lines_touched": "gauge",
    "nvm.meta_reads": "counter",
    "nvm.meta_writes": "counter",
    "nvm.ra_lines_touched": "gauge",
    "nvm.ra_reads": "counter",
    "nvm.ra_writes": "counter",
    "nvm.st_reads": "counter",
    "nvm.st_slots_touched": "gauge",
    "nvm.st_writes": "counter",
    "phoenix.periodic_persists": "counter",
    "profile.spans": "counter",
    "phoenix.probe_distance": "histogram",
    "phoenix.st_writes": "counter",
    "recovery.stale_batch": "histogram",
    "sanitize.checks": "counter",
    "sit.persist_level": "histogram",
    "supermem.coalesced_writes": "counter",
    "synergy.lsb_wraps": "counter",
    "synergy.reconstruct_drift": "histogram",
    "synergy.reconstructions": "counter",
    "wearlevel.gap_moves": "counter",
    "wpq.full_stalls": "counter",
    "wpq.occupancy": "histogram",
}

METRIC_PATTERNS: List[Tuple[str, str]] = [
    # (printf template, kind)
    ("%s.resident_lines", "gauge"),
    ("bitmap.line_updates.l%d", "counter"),
    ("fuzz.attack.%s", "counter"),
    ("fuzz.detected.%s", "counter"),
    ("fuzz.scheme.%s", "counter"),
    ("fuzz.workload.%s", "counter"),
    ("sit.level%d.writes", "counter"),
]


def _pattern_regex(template: str) -> "re.Pattern[str]":
    parts = re.split(r"(%[sd])", template)
    out = []
    for part in parts:
        if part == "%s":
            out.append(r"[^.]+")
        elif part == "%d":
            out.append(r"\d+")
        else:
            out.append(re.escape(part))
    return re.compile("".join(out) + r"\Z")


_COMPILED: List[Tuple["re.Pattern[str]", str, str]] = [
    (_pattern_regex(template), template, kind)
    for template, kind in METRIC_PATTERNS
]


def lookup(name: str) -> Optional[str]:
    """The instrument kind for a concrete metric name, else ``None``."""
    kind = METRICS.get(name)
    if kind is not None:
        return kind
    for regex, _template, pattern_kind in _COMPILED:
        if regex.match(name):
            return pattern_kind
    return None


def matching_template(name: str) -> Optional[str]:
    """Which ``METRIC_PATTERNS`` template a concrete name falls under."""
    for regex, template, _kind in _COMPILED:
        if regex.match(name):
            return template
    return None
