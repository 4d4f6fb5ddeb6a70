"""The benchmark's workloads and the checks on their outputs.

Each workload reads its cell set from a grid file under ``grids/``;
``--seed`` replaces the grid's seed, so the same seed always yields the
same inputs. One *pass* is the unit the harness times:

* ``paper_grid`` — the 28 cells of ``grids/paper.json`` through
  ``run_one`` with the batched pipeline and telemetry on, the way
  ``star-bench --batch`` runs them; each cell generates its own
  reference stream inside the pass.
* ``lab_table2`` — ``grids/table2.json`` (35 STAR cells, 5 ADR sizes)
  through ``Scheduler(store, jobs=1).run`` into a fresh ``ResultStore``:
  the scalar loop, telemetry off, plus the lab store and scheduler.
* ``fuzz_campaign`` — ``run_campaign(spec, jobs=1)`` over the
  ``grids/fuzz_nightly.json`` case mix; pass *k* runs campaign
  ``k mod FUZZ_CAMPAIGNS`` of :data:`FUZZ_CASES` cases: recovery,
  attacks and the oracle.

``run_pass`` is the timed call; ``collect`` (untimed) turns its raw
result into per-cell exported counters, failed cells, modelled outputs
and layer counters.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

FUZZ_CASES = 256
"""Cases per fuzz campaign, one campaign a pass (~3 s on a 2-core x86
host)."""

FUZZ_CAMPAIGNS = 8
"""Distinct campaigns a fuzz run cycles through: averaging the case mix
over 2,048 cases keeps the seed from moving the throughput."""

REFERENCE_FILE = Path(__file__).with_name("reference.json")

DETECTORS = ("recovery", "on-use", "audit")
"""Fuzz verdicts that count as detecting a tampered case (``healed``
means recovery restored the exact pre-crash state instead)."""


def digest(payload: Dict) -> str:
    """Short stable digest of one cell's exported counters."""
    encoded = json.dumps(payload, sort_keys=True,
                         separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()[:12]


@dataclass
class Pass:
    """What one pass produced, in cell order."""

    cells: List[Tuple[str, Dict]]
    """``(label, exported counters)`` per cell."""
    failed: Set[str] = field(default_factory=set)
    """Labels of cells a workload-specific check rejected."""
    modelled: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    """Per-pass layer counters taken from the results (``mem.*``)."""

    def digests(self) -> Dict[str, str]:
        return {label: digest(payload) for label, payload in self.cells}


def gmean(values: List[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def _stats_counters(stats_list: List[Dict]) -> Dict[str, float]:
    hits = sum(s.get("meta_cache.hits", 0) for s in stats_list)
    misses = sum(s.get("meta_cache.misses", 0) for s in stats_list)
    regions = ("data", "meta", "ra", "st")
    return {
        "mem.meta_cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "mem.nvm_reads": sum(s.get("nvm.%s_reads" % r, 0)
                             for s in stats_list for r in regions),
        "mem.nvm_writes": sum(s.get("nvm.%s_writes" % r, 0)
                              for s in stats_list for r in regions),
    }


def stream_refs(streams: List[Tuple[str, int, int, int]]) -> int:
    """Trace records in ``(workload, data lines, ops, seed)`` streams,
    regenerating each distinct stream once."""
    from repro.workloads.registry import make_workload

    lengths: Dict[Tuple[str, int, int, int], int] = {}
    for key in streams:
        if key not in lengths:
            name, lines, ops, seed = key
            stream = make_workload(name, lines, operations=ops,
                                   seed=seed).ops()
            lengths[key] = sum(1 for _ in stream)
    return sum(lengths[key] for key in streams)


class Workload:
    """Common grid loading and reference handling."""

    name = ""
    grid_file = ""
    distinct_passes = 1
    """Passes with different inputs; pass k repeats pass k - this."""

    def __init__(self, root: Path, seed: Optional[int],
                 work_dir: Path) -> None:
        self.root = root
        self.work_dir = work_dir
        with open(root / self.grid_file) as handle:
            self.grid = json.load(handle)
        self.default_seed = self.grid["seed"]
        self.seed = self.default_seed if seed is None else seed
        self.grid["seed"] = self.seed
        self.refs: Optional[int] = None

    def setup(self) -> None:
        """Imports, config and first-call warm-ups (timed as set-up)."""
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def collect(self, raw) -> Pass:
        raise NotImplementedError

    def count_refs(self, raw) -> int:
        """Trace records the pass replayed (counted outside timing)."""
        raise NotImplementedError

    def reference(self) -> Optional[Dict[str, str]]:
        """Recorded digests, when this run uses the grid's seed."""
        if self.seed != self.default_seed or not REFERENCE_FILE.exists():
            return None
        with open(REFERENCE_FILE) as handle:
            entry = json.load(handle).get(self.name)
        if entry is None or entry["seed"] != self.seed:
            return None
        return entry["cells"]


# ----------------------------------------------------------------------
# paper_grid
# ----------------------------------------------------------------------
@contextlib.contextmanager
def batch_guard() -> Iterator[List[bool]]:
    """Record, per ``Machine.run`` call, whether it ran batched.

    ``Machine(batch=...)`` silently falls back to the scalar loop when
    :func:`repro.sim.batch.eligible` says no; the guard makes that
    visible instead.
    """
    from repro.sim.batch import eligible
    from repro.sim.machine import Machine

    run = Machine.run
    seen: List[bool] = []

    def guarded(self, ops):
        seen.append(bool(self.batch) and eligible(self))
        return run(self, ops)

    Machine.run = guarded
    try:
        yield seen
    finally:
        Machine.run = run


class PaperGrid(Workload):
    name = "paper_grid"
    grid_file = "grids/paper.json"

    def setup(self) -> None:
        from repro.bench.runner import SCALES, config_for_scale, run_one

        self.run_one = run_one
        scale = self.grid["scale"]
        self.config = config_for_scale(scale)
        self.cells = [
            (scheme, workload, SCALES[scale].operations_for(workload))
            for workload in self.grid["workloads"]
            for scheme in self.grid["schemes"]
        ]
        run_one(config_for_scale("smoke"), "star", "array", 16,
                seed=self.seed, telemetry=True, batch=True)

    def run_pass(self):
        results = []
        with batch_guard() as batched:
            for scheme, workload, ops in self.cells:
                results.append(self.run_one(
                    self.config, scheme, workload, ops, seed=self.seed,
                    telemetry=True, batch=True,
                ))
        return results, batched

    def collect(self, raw) -> Pass:
        from repro.lab.executor import run_result_payload
        from repro.lab.spec import bench_spec

        results, batched = raw
        grid = {}
        out = Pass(cells=[])
        for index, ((scheme, workload, ops), result) in enumerate(
                zip(self.cells, results)):
            label = "%s/%s" % (scheme, workload)
            spec = bench_spec(self.config, scheme, workload, ops,
                              seed=self.seed)
            out.cells.append((label, run_result_payload(spec, result)))
            grid[(scheme, workload)] = result
            if index >= len(batched) or not batched[index]:
                out.failed.add(label)
        # the paper's orderings, on any seed (Fig. 11)
        for workload in self.grid["workloads"]:
            wb = grid[("wb", workload)]
            if wb.nvm_writes == 0 or wb.normalized_writes(wb) != 1.0:
                out.failed.add("wb/%s" % workload)
            if (grid[("star", workload)].nvm_writes
                    > grid[("anubis", workload)].nvm_writes):
                out.failed.add("star/%s" % workload)
        workloads = self.grid["workloads"]
        out.modelled = {
            "model.star_writes_norm": gmean([
                grid[("star", w)].normalized_writes(grid[("wb", w)])
                for w in workloads]),
            "model.star_ipc_norm": gmean([
                grid[("star", w)].normalized_ipc(grid[("wb", w)])
                for w in workloads]),
        }
        out.counters = _stats_counters([r.stats for r in results])
        return out

    def count_refs(self, raw) -> int:
        if self.refs is None:
            self.refs = stream_refs([
                (workload, self.config.num_data_lines, ops, self.seed)
                for _, workload, ops in self.cells])
        return self.refs


# ----------------------------------------------------------------------
# lab_table2
# ----------------------------------------------------------------------
class LabTable2(Workload):
    name = "lab_table2"
    grid_file = "grids/table2.json"

    def setup(self) -> None:
        from repro.bench.runner import config_for_scale
        from repro.lab.gridfile import expand
        from repro.lab.scheduler import Scheduler
        from repro.lab.spec import bench_spec
        from repro.lab.store import ResultStore

        self.store_cls, self.scheduler_cls = ResultStore, Scheduler
        self.specs = expand(self.grid)
        self.passes = 0
        warm = bench_spec(config_for_scale("smoke"), "star", "array", 16,
                          seed=self.seed)
        store_dir = self._store_dir("warm")
        store = ResultStore(store_dir)
        try:
            Scheduler(store, jobs=1).run([warm], name="warm-up")
        finally:
            store.close()
            shutil.rmtree(store_dir, ignore_errors=True)

    def _store_dir(self, tag: str) -> Path:
        return self.work_dir / ("lab-%d-%s" % (os.getpid(), tag))

    def run_pass(self):
        self.passes += 1
        store_dir = self._store_dir(str(self.passes))
        shutil.rmtree(store_dir, ignore_errors=True)
        store = self.store_cls(store_dir)
        report = self.scheduler_cls(store, jobs=1).run(
            self.specs, name=self.grid["name"])
        return store, store_dir, report

    def collect(self, raw) -> Pass:
        store, store_dir, report = raw
        out = Pass(cells=[])
        try:
            records = [store.get(spec) for spec in self.specs]
        finally:
            store.close()
            shutil.rmtree(store_dir, ignore_errors=True)
        at_16 = []
        for spec, record in zip(self.specs, records):
            lines = spec.system_config().star.adr_bitmap_lines
            label = "%s/%s/adr%d" % (spec.scheme, spec.workload, lines)
            if record is None:
                out.cells.append((label, {}))
                out.failed.add(label)
                continue
            out.cells.append((label, record.payload))
            if lines == 16:
                at_16.append(record.payload["adr_hit_ratio"])
        if report.failed or report.completed != len(self.specs):
            out.failed.update(label for label, _ in out.cells)
        out.modelled = {
            "model.adr_hit_ratio": sum(at_16) / len(at_16)
            if at_16 else 0.0,
        }
        out.counters = _stats_counters(
            [payload.get("stats", {}) for _, payload in out.cells])
        return out

    def count_refs(self, raw) -> int:
        if self.refs is None:
            self.refs = stream_refs([
                (spec.workload, spec.system_config().num_data_lines,
                 spec.operations, spec.seed) for spec in self.specs])
        return self.refs


# ----------------------------------------------------------------------
# fuzz_campaign
# ----------------------------------------------------------------------
class FuzzCampaign(Workload):
    name = "fuzz_campaign"
    grid_file = "grids/fuzz_nightly.json"
    distinct_passes = FUZZ_CAMPAIGNS

    def _spec(self, cases: int, seed: int):
        from repro.fuzz.sampling import CampaignSpec

        grid = self.grid
        return CampaignSpec(
            cases=cases, seed=seed, schemes=list(grid["schemes"]),
            workloads=list(grid["workloads"]),
            min_operations=grid["min_operations"],
            max_operations=grid["max_operations"],
            attack_rate=grid["attack_rate"],
        )

    def setup(self) -> None:
        from repro.fuzz.executor import run_campaign

        self.run_campaign = run_campaign
        # campaign k samples from seed + k * 7919, so campaign 0 is
        # the grid's own campaign (extended to FUZZ_CASES cases)
        self.specs = [self._spec(FUZZ_CASES, self.seed + 7919 * k)
                      for k in range(FUZZ_CAMPAIGNS)]
        self.passes = 0
        run_campaign(self._spec(1, self.seed), jobs=1)

    def run_pass(self):
        k = self.passes % FUZZ_CAMPAIGNS
        self.passes += 1
        return k, self.run_campaign(self.specs[k], jobs=1)

    def collect(self, raw) -> Pass:
        k, campaign = raw
        out = Pass(cells=[])
        tampered = detected = 0
        for result in campaign.results:
            label = "k%d/%s" % (k, result.case.case_id)
            out.cells.append((label, result.to_dict()))
            if result.failed:
                out.failed.add(label)
            if result.tampered:
                tampered += 1
                detected += result.detected_by in DETECTORS
        if len(campaign.results) != FUZZ_CASES:
            out.failed.add("k%d/campaign" % k)
        out.modelled = {
            "model.detected_frac": detected / tampered if tampered else 0.0,
        }
        return out

    def count_refs(self, raw) -> int:
        return sum(result.crash_at for result in raw[1].results)


WORKLOADS = {cls.name: cls for cls in (PaperGrid, LabTable2, FuzzCampaign)}

MODELLED = ("model.star_writes_norm", "model.star_ipc_norm",
            "model.adr_hit_ratio", "model.detected_frac")
MEM_COUNTERS = ("mem.meta_cache_hit_ratio", "mem.nvm_reads",
                "mem.nvm_writes")


def check_cells(current: Pass, expected: Optional[Dict[str, str]],
                seen: Dict[str, str]) -> Set[str]:
    """Labels of ``current`` that failed a workload check, differ from
    the recorded reference (when this seed has one) or differ from an
    earlier pass over the same cell; ``seen`` collects first digests."""
    bad = set(current.failed)
    for label, value in current.digests().items():
        if expected is not None and expected.get(label) != value:
            bad.add(label)
        if seen.setdefault(label, value) != value:
            bad.add(label)
    return bad
