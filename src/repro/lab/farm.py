"""The distributed campaign farm: coordinator + work-stealing workers.

``repro.lab.farm`` turns the single-host lab into a multi-worker
campaign service over one shared farm directory. The topology:

* a **coordinator** (``star-lab serve``) expands grids into cells,
  seeds the :class:`~repro.lab.lease.LeaseBoard` (skipping cells the
  authoritative store already holds), then watches the board — writing
  journal checkpoints and heartbeats for ``star-lab status`` /
  ``star-top`` — until every cell is terminal. It then **merges** the
  per-worker stores into the authoritative store through
  :meth:`~repro.lab.store.ResultStore.import_from`;
* N **workers** (``star-lab work``) independently claim leases,
  execute the cells through the existing
  :class:`~repro.lab.scheduler.Scheduler` → :mod:`repro.lab.executor`
  path into their own private store, renew their leases between
  chunks, and mark cells done/failed under the lease's fencing token.
  A worker that dies (SIGKILL, OOM kill, a crash) simply stops
  renewing — once its deadlines pass, the surviving workers steal its
  cells.

Farm layout, under one shared directory::

    <farm>/
      leases.sqlite        the lease board (the only coordination state)
      farm.json            manifest: campaign id/name, cells, lease
      workers/<id>/store/  per-worker ResultStore (merged, then disposable)
      telemetry/           worker + coordinator heartbeats (star-top)

Coordinator and workers talk to the SQLite
:class:`~repro.lab.lease.LeaseBoard` directly; ``BEGIN IMMEDIATE``
transactions arbitrate between their processes.

Determinism: payloads are pure functions of their specs, so however
many workers computed (or double-computed, after a steal) a cell, the
merged store's deterministic export is byte-identical to a serial
``star-lab run`` of the same grid — the property the ``farm-smoke`` CI
job pins with ``cmp``. All timing goes through the injectable
:class:`~repro.lab.clock.Clock`, so churn scenarios are tested on a
FakeClock, and no wall-clock value ever reaches a result payload.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.lab.clock import BackoffPolicy, Clock
from repro.lab.gridfile import campaign_id
from repro.lab.lease import Lease, LeaseBoard
from repro.lab.scheduler import (
    CampaignReport,
    JobRunner,
    PathLike,
    ProcessRunner,
    Scheduler,
    write_journal,
)
from repro.lab.spec import RunSpec
from repro.lab.store import ResultStore, StoreError, git_revision
from repro.util.stats import Stats

if TYPE_CHECKING:
    from repro.obs.live import HeartbeatWriter

BOARD_NAME = "leases.sqlite"
MANIFEST_NAME = "farm.json"
WORKERS_DIR = "workers"
TELEMETRY_DIR = "telemetry"


def board_path(farm_dir: PathLike) -> Path:
    return Path(farm_dir) / BOARD_NAME


def manifest_path(farm_dir: PathLike) -> Path:
    return Path(farm_dir) / MANIFEST_NAME


def telemetry_dir(farm_dir: PathLike) -> Path:
    return Path(farm_dir) / TELEMETRY_DIR


def worker_store_path(farm_dir: PathLike, worker_id: str) -> Path:
    return Path(farm_dir) / WORKERS_DIR / worker_id / "store"


def _heartbeat(directory: PathLike, name: str, clock: Clock,
               interval_s: float,
               stats: Optional[Stats]) -> "HeartbeatWriter":
    from repro.obs.live import HeartbeatWriter

    return HeartbeatWriter(directory, name, clock=clock,
                           interval_s=interval_s, stats=stats)


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
class Coordinator:
    """Seed the board, watch it converge, merge the worker stores.

    The coordinator owns the *authoritative* store and the campaign
    journal; it never executes cells itself. Restarting it against the
    same farm directory re-adopts the existing board (in-flight leases
    keep their owners and fences) and re-merges whatever the workers
    have stored since — coordination state lives entirely on disk.
    """

    def __init__(self, store: ResultStore, farm_dir: PathLike,
                 clock: Optional[Clock] = None,
                 stats: Optional[Stats] = None,
                 lease_s: float = 60.0,
                 poll_interval_s: float = 0.5,
                 heartbeat_interval_s: float = 1.0,
                 telemetry: bool = True) -> None:
        self.store = store
        self.farm_dir = Path(farm_dir)
        self.clock = clock if clock is not None else Clock()
        self.stats = stats if stats is not None else store.stats
        self.lease_s = lease_s
        self.poll_interval_s = poll_interval_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.telemetry = telemetry
        self.board = LeaseBoard(board_path(self.farm_dir),
                                clock=self.clock)
        self._resumed = 0
        self._checkpoints: List[Dict] = []
        self.git_rev = git_revision()  # read once, not per checkpoint

    def close(self) -> None:
        self.board.close()

    # ------------------------------------------------------------------
    def prepare(self, specs: List[RunSpec],
                name: str = "farm") -> CampaignReport:
        """Seed (or re-adopt) the board for a campaign.

        Cells the authoritative store already holds are settled as done
        without ever being claimable — the farm equivalent of the
        scheduler's resume path.
        """
        cid = campaign_id(specs)
        self.board.seed(specs)
        resumed = 0
        for spec in specs:
            if self.store.get(spec) is not None:
                self.board.settle(spec.spec_hash)
                resumed += 1
        self._resumed = resumed
        self.stats.gauge_set("lab.farm.cells", float(len(specs)))
        manifest = {
            "campaign_id": cid,
            "name": name,
            "cells": len(specs),
            "lease_s": self.lease_s,
        }
        path = manifest_path(self.farm_dir)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
        report = self._report(cid, name, specs)
        self._checkpoint(report)
        write_journal(self.store, cid, name, specs, "running", report,
                      self._checkpoints, self.git_rev)
        return report

    def _report(self, cid: str, name: str,
                specs: List[RunSpec]) -> CampaignReport:
        counts = self.board.counts()
        report = CampaignReport(
            campaign_id=cid, name=name, total=len(specs),
            resumed=self._resumed,
            completed=max(0, counts["done"] - self._resumed),
            failed=counts["failed"],
        )
        report.failures = self.board.failures()
        self.stats.gauge_set("lab.farm.pending",
                             float(counts["pending"]))
        self.stats.gauge_set("lab.farm.leased", float(counts["leased"]))
        self.stats.gauge_set("lab.farm.done", float(counts["done"]))
        self.stats.gauge_set("lab.farm.failed", float(counts["failed"]))
        return report

    def _checkpoint(self, report: CampaignReport) -> None:
        self._checkpoints.append({
            "wall_s": self.clock.wall(),
            "stored": report.resumed + report.completed,
        })

    def merge(self) -> int:
        """Import every worker store into the authoritative store.

        Workers are visited in name order and records in spec-hash
        order; since payloads are spec-pure, the result is independent
        of worker count, interleaving, and double-computed cells.
        """
        merged = 0
        workers_root = self.farm_dir / WORKERS_DIR
        if not workers_root.is_dir():
            return 0
        for worker_root in sorted(workers_root.iterdir()):
            store_root = worker_root / "store"
            if not store_root.is_dir():
                continue
            with ResultStore(store_root) as source:
                merged += self.store.import_from(source)
        if merged:
            self.stats.add("lab.farm.merged_records", merged)
        return merged

    # ------------------------------------------------------------------
    def run(self, specs: List[RunSpec], name: str = "farm",
            max_wall_s: Optional[float] = None) -> CampaignReport:
        """Serve one campaign to completion (or ``max_wall_s``).

        Blocks while workers chew through the board, publishing
        heartbeats and journal checkpoints, then merges and finalizes.
        ``max_wall_s`` bounds the watch loop — the controlled
        interruption knob (the campaign stays resumable: re-run
        ``serve`` to re-adopt it).
        """
        cid = campaign_id(specs)
        started = self.clock.wall()
        report = self.prepare(specs, name=name)
        beat = None
        if self.telemetry:
            beat = _heartbeat(telemetry_dir(self.farm_dir),
                              "coordinator", self.clock,
                              self.heartbeat_interval_s, self.stats)
        last_stored = -1
        interrupted = False
        try:
            while True:
                report = self._report(cid, name, specs)
                stored = report.resumed + report.completed
                if stored != last_stored:
                    last_stored = stored
                    self._checkpoint(report)
                    write_journal(self.store, cid, name, specs,
                                  "running", report, self._checkpoints,
                                  self.git_rev)
                if beat is not None:
                    beat.write(registry=self.stats.registry,
                               progress=report.summary())
                if self.board.finished():
                    self.merge()
                    # done rows whose payload never merged (a worker
                    # store was lost wholesale) go back on the board
                    missing = [
                        spec.spec_hash for spec in specs
                        if self.store.get(spec) is None
                        and spec.spec_hash
                        in set(self.board.hashes("done"))
                    ]
                    if not missing:
                        break
                    self.board.requeue(missing)
                    self.stats.add("lab.farm.cells_requeued",
                                   len(missing))
                if (max_wall_s is not None
                        and self.clock.wall() - started >= max_wall_s):
                    interrupted = True
                    break
                self.clock.sleep(self.poll_interval_s)
        except KeyboardInterrupt:
            interrupted = True
        report = self._report(cid, name, specs)
        report.interrupted = interrupted or report.remaining > 0
        self._checkpoint(report)
        status = ("interrupted" if report.interrupted
                  else "failed" if report.failed else "complete")
        write_journal(self.store, cid, name, specs, status, report,
                      self._checkpoints, self.git_rev)
        self.stats.gauge_set("lab.farm.wall_s",
                             self.clock.wall() - started)
        if beat is not None:
            beat.write(registry=self.stats.registry,
                       progress=report.summary(), force=True)
        return report


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------
class Worker:
    """One work-stealing worker pool: claim, execute, settle, repeat.

    Claims up to ``batch`` leases at a time and executes them in
    chunks of ``jobs`` through a private :class:`Scheduler` (process
    shards, timeouts, retries and the configurable
    :class:`BackoffPolicy` all come along for free), renewing its
    outstanding leases between chunks. One job runner serves every
    chunk, so with ``jobs > 1`` the spawn workers stay warm for the
    worker's whole life. Results land in the worker's
    own store; completion is reported under the lease fence, so a
    worker that outlived its lease discards the completion (not the
    result — the merge path dedups identical payloads).

    When nothing is claimable the worker idles under ``claim_backoff``
    — the same policy class the scheduler retries use — until either
    work appears (a peer's lease expires: the stealing path) or the
    board reports every cell terminal, at which point it exits.
    """

    def __init__(self, farm_dir: PathLike, worker_id: str,
                 store: Optional[ResultStore] = None,
                 clock: Optional[Clock] = None,
                 stats: Optional[Stats] = None,
                 jobs: int = 1,
                 batch: Optional[int] = None,
                 lease_s: float = 60.0,
                 timeout_s: Optional[float] = None,
                 retries: int = 2,
                 backoff: Optional[BackoffPolicy] = None,
                 claim_backoff: Optional[BackoffPolicy] = None,
                 max_attempts: int = 3,
                 poll_interval_s: float = 0.2,
                 heartbeat_interval_s: float = 1.0,
                 telemetry: bool = True,
                 runner: Optional[JobRunner] = None,
                 wait_s: float = 30.0,
                 max_batches: Optional[int] = None) -> None:
        self.farm_dir = Path(farm_dir)
        self.worker_id = worker_id
        self.clock = clock if clock is not None else Clock()
        self.stats = stats if stats is not None else Stats(enabled=True)
        if store is None:
            store = ResultStore(
                worker_store_path(self.farm_dir, worker_id),
                stats=self.stats,
            )
        self.store = store
        self.jobs = max(1, jobs)
        self.batch = batch if batch is not None else self.jobs
        self.lease_s = lease_s
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff = backoff
        self.claim_backoff = (claim_backoff if claim_backoff is not None
                              else BackoffPolicy("exponential",
                                                 base_s=poll_interval_s,
                                                 cap_s=max(1.0, lease_s / 4)))
        self.max_attempts = max_attempts
        self.poll_interval_s = poll_interval_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.telemetry = telemetry
        self.runner = runner
        self.wait_s = wait_s
        self.max_batches = max_batches
        self.done = 0
        self.failed = 0
        self.stolen = 0

    # ------------------------------------------------------------------
    def _wait_for_board(self) -> Optional[LeaseBoard]:
        """Open the lease board, waiting up to ``wait_s`` for the
        coordinator to create it in the farm directory."""
        waited = 0.0
        path = board_path(self.farm_dir)
        while not path.exists():
            if waited >= self.wait_s:
                return None
            self.clock.sleep(self.poll_interval_s)
            waited += self.poll_interval_s
        return LeaseBoard(path, clock=self.clock)

    def _scheduler(self, runner: Optional[JobRunner]) -> Scheduler:
        return Scheduler(
            self.store, jobs=self.jobs, timeout_s=self.timeout_s,
            retries=self.retries, backoff=self.backoff,
            clock=self.clock, stats=self.stats, runner=runner,
        )

    def _chunk_error(self, report: CampaignReport,
                     spec_hash: str) -> str:
        for failure in report.failures:
            if failure.get("spec_hash") == spec_hash:
                return str(failure.get("error", "unknown"))
        return "cell not stored after scheduler run"

    def _settle_chunk(self, board: LeaseBoard, chunk: List[Lease],
                      report: CampaignReport) -> None:
        for lease in chunk:
            if self.store.get(lease.spec) is not None:
                if board.complete(self.worker_id, lease.spec_hash,
                                  lease.fence):
                    self.done += 1
                    self.stats.add("lab.farm.cells_done")
                else:
                    self.stats.add("lab.farm.stale_fences")
            else:
                outcome = board.fail(
                    self.worker_id, lease.spec_hash, lease.fence,
                    self._chunk_error(report, lease.spec_hash),
                    max_attempts=self.max_attempts,
                    backoff=self.backoff or BackoffPolicy(),
                )
                if outcome == "failed":
                    self.failed += 1
                    self.stats.add("lab.farm.cells_failed")
                elif outcome == "requeued":
                    self.stats.add("lab.farm.cells_requeued")
                else:
                    self.stats.add("lab.farm.stale_fences")

    def run(self) -> Dict:
        """Work the board until the campaign is terminal.

        Returns a summary dict (cells done/failed here, steals,
        batches) — diagnostics only; the authoritative outcome lives
        on the board and in the merged store.
        """
        board = self._wait_for_board()
        if board is None:
            raise StoreError(
                "no lease board under %s after waiting %.0fs; is "
                "star-lab serve running against this farm directory?"
                % (self.farm_dir, self.wait_s)
            )
        beat = None
        if self.telemetry:
            beat = _heartbeat(telemetry_dir(self.farm_dir),
                              self.worker_id, self.clock,
                              self.heartbeat_interval_s, self.stats)
        own_runner = (ProcessRunner()
                      if self.runner is None and self.jobs > 1 else None)
        runner = own_runner if own_runner is not None else self.runner
        batches = 0
        idle_attempts = 0
        try:
            while True:
                leases = board.claim(self.worker_id, self.lease_s,
                                     limit=self.batch)
                if not leases:
                    if board.finished():
                        break
                    # peers hold every remaining cell; pace re-claims
                    # with the backoff policy and retry (their lease
                    # may expire — the stealing path)
                    idle_attempts += 1
                    if beat is not None:
                        beat.write(registry=self.stats.registry,
                                   progress={"state": "idle",
                                             "done": self.done})
                    self.clock.sleep(max(
                        self.poll_interval_s,
                        self.claim_backoff.delay(idle_attempts),
                    ))
                    continue
                idle_attempts = 0
                self.stats.add("lab.farm.leases_claimed", len(leases))
                newly_stolen = sum(1 for lease in leases if lease.stolen)
                if newly_stolen:
                    self.stolen += newly_stolen
                    self.stats.add("lab.farm.leases_stolen",
                                   newly_stolen)
                for start in range(0, len(leases), self.jobs):
                    chunk = leases[start:start + self.jobs]
                    if start:
                        for lease in leases[start:]:
                            if board.renew(self.worker_id,
                                           lease.spec_hash, lease.fence,
                                           self.lease_s):
                                self.stats.add("lab.farm.lease_renewals")
                    report = self._scheduler(runner).run(
                        [lease.spec for lease in chunk],
                        name="farm:%s" % self.worker_id,
                    )
                    self._settle_chunk(board, chunk, report)
                    if beat is not None:
                        beat.write(registry=self.stats.registry,
                                   progress={"state": "running",
                                             "done": self.done,
                                             "stolen": self.stolen})
                batches += 1
                if (self.max_batches is not None
                        and batches >= self.max_batches):
                    break
        finally:
            if beat is not None:
                beat.write(registry=self.stats.registry,
                           progress={"state": "exited",
                                     "done": self.done,
                                     "stolen": self.stolen},
                           force=True)
            if own_runner is not None:
                own_runner.close()
            board.close()
        return {
            "worker": self.worker_id,
            "done": self.done,
            "failed": self.failed,
            "stolen": self.stolen,
            "batches": batches,
        }
