"""The sharded, resumable campaign scheduler.

A campaign is an ordered list of :class:`~repro.lab.spec.RunSpec`
cells. The scheduler first consults the store — cells with a stored
record are *resumed* (skipped) — then fans the remainder out over
worker processes, committing each result from the parent process so
the store only ever has one writer. Because every cell's payload is a
pure function of its spec, a sharded run commits exactly the records a
serial run would: kill-and-resume equivalence is a store property, not
a scheduling property.

Robustness machinery:

* per-job timeout — a stuck worker is terminated and the cell retried,
* bounded retry under a configurable :class:`~repro.lab.clock
  .BackoffPolicy` (linear or capped exponential, waited out through
  the injectable :class:`~repro.lab.clock.Clock`, so tests use
  ``FakeClock``),
* graceful SIGINT draining — the first Ctrl-C stops launching and lets
  in-flight cells finish and commit; the second kills them,
* a campaign journal under ``<store>/campaigns/<id>.json`` checkpointed
  after every commit, so ``star-lab status`` and ``star-lab resume``
  know exactly where a killed campaign stopped.

Metrics (see ``repro.obs.catalog``): ``lab.jobs.scheduled`` /
``resumed`` / ``completed`` / ``retried`` / ``timeouts`` / ``failed``,
``lab.job.wall_ms`` and ``lab.campaign.wall_s``; store hits/misses are
counted by :class:`~repro.lab.store.ResultStore` itself.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import FrameType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
    cast,
)

from repro.lab.clock import BackoffPolicy, Clock
from repro.lab.executor import execute
from repro.lab.gridfile import campaign_id
from repro.lab.spec import RunSpec, canonical_json
from repro.lab.store import ResultStore, git_revision
from repro.util.stats import Stats

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext

    from repro.obs.live import HeartbeatWriter

Outcome = Tuple[str, object]
"""("ok", payload) or ("error", message)."""

Telemetry = Tuple[str, str]
"""A ``(directory, worker name)`` heartbeat destination."""

SignalHandler = Union[
    Callable[[int, Optional[FrameType]], Any], int, signal.Handlers, None
]
"""What :func:`signal.signal` accepts and returns."""

CHECKPOINT_LIMIT = 64
"""Journal checkpoint entries retained (a bounded progress history —
enough for throughput/ETA estimation, small enough to keep journal
rewrites cheap)."""


# ----------------------------------------------------------------------
# job runners (real processes in production, fakes in tests)
# ----------------------------------------------------------------------
def _heartbeat_writer(
    telemetry: Optional[Telemetry],
) -> Optional["HeartbeatWriter"]:
    """Build a worker-side heartbeat writer from a ``(dir, name)``
    pair; ``None`` passes through (telemetry is strictly opt-in)."""
    if telemetry is None:
        return None
    from repro.obs.live import HeartbeatWriter

    directory, worker = telemetry
    return HeartbeatWriter(directory, worker, interval_s=0.0)


def _worker_main(conn: "Connection", spec_dict: Dict,
                 telemetry: Optional[Telemetry] = None) -> None:
    """Child-process entry point: execute one spec, send the payload."""
    try:
        spec = RunSpec.from_dict(spec_dict)
        writer = _heartbeat_writer(telemetry)
        if writer is not None:
            writer.write(progress={"state": "running",
                                   "label": spec.label,
                                   "spec": spec.spec_hash}, force=True)
        payload = execute(spec)
        if writer is not None:
            writer.write(progress={"state": "done",
                                   "label": spec.label,
                                   "spec": spec.spec_hash}, force=True)
        conn.send(("ok", payload))
    except BrokenPipeError:
        pass  # parent killed mid-job; the lease system re-runs the cell
    except BaseException:
        try:
            conn.send(("error",
                       traceback.format_exc(limit=6).strip()))
        except BrokenPipeError:
            pass
    finally:
        conn.close()


class JobHandle(Protocol):
    """What the scheduler needs from one in-flight job."""

    started: float

    def poll(self) -> Optional[Outcome]: ...

    def stop(self) -> None: ...


class JobRunner(Protocol):
    """What the scheduler needs from a job launcher."""

    def start(self, spec: RunSpec, clock: Clock,
              telemetry: Optional[Telemetry] = None) -> JobHandle: ...


class InlineHandle:
    """A job executed synchronously in the scheduler process."""

    def __init__(self, spec: RunSpec, started: float,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.started = started
        writer = _heartbeat_writer(telemetry)
        if writer is not None:
            writer.write(progress={"state": "running",
                                   "label": spec.label,
                                   "spec": spec.spec_hash}, force=True)
        try:
            self._outcome: Outcome = ("ok", execute(spec))
        except Exception:
            self._outcome = (
                "error", traceback.format_exc(limit=6).strip()
            )
        if writer is not None:
            writer.write(progress={"state": "done",
                                   "label": spec.label,
                                   "spec": spec.spec_hash}, force=True)

    def poll(self) -> Optional[Outcome]:
        return self._outcome

    def stop(self) -> None:
        pass


class InlineRunner:
    """Serial execution: no processes, no preemption (jobs <= 1)."""

    supports_telemetry = True

    def start(self, spec: RunSpec, clock: Clock,
              telemetry: Optional[Telemetry] = None) -> InlineHandle:
        return InlineHandle(spec, clock.now(), telemetry=telemetry)


class ProcessHandle:
    """One spawned worker process executing one cell."""

    def __init__(self, context: "BaseContext", spec: RunSpec,
                 started: float,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.started = started
        self._recv, child = context.Pipe(duplex=False)
        self.process = context.Process(
            target=_worker_main,
            args=(child, spec.to_dict(), telemetry),
        )
        self.process.start()
        child.close()
        self._outcome: Optional[Outcome] = None

    def poll(self) -> Optional[Outcome]:
        if self._outcome is not None:
            return self._outcome
        if self._recv.poll(0):
            try:
                self._outcome = self._recv.recv()
            except (EOFError, OSError):
                self._outcome = ("error", "worker pipe closed early")
            self.process.join()
            return self._outcome
        if not self.process.is_alive():
            self.process.join()
            self._outcome = (
                "error",
                "worker exited with code %s without a result"
                % self.process.exitcode,
            )
            return self._outcome
        return None

    def stop(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()
        self._recv.close()


class ProcessRunner:
    """Spawn-start workers: the cold start a reproducing dev gets."""

    supports_telemetry = True

    def __init__(self) -> None:
        self._context = multiprocessing.get_context("spawn")

    def start(self, spec: RunSpec, clock: Clock,
              telemetry: Optional[Telemetry] = None) -> ProcessHandle:
        return ProcessHandle(self._context, spec, clock.now(),
                             telemetry=telemetry)


# ----------------------------------------------------------------------
# campaign bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _Job:
    spec: RunSpec
    attempts: int = 0
    not_before: float = 0.0


@dataclass
class CampaignReport:
    """What one scheduler invocation did."""

    campaign_id: str
    name: str
    total: int
    resumed: int = 0
    completed: int = 0
    failed: int = 0
    interrupted: bool = False
    failures: List[Dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.interrupted

    @property
    def remaining(self) -> int:
        return self.total - self.resumed - self.completed - self.failed

    def summary(self) -> Dict:
        return {
            "campaign_id": self.campaign_id,
            "name": self.name,
            "total": self.total,
            "resumed": self.resumed,
            "completed": self.completed,
            "failed": self.failed,
            "remaining": self.remaining,
            "interrupted": self.interrupted,
        }


class Scheduler:
    """Run campaigns against one store with bounded worker shards."""

    def __init__(self, store: ResultStore, jobs: int = 1,
                 timeout_s: Optional[float] = None, retries: int = 2,
                 backoff: Optional[BackoffPolicy] = None,
                 clock: Optional[Clock] = None,
                 stats: Optional[Stats] = None,
                 poll_interval_s: float = 0.02,
                 runner: Optional[JobRunner] = None,
                 telemetry_dir: Optional[Union[str, Path]] = None,
                 heartbeat_interval_s: float = 1.0) -> None:
        self.store = store
        self.jobs = max(1, jobs)
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.clock = clock if clock is not None else Clock()
        self.stats = stats if stats is not None else store.stats
        self.poll_interval_s = poll_interval_s
        if runner is None:
            runner = (InlineRunner() if self.jobs <= 1
                      else ProcessRunner())
        self.runner = runner
        self.telemetry_dir = telemetry_dir
        self.heartbeat_interval_s = heartbeat_interval_s
        self._stop_requests = 0
        self._checkpoints: List[Dict] = []

    # ------------------------------------------------------------------
    # stopping (SIGINT draining)
    # ------------------------------------------------------------------
    def request_stop(self) -> int:
        """Ask the campaign to stop: once drains, twice aborts."""
        self._stop_requests += 1
        return self._stop_requests

    def _install_sigint(self) -> SignalHandler:
        if threading.current_thread() is not threading.main_thread():
            return None

        def handler(signum: int, frame: Optional[FrameType]) -> None:
            count = self.request_stop()
            message = (
                "star-lab: draining in-flight cells "
                "(interrupt again to abort)..."
                if count == 1 else "star-lab: aborting in-flight cells"
            )
            print(message, flush=True)

        try:
            return signal.signal(signal.SIGINT, handler)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    # journal (the resume checkpoint)
    # ------------------------------------------------------------------
    def _journal_path(self, cid: str) -> Path:
        return self.store.campaigns_path / (cid + ".json")

    def _write_journal(self, cid: str, name: str,
                       specs: List[RunSpec], status: str,
                       report: CampaignReport) -> None:
        write_journal(self.store, cid, name, specs, status, report,
                      self._checkpoints)

    def _load_checkpoints(self, cid: str) -> List[Dict]:
        """Prior checkpoints from an existing journal, so a resumed
        campaign's throughput history continues instead of resetting."""
        try:
            with open(self._journal_path(cid)) as handle:
                journal = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return []
        checkpoints = journal.get("checkpoints", [])
        if not isinstance(checkpoints, list):
            return []
        return [entry for entry in checkpoints
                if isinstance(entry, dict)]

    def _checkpoint(self, report: CampaignReport) -> None:
        """Append a (wall clock, cells stored) progress sample."""
        self._checkpoints.append({
            "wall_s": self.clock.wall(),
            "stored": report.resumed + report.completed,
        })

    # ------------------------------------------------------------------
    # live telemetry (the star-top feed)
    # ------------------------------------------------------------------
    def _parent_heartbeat(self) -> Optional["HeartbeatWriter"]:
        """The scheduler's own heartbeat writer (or ``None``)."""
        if self.telemetry_dir is None:
            return None
        from repro.obs.live import HeartbeatWriter

        return HeartbeatWriter(
            self.telemetry_dir, "scheduler", clock=self.clock,
            interval_s=self.heartbeat_interval_s, stats=self.stats,
        )

    def _start(self, spec: RunSpec, slot: int) -> JobHandle:
        """Launch one cell, passing worker telemetry when supported."""
        if (self.telemetry_dir is not None
                and getattr(self.runner, "supports_telemetry", False)):
            telemetry = (str(self.telemetry_dir), "w%d" % slot)
            return self.runner.start(spec, self.clock,
                                     telemetry=telemetry)
        return self.runner.start(spec, self.clock)

    # ------------------------------------------------------------------
    # the campaign loop
    # ------------------------------------------------------------------
    def run(self, specs: List[RunSpec], name: str = "campaign",
            max_cells: Optional[int] = None) -> CampaignReport:
        """Execute a campaign; skip stored cells; checkpoint progress.

        ``max_cells`` bounds how many cells this invocation *computes*
        (cached cells are free) — the controlled-interruption knob the
        kill/resume CI leg uses.
        """
        cid = campaign_id(specs)
        report = CampaignReport(campaign_id=cid, name=name,
                                total=len(specs))
        self.stats.add("lab.jobs.scheduled", len(specs))
        started_at = self.clock.now()
        self._checkpoints = self._load_checkpoints(cid)
        parent_beat = self._parent_heartbeat()

        provenance = {"git_rev": git_revision()}
        pending: List[_Job] = []
        for spec in specs:
            if self.store.get(spec) is not None:
                report.resumed += 1
                self.stats.add("lab.jobs.resumed")
            else:
                pending.append(_Job(spec))
        self._checkpoint(report)
        self._write_journal(cid, name, specs, "running", report)
        if parent_beat is not None:
            parent_beat.write(registry=self.stats.registry,
                              progress=report.summary(), force=True)

        running: List[Tuple[_Job, JobHandle, int]] = []
        free_slots = list(range(self.jobs - 1, -1, -1))
        launched = 0
        old_handler = self._install_sigint()
        try:
            while pending or running:
                progressed = False

                # launch up to the shard budget
                while (pending and len(running) < self.jobs
                       and self._stop_requests == 0
                       and (max_cells is None or launched < max_cells)):
                    job = self._next_eligible(pending)
                    if job is None:
                        break
                    pending.remove(job)
                    slot = free_slots.pop()
                    running.append(
                        (job, self._start(job.spec, slot), slot)
                    )
                    launched += 1
                    progressed = True

                # reap finished / overdue workers
                for job, handle, slot in list(running):
                    outcome = handle.poll()
                    now = self.clock.now()
                    if (outcome is None and self.timeout_s is not None
                            and now - handle.started > self.timeout_s):
                        handle.stop()
                        self.stats.add("lab.jobs.timeouts")
                        outcome = (
                            "error",
                            "timed out after %.1fs" % self.timeout_s,
                        )
                    if outcome is None:
                        continue
                    running.remove((job, handle, slot))
                    free_slots.append(slot)
                    progressed = True
                    status, value = outcome
                    if status == "ok":
                        self._commit(job, cast(Dict, value), provenance,
                                     now - handle.started, report)
                        self._checkpoint(report)
                        self._write_journal(cid, name, specs,
                                            "running", report)
                    else:
                        self._retry_or_fail(job, str(value), pending,
                                            report)

                if parent_beat is not None:
                    parent_beat.write(registry=self.stats.registry,
                                      progress=report.summary())
                if self._stop_requests >= 2:
                    for _job, handle, slot in running:
                        handle.stop()
                        free_slots.append(slot)
                    running.clear()
                if self._stop_requests >= 1 and not running:
                    break
                if (not running and pending
                        and max_cells is not None
                        and launched >= max_cells):
                    break
                if not progressed and (pending or running):
                    self.clock.sleep(self.poll_interval_s)
        finally:
            if old_handler is not None:
                signal.signal(signal.SIGINT, old_handler)

        report.interrupted = bool(pending)
        status = ("interrupted" if report.interrupted
                  else "failed" if report.failed else "complete")
        self._write_journal(cid, name, specs, status, report)
        self.stats.gauge_set(
            "lab.campaign.wall_s", self.clock.now() - started_at
        )
        if parent_beat is not None:
            parent_beat.write(registry=self.stats.registry,
                              progress=report.summary(), force=True)
        return report

    # ------------------------------------------------------------------
    def _next_eligible(self, pending: List[_Job]) -> Optional[_Job]:
        now = self.clock.now()
        for job in pending:
            if job.not_before <= now:
                return job
        return None

    def _commit(self, job: _Job, payload: Dict, provenance: Dict,
                elapsed_s: float, report: CampaignReport) -> None:
        spec_provenance = dict(provenance)
        spec_provenance["config_digest"] = _short_digest(
            job.spec.config
        )
        self.store.put(job.spec, payload, spec_provenance,
                       wall_time_s=elapsed_s)
        report.completed += 1
        self.stats.add("lab.jobs.completed")
        self.stats.observe("lab.job.wall_ms", elapsed_s * 1000.0)

    def _retry_or_fail(self, job: _Job, error: str,
                       pending: List[_Job],
                       report: CampaignReport) -> None:
        job.attempts += 1
        if job.attempts <= self.retries:
            self.stats.add("lab.jobs.retried")
            job.not_before = (
                self.clock.now() + self.backoff.delay(job.attempts)
            )
            pending.append(job)
            return
        report.failed += 1
        self.stats.add("lab.jobs.failed")
        report.failures.append({
            "spec_hash": job.spec.spec_hash,
            "label": job.spec.label,
            "attempts": job.attempts,
            "error": error.splitlines()[-1] if error else "unknown",
        })


def _short_digest(config_payload: Dict) -> str:
    encoded = canonical_json(config_payload).encode("ascii")
    return hashlib.sha256(encoded).hexdigest()[:16]


# ----------------------------------------------------------------------
# journal writer (shared with the farm coordinator)
# ----------------------------------------------------------------------
def write_journal(store: ResultStore, cid: str, name: str,
                  specs: List[RunSpec], status: str,
                  report: CampaignReport,
                  checkpoints: List[Dict]) -> None:
    """Atomically publish one campaign journal under the store.

    The journal is the single checkpoint format every progress reader
    (``star-lab status``/``resume``, ``star-top``) consumes, whether it
    was written by a local :class:`Scheduler` or by a farm
    :class:`~repro.lab.farm.Coordinator`.
    """
    payload = {
        "campaign_id": cid,
        "name": name,
        "status": status,
        "counts": report.summary(),
        "failures": report.failures,
        "checkpoints": checkpoints[-CHECKPOINT_LIMIT:],
        "git_rev": git_revision(),
        "specs": [spec.to_dict() for spec in specs],
    }
    path = store.campaigns_path / (cid + ".json")
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# journal readers (status / resume)
# ----------------------------------------------------------------------
def read_journals(store: ResultStore) -> List[Dict]:
    """Every campaign journal in the store, sorted by id."""
    journals = []
    for path in sorted(store.campaigns_path.glob("*.json")):
        try:
            with open(path) as handle:
                journal = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(journal, dict) and "campaign_id" in journal:
            journals.append(journal)
    return journals


def journal_specs(journal: Dict) -> List[RunSpec]:
    return [RunSpec.from_dict(entry)
            for entry in journal.get("specs", [])]


def find_journal(store: ResultStore, id_prefix: str
                 ) -> Optional[Dict]:
    matches = [
        journal for journal in read_journals(store)
        if journal["campaign_id"].startswith(id_prefix)
    ]
    return matches[0] if len(matches) == 1 else None


def checkpoint_rates(journal: Dict, now_wall: Optional[float] = None,
                     stale_after_s: float = 30.0
                     ) -> Tuple[Optional[float], Optional[float], bool]:
    """Derive (throughput cells/s, ETA seconds, stale?) from a
    journal's checkpoint history.

    Throughput comes from the first-to-last checkpoint delta (cells
    stored per wall second). ETA extrapolates the remaining cell count
    at that rate. ``stale`` is true for a *running* campaign whose last
    checkpoint is older than ``stale_after_s`` — the scheduler
    checkpoints after every commit, so silence means the process died
    or hung. Either rate is ``None`` when the history can't support it
    (fewer than two checkpoints, or no forward progress yet).
    """
    checkpoints = [
        entry for entry in journal.get("checkpoints", [])
        if isinstance(entry, dict)
        and "wall_s" in entry and "stored" in entry
    ]
    stale = False
    if (now_wall is not None and checkpoints
            and journal.get("status") == "running"):
        age = now_wall - float(checkpoints[-1]["wall_s"])
        stale = age > stale_after_s
    if len(checkpoints) < 2:
        return None, None, stale
    first, last = checkpoints[0], checkpoints[-1]
    elapsed = float(last["wall_s"]) - float(first["wall_s"])
    stored = int(last["stored"]) - int(first["stored"])
    if elapsed <= 0 or stored <= 0:
        return None, None, stale
    throughput = stored / elapsed
    counts = journal.get("counts", {})
    remaining = counts.get("remaining")
    eta = None
    if isinstance(remaining, int) and remaining >= 0:
        eta = remaining / throughput
    return throughput, eta, stale
