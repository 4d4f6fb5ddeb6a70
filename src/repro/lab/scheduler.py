"""The sharded, resumable campaign scheduler.

A campaign is an ordered list of :class:`~repro.lab.spec.RunSpec`
cells. The scheduler first consults the store — cells with a stored
record are *resumed* (skipped) — then fans the remainder out over
worker slots, committing each result from the parent process so the
store only ever has one writer. Because every cell's payload is a
pure function of its spec, a sharded run commits exactly the records a
serial run would: kill-and-resume equivalence is a store property, not
a scheduling property.

The :class:`Dispatcher` is the one launch/poll/timeout/retry/drain
loop; it hands each finished payload to a callback (``star-fuzz run
--jobs N`` collects them in memory). The :class:`Scheduler` binds it
to a store: resume, commit and the campaign journal. Its machinery:

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
import multiprocessing.connection
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

    from repro.obs.live import HeartbeatWriter

Outcome = Tuple[str, object]
"""("ok", payload) or ("error", message)."""

PathLike = Union[str, Path]

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
def _heartbeat_writer(directory: Optional[PathLike], worker: str,
                      **options: Any) -> Optional["HeartbeatWriter"]:
    """A heartbeat writer, or ``None`` when telemetry is off (it is
    strictly opt-in); slot writers publish every beat."""
    if directory is None:
        return None
    from repro.obs.live import HeartbeatWriter

    options.setdefault("interval_s", 0.0)
    return HeartbeatWriter(directory, worker, **options)


def _run(spec: RunSpec, writer: Optional["HeartbeatWriter"]) -> Outcome:
    """Execute one cell, bracketed by the slot's heartbeats."""

    def beat(state: str) -> None:
        if writer is not None:
            writer.write(progress={"state": state, "label": spec.label,
                                   "spec": spec.spec_hash}, force=True)

    beat("running")
    try:
        outcome: Outcome = ("ok", execute(spec))
    except Exception:
        outcome = ("error", traceback.format_exc(limit=6).strip())
    beat("done")
    return outcome


def _worker_main(conn: "Connection",
                 telemetry_dir: Optional[PathLike] = None,
                 worker: str = "w0") -> None:
    """Child-process entry point: run specs from the pipe until EOF.

    SIGINT is ignored so that a Ctrl-C in the terminal reaches only the
    parent, which decides whether in-flight cells drain or die.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    writer = _heartbeat_writer(telemetry_dir, worker)
    try:
        while True:
            spec_dict = conn.recv()
            conn.send(_run(RunSpec.from_dict(spec_dict), writer))
    except (EOFError, OSError):
        pass  # the parent closed the pipe (or died): retire
    finally:
        conn.close()


class JobHandle(Protocol):
    """What the scheduler needs from one in-flight job."""

    started: float

    def poll(self) -> Optional[Outcome]: ...

    def stop(self) -> None: ...


class JobRunner(Protocol):
    """What the scheduler needs from a job launcher."""

    def start(self, spec: RunSpec, clock: Clock) -> JobHandle: ...

    def close(self) -> None: ...


@dataclass
class InlineHandle:
    """A job already executed synchronously in this process."""

    started: float
    outcome: Outcome

    def poll(self) -> Optional[Outcome]:
        return self.outcome

    def stop(self) -> None:
        pass


class InlineRunner:
    """Serial execution: no processes, no preemption (jobs <= 1)."""

    def __init__(self, telemetry_dir: Optional[PathLike] = None) -> None:
        self._writer = _heartbeat_writer(telemetry_dir, "w0")

    def start(self, spec: RunSpec, clock: Clock) -> InlineHandle:
        return InlineHandle(clock.now(), _run(spec, self._writer))

    def close(self) -> None:
        pass


class _Worker:
    """One long-lived spawn worker, and the handle of the cell it runs
    (the worker exits on EOF, so a dead parent leaves no orphan)."""

    def __init__(self, runner: "ProcessRunner", number: int) -> None:
        self.runner = runner
        self.number = number
        self.started = 0.0
        self.conn, child = runner.context.Pipe()
        self.process = runner.context.Process(
            target=_worker_main, daemon=True,
            args=(child, runner.telemetry_dir, "w%d" % number),
        )
        self.process.start()
        child.close()

    def begin(self, spec: RunSpec, started: float) -> "_Worker":
        self.started = started
        try:
            self.conn.send(spec.to_dict())
        except OSError:
            pass  # a dead worker shows up as EOF on the next poll
        return self

    def poll(self) -> Optional[Outcome]:
        if not self.conn.poll(0):
            return None
        try:
            outcome: Outcome = self.conn.recv()
        except (EOFError, OSError):
            self.stop()
            return ("error", "worker exited with code %s without a "
                             "result" % self.process.exitcode)
        self.runner.idle.append(self)
        return outcome

    def stop(self) -> None:
        """Kill the worker (and its cell); the slot re-spawns on use."""
        self.runner.retire([self])


class ProcessRunner:
    """One long-lived spawn worker per slot: the cold start a
    reproducing dev gets, paid once per slot instead of once per cell.

    Workers start on first use and serve cell after cell. A slot's
    worker is replaced only after a timeout kill, an abort or its own
    death; :meth:`close` retires them all.
    """

    def __init__(self, telemetry_dir: Optional[PathLike] = None) -> None:
        self.context = multiprocessing.get_context("spawn")
        self.telemetry_dir = telemetry_dir
        self.live: Dict[int, _Worker] = {}
        self.idle: List[_Worker] = []

    def start(self, spec: RunSpec, clock: Clock) -> _Worker:
        if self.idle:
            worker = self.idle.pop()
        else:
            number = min(set(range(len(self.live) + 1)) - set(self.live))
            worker = self.live[number] = _Worker(self, number)
        return worker.begin(spec, clock.now())

    def wait(self, timeout_s: float) -> None:
        """Block until a busy worker has news, at most ``timeout_s``."""
        busy = [worker.conn for worker in self.live.values()
                if worker not in self.idle]
        multiprocessing.connection.wait(busy, timeout_s)

    def retire(self, workers: List[_Worker]) -> None:
        for worker in workers:
            del self.live[worker.number]
            worker.process.terminate()
            worker.conn.close()
        for worker in workers:
            worker.process.join()

    def close(self) -> None:
        """Retire every worker; none holds state between cells."""
        self.retire(list(self.live.values()))
        self.idle.clear()


# ----------------------------------------------------------------------
# the dispatch loop
# ----------------------------------------------------------------------
@dataclass
class _Job:
    spec: RunSpec
    attempts: int = 0
    not_before: float = 0.0


class Dispatcher:
    """The launch/poll/timeout/retry/drain loop over ``jobs`` slots.

    A runner the dispatcher made itself (``runner=None``) is closed
    when :meth:`dispatch` returns; one passed in is the caller's.
    """

    def __init__(self, jobs: int = 1,
                 timeout_s: Optional[float] = None, retries: int = 2,
                 backoff: Optional[BackoffPolicy] = None,
                 clock: Optional[Clock] = None,
                 stats: Optional[Stats] = None,
                 poll_interval_s: float = 0.02,
                 runner: Optional[JobRunner] = None,
                 telemetry_dir: Optional[PathLike] = None) -> None:
        self.jobs = max(1, jobs)
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.clock = clock if clock is not None else Clock()
        self.stats = stats if stats is not None else Stats()
        self.poll_interval_s = poll_interval_s
        self.telemetry_dir = telemetry_dir
        self._owns_runner = runner is None
        if runner is None:
            runner = (InlineRunner(telemetry_dir) if self.jobs <= 1
                      else ProcessRunner(telemetry_dir))
        self.runner: JobRunner = runner
        self._stop_requests = 0

    # ------------------------------------------------------------------
    # stopping (SIGINT draining)
    # ------------------------------------------------------------------
    def request_stop(self) -> int:
        """Ask the loop to stop: once drains, twice aborts."""
        self._stop_requests += 1
        return self._stop_requests

    def _install_sigint(self) -> SignalHandler:
        if threading.current_thread() is not threading.main_thread():
            return None

        def handler(signum: int, frame: Optional[FrameType]) -> None:
            count = self.request_stop()
            message = (
                "draining in-flight cells (interrupt again to abort)..."
                if count == 1 else "aborting in-flight cells"
            )
            print(message, flush=True)

        try:
            return signal.signal(signal.SIGINT, handler)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    def dispatch(self, specs: List[RunSpec],
                 on_payload: Callable[[RunSpec, Dict, float], None],
                 on_failure: Callable[[RunSpec, int, str], None],
                 max_cells: Optional[int] = None,
                 on_tick: Optional[Callable[[], None]] = None,
                 ) -> List[RunSpec]:
        """Run ``specs``; return the ones left unfinished.

        ``on_payload(spec, payload, elapsed_s)`` receives each success
        and ``on_failure(spec, attempts, error)`` each cell whose
        retries ran out; ``on_tick()`` runs once per loop pass. A stop
        request, or ``max_cells`` launches, ends the loop early.
        """
        pending = [_Job(spec) for spec in specs]
        running: List[Tuple[_Job, JobHandle]] = []
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
                    running.append(
                        (job, self.runner.start(job.spec, self.clock))
                    )
                    launched += 1
                    progressed = True

                # reap finished / overdue workers
                for entry in list(running):
                    job, handle = entry
                    outcome = handle.poll()
                    elapsed = self.clock.now() - handle.started
                    if (outcome is None and self.timeout_s is not None
                            and elapsed > self.timeout_s):
                        handle.stop()
                        self.stats.add("lab.jobs.timeouts")
                        outcome = (
                            "error",
                            "timed out after %.1fs" % self.timeout_s,
                        )
                    if outcome is None:
                        continue
                    running.remove(entry)
                    progressed = True
                    status, value = outcome
                    if status == "ok":
                        self.stats.add("lab.jobs.completed")
                        self.stats.observe("lab.job.wall_ms",
                                           elapsed * 1000.0)
                        on_payload(job.spec, cast(Dict, value), elapsed)
                    elif self._retry(job):
                        pending.append(job)
                    else:
                        self.stats.add("lab.jobs.failed")
                        on_failure(job.spec, job.attempts, str(value))

                if on_tick is not None:
                    on_tick()
                if self._stop_requests >= 2:
                    for job, handle in running:
                        handle.stop()
                        pending.append(job)
                    running.clear()
                if self._stop_requests >= 1 and not running:
                    break
                if (not running and pending
                        and max_cells is not None
                        and launched >= max_cells):
                    break
                if not progressed and (pending or running):
                    # warm workers cut the wait short with a result
                    if isinstance(self.runner, ProcessRunner):
                        self.runner.wait(self.poll_interval_s)
                    else:
                        self.clock.sleep(self.poll_interval_s)
        finally:
            if old_handler is not None:
                signal.signal(signal.SIGINT, old_handler)
            if self._owns_runner:
                self.runner.close()
        return [job.spec for job in pending]

    def _next_eligible(self, pending: List[_Job]) -> Optional[_Job]:
        now = self.clock.now()
        for job in pending:
            if job.not_before <= now:
                return job
        return None

    def _retry(self, job: _Job) -> bool:
        """Count a failed attempt; back the job off if budget remains."""
        job.attempts += 1
        if job.attempts > self.retries:
            return False
        self.stats.add("lab.jobs.retried")
        job.not_before = (
            self.clock.now() + self.backoff.delay(job.attempts)
        )
        return True


# ----------------------------------------------------------------------
# campaign bookkeeping
# ----------------------------------------------------------------------
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


class Scheduler(Dispatcher):
    """Run campaigns against one store with bounded worker shards.

    ``options`` are the :class:`Dispatcher`'s (``jobs``, ``timeout_s``,
    ``retries``, ``backoff``, ``clock``, ``runner``, ...); ``stats``
    defaults to the store's registry.
    """

    def __init__(self, store: ResultStore,
                 stats: Optional[Stats] = None,
                 heartbeat_interval_s: float = 1.0,
                 **options: Any) -> None:
        super().__init__(
            stats=stats if stats is not None else store.stats, **options
        )
        self.store = store
        self.heartbeat_interval_s = heartbeat_interval_s
        self._checkpoints: List[Dict] = []

    # ------------------------------------------------------------------
    # journal (the resume checkpoint)
    # ------------------------------------------------------------------
    def _journal_path(self, cid: str) -> Path:
        return self.store.campaigns_path / (cid + ".json")

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
    # the campaign
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
        parent_beat = _heartbeat_writer(
            self.telemetry_dir, "scheduler", clock=self.clock,
            interval_s=self.heartbeat_interval_s, stats=self.stats,
        )
        git_rev = git_revision()

        def journal(status: str) -> None:
            write_journal(self.store, cid, name, specs, status, report,
                          self._checkpoints, git_rev)

        def beat(force: bool = False) -> None:
            if parent_beat is not None:
                parent_beat.write(registry=self.stats.registry,
                                  progress=report.summary(), force=force)

        def commit(spec: RunSpec, payload: Dict,
                   elapsed_s: float) -> None:
            provenance = {"git_rev": git_rev,
                          "config_digest": _short_digest(spec.config)}
            self.store.put(spec, payload, provenance,
                           wall_time_s=elapsed_s)
            report.completed += 1
            self._checkpoint(report)
            journal("running")

        def fail(spec: RunSpec, attempts: int, error: str) -> None:
            report.failed += 1
            report.failures.append({
                "spec_hash": spec.spec_hash,
                "label": spec.label,
                "attempts": attempts,
                "error": error.splitlines()[-1] if error else "unknown",
            })

        pending: List[RunSpec] = []
        for spec in specs:
            if self.store.get(spec) is not None:
                report.resumed += 1
                self.stats.add("lab.jobs.resumed")
            else:
                pending.append(spec)
        self._checkpoint(report)
        journal("running")
        beat(force=True)

        unfinished = self.dispatch(pending, commit, fail,
                                   max_cells=max_cells, on_tick=beat)

        report.interrupted = bool(unfinished)
        journal("interrupted" if report.interrupted
                else "failed" if report.failed else "complete")
        self.stats.gauge_set(
            "lab.campaign.wall_s", self.clock.now() - started_at
        )
        beat(force=True)
        return report


def _short_digest(config_payload: Dict) -> str:
    encoded = canonical_json(config_payload).encode("ascii")
    return hashlib.sha256(encoded).hexdigest()[:16]


# ----------------------------------------------------------------------
# journal writer (shared with the farm coordinator)
# ----------------------------------------------------------------------
def write_journal(store: ResultStore, cid: str, name: str,
                  specs: List[RunSpec], status: str,
                  report: CampaignReport,
                  checkpoints: List[Dict], git_rev: str) -> None:
    """Atomically publish one campaign journal under the store.

    The journal is the single checkpoint format every progress reader
    (``star-lab status``/``resume``, ``star-top``) consumes, whether it
    was written by a local :class:`Scheduler` or by a farm
    :class:`~repro.lab.farm.Coordinator`. ``git_rev`` is the
    :func:`~repro.lab.store.git_revision` the writer read once per run.
    """
    payload = {
        "campaign_id": cid,
        "name": name,
        "status": status,
        "counts": report.summary(),
        "failures": report.failures,
        "checkpoints": checkpoints[-CHECKPOINT_LIMIT:],
        "git_rev": git_rev,
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
