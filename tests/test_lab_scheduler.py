"""Campaign scheduler: resume equivalence, retry/timeout/backoff,
graceful draining, sharded == serial.

Failure-path tests script outcomes through a fake runner driven by
``FakeClock``, so no real processes hang and no real time passes.
The equivalence and warm-worker tests execute real (tiny) cells.
"""

import json
import multiprocessing
from multiprocessing.context import SpawnProcess

import pytest

import repro.lab.scheduler as scheduler_module
from repro.bench.runner import config_for_scale
from repro.errors import ConfigError
from repro.lab.clock import BackoffPolicy, FakeClock
from repro.lab.scheduler import (
    ProcessRunner,
    Scheduler,
    _worker_main,
    find_journal,
    read_journals,
)
from repro.lab.spec import bench_spec
from repro.lab.store import ResultStore
from repro.util.stats import Stats

CONFIG = config_for_scale("smoke")


def real_specs(count=4, operations=40):
    cells = [("wb", "array"), ("star", "array"),
             ("wb", "hash"), ("star", "hash")]
    return [
        bench_spec(CONFIG, scheme, workload, operations, seed=7)
        for scheme, workload in cells[:count]
    ]


def export_text(store):
    return json.dumps(store.export(), sort_keys=True)


# ----------------------------------------------------------------------
# scripted runner (no processes, no wall time)
# ----------------------------------------------------------------------
class FakeHandle:
    def __init__(self, outcome, started):
        self.outcome = outcome  # ("ok", payload)/("error", msg)/None
        self.started = started
        self.stopped = False

    def poll(self):
        return self.outcome

    def stop(self):
        self.stopped = True


class FakeRunner:
    """Pops one scripted outcome per (spec, attempt); None = hang."""

    def __init__(self, script):
        self.script = {key: list(value)
                       for key, value in script.items()}
        self.handles = []

    def start(self, spec, clock):
        outcome = self.script[spec.spec_hash].pop(0)
        handle = FakeHandle(outcome, clock.now())
        self.handles.append(handle)
        return handle


class TestBackoffPolicy:
    def test_linear_delays_grow_by_base(self):
        policy = BackoffPolicy("linear", base_s=2.0)
        assert [policy.delay(n) for n in (0, 1, 2, 3)] == \
            [0.0, 2.0, 4.0, 6.0]

    def test_exponential_delays_double_and_cap(self):
        policy = BackoffPolicy("exponential", base_s=1.0, cap_s=5.0)
        assert [policy.delay(n) for n in (1, 2, 3, 4, 10)] == \
            [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_linear_delays_cap_too(self):
        policy = BackoffPolicy("linear", base_s=10.0, cap_s=15.0)
        assert policy.delay(2) == 15.0

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ConfigError):
            BackoffPolicy("fibonacci")
        with pytest.raises(ConfigError):
            BackoffPolicy("linear", base_s=-1.0)


class TestFailurePaths:
    def _run(self, script, specs, **kwargs):
        stats = Stats(enabled=True)
        store = ResultStore(kwargs.pop("root"), stats=stats)
        clock = FakeClock()
        scheduler = Scheduler(
            store, clock=clock, stats=stats,
            runner=FakeRunner(script), **kwargs
        )
        report = scheduler.run(specs)
        return report, stats, clock, scheduler

    def test_error_then_success_retries_with_backoff(self, tmp_path):
        spec = real_specs(count=1)[0]
        payload = {"version": 1}
        report, stats, clock, scheduler = self._run(
            {spec.spec_hash: [("error", "boom"), ("ok", payload)]},
            [spec], root=tmp_path / "lab", retries=2,
            backoff=BackoffPolicy("linear", base_s=5.0),
        )
        assert report.completed == 1 and report.failed == 0
        assert stats.get("lab.jobs.retried") == 1
        # the retry waited out the linear backoff on the fake clock
        runner = scheduler.runner
        assert (runner.handles[1].started
                - runner.handles[0].started) >= 5.0
        assert scheduler.store.get(spec).payload == payload

    def test_exponential_backoff_doubles_the_retry_gaps(self, tmp_path):
        spec = real_specs(count=1)[0]
        report, _stats, _clock, scheduler = self._run(
            {spec.spec_hash: [("error", "a"), ("error", "b"),
                              ("ok", {"version": 1})]},
            [spec], root=tmp_path / "lab", retries=2,
            backoff=BackoffPolicy("exponential", base_s=4.0),
        )
        assert report.completed == 1
        starts = [handle.started for handle in scheduler.runner.handles]
        assert starts[1] - starts[0] >= 4.0
        assert starts[2] - starts[1] >= 8.0  # second retry doubled

    def test_hung_worker_times_out_and_is_retried(self, tmp_path):
        spec = real_specs(count=1)[0]
        report, stats, _clock, scheduler = self._run(
            {spec.spec_hash: [None, ("ok", {"version": 1})]},
            [spec], root=tmp_path / "lab",
            timeout_s=1.0, retries=1,
            backoff=BackoffPolicy("linear", base_s=0.0),
        )
        assert report.completed == 1
        assert stats.get("lab.jobs.timeouts") == 1
        assert scheduler.runner.handles[0].stopped

    def test_exhausted_retries_report_a_permanent_failure(
            self, tmp_path):
        spec = real_specs(count=1)[0]
        report, stats, _clock, scheduler = self._run(
            {spec.spec_hash: [("error", "a\nboom")] * 3},
            [spec], root=tmp_path / "lab", retries=2,
            backoff=BackoffPolicy("linear", base_s=0.0),
        )
        assert report.failed == 1 and not report.ok
        assert report.failures[0]["attempts"] == 3
        assert report.failures[0]["error"] == "boom"
        assert stats.get("lab.jobs.failed") == 1
        journal = read_journals(scheduler.store)[0]
        assert journal["status"] == "failed"

    def test_stop_request_drains_inflight_and_checkpoints(
            self, tmp_path):
        specs = real_specs(count=3)
        script = {
            spec.spec_hash: [("ok", {"version": 1})] for spec in specs
        }
        stats = Stats(enabled=True)
        store = ResultStore(tmp_path / "lab", stats=stats)
        scheduler = Scheduler(store, clock=FakeClock(), stats=stats,
                              runner=FakeRunner(script))

        class StopAfterFirst(FakeRunner):
            def start(inner, spec, clock):
                scheduler.request_stop()
                return FakeRunner.start(inner, spec, clock)

        scheduler.runner = StopAfterFirst(script)
        report = scheduler.run(specs, name="drained")
        # the in-flight cell committed; the rest were never launched
        assert report.completed == 1
        assert report.interrupted and report.remaining == 2
        journal = read_journals(store)[0]
        assert journal["status"] == "interrupted"
        assert find_journal(store, journal["campaign_id"][:6])


    def test_abort_leaves_inflight_cells_unfinished(self, tmp_path):
        specs = real_specs(count=2)
        script = {spec.spec_hash: [None] for spec in specs}  # both hang
        store = ResultStore(tmp_path / "lab")
        scheduler = Scheduler(store, jobs=2, clock=FakeClock(),
                              runner=FakeRunner(script))

        class AbortOnceBothRun(FakeRunner):
            def start(inner, spec, clock):
                handle = FakeRunner.start(inner, spec, clock)
                if len(inner.handles) == 2:
                    scheduler.request_stop()
                    scheduler.request_stop()
                return handle

        scheduler.runner = AbortOnceBothRun(script)
        report = scheduler.run(specs, name="aborted")
        # the killed cells are neither done nor failed: still to run
        assert all(handle.stopped for handle in scheduler.runner.handles)
        assert report.interrupted and report.remaining == 2
        assert read_journals(store)[0]["status"] == "interrupted"


class TestResumeEquivalence:
    def test_kill_and_resume_is_bit_identical_to_serial(self, tmp_path):
        specs = real_specs()
        serial = ResultStore(tmp_path / "serial")
        Scheduler(serial).run(specs)

        stats = Stats(enabled=True)
        resumed = ResultStore(tmp_path / "resumed", stats=stats)
        first = Scheduler(resumed, stats=stats).run(specs, max_cells=2)
        assert first.interrupted and first.completed == 2
        second = Scheduler(resumed, stats=stats).run(specs)
        assert not second.interrupted

        # the resume executed only the remaining cells...
        assert second.resumed == 2 and second.completed == 2
        assert stats.get("lab.store.hits") == 2
        assert stats.get("lab.store.puts") == 4
        # ...and the merged store is indistinguishable from serial
        assert export_text(resumed) == export_text(serial)

    def test_rerunning_a_complete_campaign_computes_nothing(
            self, tmp_path):
        specs = real_specs(count=2)
        stats = Stats(enabled=True)
        store = ResultStore(tmp_path / "lab", stats=stats)
        Scheduler(store, stats=stats).run(specs)
        report = Scheduler(store, stats=stats).run(specs)
        assert report.resumed == 2 and report.completed == 0
        assert stats.get("lab.store.puts") == 2

    def test_sharded_run_is_bit_identical_to_serial(self, tmp_path):
        specs = real_specs()
        serial = ResultStore(tmp_path / "serial")
        Scheduler(serial).run(specs)
        sharded = ResultStore(tmp_path / "sharded")
        report = Scheduler(sharded, jobs=2, timeout_s=120).run(specs)
        assert report.completed == len(specs) and report.ok
        assert export_text(sharded) == export_text(serial)


# ----------------------------------------------------------------------
# warm worker slots (real spawn processes)
# ----------------------------------------------------------------------
@pytest.fixture
def spawn_count(monkeypatch):
    """Count spawn-context process starts."""
    starts = []
    original = SpawnProcess.start

    def start(process):
        starts.append(process)
        original(process)

    monkeypatch.setattr(SpawnProcess, "start", start)
    return starts


class TestWarmWorkers:
    def test_two_slots_serve_four_cells_with_two_workers(
            self, tmp_path, spawn_count):
        report = Scheduler(ResultStore(tmp_path / "lab"), jobs=2,
                           timeout_s=120).run(real_specs(4))
        assert report.completed == 4 and report.ok
        assert len(spawn_count) == 2

    def test_timeout_kill_replaces_the_slot(self, tmp_path, spawn_count):
        slow = bench_spec(CONFIG, "star", "array", 10 ** 7, seed=7)
        fast = real_specs(count=1)[0]
        stats = Stats(enabled=True)
        runner = ProcessRunner()
        try:
            report = Scheduler(
                ResultStore(tmp_path / "lab", stats=stats), stats=stats,
                runner=runner, timeout_s=5.0, retries=0,
            ).run([slow, fast])
        finally:
            runner.close()
        assert report.failed == 1 and report.completed == 1
        assert report.failures[0]["spec_hash"] == slow.spec_hash
        assert "timed out" in report.failures[0]["error"]
        assert stats.get("lab.jobs.timeouts") == 1
        assert len(spawn_count) == 2  # the killed slot was re-spawned

    def test_run_leaves_no_worker_processes(self, tmp_path):
        Scheduler(ResultStore(tmp_path / "lab"), jobs=2,
                  timeout_s=120).run(real_specs(2))
        assert multiprocessing.active_children() == []

    def test_worker_exits_on_eof_from_its_parent(self):
        context = multiprocessing.get_context("spawn")
        parent, child = context.Pipe()
        worker = context.Process(target=_worker_main, args=(child,))
        worker.start()
        child.close()
        parent.send(real_specs(count=1)[0].to_dict())
        assert parent.poll(60)
        status, _payload = parent.recv()
        assert status == "ok"
        parent.close()
        worker.join(timeout=60)
        assert worker.exitcode == 0


def test_one_git_revision_per_run(tmp_path, monkeypatch):
    calls = []

    def git_revision():
        calls.append(1)
        return "abc1234"

    monkeypatch.setattr(scheduler_module, "git_revision", git_revision)
    store = ResultStore(tmp_path / "lab")
    report = Scheduler(store).run(real_specs(3))
    assert report.completed == 3
    assert len(calls) == 1
    assert read_journals(store)[0]["git_rev"] == "abc1234"
