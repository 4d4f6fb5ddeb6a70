"""Farm coordinator + workers: churned N-worker == serial.

The acceptance property is byte-equivalence: however many workers, how
ever they die, the merged authoritative store exports exactly what a
serial ``Scheduler`` run over the same specs exports. Churn is driven
on a shared ``FakeClock`` (worker idle sleeps advance the same clock
lease deadlines are checked against), so steal scenarios run
deterministically in microseconds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.bench.runner import config_for_scale
from repro.lab.clock import FakeClock
from repro.lab.farm import (
    Coordinator,
    Worker,
    board_path,
    telemetry_dir,
    worker_store_path,
)
from repro.lab.lease import LeaseBoard
from repro.lab.scheduler import Scheduler, read_journals
from repro.lab.spec import bench_spec
from repro.lab.store import ResultStore
from repro.obs import catalog
from repro.obs.live import aggregate_heartbeats
from repro.util.stats import Stats

CONFIG = config_for_scale("smoke")


def make_specs(count=4, operations=40):
    cells = [("wb", "array"), ("star", "array"),
             ("wb", "hash"), ("star", "hash")]
    return [
        bench_spec(CONFIG, scheme, workload, operations, seed=7)
        for scheme, workload in cells[:count]
    ]


def export_text(store):
    return json.dumps(store.export(), sort_keys=True)


def serial_export(tmp_path, specs):
    store = ResultStore(tmp_path / "serial")
    Scheduler(store).run(specs)
    return export_text(store)


def make_farm(tmp_path, clock=None, **kwargs):
    stats = Stats(enabled=True)
    store = ResultStore(tmp_path / "auth", stats=stats)
    coordinator = Coordinator(store, tmp_path / "farm",
                              clock=clock or FakeClock(),
                              stats=stats, **kwargs)
    return coordinator, store, stats


class TestFarmEquivalence:
    def test_single_worker_farm_matches_serial(self, tmp_path):
        specs = make_specs()
        reference = serial_export(tmp_path, specs)
        coordinator, store, _stats = make_farm(tmp_path)
        coordinator.prepare(specs, name="farm")
        Worker(tmp_path / "farm", "w1", clock=FakeClock()).run()
        report = coordinator.run(specs, name="farm", max_wall_s=60)
        assert report.ok and report.completed == len(specs)
        assert export_text(store) == reference
        coordinator.close()

    def test_two_worker_split_matches_serial(self, tmp_path):
        specs = make_specs()
        reference = serial_export(tmp_path, specs)
        coordinator, store, _stats = make_farm(tmp_path)
        coordinator.prepare(specs, name="farm")
        # each pool takes half the board, one batch at a time
        first = Worker(tmp_path / "farm", "w1", clock=FakeClock(),
                       batch=2, max_batches=1).run()
        second = Worker(tmp_path / "farm", "w2", clock=FakeClock(),
                        batch=2, max_batches=1).run()
        assert first["done"] == 2 and second["done"] == 2
        coordinator.run(specs, name="farm", max_wall_s=60)
        assert export_text(store) == reference
        # both pools shipped into their own stores
        assert len(ResultStore(
            worker_store_path(tmp_path / "farm", "w1"))) == 2
        assert len(ResultStore(
            worker_store_path(tmp_path / "farm", "w2"))) == 2
        coordinator.close()

    def test_stored_cells_are_settled_not_recomputed(self, tmp_path):
        specs = make_specs()
        coordinator, store, _stats = make_farm(tmp_path)
        Scheduler(store).run(specs[:2])  # pre-store half
        report = coordinator.prepare(specs, name="farm")
        assert report.resumed == 2
        summary = Worker(tmp_path / "farm", "w1",
                         clock=FakeClock()).run()
        assert summary["done"] == 2  # only the missing half executed
        coordinator.close()


class TestChurn:
    def test_dead_worker_cells_are_stolen_and_export_matches(
            self, tmp_path):
        """A worker claims cells then vanishes (kill -9); a survivor
        sharing the clock steals them once the deadlines pass."""
        specs = make_specs()
        reference = serial_export(tmp_path, specs)
        clock = FakeClock()
        coordinator, store, _stats = make_farm(tmp_path, clock=clock)
        coordinator.prepare(specs, name="churn")

        board = LeaseBoard(board_path(tmp_path / "farm"), clock=clock)
        victim = board.claim("victim", lease_s=5.0, limit=2)
        assert len(victim) == 2  # ...and the victim never returns

        survivor_stats = Stats(enabled=True)
        summary = Worker(tmp_path / "farm", "survivor", clock=clock,
                         stats=survivor_stats, lease_s=5.0).run()
        assert summary["done"] == len(specs)
        assert summary["stolen"] == 2
        assert survivor_stats.get("lab.farm.leases_stolen") == 2

        coordinator.run(specs, name="churn", max_wall_s=60)
        assert export_text(store) == reference
        board.close()
        coordinator.close()

    def test_zombie_completion_is_fenced_and_merge_dedups(
            self, tmp_path):
        """The zombie computed its cell but lost the lease: its
        completion is rejected, yet its store merges harmlessly
        because the thief's payload is byte-identical."""
        specs = make_specs(1)
        reference = serial_export(tmp_path, specs)
        clock = FakeClock()
        coordinator, store, _stats = make_farm(tmp_path, clock=clock)
        coordinator.prepare(specs, name="fence")

        board = LeaseBoard(board_path(tmp_path / "farm"), clock=clock)
        (lease,) = board.claim("zombie", lease_s=5.0)
        zombie_store = ResultStore(
            worker_store_path(tmp_path / "farm", "zombie"))
        Scheduler(zombie_store, clock=clock).run(specs)  # slow compute
        clock.advance(6.0)  # ...past the deadline

        Worker(tmp_path / "farm", "thief", clock=clock,
               lease_s=5.0).run()
        assert not board.complete("zombie", lease.spec_hash,
                                  lease.fence)
        report = coordinator.run(specs, name="fence", max_wall_s=60)
        assert report.ok
        assert export_text(store) == reference
        board.close()
        coordinator.close()


class TestFailurePaths:
    def test_persistent_failure_is_terminal_across_workers(
            self, tmp_path):
        """A cell that errors on every attempt exhausts the
        cross-worker budget and the campaign reports it failed."""
        from test_lab_scheduler import FakeRunner

        specs = make_specs(1)
        clock = FakeClock()
        coordinator, _store, _stats = make_farm(tmp_path, clock=clock)
        coordinator.prepare(specs, name="failing")

        script = {specs[0].spec_hash: [("error", "boom")] * 2}
        summary = Worker(
            tmp_path / "farm", "w1", clock=clock,
            retries=0, max_attempts=2, runner=FakeRunner(script),
        ).run()
        assert summary["failed"] == 1 and summary["done"] == 0

        report = coordinator.run(specs, name="failing", max_wall_s=60)
        assert report.failed == 1 and not report.ok
        assert report.failures[0]["error"] == "boom"
        journal = read_journals(coordinator.store)[0]
        assert journal["status"] == "failed"
        coordinator.close()


class TestObservability:
    def test_heartbeats_cover_coordinator_and_workers(self, tmp_path):
        specs = make_specs(2)
        clock = FakeClock()
        coordinator, _store, stats = make_farm(tmp_path, clock=clock)
        coordinator.prepare(specs, name="obs")
        Worker(tmp_path / "farm", "w1", clock=FakeClock()).run()
        coordinator.run(specs, name="obs", max_wall_s=60)

        aggregate = aggregate_heartbeats(
            telemetry_dir(tmp_path / "farm"),
            now_wall=clock.wall(), stale_after_s=1e9,
        )
        names = sorted(view.worker for view in aggregate.workers)
        assert names == ["coordinator", "w1"]
        assert aggregate.corrupt == 0
        # the merged registry carries the farm's claim counters
        merged = dict(aggregate.registry.counters())
        assert merged.get("lab.farm.leases_claimed") == 2
        coordinator.close()

    def test_every_emitted_farm_metric_is_catalogued(self, tmp_path):
        specs = make_specs(2)
        coordinator, _store, stats = make_farm(tmp_path)
        coordinator.prepare(specs, name="cat")
        worker_stats = Stats(enabled=True)
        Worker(tmp_path / "farm", "w1", clock=FakeClock(),
               stats=worker_stats).run()
        coordinator.run(specs, name="cat", max_wall_s=60)
        emitted = (
            [name for name, _ in stats.registry.counters()]
            + [name for name, _ in stats.registry.gauges()]
            + [name for name, _ in worker_stats.registry.counters()]
            + [name for name, _ in worker_stats.registry.gauges()]
        )
        farm_names = sorted(
            name for name in emitted if name.startswith("lab.farm.")
        )
        assert farm_names  # the farm plane actually emitted
        for name in farm_names:
            assert catalog.lookup(name) is not None, name
        coordinator.close()


def test_lab_import_pulls_in_no_network_stack():
    """The farm reaches its lease board through SQLite alone, so
    importing the lab (and its CLI) loads no HTTP, TLS or mail
    module."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    network = ("http.server", "http.client", "urllib.request", "ssl",
               "email")
    code = ("import sys, repro.lab, repro.lab.cli; "
            "print(' '.join(m for m in %r if m in sys.modules))"
            % (network,))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True, timeout=60,
    ).stdout
    assert out.split() == []
