"""The recovery frame: callers measure and price recovery traffic.

A scheme's ``recover`` reports what it restored; ``Machine.recover``
and ``BMTController.recover`` run it through ``measure_recovery``, which
fills ``nvm_reads``, ``nvm_writes`` and ``recovery_time_ns`` from the
counted NVM traffic. These tests pin that contract, and that recovery
reports survive the lab's payload round trip. That the real schemes'
reports equal the recovery registry's counted totals is pinned in
``test_traffic_accounting.py``.
"""

import dataclasses
import json

import pytest

from repro.bench.runner import config_for_scale, run_one
from repro.bmt import BMTController, BMTScheme
from repro.config import PAPER_LINE_ACCESS_NS, small_config
from repro.lab.executor import execute, payload_to_run_result
from repro.lab.spec import bench_spec
from repro.mem.nvm import NVM
from repro.schemes.base import PersistenceScheme, RecoveryReport
from repro.sim.machine import Machine


class CountedReads(PersistenceScheme):
    """Recovers nothing; makes ``reads`` counted metadata reads."""

    name = "counted-reads"
    supports_sit_recovery = True

    def __init__(self, reads):
        super().__init__()
        self.reads = reads

    def recover(self, machine):
        for line in range(self.reads):
            machine.nvm.read_meta(line)
        return RecoveryReport(scheme=self.name)


class BMTCountedReads(BMTScheme):
    """The same, on the BMT controller."""

    name = "bmt-counted-reads"

    def __init__(self, reads):
        self.reads = reads

    def recover(self, controller):
        for line in range(self.reads):
            controller.nvm.read_meta(line)
        return RecoveryReport(scheme=self.name)


@pytest.mark.parametrize("reads", [0, 1, 7])
def test_machine_prices_a_bare_report(reads):
    machine = Machine(small_config(), scheme=CountedReads(reads))
    machine.crash()
    report = machine.recover()
    assert report.nvm_reads == reads
    assert report.nvm_writes == 0
    assert report.recovery_time_ns == reads * 100.0


@pytest.mark.parametrize("reads", [0, 1, 7])
def test_bmt_controller_prices_a_bare_report(reads):
    controller = BMTController(b"key", 64 * 4, NVM(),
                               BMTCountedReads(reads))
    controller.crash()
    report = controller.recover()
    assert report.nvm_reads == reads
    assert report.nvm_writes == 0
    assert report.recovery_time_ns == reads * PAPER_LINE_ACCESS_NS


@pytest.mark.parametrize("scheme", ["star", "anubis", "phoenix"])
def test_lab_payload_round_trips_the_recovery_report(scheme):
    """A cached crash-and-recover cell rebuilds the same report as a
    direct run, on every field but the oracle-only ``restored``."""
    config = config_for_scale("smoke")
    spec = bench_spec(config, scheme, "hash", 120, seed=7,
                      crash_and_recover=True)
    payload = json.loads(json.dumps(execute(spec)))
    cached = payload_to_run_result(payload).recovery
    direct = run_one(config, scheme, "hash", 120, seed=7,
                     crash_and_recover=True, telemetry=False).recovery
    assert direct.nvm_reads > 0
    for field in dataclasses.fields(RecoveryReport):
        if field.name != "restored":
            assert getattr(cached, field.name) == \
                getattr(direct, field.name), field.name
