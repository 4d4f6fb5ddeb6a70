"""Tests for the Phoenix baseline (Section II-E concurrent work)."""

import pytest

from repro.config import small_config
from repro.mem.wearlevel import WearLevelingNVM
from repro.schemes.anubis import AnubisScheme
from repro.schemes.base import RecoveryReport, restore_node
from repro.schemes.phoenix import PhoenixScheme
from repro.sim.machine import Machine
from repro.tree.node import NodeImage

from conftest import run_small_workload


def phoenix_machine(workload="hash", operations=150, seed=7):
    machine = Machine(small_config(), scheme="phoenix")
    run_small_workload(machine, workload, operations=operations,
                       seed=seed)
    return machine


class TestRuntime:
    def test_registered(self):
        from repro.schemes import make_scheme
        assert make_scheme("phoenix").name == "phoenix"

    def test_data_writes_carry_no_st_write(self):
        """The whole point: unlike Anubis, a user-data write does not
        shadow its counter block."""
        machine = Machine(small_config(), scheme="phoenix")
        machine.controller.write_data(0)
        assert machine.stats["nvm.st_writes"] == 0

    def test_periodic_counter_block_persistence(self):
        machine = Machine(small_config(), scheme="phoenix")
        for _ in range(8):  # stride defaults to 4
            machine.controller.write_data(0)
        assert machine.stats["phoenix.periodic_persists"] == 2

    def test_traffic_between_star_and_anubis(self):
        config = small_config()
        writes = {}
        for scheme in ("wb", "star", "phoenix", "anubis"):
            machine = Machine(config, scheme=scheme)
            run_small_workload(machine, "hash", operations=250)
            writes[scheme] = machine.nvm.total_writes()
        assert writes["wb"] < writes["phoenix"] < writes["anubis"]

    def test_st_writes_only_for_tree_levels(self):
        machine = phoenix_machine(operations=250)
        geometry = machine.controller.geometry
        for slot in machine.nvm.st_slots():
            entry = machine.nvm._st[slot]
            level, _index = geometry.node_at(entry.meta_index)
            assert level >= 1


class TestRecovery:
    def test_recovers_dirty_population_exactly(self):
        machine = phoenix_machine(operations=250)
        machine.crash()
        report = machine.recover()
        assert report.verified
        assert machine.oracle_check(report)

    @pytest.mark.parametrize("workload", ["array", "btree", "queue"])
    def test_recovers_across_workloads(self, workload):
        machine = phoenix_machine(workload, operations=150)
        machine.crash()
        report = machine.recover()
        assert machine.oracle_check(report)

    def test_probes_every_counter_block(self):
        """Phoenix cannot locate stale counter blocks: recovery scans
        them all (STAR's bitmap index is what avoids this)."""
        machine = phoenix_machine(operations=60)
        machine.crash()
        report = machine.recover()
        num_blocks = machine.controller.geometry.level_counts[0]
        # at least one NVM metadata read per counter block
        assert report.nvm_reads >= num_blocks

    def test_report_separates_probing_from_shadow_table(self):
        """Regression: stale_lines used to be len(restored), conflating
        'block rewritten because probing found drift' with 'tree node
        reinstated from the ST'. The split must add up and stale_lines
        must count only lines that actually went stale."""
        machine = phoenix_machine(operations=250)
        machine.crash()
        report = machine.recover()
        geometry = machine.controller.geometry
        assert report.probed_blocks == geometry.level_counts[0]
        assert 0 < report.probed_stale_lines <= report.probed_blocks
        assert report.st_restored_lines > 0
        assert report.stale_lines == (
            report.st_restored_lines + report.probed_stale_lines
        )
        # restored_lines covers both mechanisms, never less than stale
        assert report.restored_lines >= report.stale_lines

    def test_stale_count_tracks_drift_not_restores(self):
        """A single hammered block: exactly one probed-stale line even
        though every counter block is probed."""
        machine = Machine(small_config(), scheme="phoenix")
        for _ in range(3):  # below the stride: never persisted
            machine.controller.write_data(8)
        machine.crash()
        report = machine.recover()
        assert report.probed_stale_lines == 1
        assert report.stale_lines == 1 + report.st_restored_lines

    def test_recovery_slower_than_star(self):
        config = small_config()
        times = {}
        for scheme in ("star", "phoenix"):
            machine = Machine(config, scheme=scheme)
            run_small_workload(machine, "hash", operations=200)
            machine.crash()
            times[scheme] = machine.recover().recovery_time_ns
        assert times["phoenix"] > times["star"]

    def test_erased_data_line_fails_probe(self):
        machine = Machine(small_config(), scheme="phoenix")
        for _ in range(4):  # hits the stride: the block is persisted
            machine.controller.write_data(0)
        machine.crash()
        machine.nvm._data.pop(0)
        report = machine.recover()
        assert not report.verified

    def test_erasure_before_first_persist_is_undetectable(self):
        """The documented gap vs STAR: without a root commitment over
        the counter state, erasing a line whose counter block never
        persisted looks pristine to Phoenix — STAR's cache-tree catches
        the equivalent attack (tests/test_recovery.py)."""
        machine = Machine(small_config(), scheme="phoenix")
        machine.controller.write_data(0)
        machine.crash()
        machine.nvm._data.pop(0)
        report = machine.recover()
        assert report.verified  # silently wrong — Phoenix's limitation
        assert not machine.oracle_check(report)

    def test_heavy_counter_drift_recovers(self):
        """The stride bounds the probe distance even under hammering."""
        machine = Machine(small_config(), scheme="phoenix")
        for _ in range(37):
            machine.controller.write_data(8)
        machine.crash()
        report = machine.recover()
        assert report.verified
        assert machine.oracle_check(report)


class FullScanPhoenix(PhoenixScheme):
    """Reference: the straightforward recovery that probes every counter
    block with one counted read per line, untouched or not. The scheme
    under test must match it read for read."""

    def recover(self, machine):
        node_report = AnubisScheme.recover(self, machine)
        nvm = machine.nvm
        geometry = machine.controller.geometry
        restored = dict(node_report.restored)
        probe_failures = 0
        probed_stale = 0
        probed_blocks = geometry.level_counts[0]
        for index in range(probed_blocks):
            block_id = (0, index)
            line = geometry.meta_index(block_id)
            stale, _touched = nvm.read_meta(line)
            counters, failures = self._probe_block(machine, block_id,
                                                   stale)
            probe_failures += failures
            if counters != stale.counters:
                probed_stale += 1
            elif line not in restored:
                continue
            restored[line] = counters
            nvm.stats.event("recover_line", meta_index=line, level=0)
            restore_node(machine, block_id, counters, restored)
        return RecoveryReport(
            scheme=self.name,
            stale_lines=node_report.stale_lines + probed_stale,
            restored_lines=len(restored),
            verified=node_report.verified and probe_failures == 0,
            restored=restored,
            st_restored_lines=node_report.restored_lines,
            probed_blocks=probed_blocks,
            probed_stale_lines=probed_stale,
        )


def _recovery_observables(machine, report):
    stats = machine.recovery_stats
    events = [
        {key: value for key, value in event.items() if key != "t"}
        for event in stats.registry.events.events()
        if event["kind"] == "recover_line"
    ]
    return {
        "report": report,
        "counters": stats.snapshot(),
        "probe_distance":
            stats.registry.histogram("phoenix.probe_distance").to_dict(),
        "recover_line": events,
        "trace": machine.nvm.trace,
        "meta": {line: machine.nvm.peek_meta(line)
                 for line in machine.nvm.meta_lines()},
    }


def _erase(line):
    def attack(machine):
        machine.nvm._data.pop(line)
    return attack


def _tamper_unwritten_block(machine):
    """A forged image on a counter block nothing ever wrote."""
    geometry = machine.controller.geometry
    block = geometry.level_counts[0] - 3
    assert not machine.nvm.meta_is_touched(block)
    machine.nvm.tamper_meta(block, NodeImage(
        counters=(0, 2, 0, 0, 5, 0, 0, 0), mac=0, lsbs=0,
    ))


def _hammer(line, times):
    def ops(machine):
        for _ in range(times):
            machine.controller.write_data(line)
    return ops


def _workload(name, operations, seed):
    def ops(machine):
        run_small_workload(machine, name, operations=operations,
                           seed=seed)
    return ops


class TestProbeMatchesFullScan:
    """The live-block probe is the full scan with the no-op blocks
    charged in bulk: every observable of recovery must be identical."""

    @staticmethod
    def _cycle(machine, drive, attack):
        drive(machine)
        machine.crash()
        if attack is not None:
            attack(machine)
        machine.nvm.trace = []
        report = machine.recover()
        observed = _recovery_observables(machine, report)
        machine.nvm.trace = None
        return observed

    def _assert_same(self, drives, attack=None, config=None,
                     gap_write_interval=0):
        config = config or small_config()
        observed = []
        for scheme in (FullScanPhoenix(), PhoenixScheme()):
            nvm = None
            if gap_write_interval:
                nvm = WearLevelingNVM(config.num_data_lines,
                                      gap_write_interval)
            machine = Machine(config, scheme=scheme, nvm=nvm)
            observed.append([
                self._cycle(machine, drive, attack if cycle == 0 else None)
                for cycle, drive in enumerate(drives)
            ])
        reference, probed = observed
        for expected, actual in zip(reference, probed):
            for key in expected:
                assert actual[key] == expected[key], key
        return reference

    @pytest.mark.parametrize("workload", ["hash", "array", "btree",
                                          "queue"])
    def test_clean_runs(self, workload):
        (observed,) = self._assert_same([_workload(workload, 200, 4)])
        assert observed["report"].probed_stale_lines > 0
        assert observed["recover_line"]

    def test_heavy_drift(self):
        (observed,) = self._assert_same([_hammer(8, 37)])
        assert observed["report"].verified
        assert observed["probe_distance"]["count"] > 0

    def test_erased_persisted_line(self):
        (observed,) = self._assert_same([_hammer(0, 4)], _erase(0))
        assert not observed["report"].verified

    def test_erasure_before_first_persist(self):
        (observed,) = self._assert_same([_hammer(0, 1)], _erase(0))
        assert observed["report"].verified  # Phoenix's known gap

    def test_tampered_never_written_block(self):
        (observed,) = self._assert_same([_hammer(8, 2)],
                                        _tamper_unwritten_block)
        assert not observed["report"].verified

    def test_second_crash_cycle(self):
        self._assert_same([_workload("hash", 200, 5),
                           _workload("queue", 120, 6)])

    def test_wear_leveled_nvm(self):
        """Liveness is judged on logical lines, the trace on physical
        slots. Line 7 (block 0, never persisted) is pushed into
        physical slot 8, which belongs to block 1's range."""
        def drive(machine):
            _hammer(7, 3)(machine)
            _hammer(1000, 1020)(machine)  # sweeps the gap below line 7
            assert machine.nvm.remapper.translate(7) == 8

        (observed,) = self._assert_same(
            [drive], config=small_config(memory_bytes=64 * 1024),
            gap_write_interval=1,
        )
        assert observed["report"].restored[0][7] == 3
