"""Regression tests for the crash/recover lifecycle and NVM accessors.

Two bugs surfaced by this PR's tooling are pinned here:

* **Same-machine continuation after recovery** (found while wiring the
  sanitizers through repeated crash cycles): ``Machine.recover`` used
  to leave the scheme's volatile state stale — Anubis/Phoenix leaked
  shadow-table ways on every cycle until ``IndexError: pop from empty
  list``, and STAR replayed stale ADR bitmap bits into the next
  recovery, failing the restore oracle on the second crash. Recovery
  now re-attaches the scheme (reboot-equivalent volatile state).

* **Uncounted metadata scans** (the STAR001 lint finding):
  ``sim.validate`` reached into ``nvm._meta`` directly; the public
  traffic-free ``NVM.meta_lines()`` accessor replaces it, and this test
  pins that auditing a machine costs zero NVM traffic either way.
"""

import pytest

from repro.config import small_config
from repro.sim.machine import Machine
from repro.sim.validate import audit_machine
from repro.tree.node import NodeImage
from repro.mem.nvm import NVM
from repro.workloads.registry import make_workload


def cycle_ops(machine, operations, seed):
    workload = make_workload(
        "hash", machine.controller.layout.num_data_lines,
        operations=operations, seed=seed,
    )
    machine.run(list(workload.ops()))


class TestContinueAfterRecover:
    @pytest.mark.parametrize("scheme", ["star", "anubis", "phoenix",
                                        "strict"])
    def test_many_crash_cycles_on_one_machine(self, scheme):
        machine = Machine(small_config(), scheme=scheme, telemetry=False)
        for cycle in range(5):
            cycle_ops(machine, operations=250, seed=7 + cycle)
            machine.crash()
            report = machine.recover(raise_on_failure=True)
            assert machine.oracle_check(report), (scheme, cycle)
            assert audit_machine(machine) == []

    def test_anubis_slot_mirror_rebuilt(self):
        """The pre-fix failure mode: ST ways leaked every cycle."""
        machine = Machine(small_config(), scheme="anubis",
                          telemetry=False)
        cache = machine.controller.meta_cache
        total_ways = cache.num_sets * cache.ways
        for cycle in range(3):
            cycle_ops(machine, operations=250, seed=3 + cycle)
            machine.crash()
            machine.recover(raise_on_failure=True)
            scheme = machine.scheme
            # after re-attach the mirror is empty and every way is free
            assert scheme._slot_of == {}
            free = sum(len(ways) for ways in scheme._free_ways.values())
            assert free == total_ways

    def test_phoenix_stride_restarts_after_recover(self):
        """The per-block write counts that pace Phoenix's periodic
        persists are controller state: a reboot loses them, so after
        recovery a block needs a full stride of writes again."""
        machine = Machine(small_config(), scheme="phoenix",
                          telemetry=False)
        for _ in range(3):  # one short of the stride of 4
            machine.controller.write_data(0)
        machine.crash()
        machine.recover(raise_on_failure=True)
        machine.controller.write_data(0)
        assert machine.stats["phoenix.periodic_persists"] == 0
        for _ in range(3):
            machine.controller.write_data(0)
        assert machine.stats["phoenix.periodic_persists"] == 1

    def test_continuation_matches_reboot(self):
        """Continuing the same machine restores the same data a fresh
        boot on the surviving NVM + registers would read."""
        config = small_config()
        continued = Machine(config, scheme="star", telemetry=False)
        cycle_ops(continued, operations=300, seed=5)
        continued.crash()
        continued.recover(raise_on_failure=True)
        cycle_ops(continued, operations=120, seed=6)
        continued.crash()
        continued.recover(raise_on_failure=True)

        rebooted = Machine(config, scheme="star",
                           registers=continued.registers,
                           nvm=continued.nvm, telemetry=False)
        for line in continued.nvm.data_lines():
            assert rebooted.controller.read_data(line) is not None


class TestAdrFlushReconciliation:
    """The battery flush must reconcile residency with the spilled set.

    Pre-fix, ``AdrRegion.flush_on_power_failure`` copied residents to
    the recovery area but left the LRU, the ``spilled`` set, and the
    ``adr.resident_lines`` gauge frozen at their pre-crash values — so
    between ``crash()`` and ``recover()`` a bitmap line could be seen
    as both flushed-to-RA and resident, violating the §III-C
    disjointness invariant that ``audit_machine`` checks.
    """

    def _crashed_star_machine(self, telemetry):
        machine = Machine(small_config(), scheme="star",
                          telemetry=telemetry)
        cycle_ops(machine, operations=250, seed=21)
        machine.crash()
        return machine

    def test_post_crash_adr_state_is_disjoint(self):
        from repro.sim.validate import _check_adr

        machine = self._crashed_star_machine(telemetry=False)
        adr = machine.scheme.bitmap.adr
        assert len(adr) == 0
        for key in sorted(adr.spilled):
            assert key not in adr
            assert machine.nvm.ra_is_touched(key)
        # the §III-C residency audit holds even between crash and
        # recover (the full audit_machine would also flag the stale
        # metadata images that STAR's recovery exists to repair)
        assert _check_adr(machine) == []

    def test_flushed_lines_join_the_spilled_set(self):
        machine = Machine(small_config(), scheme="star",
                          telemetry=False)
        cycle_ops(machine, operations=250, seed=22)
        adr = machine.scheme.bitmap.adr
        resident = sorted(key for key, _value in adr.items())
        assert resident  # the workload touched bitmap lines
        machine.crash()
        for key in resident:
            assert key in adr.spilled
            assert machine.nvm.ra_is_touched(key)

    def test_resident_gauge_drops_to_zero(self):
        machine = self._crashed_star_machine(telemetry=True)
        gauge = machine.stats.registry.gauge("adr.resident_lines")
        assert gauge.value == 0

    def test_recovery_still_succeeds_after_reconcile(self):
        machine = self._crashed_star_machine(telemetry=False)
        report = machine.recover(raise_on_failure=True)
        assert machine.oracle_check(report)


class TestAdrStoreRecency:
    """Pin the intended LRU semantics: load/store refresh, peek doesn't.

    The batched pipeline reuses the scalar ``AdrRegion``; if it ever
    grows an array-backed replacement, this is the order it must
    reproduce, spill for spill.
    """

    def _loaded_adr(self):
        from repro.mem.adr import AdrRegion

        nvm = NVM()
        adr = AdrRegion(2, nvm)
        adr.load((1, 0))
        adr.load((1, 1))
        return adr, nvm

    def test_store_refreshes_recency(self):
        adr, _nvm = self._loaded_adr()
        adr.store((1, 0), 9)      # (1, 0) becomes most recently used
        adr.load((1, 2))          # capacity 2: evicts the LRU, (1, 1)
        assert (1, 1) in adr.spilled
        assert (1, 0) in adr

    def test_peek_does_not_refresh_recency(self):
        adr, _nvm = self._loaded_adr()
        assert adr.peek((1, 0)) == 0   # recency-neutral read
        adr.load((1, 2))               # evicts (1, 0): still the LRU
        assert (1, 0) in adr.spilled
        assert (1, 1) in adr


class TestNvmAccessors:
    def test_meta_lines_sorted_and_traffic_free(self):
        nvm = NVM()
        image = NodeImage(counters=(1,) + (0,) * 7, mac=0, lsbs=0)
        for index in (9, 2, 5):
            nvm.write_meta(index, image)
        reads_before = nvm.total_reads()
        writes_before = nvm.total_writes()
        assert nvm.meta_lines() == [2, 5, 9]
        assert nvm.total_reads() == reads_before
        assert nvm.total_writes() == writes_before

    def test_audit_machine_costs_no_traffic(self):
        machine = Machine(small_config(), telemetry=False)
        cycle_ops(machine, operations=200, seed=13)
        reads_before = machine.nvm.total_reads()
        writes_before = machine.nvm.total_writes()
        assert audit_machine(machine) == []
        assert machine.nvm.total_reads() == reads_before
        assert machine.nvm.total_writes() == writes_before
