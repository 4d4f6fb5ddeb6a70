"""Reproducibility guarantees.

A reproduction package must produce identical inputs and results on any
machine and Python build: the workload generators seed their RNGs with
SHA-512-based string seeding (never hash randomization), the crypto is
keyed BLAKE2b, and the simulator contains no wall-clock or iteration-
order dependence. These tests pin golden digests so an accidental
change to any of that surfaces as a loud, explicit failure.

If one of these fails after an *intentional* workload or crypto change,
update the digest and say so in the changelog — the numbers in
EXPERIMENTS.md implicitly changed with it.
"""

import hashlib

import pytest

from repro.config import small_config
from repro.crypto.hashing import keyed_hash
from repro.sim.machine import Machine
from repro.tree.sit import SITAuthenticator
from repro.workloads.capture import format_op
from repro.workloads.registry import make_workload

GOLDEN_TRACE_DIGESTS = {
    "array": "5d56e8ae7456c667",
    "btree": "311d322033693c6e",
    "hash": "c8519b7c584b0784",
    "queue": "49ea36dc367ba3b6",
    "rbtree": "a0dcb62ed644f6a2",
    "tpcc": "687c5d879eadeeb4",
    "ycsb": "af42876aac3418a5",
}


def trace_digest(name: str) -> str:
    workload = make_workload(name, 64 * 1024, operations=120, seed=42)
    hasher = hashlib.blake2b(digest_size=8)
    for op in workload.ops():
        hasher.update(format_op(op).encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_DIGESTS))
def test_workload_traces_are_frozen(name):
    assert trace_digest(name) == GOLDEN_TRACE_DIGESTS[name], (
        "the %r trace changed; if intentional, update the golden "
        "digest and re-record EXPERIMENTS.md" % name
    )


def test_crypto_is_frozen():
    """The MAC construction itself is part of the reproducibility
    contract (it determines every image and root in the system)."""
    assert keyed_hash(b"key", "probe", 7) == 0x0181D94D323B57AE


def test_node_mac_is_frozen():
    """The SIT node MAC hashes the packed 64-byte-line message; its
    value pins both the layout and the keyed digest."""
    auth = SITAuthenticator(b"key")
    mac = auth.node_mac((2, 17), range(10, 18), 0x5AB, 0x1AB)
    assert mac == 0x1129EF1A48A50E


def test_simulation_is_deterministic_end_to_end():
    """Two fresh machines on the same trace agree on *everything*."""
    def run():
        machine = Machine(small_config(), scheme="star")
        workload = make_workload(
            "hash", machine.config.num_data_lines,
            operations=150, seed=9,
        )
        machine.run(workload.ops())
        machine.crash()
        report = machine.recover(raise_on_failure=True)
        return (machine.stats.snapshot(), machine.timing.now_ns,
                machine.registers.cache_tree_root,
                sorted(report.restored.items()))

    assert run() == run()


RECOVERY_TRAFFIC_DIGEST = "50c35425a71b8818"

_REPORT_FIELDS = (
    "nvm_reads", "nvm_writes", "recovery_time_ns", "stale_lines",
    "restored_lines", "st_restored_lines", "probed_blocks",
    "probed_stale_lines", "verified",
)
_REGION_COUNTERS = tuple(
    "nvm.%s_%s" % (region, op)
    for region in ("data", "meta", "ra", "st")
    for op in ("reads", "writes")
)


def recovery_traffic_digest() -> str:
    """Hash what recovery costs, not only what it restores: the report
    fields and the per-region counted traffic of one recovery per case
    (one crash per case, as in a fuzz campaign)."""
    hasher = hashlib.blake2b(digest_size=8)
    for scheme in ("star", "anubis", "phoenix"):
        for workload_name, operations, seed in (("hash", 200, 11),
                                                ("queue", 150, 3),
                                                ("btree", 120, 5)):
            machine = Machine(small_config(), scheme=scheme)
            workload = make_workload(
                workload_name, machine.config.num_data_lines,
                operations=operations, seed=seed,
            )
            machine.run(workload.ops())
            machine.crash()
            report = machine.recover()
            fields = [getattr(report, name) for name in _REPORT_FIELDS]
            fields.append(sorted(report.restored.items()))
            fields.extend(machine.recovery_stats.get(name)
                          for name in _REGION_COUNTERS)
            hasher.update(repr((scheme, workload_name, fields))
                          .encode("ascii"))
    return hasher.hexdigest()


def test_recovery_traffic_is_frozen():
    """Pins counted recovery traffic: a change that drops or adds
    modelled reads or writes (e.g. a faster probe loop that forgets to
    charge the blocks it skips) fails here even though the restored
    counters are unchanged."""
    assert recovery_traffic_digest() == RECOVERY_TRAFFIC_DIGEST
