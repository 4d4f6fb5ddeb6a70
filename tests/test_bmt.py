"""Tests for the BMT substrate and the Osiris / Triad-NVM baselines."""

import dataclasses
import hashlib
import random

import pytest

from repro.bmt import (
    BMTController,
    BMTGeometry,
    BMTHasher,
    BmtWriteBackScheme,
    MINOR_LIMIT,
    MINORS_PER_BLOCK,
    OsirisScheme,
    SplitCounterImage,
    SuperMemScheme,
    TriadNvmScheme,
    rebuild_tree,
)
from repro.bmt.counters import CachedCounterBlock
from repro.errors import IntegrityError
from repro.mem.nvm import NVM

KEY = b"bmt-test-key"
LINES = 64 * 40  # 40 counter blocks


def make_controller(scheme, lines=LINES):
    nvm = NVM()
    return BMTController(KEY, lines, nvm, scheme)


class TestSplitCounters:
    def test_zero_image(self):
        image = SplitCounterImage.zero()
        assert image.major == 0
        assert image.counter_for(5) == (0, 0)

    def test_bump_increments_minor(self):
        block = CachedCounterBlock(SplitCounterImage.zero())
        assert block.bump(3) is False
        assert block.counter_for(3) == (0, 1)

    def test_minor_overflow_bumps_major_and_resets(self):
        block = CachedCounterBlock(SplitCounterImage.zero())
        for _ in range(MINOR_LIMIT):
            block.bump(3)
        assert block.counter_for(3) == (0, MINOR_LIMIT)
        assert block.bump(3) is True
        assert block.major == 1
        assert block.counter_for(3) == (1, 1)
        assert block.counter_for(0) == (1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SplitCounterImage(major=-1, minors=(0,) * 64)
        with pytest.raises(ValueError):
            SplitCounterImage(major=0, minors=(0,) * 63)
        with pytest.raises(ValueError):
            CachedCounterBlock(SplitCounterImage.zero()).bump(64)


class TestGeometry:
    def test_counter_block_mapping(self):
        geometry = BMTGeometry(LINES)
        assert geometry.num_counter_blocks == 40
        assert geometry.counter_block_for(0) == 0
        assert geometry.counter_block_for(64) == 1
        assert geometry.minor_slot(65) == 1

    def test_page_lines(self):
        geometry = BMTGeometry(LINES)
        assert geometry.page_lines(1) == list(range(64, 128))

    def test_hash_levels_shrink(self):
        geometry = BMTGeometry(64 * 100)
        assert geometry.level_counts[0] == 13
        assert geometry.level_counts[-1] <= 8

    def test_node_meta_index_disjoint_from_blocks(self):
        geometry = BMTGeometry(LINES)
        index = geometry.node_meta_index(0, 0)
        assert index >= geometry.num_counter_blocks


class TestRebuildTree:
    def test_deterministic_root(self):
        geometry = BMTGeometry(LINES)
        hasher = BMTHasher(KEY)
        blocks = [SplitCounterImage.zero()] * geometry.num_counter_blocks
        _l1, root1 = rebuild_tree(geometry, hasher, blocks)
        _l2, root2 = rebuild_tree(geometry, hasher, blocks)
        assert root1 == root2

    def test_any_counter_change_changes_root(self):
        geometry = BMTGeometry(LINES)
        hasher = BMTHasher(KEY)
        blocks = [SplitCounterImage.zero()] * geometry.num_counter_blocks
        _levels, root = rebuild_tree(geometry, hasher, blocks)
        mutated = list(blocks)
        minors = [0] * MINORS_PER_BLOCK
        minors[7] = 1
        mutated[3] = SplitCounterImage(0, tuple(minors))
        _levels, new_root = rebuild_tree(geometry, hasher, mutated)
        assert new_root != root

    def test_requires_all_blocks(self):
        geometry = BMTGeometry(LINES)
        with pytest.raises(ValueError):
            rebuild_tree(geometry, BMTHasher(KEY), [])


class TestControllerDataPath:
    def test_write_read_roundtrip(self):
        controller = make_controller(BmtWriteBackScheme())
        plaintext = bytes(range(64))
        controller.write_data(5, plaintext)
        assert controller.read_data(5) == plaintext

    def test_unwritten_reads_zero(self):
        controller = make_controller(BmtWriteBackScheme())
        assert controller.read_data(5) == bytes(64)

    def test_tamper_detected(self):
        controller = make_controller(BmtWriteBackScheme())
        controller.write_data(5, b"\x01" * 64)
        image = controller.nvm.peek_data(5)
        from dataclasses import replace
        flipped = bytes([image.ciphertext[0] ^ 1])
        controller.nvm.tamper_data(
            5, replace(image, ciphertext=flipped + image.ciphertext[1:])
        )
        with pytest.raises(IntegrityError):
            controller.read_data(5)

    def test_minor_overflow_reencrypts_page(self):
        controller = make_controller(OsirisScheme(persist_stride=8))
        controller.write_data(1, b"\x07" * 64)  # neighbour in the page
        for _ in range(MINOR_LIMIT + 1):
            controller.write_data(0)
        assert controller.stats["bmt.minor_overflows"] == 1
        assert controller.stats["bmt.reencryption_writes"] >= 1
        # the neighbour survived re-encryption under the new major
        assert controller.read_data(1) == b"\x07" * 64


class TestOsiris:
    def test_periodic_persistence(self):
        controller = make_controller(OsirisScheme(persist_stride=4))
        for _ in range(8):
            controller.write_data(0)
        assert controller.stats["bmt.block_persists"] == 2

    def test_fewer_persists_than_writes(self):
        controller = make_controller(OsirisScheme(persist_stride=4))
        for line in range(0, 256):
            controller.write_data(line)
        assert controller.stats["bmt.block_persists"] < \
            controller.stats["bmt.data_writes"]

    def test_crash_recovery_restores_exact_counters(self):
        controller = make_controller(OsirisScheme(persist_stride=4))
        for line in (0, 0, 0, 64, 64, 130, 0, 7):
            controller.write_data(line)
        controller.crash()
        report = controller.recover()
        assert report.verified
        for index, image in controller.pre_crash_blocks.items():
            assert report.restored[index] == \
                (image.major,) + image.minors

    def test_recovery_scans_all_blocks(self):
        """Osiris cannot tell stale from fresh: it probes everything
        (the recovery-time weakness Section II-E notes)."""
        controller = make_controller(OsirisScheme())
        controller.write_data(0)
        controller.crash()
        report = controller.recover()
        assert report.stale_lines == \
            controller.geometry.num_counter_blocks

    def test_replay_detected_by_root(self):
        controller = make_controller(OsirisScheme(persist_stride=2))
        controller.write_data(0, b"\x01" * 64)
        controller.write_data(0, b"\x02" * 64)  # persist boundary
        old_data = controller.nvm.peek_data(0)
        old_block = controller.nvm.peek_meta(0)
        controller.write_data(0, b"\x03" * 64)
        controller.write_data(0, b"\x04" * 64)
        controller.crash()
        controller.nvm.tamper_data(0, old_data)
        controller.nvm.tamper_meta(0, old_block)
        report = controller.recover()
        assert not report.verified

    def test_probe_failure_detected(self):
        """Erasing a data line strands its minor counter: probing fails
        and recovery reports unverified."""
        controller = make_controller(OsirisScheme(persist_stride=4))
        controller.write_data(0)
        controller.write_data(0)
        controller.crash()
        controller.nvm._data.pop(0)
        report = controller.recover()
        assert not report.verified


class TestTriadNvm:
    def test_write_through_traffic(self):
        """Triad-NVM's 2-4x write overhead (Section II-E)."""
        wb = make_controller(BmtWriteBackScheme())
        triad = make_controller(TriadNvmScheme(persisted_levels=1))
        for line in range(0, 512, 3):
            wb.write_data(line)
            triad.write_data(line)
        ratio = triad.nvm.total_writes() / wb.nvm.total_writes()
        assert 2.0 <= ratio <= 4.0

    def test_more_levels_more_traffic(self):
        lines = 64 * 600  # deep enough for three hash levels
        one = make_controller(TriadNvmScheme(persisted_levels=1),
                              lines=lines)
        two = make_controller(TriadNvmScheme(persisted_levels=2),
                              lines=lines)
        assert one.geometry.num_hash_levels >= 2
        for line in range(0, 512, 7):
            one.write_data(line)
            two.write_data(line)
        assert two.nvm.total_writes() > one.nvm.total_writes()

    def test_crash_recovery_verifies(self):
        controller = make_controller(TriadNvmScheme())
        for line in (0, 64, 64, 300, 0):
            controller.write_data(line)
        controller.crash()
        report = controller.recover()
        assert report.verified
        for index, image in controller.pre_crash_blocks.items():
            assert report.restored[index] == \
                (image.major,) + image.minors

    def test_counter_tamper_detected(self):
        controller = make_controller(TriadNvmScheme())
        controller.write_data(0)
        controller.write_data(0)
        controller.crash()
        stale = controller.nvm.peek_meta(0)
        minors = list(stale.minors)
        minors[0] += 1
        controller.nvm.tamper_meta(
            0, SplitCounterImage(stale.major, tuple(minors))
        )
        report = controller.recover()
        assert not report.verified


class TestSuperMem:
    def _machine(self, window=16):
        from repro.bmt import SuperMemScheme
        return make_controller(SuperMemScheme(wpq_window=window))

    def test_write_through_without_coalescing(self):
        controller = self._machine(window=0)
        for line in range(0, 256, 64):  # four distinct pages
            controller.write_data(line)
        assert controller.stats["bmt.block_persists"] == 4
        assert controller.stats["supermem.coalesced_writes"] == 0

    def test_page_bursts_coalesce(self):
        """Consecutive writes to one page merge their counter-block
        writes in the WPQ — SuperMem's CWC observation."""
        controller = self._machine(window=16)
        for line in range(8):  # one page, eight lines
            controller.write_data(line)
        assert controller.stats["bmt.block_persists"] == 1
        assert controller.stats["supermem.coalesced_writes"] == 7

    def test_coalescing_cuts_traffic_vs_naive_write_through(self):
        naive = self._machine(window=0)
        coalescing = self._machine(window=16)
        for step in range(400):
            line = (step // 8) * 64 + step % 8  # page-local bursts
            naive.write_data(line % LINES)
            coalescing.write_data(line % LINES)
        assert coalescing.nvm.total_writes() < naive.nvm.total_writes()

    def test_crash_recovery_exact_even_with_pending_blocks(self):
        """Blocks still in the (ADR-protected) queue at the crash are
        flushed by battery: recovery finds every counter fresh."""
        controller = self._machine(window=16)
        for line in (0, 1, 2, 64, 65, 0):
            controller.write_data(line)
        controller.crash()
        report = controller.recover()
        assert report.verified
        assert report.stale_lines == 0
        for index, image in controller.pre_crash_blocks.items():
            assert report.restored[index] == \
                (image.major,) + image.minors

    def test_window_validation(self):
        from repro.bmt import SuperMemScheme
        with pytest.raises(ValueError):
            SuperMemScheme(wpq_window=-1)


class TestSitCannotRebuildFromLeaves:
    """The structural argument of Section II-E, made executable: a BMT
    is a pure function of its leaves; an SIT node's MAC additionally
    needs its *parent's* counter, so bottom-up reconstruction is
    ambiguous without extra information (what STAR's LSBs provide)."""

    def test_bmt_rebuilds_from_leaves_alone(self):
        geometry = BMTGeometry(LINES)
        hasher = BMTHasher(KEY)
        blocks = [SplitCounterImage.zero()] * geometry.num_counter_blocks
        _levels, root = rebuild_tree(geometry, hasher, blocks)
        assert root != 0

    def test_sit_macs_are_ambiguous_without_the_parent(self):
        from repro.tree.sit import SITAuthenticator

        auth = SITAuthenticator(KEY)
        counters = tuple(range(8))
        # the same node content yields *different* valid images under
        # different parent counters: leaves alone cannot decide
        image_a = auth.make_node_image((0, 0), counters, 5)
        image_b = auth.make_node_image((0, 0), counters, 6)
        assert image_a.mac != image_b.mac
        assert auth.verify_node_image((0, 0), image_a, 5)
        assert auth.verify_node_image((0, 0), image_b, 6)
        # and neither verifies under the other parent counter
        assert not auth.verify_node_image((0, 0), image_a, 6)
        assert not auth.verify_node_image((0, 0), image_b, 5)


BMT_RECOVERY_DIGEST = "7795817ac3c6806b"


def bmt_recovery_digest():
    """Hash every field of 45 BMT recovery reports: Osiris, Triad-NVM
    and SuperMem, 15 cases each. Every fifth case replays an old
    counter block after the crash, so unverified reports are pinned
    too."""
    hasher = hashlib.blake2b(digest_size=8)
    schemes = (
        lambda: OsirisScheme(persist_stride=4),
        lambda: TriadNvmScheme(persisted_levels=1),
        lambda: SuperMemScheme(wpq_window=16),
    )
    for make_scheme in schemes:
        for case in range(15):
            rng = random.Random(case)
            controller = make_controller(make_scheme())
            for _ in range(20 + 13 * case):
                controller.write_data(rng.randrange(64 * 8))
            first_block = controller.nvm.peek_meta(0)
            for _ in range(3 + case):
                controller.write_data(rng.randrange(64))
            controller.crash()
            if case % 5 == 4 and first_block is not None:
                controller.nvm.tamper_meta(0, first_block)
            report = controller.recover()
            fields = dataclasses.asdict(report)
            fields["restored"] = sorted(fields["restored"].items())
            hasher.update(repr(sorted(fields.items())).encode("ascii"))
    return hasher.hexdigest()


def test_bmt_recovery_reports_are_frozen():
    """Pins what BMT recovery reports, its counted traffic and time
    included, so moving the accounting cannot silently change it."""
    assert bmt_recovery_digest() == BMT_RECOVERY_DIGEST
