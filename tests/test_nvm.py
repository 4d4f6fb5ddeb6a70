"""Unit tests for the NVM device model."""

import pytest

from repro.mem.nvm import NVM
from repro.tree.geometry import TreeGeometry
from repro.tree.node import DataLineImage, NodeImage


def _data(byte: int = 0) -> DataLineImage:
    return DataLineImage(ciphertext=bytes([byte]) * 64, mac=1, lsbs=2)


def _node() -> NodeImage:
    return NodeImage(counters=(1,) * 8, mac=3, lsbs=4)


class TestDataRegion:
    def test_unwritten_reads_none(self):
        assert NVM().read_data(5) is None

    def test_write_then_read(self):
        nvm = NVM()
        nvm.write_data(5, _data(1))
        assert nvm.read_data(5) == _data(1)

    def test_traffic_counted(self):
        nvm = NVM()
        nvm.write_data(1, _data())
        nvm.read_data(1)
        nvm.read_data(2)
        assert nvm.stats["nvm.data_writes"] == 1
        assert nvm.stats["nvm.data_reads"] == 2

    def test_peek_not_counted(self):
        nvm = NVM()
        nvm.write_data(1, _data())
        nvm.peek_data(1)
        assert nvm.stats["nvm.data_reads"] == 0


class TestMetaRegion:
    def test_untouched_reads_zero_image(self):
        nvm = NVM()
        image, touched = nvm.read_meta(9)
        assert not touched
        assert image == NodeImage.zero()

    def test_write_then_read(self):
        nvm = NVM()
        nvm.write_meta(9, _node())
        image, touched = nvm.read_meta(9)
        assert touched
        assert image == _node()

    def test_meta_is_touched(self):
        nvm = NVM()
        assert not nvm.meta_is_touched(9)
        nvm.write_meta(9, _node())
        assert nvm.meta_is_touched(9)


class TestReadUntouchedBlocks:
    """The bulk probe charge equals its per-line reads, read for read."""

    @staticmethod
    def _per_line(geometry, start, stop):
        nvm = NVM()
        nvm.trace = []
        for block in range(start, stop):
            nvm.read_meta(geometry.meta_index((0, block)))
            for line in geometry.children_of((0, block)):
                nvm.read_data(line)
        return nvm

    @pytest.mark.parametrize("num_data_lines,start,stop", [
        (64, 0, 8),    # every block full
        (61, 0, 8),    # the last block has 5 children
        (61, 3, 8),
        (61, 7, 8),    # only the short block
        (61, 2, 5),
        (9, 0, 2),     # the last block has 1 child
    ])
    def test_matches_per_line_reads(self, num_data_lines, start, stop):
        geometry = TreeGeometry(num_data_lines)
        single = self._per_line(geometry, start, stop)
        traced = NVM()
        traced.trace = []
        traced.read_untouched_blocks(geometry, start, stop)
        assert traced.trace == single.trace
        counted = NVM()  # untraced: the counters move in bulk
        counted.read_untouched_blocks(geometry, start, stop)
        assert counted.stats.snapshot() == single.stats.snapshot()
        assert traced.stats.snapshot() == single.stats.snapshot()

    @pytest.mark.parametrize("trace", [None, []])
    @pytest.mark.parametrize("block", [5, 8])  # 8: past the short block
    def test_empty_range_charges_nothing(self, trace, block):
        nvm = NVM()
        nvm.trace = trace
        nvm.read_untouched_blocks(TreeGeometry(61), block, block)
        assert nvm.trace == trace
        assert nvm.total_reads() == 0


class TestRaAndSt:
    def test_ra_default_zero(self):
        assert NVM().read_ra((1, 0)) == 0

    def test_ra_write_read(self):
        nvm = NVM()
        nvm.write_ra((1, 3), 0xF0)
        assert nvm.read_ra((1, 3)) == 0xF0
        assert nvm.stats["nvm.ra_writes"] == 1
        assert nvm.stats["nvm.ra_reads"] == 1

    def test_flush_ra_not_counted(self):
        nvm = NVM()
        nvm.flush_ra((1, 0), 7)
        assert nvm.peek_ra((1, 0)) == 7
        assert nvm.stats["nvm.ra_writes"] == 0

    def test_st_write_read_clear(self):
        nvm = NVM()
        nvm.write_st(4, "entry")
        assert nvm.read_st(4) == "entry"
        assert nvm.st_slots() == [4]
        nvm.clear_st(4)
        assert nvm.read_st(4) is None

    def test_clear_st_missing_is_noop(self):
        NVM().clear_st(99)


class TestTamperInterface:
    def test_tamper_changes_content_without_traffic(self):
        nvm = NVM()
        nvm.write_data(1, _data(0))
        writes_before = nvm.total_writes()
        nvm.tamper_data(1, _data(9))
        assert nvm.peek_data(1) == _data(9)
        assert nvm.total_writes() == writes_before

    def test_tamper_meta_and_ra(self):
        nvm = NVM()
        nvm.tamper_meta(2, _node())
        nvm.tamper_ra((1, 1), 5)
        assert nvm.peek_meta(2) == _node()
        assert nvm.peek_ra((1, 1)) == 5
        assert nvm.total_writes() == 0


class TestAggregates:
    def test_totals_cover_all_regions(self):
        nvm = NVM()
        nvm.write_data(1, _data())
        nvm.write_meta(1, _node())
        nvm.write_ra((1, 0), 1)
        nvm.write_st(0, "e")
        nvm.read_data(1)
        nvm.read_meta(1)
        nvm.read_ra((1, 0))
        nvm.read_st(0)
        assert nvm.total_writes() == 4
        assert nvm.total_reads() == 4
