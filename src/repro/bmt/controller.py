"""A secure memory controller for the BMT substrate.

This is the machine the Osiris / Triad-NVM extension baselines run on:
split-counter encryption with a Bonsai Merkle tree above the counter
blocks. It is deliberately leaner than the SIT controller — the paper
evaluates those schemes only to argue they cannot carry over to SIT
(Section II-E), so what matters here is functional recovery behaviour
and write traffic, not cache-pressure microdynamics:

* counter blocks are cached write-back without capacity pressure,
* persistence policy is entirely the scheme's business (Osiris persists
  every Nth bump and on overflow; Triad-NVM writes through),
* the BMT root register is maintained on chip; at a crash it is latched
  together with the NVM, exactly like the SIT machine's registers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bmt.counters import CachedCounterBlock, SplitCounterImage
from repro.bmt.tree import BMTGeometry, BMTHasher, rebuild_tree
from repro.config import LINE_SIZE, PAPER_LINE_ACCESS_NS
from repro.crypto.hashing import mac54
from repro.crypto.otp import CounterModeEngine
from repro.errors import IntegrityError, RecoveryError
from repro.mem.nvm import NVM
from repro.schemes.base import RecoveryReport, measure_recovery
from repro.tree.node import DataLineImage
from repro.util.stats import Stats

ZERO_LINE = bytes(LINE_SIZE)


def _combined(major: int, minor: int) -> int:
    """The encryption counter fed to the OTP for a (major, minor) pair."""
    return (major << 7) | minor


class BMTController:
    """Split-counter CME + Bonsai Merkle tree, scheme-parameterized."""

    def __init__(self, key: bytes, num_data_lines: int, nvm: NVM,
                 scheme, stats: Optional[Stats] = None) -> None:
        self.key = key
        self.nvm = nvm
        self.stats = stats if stats is not None else nvm.stats
        self.geometry = BMTGeometry(num_data_lines)
        self.hasher = BMTHasher(key)
        self.cme = CounterModeEngine(key)
        self._blocks: Dict[int, CachedCounterBlock] = {}
        self.persistent_root: int = self._root_of_blocks({})
        self.crashed = False
        self.scheme = scheme
        scheme.attach(self)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def write_data(self, address: int,
                   plaintext: Optional[bytes] = None) -> None:
        if self.crashed:
            raise RecoveryError("controller has crashed; recover first")
        if plaintext is None:
            plaintext = ZERO_LINE
        block_index = self.geometry.counter_block_for(address)
        slot = self.geometry.minor_slot(address)
        block = self._get_block(block_index)
        overflowed = block.bump(slot)
        if overflowed:
            self.stats.add("bmt.minor_overflows")
            self._reencrypt_page(block_index, block, skip_line=address)
        self._write_line(address, plaintext, block, slot)
        self.scheme.on_data_write(address, block_index, block,
                                  overflowed)

    def read_data(self, address: int) -> bytes:
        if self.crashed:
            raise RecoveryError("controller has crashed; recover first")
        self.stats.add("bmt.data_reads")
        image = self.nvm.read_data(address)
        block_index = self.geometry.counter_block_for(address)
        slot = self.geometry.minor_slot(address)
        block = self._get_block(block_index)
        major, minor = block.counter_for(slot)
        if image is None:
            if (major, minor) != (0, 0):
                raise IntegrityError(
                    "line %d has a live counter but no content" % address
                )
            return ZERO_LINE
        if not self._verify_line(address, image, major, minor):
            raise IntegrityError(
                "MAC mismatch reading data line %d" % address
            )
        return self.cme.decrypt(
            image.ciphertext, address, _combined(major, minor)
        )

    # ------------------------------------------------------------------
    # counter-block and tree state
    # ------------------------------------------------------------------
    def persist_block(self, block_index: int) -> None:
        """Write one counter block through to NVM."""
        block = self._get_block(block_index)
        self.nvm.write_meta(block_index, block.snapshot())
        block.writes_since_persist = 0
        self.stats.add("bmt.block_persists")

    def block_image(self, block_index: int) -> SplitCounterImage:
        """The live (cached-or-NVM) image of one counter block."""
        if block_index in self._blocks:
            return self._blocks[block_index].snapshot()
        return self._nvm_block(block_index)

    def current_root(self) -> int:
        """The BMT root over the *live* counter state (maintained in
        the on-chip register by real hardware)."""
        return self._root_of_blocks(self._blocks)

    # ------------------------------------------------------------------
    # crash lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Power failure: latch the root register, drop cached blocks."""
        if self.crashed:
            raise RecoveryError("controller already crashed")
        on_crash = getattr(self.scheme, "on_crash", None)
        if on_crash is not None:
            on_crash()
        self.persistent_root = self.current_root()
        self.pre_crash_blocks = {
            index: block.snapshot()
            for index, block in self._blocks.items()
        }
        self._blocks.clear()
        self.crashed = True

    def recover(self) -> RecoveryReport:
        """Delegate to the scheme; returns its report, with the counted
        recovery traffic priced at the paper's per-line cost."""
        if not self.crashed:
            raise RecoveryError("recover called without a crash")
        report = measure_recovery(
            lambda: self.scheme.recover(self), self.nvm,
            PAPER_LINE_ACCESS_NS,
        )
        if report.verified:
            self.crashed = False
        return report

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _get_block(self, block_index: int) -> CachedCounterBlock:
        block = self._blocks.get(block_index)
        if block is None:
            block = CachedCounterBlock(self._nvm_block(block_index))
            self._blocks[block_index] = block
        return block

    def _nvm_block(self, block_index: int) -> SplitCounterImage:
        image, touched = self.nvm.read_meta(block_index)
        if not touched:
            return SplitCounterImage.zero()
        if not isinstance(image, SplitCounterImage):
            raise IntegrityError(
                "metadata line %d is not a counter block" % block_index
            )
        return image

    def _write_line(self, address: int, plaintext: bytes,
                    block: CachedCounterBlock, slot: int) -> None:
        major, minor = block.counter_for(slot)
        ciphertext = self.cme.encrypt(
            plaintext, address, _combined(major, minor)
        )
        mac = self._line_mac(address, ciphertext, major, minor)
        self.nvm.write_data(
            address, DataLineImage(ciphertext, mac, 0)
        )
        self.stats.add("bmt.data_writes")

    def _reencrypt_page(self, block_index: int,
                        block: CachedCounterBlock,
                        skip_line: int) -> None:
        """A minor overflow re-encrypts the page under the new major."""
        for line in self.geometry.page_lines(block_index):
            if line == skip_line:
                continue
            image = self.nvm.peek_data(line)
            if image is None:
                continue
            # in hardware the old plaintext is read, re-padded and
            # rewritten; the old counter is (major - 1, old minor) but
            # minors were reset, so we recover plaintext via the stored
            # pre-reset pad recorded in the image MAC check path. The
            # simulator reads it back through the old counter tracked
            # by the image's own MAC inputs.
            plaintext = self._decrypt_with_probe(line, image)
            slot = self.geometry.minor_slot(line)
            self._write_line(line, plaintext, block, slot)
            self.stats.add("bmt.reencryption_writes")

    def _decrypt_with_probe(self, address: int,
                            image: DataLineImage) -> bytes:
        """Find the (major, minor) a stored line was encrypted under by
        checking its MAC (used only on the re-encryption path, where the
        cached counters were just reset)."""
        block_index = self.geometry.counter_block_for(address)
        block = self._get_block(block_index)
        slot = self.geometry.minor_slot(address)
        candidates = [(block.major, block.minors[slot])]
        if block.major > 0:
            # exhaustive over the previous major's minor space (128
            # checks worst case; this is the rare overflow path)
            candidates.extend(
                (block.major - 1, minor) for minor in range(128)
            )
        for major, minor in candidates:
            if self._verify_line(address, image, major, minor):
                return self.cme.decrypt(
                    image.ciphertext, address, _combined(major, minor)
                )
        raise IntegrityError(
            "cannot establish the counter of line %d for re-encryption"
            % address
        )

    def _line_mac(self, address: int, ciphertext: bytes,
                  major: int, minor: int) -> int:
        return mac54(self.key, "bmt-data", address, ciphertext,
                     major, minor)

    def _verify_line(self, address: int, image: DataLineImage,
                     major: int, minor: int) -> bool:
        return image.mac == self._line_mac(
            address, image.ciphertext, major, minor
        )

    def _root_of_blocks(self, cached: Dict[int, CachedCounterBlock]
                        ) -> int:
        images: List[SplitCounterImage] = []
        for index in range(self.geometry.num_counter_blocks):
            if index in cached:
                images.append(cached[index].snapshot())
            else:
                image = self.nvm.peek_meta(index)
                images.append(
                    image if isinstance(image, SplitCounterImage)
                    else SplitCounterImage.zero()
                )
        _levels, root = rebuild_tree(self.geometry, self.hasher, images)
        return root
