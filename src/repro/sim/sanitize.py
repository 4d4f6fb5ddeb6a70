"""Runtime simulation sanitizers: an opt-in shadow for NVM writes.

``Machine(sanitize=True)`` installs :class:`Sanitizer`, which wraps the
machine's NVM write paths (counted writes *and* the battery-flush
paths), the controller's node-image minting and the STAR bitmap
manager's ADR store, asserting on every line write:

* **64B atomic granularity** — each write carries exactly one
  well-formed line image: a 64-byte ciphertext for data lines, a full
  ``TREE_ARITY``-counter :class:`NodeImage` for metadata lines, a
  bitmap word that fits the index fanout for RA lines;
* **counter monotonicity** — encryption counters written to a metadata
  line never decrease below the high-water mark of previous legitimate
  writes (counters are monotonic by design; a decrease means replayed
  or mis-restored state). ``tamper_*`` writes stay unwrapped — the
  attacker is allowed to violate invariants, detection is the scheme's
  job;
* **in-field value ranges** — every field fits its paper bit budget
  from :data:`repro.core.widths.FIELD_WIDTHS`, and every minted node
  image carries exactly the parent counter's LSBs in its spare MAC bits
  (counter-MAC synergization, Section III-B).

Violations raise :class:`SanitizeError` (an ``AssertionError``
subclass, so plain ``assert``-style handling works). With
``sanitize=False`` (the default) nothing is wrapped and the hot paths
are untouched — the perf gate runs with sanitizers off.

The fuzzer exposes this as ``star-fuzz run --sanitize``.
"""

from __future__ import annotations

from functools import wraps
from typing import Dict, Optional, Tuple

from repro.config import LINE_SIZE, LSB_BITS, TREE_ARITY
from repro.core.widths import fits
from repro.tree.node import DataLineImage, NodeImage


class SanitizeError(AssertionError):
    """A runtime invariant violated on an NVM line write."""


class Sanitizer:
    """Wraps one machine's write paths with shadow assertions."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self._meta_high: Dict[int, Tuple[int, ...]] = {}
        self._checks = machine.stats.registry.counter("sanitize.checks")
        self._wrapped_bitmaps: set = set()
        self.install()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def install(self) -> None:
        nvm = self.machine.nvm
        self._wrap(nvm, "write_data", self._check_data)
        self._wrap(nvm, "write_meta", self._check_meta)
        self._wrap(nvm, "flush_meta", self._check_meta)
        self._wrap(nvm, "write_ra", self._check_ra)
        self._wrap(nvm, "flush_ra", self._check_ra)
        controller = self.machine.controller
        inner = controller._write_node_image

        @wraps(inner)
        def checked_write_node_image(node_id, addr, cached,
                                     parent_counter):
            inner(node_id, addr, cached, parent_counter)
            try:
                self._check_synergized_lsbs(addr, parent_counter)
            except SanitizeError as error:
                self._trip(error)
                raise

        controller._write_node_image = checked_write_node_image
        self.rewire_scheme()

    def rewire_scheme(self) -> None:
        """(Re-)wrap scheme-owned structures; recovery re-attaches the
        scheme, which rebuilds the STAR bitmap manager, so the machine
        calls this again after every :meth:`Machine.recover`."""
        bitmap = getattr(self.machine.scheme, "bitmap", None)
        if bitmap is None or id(bitmap) in self._wrapped_bitmaps:
            return
        self._wrapped_bitmaps.add(id(bitmap))
        inner = bitmap._store

        @wraps(inner)
        def checked_store(layer, line, value):
            try:
                self._check_bitmap_word(bitmap, layer, line, value)
            except SanitizeError as error:
                self._trip(error)
                raise
            inner(layer, line, value)

        bitmap._store = checked_store

    def _wrap(self, obj, name: str, checker) -> None:
        inner = getattr(obj, name)

        @wraps(inner)
        def checked(*args):
            try:
                checker(*args)
            except SanitizeError as error:
                self._trip(error)
                raise
            return inner(*args)

        setattr(obj, name, checked)

    def _trip(self, error: SanitizeError) -> None:
        """Leave a flight-recorder event before the trip propagates.

        The fuzzer attaches the event-log tail to failure artifacts, so
        a sanitizer trip should be the last event in that tail — the
        message is deterministic, keeping serial-vs-parallel campaign
        results byte-identical.
        """
        stats = self.machine.stats
        stats.event("sanitize_trip", detail=str(error))

    # ------------------------------------------------------------------
    # the checks
    # ------------------------------------------------------------------
    def _check_data(self, line: int, image) -> None:
        self._checks.value += 1
        if not isinstance(image, DataLineImage):
            raise SanitizeError(
                "data line %r write is not a DataLineImage: %r"
                % (line, type(image).__name__)
            )
        if len(image.ciphertext) != LINE_SIZE:
            raise SanitizeError(
                "data line %r write is not 64B-atomic: %d-byte "
                "ciphertext" % (line, len(image.ciphertext))
            )
        self._check_mac_sideband("data line %r" % line, image)

    def _check_meta(self, meta_index: int, image) -> None:
        self._checks.value += 1
        if not isinstance(image, NodeImage):
            raise SanitizeError(
                "metadata line %r write is not a NodeImage: %r"
                % (meta_index, type(image).__name__)
            )
        if len(image.counters) != TREE_ARITY:
            raise SanitizeError(
                "metadata line %r write is not 64B-atomic: %d counters"
                % (meta_index, len(image.counters))
            )
        for slot, counter in enumerate(image.counters):
            if not fits("counter", counter):
                raise SanitizeError(
                    "metadata line %r slot %d counter %d overflows its "
                    "budget" % (meta_index, slot, counter)
                )
        self._check_mac_sideband("metadata line %r" % meta_index, image)
        high = self._meta_high.get(meta_index)
        if high is not None:
            for slot, (old, new) in enumerate(
                zip(high, image.counters)
            ):
                if new < old:
                    raise SanitizeError(
                        "metadata line %r slot %d counter moved "
                        "backwards: %d -> %d (counters are monotonic)"
                        % (meta_index, slot, old, new)
                    )
        self._meta_high[meta_index] = tuple(image.counters)

    def _check_mac_sideband(self, what: str, image) -> None:
        if not fits("mac", image.mac):
            raise SanitizeError(
                "%s MAC %d overflows the MAC budget" % (what, image.mac)
            )
        if not fits("lsbs", image.lsbs):
            raise SanitizeError(
                "%s LSBs %d overflow the spare-bit budget"
                % (what, image.lsbs)
            )

    def _check_ra(self, key, value) -> None:
        self._checks.value += 1
        if not (isinstance(key, tuple) and len(key) == 2):
            raise SanitizeError(
                "recovery-area key %r is not a (layer, line) pair" % (key,)
            )
        if not isinstance(value, int) or value < 0:
            raise SanitizeError(
                "recovery-area write %r is not a bitmap word: %r"
                % (key, value)
            )
        fanout = self._bitmap_fanout()
        if fanout is not None and value.bit_length() > fanout:
            raise SanitizeError(
                "recovery-area word %r exceeds the %d-bit line fanout"
                % (key, fanout)
            )

    def _check_bitmap_word(self, bitmap, layer: int, line: int,
                           value: int) -> None:
        self._checks.value += 1
        index = bitmap.index
        if not 1 <= layer <= index.num_layers:
            raise SanitizeError(
                "bitmap store to nonexistent layer %d" % layer
            )
        if not 0 <= line < index.lines_in_layer(layer):
            raise SanitizeError(
                "bitmap store outside layer %d: line %d" % (layer, line)
            )
        if value < 0 or value.bit_length() > index.fanout:
            raise SanitizeError(
                "bitmap word for (%d, %d) exceeds the %d-bit fanout"
                % (layer, line, index.fanout)
            )

    def _check_synergized_lsbs(self, addr: int,
                               parent_counter: int) -> None:
        self._checks.value += 1
        image = self.machine.nvm.peek_meta(addr)
        expected = parent_counter & ((1 << LSB_BITS) - 1)
        if image is None or image.lsbs != expected:
            raise SanitizeError(
                "minted image for metadata line %d does not carry the "
                "parent counter's LSBs (%d != %d): counter-MAC "
                "synergization broken"
                % (addr, -1 if image is None else image.lsbs, expected)
            )

    def _bitmap_fanout(self) -> Optional[int]:
        bitmap = getattr(self.machine.scheme, "bitmap", None)
        if bitmap is None:
            return None
        return bitmap.index.fanout


def install_sanitizers(machine) -> Sanitizer:
    """Attach a :class:`Sanitizer` to ``machine`` and return it."""
    return Sanitizer(machine)
