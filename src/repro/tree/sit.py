"""SGX-integrity-tree authentication (Section II-C / III-B).

The MAC of an SIT node hashes the node's address, its own eight counters
and *one corresponding counter in its parent node* — this is what makes
SIT impossible to rebuild from its leaves, and what STAR exploits: the
only cache-resident modification caused by persisting a node is a single
counter increment in its parent.

Under STAR the persisted line additionally carries the 10 LSBs of that
parent counter in the spare MAC bits, and the MAC covers those LSBs so
they cannot be tampered with independently (Section III-B).

Each MAC hashes one fixed-width big-endian message laid out like the
paper's 64-byte line (Table I): :func:`node_message` and
:func:`data_message` below are the only places that format is written.

This module is pure policy — given identities, counters and parent
counters it mints and checks :class:`NodeImage`/:class:`DataLineImage`
values. The controller owns all state.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import (
    ADDRESS_BITS,
    COUNTER_BITS,
    LINE_SIZE,
    LSB_BITS,
    MAC_BITS,
    TREE_ARITY,
)
from repro.crypto.hashing import KeyedBlake2b
from repro.tree.geometry import NodeId
from repro.tree.node import DataLineImage, NodeImage
from repro.util.bitfield import mask

_LSB_MASK = mask(LSB_BITS)
_MAC_MASK = mask(MAC_BITS)

# message layout: one domain byte, then the fields packed MSB-first
_NODE_DOMAIN = b"N"
_DATA_DOMAIN = b"D"
_LEVEL_BITS = 8
_NODE_FIELD_BITS = (_LEVEL_BITS + ADDRESS_BITS
                    + (TREE_ARITY + 1) * COUNTER_BITS + LSB_BITS)
_NODE_FIELD_BYTES = (_NODE_FIELD_BITS + 7) // 8
_DATA_FIELD_BYTES = (ADDRESS_BITS + COUNTER_BITS + LSB_BITS + 7) // 8

_LEVEL_LIMIT = 1 << _LEVEL_BITS
_ADDRESS_LIMIT = 1 << ADDRESS_BITS
_COUNTER_LIMIT = 1 << COUNTER_BITS
_LSB_LIMIT = 1 << LSB_BITS


def node_message(level: int, index: int, counters: Sequence[int],
                 parent_counter: int, lsbs: int) -> bytes:
    """The message a node MAC hashes.

    Domain byte ``N``, then level (8 b) ‖ index (64 b) ‖ the node's
    eight counters as one 448-bit field ‖ parent counter (56 b) ‖
    stored LSBs (10 b), as one 74-byte big-endian field. A value
    outside its field raises ``ValueError`` rather than spilling into
    its neighbour, so distinct inputs always give distinct messages.
    """
    if len(counters) != TREE_ARITY:
        raise ValueError("a node holds exactly %d counters" % TREE_ARITY)
    if not (0 <= level < _LEVEL_LIMIT and 0 <= index < _ADDRESS_LIMIT
            and 0 <= parent_counter < _COUNTER_LIMIT
            and 0 <= lsbs < _LSB_LIMIT):
        raise ValueError(
            "node MAC fields out of width: level=%d index=%d "
            "parent_counter=%d lsbs=%d"
            % (level, index, parent_counter, lsbs)
        )
    packed = level << ADDRESS_BITS | index
    for counter in counters:
        if not 0 <= counter < _COUNTER_LIMIT:
            raise ValueError(
                "counter=%d overflows its %d-bit field"
                % (counter, COUNTER_BITS)
            )
        packed = packed << COUNTER_BITS | counter
    packed = (packed << COUNTER_BITS | parent_counter) << LSB_BITS | lsbs
    return _NODE_DOMAIN + packed.to_bytes(_NODE_FIELD_BYTES, "big")


def data_message(address: int, ciphertext: bytes, counter: int,
                 lsbs: int) -> bytes:
    """The message a data-line MAC hashes.

    Domain byte ``D``, then address (64 b) ‖ counter (56 b) ‖ LSBs
    (10 b) as one 17-byte big-endian field, then the 64-byte
    ciphertext. Out-of-width fields raise ``ValueError``.
    """
    if not (0 <= address < _ADDRESS_LIMIT
            and 0 <= counter < _COUNTER_LIMIT and 0 <= lsbs < _LSB_LIMIT):
        raise ValueError(
            "data MAC fields out of width: address=%d counter=%d lsbs=%d"
            % (address, counter, lsbs)
        )
    if len(ciphertext) != LINE_SIZE:
        raise ValueError("ciphertext must be exactly %d bytes" % LINE_SIZE)
    packed = (address << COUNTER_BITS | counter) << LSB_BITS | lsbs
    return (_DATA_DOMAIN + packed.to_bytes(_DATA_FIELD_BYTES, "big")
            + ciphertext)


class SITAuthenticator:
    """Mints and verifies SIT node and user-data MACs under one key.

    MAC computations dominate the simulator's per-access cost (every
    persist mints one, every fetch and every recovery probe verifies
    one), and the same (inputs -> MAC) pairs recur constantly: a verify
    right after a mint, Osiris probes re-deriving candidate MACs, reads
    of lines whose image has not changed. Since a MAC is a pure
    function of its message under a fixed key, both MAC kinds memoize in
    bounded per-instance caches (cleared wholesale when full, so the
    worst case stays O(1) memory without LRU bookkeeping on the hot
    path). The batched pipeline calls these same methods, so both
    pipelines share the caches.
    """

    _CACHE_LIMIT = 1 << 16

    __slots__ = ("_node_mac_cache", "_data_mac_cache", "_prf")

    def __init__(self, key: bytes) -> None:
        self._node_mac_cache: dict = {}
        self._data_mac_cache: dict = {}
        self._prf = KeyedBlake2b(key, digest_size=8)

    # ------------------------------------------------------------------
    # metadata nodes (counter blocks and SIT nodes share one structure)
    # ------------------------------------------------------------------
    def node_mac(self, node: NodeId, counters: Sequence[int],
                 parent_counter: int, lsbs: int) -> int:
        """MAC = H(address, own counters, parent counter, stored LSBs)."""
        if type(counters) is not tuple:
            counters = tuple(counters)
        cache_key = (node, counters, parent_counter, lsbs)
        cache = self._node_mac_cache
        mac = cache.get(cache_key)
        if mac is None:
            if len(cache) >= self._CACHE_LIMIT:
                cache.clear()
            level, index = node
            digest = self._prf.digest(node_message(
                level, index, counters, parent_counter, lsbs
            ))
            mac = cache[cache_key] = (
                int.from_bytes(digest, "big") & _MAC_MASK
            )
        return mac

    def make_node_image(self, node: NodeId, counters: Sequence[int],
                        parent_counter: int) -> NodeImage:
        """The line image persisted when ``node`` is written to NVM.

        The stored LSBs are the low bits of the parent's corresponding
        counter — the counter-MAC synergization payload.
        """
        lsbs = parent_counter & _LSB_MASK
        mac = self.node_mac(node, counters, parent_counter, lsbs)
        return NodeImage(counters=tuple(counters), mac=mac, lsbs=lsbs)

    def verify_node_image(self, node: NodeId, image: NodeImage,
                          parent_counter: int) -> bool:
        """Check a fetched node against the parent's current counter."""
        expected = self.node_mac(
            node, image.counters, parent_counter, image.lsbs
        )
        return expected == image.mac

    # ------------------------------------------------------------------
    # user-data lines (children of the counter blocks)
    # ------------------------------------------------------------------
    def data_mac(self, address: int, ciphertext: bytes,
                 counter: int, lsbs: int) -> int:
        """MAC = H(content, address, encryption counter, stored LSBs)."""
        cache_key = (address, ciphertext, counter, lsbs)
        cache = self._data_mac_cache
        mac = cache.get(cache_key)
        if mac is None:
            if len(cache) >= self._CACHE_LIMIT:
                cache.clear()
            message = data_message(address, ciphertext, counter, lsbs)
            digest = self._prf.digest(message)
            mac = cache[cache_key] = (
                int.from_bytes(digest, "big") & _MAC_MASK
            )
        return mac

    def make_data_image(self, address: int, ciphertext: bytes,
                        counter: int) -> DataLineImage:
        """The data line + Synergy MAC side-band written in one access."""
        lsbs = counter & _LSB_MASK
        mac = self.data_mac(address, ciphertext, counter, lsbs)
        return DataLineImage(ciphertext=ciphertext, mac=mac, lsbs=lsbs)

    def verify_data_image(self, address: int, image: DataLineImage,
                          counter: int) -> bool:
        """Check a fetched data line against its encryption counter."""
        expected = self.data_mac(
            address, image.ciphertext, counter, image.lsbs
        )
        return expected == image.mac
