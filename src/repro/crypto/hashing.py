"""Keyed hashing / MAC primitives.

The paper's hardware uses a Carter-Wegman style MAC engine; this
reproduction substitutes keyed BLAKE2b (stdlib, deterministic across
platforms) truncated to the paper's 54-bit MAC width. What matters for
every mechanism built on top — collision detection, tamper detection,
cache-tree roots — is that the function is a deterministic keyed PRF,
which BLAKE2b provides.

Two message formats feed it:

* :func:`keyed_hash` / :func:`mac54` take a tuple of ints, bytes and
  strings through a small canonical serialization (every part tagged
  and length-prefixed, so distinct tuples never collide structurally).
  The Merkle, cache-tree and BMT callers use it.
* The SIT node MAC, the data-line MAC and the OTP pad hash one
  fixed-width message each, built by the module that owns it
  (:mod:`repro.tree.sit`, :mod:`repro.crypto.otp`) and digested through
  :class:`KeyedBlake2b`. Their domain bytes lie outside the serializer's
  tag range, so no message of one format equals one of the other.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Tuple, Union

from repro.config import MAC_BITS
from repro.util.bitfield import mask

HashPart = Union[int, bytes, str]

_INT_TAG = b"\x01"
_BYTES_TAG = b"\x02"
_STR_TAG = b"\x03"


def _serialize(parts: Iterable[HashPart]) -> bytes:
    # exact-type dispatch on the hot path (every Merkle and cache-tree
    # hash runs through here); subclasses and rejects take the
    # isinstance slow path in _serialize_other
    chunks: List[bytes] = []
    append = chunks.append
    for part in parts:
        kind = type(part)
        if kind is int:
            if part < 0:
                raise ValueError("hash inputs must be non-negative ints")
            body = part.to_bytes((part.bit_length() + 7) // 8 or 1, "big")
            append(_INT_TAG)
        elif kind is bytes:
            body = part
            append(_BYTES_TAG)
        elif kind is str:
            body = part.encode("utf-8")
            append(_STR_TAG)
        else:
            tag, body = _serialize_other(part)
            append(tag)
        append(len(body).to_bytes(4, "big"))
        append(body)
    return b"".join(chunks)


def _serialize_other(part: HashPart) -> Tuple[bytes, bytes]:
    """Subclass / error handling for :func:`_serialize`."""
    if isinstance(part, bool):
        raise TypeError("booleans are ambiguous hash inputs")
    if isinstance(part, int):
        if part < 0:
            raise ValueError("hash inputs must be non-negative ints")
        return _INT_TAG, part.to_bytes(
            (part.bit_length() + 7) // 8 or 1, "big"
        )
    if isinstance(part, bytes):
        return _BYTES_TAG, part
    if isinstance(part, str):
        return _STR_TAG, part.encode("utf-8")
    raise TypeError("unsupported hash input type: %r" % type(part))


def keyed_hash(key: bytes, *parts: HashPart) -> int:
    """A 64-bit keyed hash of the canonical serialization of ``parts``."""
    digest = hashlib.blake2b(
        _serialize(parts), key=key, digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def mac_n(key: bytes, nbits: int, *parts: HashPart) -> int:
    """A keyed MAC truncated to ``nbits`` bits."""
    return keyed_hash(key, *parts) & mask(nbits)


def mac54(key: bytes, *parts: HashPart) -> int:
    """The paper's 54-bit MAC (64-bit field minus 10 spare bits)."""
    return mac_n(key, MAC_BITS, *parts)


# Keying BLAKE2b pads the key into the first compression block, so
# constructing hashlib.blake2b(key=...) per message re-does that work
# every call. A prototype object absorbs the key once; .copy() restores
# the keyed state for ~a third of the construction cost. Identical
# digests by construction (the message argument is just a first
# update()), pinned by tests/test_crypto.py.
class KeyedBlake2b:
    """A reusable keyed-BLAKE2b instance: pay for the key once."""

    __slots__ = ("_proto",)

    def __init__(self, key: bytes, digest_size: int) -> None:
        self._proto = hashlib.blake2b(key=key, digest_size=digest_size)

    def digest(self, message: bytes) -> bytes:
        state = self._proto.copy()
        state.update(message)
        return state.digest()
