"""Counter-mode encryption (Section II-B of the paper).

A one-time pad (OTP) is derived from (secret key, line address, counter)
and XORed with the 64-byte line. Because the counter increments on every
write to the same address, and the address differs across lines, no pad is
ever reused — the property CME relies on.

The paper's hardware generates the pad with AES; this reproduction uses
keyed BLAKE2b with a 64-byte digest, i.e. one digest per line. The
construction is identical in shape (keyed PRF over (address, counter));
only the primitive differs, and nothing in the evaluation depends on the
choice of block cipher. The PRF input is :func:`pad_message`, one
fixed-width big-endian message.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.config import ADDRESS_BITS, LINE_SIZE
from repro.crypto.hashing import KeyedBlake2b

_PAD_DOMAIN = b"P"
_COUNTER_BITS = 72
"""Wide enough for every counter the engine is fed: SIT's 56-bit
counters and the BMT baseline's 64-bit major ‖ 7-bit minor."""
_ADDRESS_LIMIT = 1 << ADDRESS_BITS
_COUNTER_LIMIT = 1 << _COUNTER_BITS
_PAD_FIELD_BYTES = (ADDRESS_BITS + _COUNTER_BITS) // 8


def pad_message(address: int, counter: int) -> bytes:
    """The PRF input of the (address, counter) pad.

    Domain byte ``P``, then address (64 b) ‖ counter (72 b) as one
    17-byte big-endian field. A value outside its field raises
    ``ValueError`` rather than spilling into its neighbour, so distinct
    (address, counter) pairs always give distinct messages.
    """
    if not (0 <= address < _ADDRESS_LIMIT
            and 0 <= counter < _COUNTER_LIMIT):
        raise ValueError(
            "pad fields out of width: address=%d counter=%d"
            % (address, counter)
        )
    packed = address << _COUNTER_BITS | counter
    return _PAD_DOMAIN + packed.to_bytes(_PAD_FIELD_BYTES, "big")


class CounterModeEngine:
    """Encrypts and decrypts 64-byte lines under counter mode.

    Hot-path notes: the XOR runs as one wide integer operation rather
    than a per-byte generator (an order of magnitude cheaper in
    CPython), and derived pads sit in a small bounded cache — the
    common encrypt-then-verify / write-then-read-back sequences reuse
    the (address, counter) pad immediately. Caching pads does not
    weaken the OTP argument: a pad is reused only for the *same*
    (address, counter) pair, where it is the same pad by definition.
    """

    _PAD_CACHE_LIMIT = 4096

    __slots__ = ("_pad_cache", "_prf")

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ValueError("encryption key must be non-empty")
        self._pad_cache: Dict[Tuple[int, int], bytes] = {}
        self._prf = KeyedBlake2b(key, digest_size=LINE_SIZE)

    def one_time_pad(self, address: int, counter: int) -> bytes:
        """The pad for (address, counter); never reused across writes."""
        key = (address, counter)
        cache = self._pad_cache
        pad = cache.get(key)
        if pad is None:
            pad = self._prf.digest(pad_message(address, counter))
            if len(cache) >= self._PAD_CACHE_LIMIT:
                cache.clear()
            cache[key] = pad
        return pad

    def encrypt(self, plaintext: bytes, address: int, counter: int) -> bytes:
        """XOR ``plaintext`` with the (address, counter) pad."""
        if len(plaintext) != LINE_SIZE:
            raise ValueError(
                "plaintext must be exactly %d bytes" % LINE_SIZE
            )
        pad = self.one_time_pad(address, counter)
        return (
            int.from_bytes(plaintext, "big")
            ^ int.from_bytes(pad, "big")
        ).to_bytes(LINE_SIZE, "big")

    def decrypt(self, ciphertext: bytes, address: int, counter: int) -> bytes:
        """XOR is an involution: decryption equals encryption."""
        return self.encrypt(ciphertext, address, counter)
