"""Cryptographic substrate: keyed MACs and counter-mode encryption."""

from repro.crypto.hashing import keyed_hash, mac54, mac_n
from repro.crypto.otp import CounterModeEngine

__all__ = [
    "CounterModeEngine",
    "keyed_hash",
    "mac54",
    "mac_n",
]
