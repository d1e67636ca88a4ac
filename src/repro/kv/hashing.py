"""Process-independent key hashing.

CPython randomizes ``str`` hashing per process (``PYTHONHASHSEED``), so
anything that feeds the builtin ``hash`` of a key into the timing model
makes simulated results depend on the interpreter's seed.
:func:`stable_key_hash` is the replacement: a pure function of the key's
``str`` form, identical in every process, run and platform.
"""

from __future__ import annotations

from typing import Any

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a — stable across processes, runs, and platforms."""
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def _mix64(value: int) -> int:
    """splitmix64 finalizer.  Raw FNV-1a avalanches poorly into the
    *high* bits for short inputs (``user0``..``user999`` share most of
    their bytes); the finalizer spreads every input bit over the full
    word."""
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def stable_key_hash(key: Any) -> int:
    """64-bit hash of *key* through its ``str`` form, the canonical form
    the KV layer keys records by."""
    return _mix64(fnv1a64(str(key).encode("utf-8")))
