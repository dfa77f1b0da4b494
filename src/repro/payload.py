"""Self-verifying payload: every byte is a function of where it belongs.

IOR's check-write mode fills its buffers with signatures derived from the
file offset, so a reader verifies what it reads without a reference copy.
Here every 8-byte-aligned word of a file is a keyed splitmix64 mix of its
word index, and the key is the run's seed and the file's path
(:func:`payload_key`).  Nothing holds a rank's buffer: what moves bytes —
an ADIO driver whose ``payload`` flag is set (the tests' driver fills every
``write_contig`` with them; data sieving's read-modify-write then merges
them) — asks :func:`payload_bytes` for the file range it is moving, and an
integrity check compares what a file stores with the same function
(:func:`repro.chaos.invariants.verify_files`).  The production drivers move
none: the harnesses check sizes and coverage, not bytes.

Paper correspondence: none (data verification for the §III cache).
"""

from __future__ import annotations

import hashlib

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def payload_key(seed: int, path: str) -> int:
    """The 64-bit key of ``path``'s payload in a run seeded ``seed``: a hash
    of the path, so it does not depend on the order files were created."""
    digest = hashlib.blake2b(f"{seed}:{path}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def payload_bytes(key: int, offset: int, nbytes: int) -> np.ndarray:
    """The ``nbytes`` payload bytes at file ``offset`` of the file keyed
    ``key`` (uint8; any offset and length, aligned or not)."""
    if offset < 0 or nbytes < 0:
        raise ValueError(f"payload_bytes: negative offset {offset} or length {nbytes}")
    first, stop = offset >> 3, (offset + nbytes + 7) >> 3
    z = np.arange(first, stop, dtype=np.uint64) * _GAMMA + np.uint64(key)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z ^= z >> np.uint64(31)
    head = offset & 7
    return z.astype("<u8", copy=False).view(np.uint8)[head : head + nbytes]
