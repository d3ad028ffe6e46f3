"""Counter-based random streams for the batched transport.

The fault engine originally drew from sequential Mersenne streams, which
made every outcome depend on *how many* draws happened before it -- fine
for a scalar walk, fatal for a batched one (resolving a level's frames as
arrays consumes draws in a different order).  This module replaces the
sequential streams with *counter-based* ones: the ``i``-th variate of a
stream is a pure function ``uniform(key, i)`` of the stream key and the
counter, so any subset of a stream can be evaluated in any order -- or
all at once as a numpy array -- and the level-batched transport reads
byte-identical randomness to a frame-by-frame walk (its test oracle).

The generator is the SplitMix64 finalizer over a Weyl sequence
(``mix64(key + (i + 1) * PHI)``), the standard stateless construction
(SplitMix64 is the seeding generator of java.util.SplittableRandom and
xoshiro).  It passes BigCrush as a sequential generator; here each
(key, counter) pair is one draw, which is the same lattice read along a
different axis.

Scalar (:func:`uniform_at`) and vectorized (:func:`uniforms_at`) paths
implement the identical arithmetic (64-bit wrapping multiplies, 53-bit
mantissa scaling) and are pinned to each other by a differential test.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_MASK64 = (1 << 64) - 1

#: The golden-ratio Weyl increment of SplitMix64.
_PHI = 0x9E3779B97F4A7C15

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

#: 2**-53: scales a 53-bit integer into [0, 1).
_INV53 = 1.0 / (1 << 53)


def mix64(z: int) -> int:
    """The SplitMix64 finalizer (64-bit avalanche) on a Python int."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _M1) & _MASK64
    z = ((z ^ (z >> 27)) * _M2) & _MASK64
    return z ^ (z >> 31)


def derive_key(*parts: int) -> int:
    """A 64-bit stream key from integer parts (seed, tag, edge ids, ...).

    Sequentially folds each part through the mixer, so distinct part
    tuples land on well-separated keys even when the parts are small and
    correlated (node ids, tag constants).
    """
    k = 0x243F6A8885A308D3  # pi fractional bits: an arbitrary non-zero start
    for p in parts:
        k = mix64((k ^ (p & _MASK64)) + _PHI)
    return k


def uniform_at(key: int, counter: int) -> float:
    """The ``counter``-th uniform [0, 1) variate of stream ``key``."""
    return (mix64(key + (counter + 1) * _PHI) >> 11) * _INV53


def uniforms_at(key: int, counters: np.ndarray) -> np.ndarray:
    """Vectorized :func:`uniform_at`: one variate per counter.

    Bit-identical to the scalar path: uint64 wrapping arithmetic matches
    Python-int arithmetic masked to 64 bits, and the float scaling is the
    same single multiply.
    """
    with np.errstate(over="ignore"):
        z = np.uint64(key) + (counters.astype(np.uint64) + np.uint64(1)) * np.uint64(_PHI)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * _INV53


def uniforms_at_many(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Vectorized uniforms with a per-element stream key.

    ``keys`` and ``counters`` broadcast against each other; used when one
    batch spans many edges (one key per edge, many counters per key).
    """
    with np.errstate(over="ignore"):
        z = keys.astype(np.uint64) + (counters.astype(np.uint64) + np.uint64(1)) * np.uint64(_PHI)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * _INV53


def derive_keys_array(base_key: int, parts: Iterable[int]) -> np.ndarray:
    """One derived key per part, as a uint64 array (vectorized fold).

    Equivalent to ``[derive_key_from(base_key, p) for p in parts]`` where
    the fold step matches :func:`derive_key`'s.
    """
    p = np.fromiter(parts, dtype=np.int64)
    with np.errstate(over="ignore"):
        z = (np.uint64(base_key) ^ p.astype(np.uint64)) + np.uint64(_PHI)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
        z = z ^ (z >> np.uint64(31))
    return z
