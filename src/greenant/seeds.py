"""Deterministic labeled random streams.

One master seed drives every stochastic element of a run. Independent
draws are derived by hashing (seed, label), so unrelated parts of a
scenario never share or shift each other's randomness: adding a green
antenna must not perturb mobile drops or the shadowing of existing links.
A blake2b hash streams, so `label_normal` hashes the "<seed>:" prefix once
per call and finishes each label's key on a copy of it; the keys are those
of `derive_seed`.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U64 = (1 << 64) - 1

#: SplitMix64's Weyl increment, the 64-bit golden ratio.
_PHI = np.uint64(0x9E3779B97F4A7C15)


def derive_seed(seed: int, label: str) -> int:
    """64-bit sub-seed for (seed, label), stable across runs and platforms."""
    payload = f"{seed & _U64}:{label}".encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def substream(seed: int, label: str) -> np.random.Generator:
    """Independent generator for a named purpose (e.g. "drops")."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, label)))


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer (Steele, Lea and Flood, OOPSLA 2014), wrapping in uint64."""
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def label_normal(seed: int, labels, counters) -> np.ndarray:
    """Standard-normal draws, (len(counters), len(labels)), keyed by (seed, label).

    Column j is one stream: labels[j] is hashed once (blake2b) into a key,
    and counter c then gives lanes a = mix(key + (c+1)*phi) and
    b = mix(a ^ key) and one Box-Muller draw from their top 53 bits. A draw
    depends only on (seed, label, c), so it does not move when other
    counters or labels are added or removed. Counters are integers, taken
    modulo 2**64. `labels` is a sequence of str; a bare str raises TypeError.
    """
    if isinstance(labels, str):
        raise TypeError("labels must be a sequence of str, not a str")
    # each key is derive_seed(seed, label): blake2b streams, so the hash of
    # the shared "<seed>:" prefix is taken once and copied per label
    prefix = hashlib.blake2b(f"{seed & _U64}:".encode(), digest_size=8)
    digests = []
    for label in labels:
        h = prefix.copy()
        h.update(label.encode())
        digests.append(h.digest())
    keys = np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64)
    c = np.asarray(counters).astype(np.uint64, copy=False)[:, None]
    a = _mix(keys + (c + 1) * _PHI)
    b = _mix(a ^ keys)
    u1 = ((a >> 11) + 1) * 2.0**-53      # in (0, 1], log-safe
    u2 = ((b >> 11) + 0.5) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
