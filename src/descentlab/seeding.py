"""Deterministic derivation of independent random substreams.

Every stochastic routine in the package takes a single master seed plus a
string label (and optionally an index) and deterministically derives a
64-bit sub-seed from them.  Sub-seeds are independent of call order, so a
Monte Carlo sweep produces the same numbers whether trials run serially,
in parallel, or in any permutation: ``parallel.map_trials`` relies on it
to spread the trials of ``sparse_regression.monte_carlo_risk`` and
``polyfit.bias_variance_decompose`` over forked processes.

``substream`` defines a stream: ``default_rng`` of the sub-seed.  A Monte
Carlo loop takes its trials' streams from ``substreams``, which yields
the same streams, state for state, at a third of the cost.  It runs
numpy's ``SeedSequence`` pool mixing and ``generate_state`` for a whole
range of indices at once, as uint32 array operations, and hands each
trial's four state words to numpy's own ``PCG64`` seeding.  numpy keeps
that algorithm and PCG64's seeding fixed under its stream-compatibility
policy (NEP 19), and the tests compare the two paths at edge seeds.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

# Imported by name, so that importing this module loads numpy.random,
# which numpy itself loads only on first use.
from numpy.random import PCG64, Generator, default_rng
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, label: str, index: int = 0) -> int:
    """Derive a 64-bit sub-seed from ``(master_seed, label, index)``.

    The derivation hashes the three inputs with BLAKE2b, so distinct
    labels or indices give statistically unrelated streams while the same
    triple always maps to the same sub-seed.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update((master_seed & _MASK64).to_bytes(8, "little"))
    h.update(label.encode("utf-8"))
    h.update(b"\x00")
    h.update(index.to_bytes(8, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


def substream(master_seed: int, label: str, index: int = 0) -> Generator:
    """Return a fresh ``Generator`` seeded from the derived sub-seed."""
    return default_rng(derive_seed(master_seed, label, index))


# numpy's SeedSequence: a pool of 4 uint32 words, hashed with the
# multipliers below; every shift is by half a word.
_HALF = np.uint32(16)
_MASK32 = (1 << 32) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> list[np.uint32]:
    """The first ``count`` values of a SeedSequence hash constant, which
    starts at ``init`` and is multiplied by ``mult`` at every use."""
    values = [init]
    for _ in range(count - 1):
        values.append(values[-1] * mult & _MASK32)
    return [np.uint32(v) for v in values]


# Mixing makes 4 + 12 hashmix calls, each reading one constant of the A
# sequence and the next; generate_state's 8 words read 8 + 1 of the B one.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 17)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 9)


def _state_words(seeds: list[int]) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each seed, as rows.

    A 64-bit seed is the entropy words ``[low, high]``, which the pool
    pads with zeros; a seed below 2**32 (entropy ``[low]``) gives the same
    pool, since a missing word is hashed as 0.
    """
    seeds = np.array(seeds, dtype=np.uint64)
    entropy = [seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)]
    entropy += [np.zeros_like(entropy[0])] * 2
    uses = iter(range(16))

    def hashmix(value: np.ndarray) -> np.ndarray:
        k = next(uses)
        value = (value ^ _HASH_A[k]) * _HASH_A[k + 1]
        return value ^ (value >> _HALF)

    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _HALF)
    state = []
    for k in range(8):
        value = (pool[k % 4] ^ _HASH_B[k]) * _HASH_B[k + 1]
        state.append((value ^ (value >> _HALF)).astype(np.uint64))
    # Pairs of uint32 words, low word first, make the uint64 words.
    return np.stack([state[2 * j] | state[2 * j + 1] << np.uint64(32) for j in range(4)], axis=1)


class _StateWords(ISeedSequence):
    """A seed sequence that returns the four uint64 words it was given, the
    only request ``PCG64`` makes of one."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def substreams(master_seed: int, label: str, lo: int, hi: int) -> Iterator[Generator]:
    """Yield ``substream(master_seed, label, i)`` for ``i`` in ``range(lo, hi)``.

    Each is a fresh ``Generator`` in the same state as ``substream``'s;
    the seed-sequence hashing of the whole range is done at the first one.
    """
    words = _state_words([derive_seed(master_seed, label, i) for i in range(lo, hi)])
    for row in words:
        yield Generator(PCG64(_StateWords(row)))
