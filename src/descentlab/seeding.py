"""Deterministic derivation of independent random substreams.

Every stochastic routine in the package takes a single master seed plus a
string label (and optionally an index) and deterministically derives a
64-bit sub-seed from them.  Sub-seeds are independent of call order, so a
Monte Carlo sweep produces the same numbers whether trials run serially,
in parallel, or in any permutation: ``parallel.map_trials`` relies on it
to spread the trials of ``sparse_regression.monte_carlo_risk`` and
``polyfit.bias_variance_decompose`` over forked processes.
"""

from __future__ import annotations

import hashlib

# Imported by name, so that importing this module loads numpy.random,
# which numpy itself loads only on first use.
from numpy.random import Generator, default_rng

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
