"""Tests for the derived substreams and their block generator."""

import numpy as np
import pytest

from descentlab import seeding
from descentlab.seeding import derive_seed, substream, substreams

# Sub-seeds at the edges of numpy's seed coercion: one entropy word or
# two, and the extremes of each.
_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _draws(rng: np.random.Generator) -> list:
    """A mix of draws, among them ``integers`` and ``permutation``, which
    take PCG64's buffered 32-bit half."""
    return [
        rng.integers(0, 10, size=3),
        rng.standard_normal(3),
        rng.permutation(9),
        rng.integers(0, 2**40, size=2),
        rng.uniform(-1.0, 1.0, size=3),
        rng.random(),
    ]


def _assert_same_stream(got: np.random.Generator, expected: np.random.Generator):
    assert got.bit_generator.state == expected.bit_generator.state
    for a, b in zip(_draws(got), _draws(expected)):
        np.testing.assert_array_equal(a, b)
    assert got.bit_generator.state == expected.bit_generator.state


def test_block_streams_equal_default_rng_at_edge_seeds(monkeypatch):
    monkeypatch.setattr(seeding, "derive_seed", lambda master, label, i: _EDGE_SEEDS[i])
    streams = list(substreams(0, "edge", 0, len(_EDGE_SEEDS)))
    assert len(streams) == len(_EDGE_SEEDS)
    for rng, seed in zip(streams, _EDGE_SEEDS):
        _assert_same_stream(rng, np.random.default_rng(seed))


@pytest.mark.parametrize("master, lo, hi", [(0, 0, 1), (7, 5, 305), (2**64 - 1, -3, 4)])
def test_block_streams_equal_substream(master, lo, hi):
    # lo > 0 (and < 0) checks that the block starts at its own index.
    streams = list(substreams(master, "block", lo, hi))
    assert len(streams) == hi - lo
    for i, rng in zip(range(lo, hi), streams):
        _assert_same_stream(rng, substream(master, "block", i))


def test_an_empty_range_yields_nothing():
    assert list(substreams(3, "empty", 4, 4)) == []


def test_block_streams_are_fresh_objects():
    # Drawing from one trial's stream leaves the next trial's untouched.
    first, second = substreams(11, "fresh", 0, 2)
    assert first is not second and first.bit_generator is not second.bit_generator
    first.standard_normal(100)
    _assert_same_stream(second, substream(11, "fresh", 1))


def test_derived_seeds_depend_on_every_input():
    seeds = {
        derive_seed(1, "a", 0),
        derive_seed(2, "a", 0),
        derive_seed(1, "b", 0),
        derive_seed(1, "a", 1),
    }
    assert len(seeds) == 4
    assert derive_seed(1, "a", 0) == derive_seed(1, "a")
    assert all(0 <= s < 2**64 for s in seeds)
