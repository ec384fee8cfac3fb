"""Unit tests for the point-to-shard routing policies."""

import numpy as np
import pytest

from repro.data import uniform_points
from repro.shard import (
    HashPartitioner,
    HilbertRangePartitioner,
    make_partitioner,
    partitioner_from_manifest,
)
from repro.shard.partition import key_bits


class TestHashPartitioner:
    def test_deterministic_and_in_range(self):
        part = HashPartitioner(5)
        points = uniform_points(50, 4, seed=1)
        shards = part.shard_of_batch(points)
        assert shards.shape == (50,)
        assert np.all((0 <= shards) & (shards < 5))
        again = part.shard_of_batch(points)
        assert np.array_equal(shards, again)

    def test_scalar_matches_batch(self):
        part = HashPartitioner(3)
        points = uniform_points(20, 3, seed=2)
        batch = part.shard_of_batch(points)
        for i in range(20):
            assert part.shard_of(points[i]) == batch[i]

    def test_statistically_balanced(self):
        part = HashPartitioner(4)
        shards = part.shard_of_batch(uniform_points(400, 6, seed=3))
        counts = np.bincount(shards, minlength=4)
        assert counts.min() > 0
        assert counts.max() < 2.0 * (400 / 4)

    def test_manifest_roundtrip(self):
        part = HashPartitioner(7)
        back = partitioner_from_manifest(part.to_manifest())
        points = uniform_points(15, 2, seed=4)
        assert np.array_equal(
            part.shard_of_batch(points), back.shard_of_batch(points)
        )

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestHilbertRangePartitioner:
    def test_fit_balances_the_build_set(self):
        points = uniform_points(120, 3, seed=5)
        part = HilbertRangePartitioner.fit(points, 4)
        counts = np.bincount(part.shard_of_batch(points), minlength=4)
        # Contiguous key ranges over a sorted build set: near-equal runs
        # (duplicated keys may shift a boundary by a few points).
        assert counts.min() >= 20
        assert counts.max() <= 40

    def test_scalar_matches_batch(self):
        points = uniform_points(30, 2, seed=6)
        part = HilbertRangePartitioner.fit(points, 3)
        batch = part.shard_of_batch(points)
        for i in range(30):
            assert part.shard_of(points[i]) == batch[i]

    def test_routing_is_spatially_contiguous_in_key_space(self):
        points = uniform_points(60, 2, seed=7)
        part = HilbertRangePartitioner.fit(points, 3)
        from repro.index.hilbert import hilbert_indices

        keys = hilbert_indices(points, bits=part.bits)
        shards = part.shard_of_batch(points)
        order = np.argsort(keys, kind="stable")
        # Walking points in key order, the shard number never decreases.
        assert np.all(np.diff(shards[order]) >= 0)

    def test_identical_points_share_a_shard(self):
        points = np.vstack([np.full((10, 2), 0.5), uniform_points(10, 2, seed=8)])
        part = HilbertRangePartitioner.fit(points, 4)
        dupes = part.shard_of_batch(np.full((10, 2), 0.5))
        assert np.unique(dupes).size == 1

    def test_bits_clamped_to_key_budget(self):
        points = uniform_points(10, 16, seed=9)
        part = HilbertRangePartitioner.fit(points, 2)
        assert part.bits == key_bits(16) == 3
        assert part.bits * 16 <= 62

    def test_manifest_roundtrip(self):
        points = uniform_points(40, 3, seed=10)
        part = HilbertRangePartitioner.fit(points, 5)
        back = partitioner_from_manifest(part.to_manifest())
        assert back.bits == part.bits
        assert np.array_equal(back.uppers, part.uppers)
        assert np.array_equal(
            part.shard_of_batch(points), back.shard_of_batch(points)
        )

    def test_validates_uppers(self):
        with pytest.raises(ValueError):
            HilbertRangePartitioner(3, np.array([5, 2]), bits=4)
        with pytest.raises(ValueError):
            HilbertRangePartitioner(3, np.array([1]), bits=4)


class TestFactories:
    def test_make_partitioner_kinds(self):
        points = uniform_points(20, 2, seed=11)
        assert make_partitioner("hash", 3, points).kind == "hash"
        assert make_partitioner("hilbert", 3, points).kind == "hilbert"

    def test_make_partitioner_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown partitioner"):
            make_partitioner("range", 3, uniform_points(5, 2, seed=12))

    def test_manifest_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="manifest"):
            partitioner_from_manifest({"kind": "mystery"})


class TestManifestValues:
    """An edited manifest value that is not an int is refused, naming
    its key, instead of being truncated or cast."""

    @pytest.mark.parametrize("value", [2.9, 2.0, True, "2", None])
    def test_hash_n_shards(self, value):
        doc = HashPartitioner(2).to_manifest()
        doc["n_shards"] = value
        with pytest.raises(ValueError, match="'n_shards' is not an int"):
            partitioner_from_manifest(doc)

    @pytest.fixture()
    def hilbert(self):
        points = uniform_points(40, 3, seed=10)
        return HilbertRangePartitioner.fit(points, 3).to_manifest()

    @pytest.mark.parametrize("value", [3.0, 2.9, False])
    def test_hilbert_n_shards(self, hilbert, value):
        hilbert["n_shards"] = value
        with pytest.raises(ValueError, match="'n_shards' is not an int"):
            partitioner_from_manifest(hilbert)

    @pytest.mark.parametrize("value", [10.0, 9.5, True, "10"])
    def test_hilbert_bits(self, hilbert, value):
        hilbert["bits"] = value
        with pytest.raises(ValueError, match="'bits' is not an int"):
            partitioner_from_manifest(hilbert)

    @pytest.mark.parametrize("edit", [
        lambda u: [u[0] + 0.7, u[1]],
        lambda u: [float(u[0]), u[1]],
        lambda u: [True, u[1]],
        lambda u: tuple(u),
        lambda u: None,
    ])
    def test_hilbert_uppers(self, hilbert, edit):
        hilbert["uppers"] = edit(hilbert["uppers"])
        with pytest.raises(ValueError, match="'uppers' is not a list of ints"):
            partitioner_from_manifest(hilbert)

    def test_ints_still_load(self, hilbert):
        back = partitioner_from_manifest(hilbert)
        assert back.to_manifest() == hilbert
