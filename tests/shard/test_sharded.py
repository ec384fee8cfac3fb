"""Unit tests for :class:`ShardedNNCellIndex` beyond the parity suite.

The property suite (test_shard_parity.py) proves the exactness
contract; these tests pin down the edges — validation errors, empty
shards, shard teardown/lazy rebuild, persistence, and the serving stack
running unmodified over a sharded backend.
"""

import json
import re
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import repro.shard.sharded as sharded_module
from helpers import load_tool
from repro.core.nncell_index import BuildConfig, NNCellIndex
from repro.core.persistence import (
    _read_archive,
    _write_archive,
    is_sharded_archive,
    load_any_index,
    load_index,
    load_sharded_index,
    save_index,
    save_sharded_index,
)
from repro.data import uniform_points
from repro.obs import tracing
from repro.serve import QueryService
from repro.shard import ResilienceConfig, ShardConfig, ShardedNNCellIndex


@pytest.fixture(scope="module")
def points():
    return uniform_points(48, 3, seed=77)


@pytest.fixture(scope="module")
def sharded(points):
    return ShardedNNCellIndex.build(points, ShardConfig(n_shards=4))


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ShardConfig(n_shards=0)
        with pytest.raises(ValueError):
            ShardConfig(partitioner="range")

    def test_build_rejects_empty_points(self):
        with pytest.raises(ValueError):
            ShardedNNCellIndex.build(np.empty((0, 3)))

    def test_wrong_dim_query_rejected(self, sharded):
        with pytest.raises(ValueError):
            sharded.nearest([0.5, 0.5])
        with pytest.raises(ValueError):
            sharded.k_nearest([0.5, 0.5], 2)
        with pytest.raises(ValueError):
            sharded.query_batch(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            sharded.explain([0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, sharded, bad):
        q = [0.5, bad, 0.5]
        calls = [
            lambda: sharded.nearest(q),
            lambda: sharded.k_nearest(q, 2),
            lambda: sharded.explain(q),
            lambda: sharded.query_batch([[0.5, 0.5, 0.5], q]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"query .*non-finite"):
                call()

    def test_k_must_be_positive(self, sharded):
        with pytest.raises(ValueError):
            sharded.k_nearest([0.5, 0.5, 0.5], 0)

    @pytest.mark.parametrize("k", [2.5, True, "2"])
    def test_k_must_be_an_int(self, sharded, k):
        with pytest.raises(ValueError, match="k must be"):
            sharded.k_nearest([0.5, 0.5, 0.5], k)

    def test_insert_rejects_bad_points(self, points):
        index = ShardedNNCellIndex.build(points, ShardConfig(n_shards=2))
        with pytest.raises(ValueError):
            index.insert([0.5, 0.5])  # wrong dimensionality
        with pytest.raises(ValueError):
            index.insert([2.0, 0.5, 0.5])  # outside the data space

    def test_delete_rejects_unknown_and_last(self):
        index = ShardedNNCellIndex.build(
            uniform_points(3, 2, seed=1), ShardConfig(n_shards=2)
        )
        with pytest.raises(KeyError):
            index.delete(99)
        index.delete(0)
        with pytest.raises(KeyError):
            index.delete(0)  # already gone
        index.delete(1)
        with pytest.raises(ValueError):
            index.delete(2)  # the last remaining point


class TestShardLifecycle:
    def test_more_shards_than_points_leaves_empty_shards(self):
        index = ShardedNNCellIndex.build(
            uniform_points(3, 2, seed=5), ShardConfig(n_shards=8)
        )
        assert sum(1 for n in index.shard_sizes() if n) <= 3
        flat = NNCellIndex.build(index.points)
        q = np.array([0.3, 0.7])
        assert index.nearest(q)[:2] == flat.nearest(q)[:2]

    def test_teardown_and_lazy_rebuild(self):
        pts = uniform_points(6, 2, seed=9)
        index = ShardedNNCellIndex.build(pts, ShardConfig(n_shards=3))
        # Empty one shard completely.
        routes = index.partitioner.shard_of_batch(pts)
        victim_shard = routes[0]
        victims = np.flatnonzero(routes == victim_shard).tolist()
        assert index._globals[victim_shard].tolist() == victims
        for g in victims:
            index.delete(g)
        assert index.shard_sizes()[victim_shard] == 0
        # Queries still work with the shard torn down.
        flat = NNCellIndex.build(pts)
        for g in victims:
            flat.delete(g)
        q = np.array([0.4, 0.6])
        assert index.nearest(q)[:2] == flat.nearest(q)[:2]
        # An insert routing into the dead shard rebuilds it lazily.
        rng = np.random.default_rng(3)
        for __ in range(50):
            p = rng.uniform(size=2)
            if index.partitioner.shard_of(p) == victim_shard:
                gid = index.insert(p)
                fid = flat.insert(p)
                assert gid == fid
                assert index.shard_sizes()[victim_shard] == 1
                assert index.nearest(p)[:2] == flat.nearest(p)[:2]
                break
        else:  # pragma: no cover - measure-zero with 50 draws
            pytest.skip("no draw routed to the torn-down shard")

    def test_len_active_ids_and_sizes(self, sharded, points):
        assert len(sharded) == points.shape[0]
        assert np.array_equal(sharded.active_ids, np.arange(48))
        assert sum(sharded.shard_sizes()) == 48
        assert sharded.n_shards == 4

    def test_stats_keys(self, sharded):
        stats = sharded.stats()
        for key in (
            "n_points",
            "n_shards",
            "shards_live",
            "n_rectangles",
            "expected_candidates",
            "cell_tree_height",
            "cell_tree_blocks",
        ):
            assert key in stats
        assert stats["n_points"] == 48.0
        assert stats["n_shards"] == 4.0

    def test_from_index_compacts_live_points(self, points):
        flat = NNCellIndex.build(points)
        flat.delete(0)
        resharded = ShardedNNCellIndex.from_index(
            flat, ShardConfig(n_shards=3)
        )
        assert len(resharded) == 47
        q = np.array([0.2, 0.9, 0.4])
        __, dist, __info = flat.nearest(q)
        assert resharded.nearest(q)[1] == dist

    def test_context_manager_closes_pool(self, points):
        with ShardedNNCellIndex.build(
            points, ShardConfig(n_shards=2)
        ) as index:
            # Only a batch above the break-even makes the pool.
            rows = 2 * sharded_module._INLINE_ROWS_PER_SHARD + 1
            index.query_batch(uniform_points(rows, 3, seed=2))
            assert index._pool is not None
        assert index._pool is None


class ProbeLog:
    """A chaos hook that logs each probe's shard and thread, and raises
    on the probe of shard ``fail``."""

    def __init__(self, fail=None):
        self.calls = []
        self.fail = fail

    def before_probe(self, shard):
        self.calls.append((shard, threading.current_thread().name))
        if shard == self.fail:
            raise RuntimeError(f"probe of shard {shard} failed")


def pool_threads():
    return {
        t.ident for t in threading.enumerate()
        if t.name.startswith("repro-shard")
    }


class TestWhereProbesRun:
    """With no resilience policy, a scatter of at most
    ``_INLINE_ROWS_PER_SHARD`` rows per live shard probes every shard on
    the calling thread; a larger batch or a policy uses the pool."""

    @pytest.fixture()
    def fleet(self, points):
        index = ShardedNNCellIndex.build(points, ShardConfig(n_shards=4))
        yield index
        index.close()

    def test_small_scatters_start_no_pool_thread(self, fleet):
        before = pool_threads()
        log = ProbeLog()
        fleet.set_chaos(log)
        q = np.array([0.3, 0.6, 0.2])
        at_break_even = 4 * sharded_module._INLINE_ROWS_PER_SHARD
        fleet.nearest(q)
        fleet.k_nearest(q, 3)
        fleet.explain(q)
        fleet.query_batch(q[None, :])
        fleet.query_batch(uniform_points(at_break_even, 3, seed=1))
        me = threading.current_thread().name
        assert log.calls == [(s, me) for __ in range(5) for s in range(4)]
        assert fleet._pool is None
        assert pool_threads() == before

    def test_a_batch_above_the_break_even_makes_the_pool(self, fleet):
        log = ProbeLog()
        fleet.set_chaos(log)
        rows = 4 * sharded_module._INLINE_ROWS_PER_SHARD + 1
        fleet.query_batch(uniform_points(rows, 3, seed=2))
        assert fleet._pool is not None
        assert sorted(s for s, __ in log.calls) == [0, 1, 2, 3]
        assert all(name.startswith("repro-shard") for __, name in log.calls)

    def test_a_resilience_policy_pools_even_one_query(self, fleet):
        fleet.set_resilience(ResilienceConfig())
        log = ProbeLog()
        fleet.set_chaos(log)
        fleet.nearest([0.3, 0.6, 0.2])
        assert fleet._pool is not None
        assert sorted(s for s, __ in log.calls) == [0, 1, 2, 3]
        assert all(name.startswith("repro-shard") for __, name in log.calls)

    def test_a_raising_probe_propagates_on_both_paths(self, fleet):
        """On the calling thread the shards after the raising one are
        not probed; on the pool (forced by a zero break-even) every
        shard is, and the same exception reaches the caller."""
        log = ProbeLog(fail=1)
        fleet.set_chaos(log)
        calls = (
            lambda: fleet.nearest([0.3, 0.6, 0.2]),
            lambda: fleet.k_nearest([0.3, 0.6, 0.2], 3),
            lambda: fleet.explain([0.3, 0.6, 0.2]),
            lambda: fleet.query_batch(uniform_points(8, 3, seed=4)),
        )
        me = threading.current_thread().name
        for call in calls:
            log.calls = []
            with pytest.raises(RuntimeError, match="probe of shard 1 failed"):
                call()
            assert log.calls == [(0, me), (1, me)]
        assert fleet._pool is None
        with mock.patch.object(sharded_module, "_INLINE_ROWS_PER_SHARD", 0):
            for call in calls:
                log.calls = []
                with pytest.raises(
                    RuntimeError, match="probe of shard 1 failed"
                ):
                    call()
                fleet.close()  # waits for the probes still running
                assert sorted(s for s, __ in log.calls) == [0, 1, 2, 3]
                assert all(
                    name.startswith("repro-shard") for __, name in log.calls
                )


class TestIdMaps:
    def test_answers_carry_python_int_ids(self, sharded):
        q = [0.31, 0.62, 0.18]
        gid, __, __ = sharded.nearest(q)
        k_ids, __, __ = sharded.k_nearest(q, 5)
        explain = sharded.explain(q)
        batch_ids, __, __ = sharded.query_batch(uniform_points(9, 3, seed=6))
        owners = [owner for owner, __ in explain.rectangles] + [
            owner for owner, __ in explain.candidates
        ]
        assert type(gid) is int
        assert {type(i) for i in k_ids} == {int}
        assert type(explain.nearest_id) is int
        assert {type(owner) for owner in owners} == {int}
        assert batch_ids.dtype == np.int64  # as the unsharded index's
        # What the JSONL front-end writes.
        json.dumps([gid, k_ids, explain.nearest_id, owners])

    def test_maps_are_read_only_int64_arrays(self, tmp_path):
        pts = uniform_points(6, 2, seed=9)
        index = ShardedNNCellIndex.build(pts, ShardConfig(n_shards=3))

        def check(index, step):
            for s, ids in enumerate(index._globals):
                shard = index._shards[s]
                rows = 0 if shard is None else shard.points.shape[0]
                assert isinstance(ids, np.ndarray), step
                assert ids.dtype == np.int64 and ids.shape == (rows,), step
                assert not ids.flags.writeable, step
                assert np.all(np.diff(ids) > 0), step  # delete's search

        check(index, "build")
        save_sharded_index(index, tmp_path / "fleet")
        check(load_sharded_index(tmp_path / "fleet"), "load")
        rng = np.random.default_rng(3)
        index.insert(rng.uniform(size=2))
        check(index, "insert")
        routes = index.partitioner.shard_of_batch(index.points)
        victim_shard = routes[0]
        for g in range(6):
            if routes[g] == victim_shard:
                index.delete(g)
                check(index, "delete")
        assert index._shards[victim_shard] is None
        check(index, "teardown")
        while index._shards[victim_shard] is None:
            index.insert(rng.uniform(size=2))
        check(index, "insert into a torn-down shard")
        save_sharded_index(index, tmp_path / "grown")
        manifest = json.loads((tmp_path / "grown" / "manifest.json").read_text())
        assert [e["global_ids"] for e in manifest["shards"]] == [
            ids.tolist() for ids in index._globals
        ]


class TestShardBuild:
    def test_shards_build_on_the_calling_thread(self, monkeypatch, points):
        threads = []

        def build(shard_points, config=None):
            threads.append(threading.get_ident())
            return NNCellIndex.build(shard_points, config)

        monkeypatch.setattr(
            sharded_module, "NNCellIndex", SimpleNamespace(build=build)
        )
        ShardedNNCellIndex.build(points, ShardConfig(n_shards=4))
        assert threads == [threading.get_ident()] * 4

    def test_worker_processes_save_the_serial_fleet(self, tmp_path):
        pts = uniform_points(60, 3, seed=5)
        for workers in (1, 2):
            index = ShardedNNCellIndex.build(
                pts,
                ShardConfig(n_shards=4, partitioner="hilbert"),
                BuildConfig(workers=workers),
            )
            save_sharded_index(index, tmp_path / f"workers{workers}")
        serial, parallel = tmp_path / "workers1", tmp_path / "workers2"
        archives = sorted(p.name for p in serial.glob("*.nnc"))
        assert archives == sorted(p.name for p in parallel.glob("*.nnc"))
        assert len(archives) == 5  # four shards and global.nnc
        compare = load_tool("compare_archives").compare_archives
        for name in archives:
            assert compare(serial / name, parallel / name) == [], name
        manifest = "manifest.json"
        assert (serial / manifest).read_bytes() == (
            parallel / manifest
        ).read_bytes()


class TestExplain:
    def test_explain_agrees_with_nearest(self, sharded):
        q = np.array([0.31, 0.62, 0.18])
        gid, dist, __ = sharded.nearest(q)
        explain = sharded.explain(q)
        assert explain.nearest_id == gid
        assert explain.nearest_distance == dist
        # Candidate owners are global ids, sorted by (distance, id).
        dists = [d for __, d in explain.candidates]
        assert dists == sorted(dists)
        owners = {owner for owner, __ in explain.candidates}
        assert owners <= set(int(g) for g in sharded.active_ids)

    def test_traced_explain_is_one_trace(self, sharded):
        """One root, ``shard.explain``: a probe per live shard, then the
        merge."""
        with tracing.collecting() as tracer:
            explain = sharded.explain([0.31, 0.62, 0.18])
        (root,) = tracer.spans
        assert root.name == "shard.explain"
        assert [child.name for child in root.children] == (
            ["shard.probe"] * 4 + ["shard.merge"]
        )
        assert [c.attributes["shard"] for c in root.children[:4]] == [
            0, 1, 2, 3,
        ]
        assert root.attributes["pages"] == explain.pages


class TestServeIntegration:
    def test_query_service_over_sharded_backend(self, points, sharded):
        flat = NNCellIndex.build(points)
        queries = uniform_points(20, 3, seed=13)
        with QueryService(sharded) as service:
            for q in queries:
                result = service.submit(q)
                gid, dist, __ = flat.nearest(q)
                assert result.point_id == gid
                assert result.distance == dist


class TestPersistence:
    def test_roundtrip_preserves_answers(self, tmp_path, points, sharded):
        target = tmp_path / "fleet"
        save_sharded_index(sharded, target)
        assert is_sharded_archive(target)
        loaded = load_sharded_index(target)
        assert len(loaded) == len(sharded)
        assert loaded.shard_sizes() == sharded.shard_sizes()
        queries = uniform_points(15, 3, seed=21)
        exp = sharded.query_batch(queries)
        got = loaded.query_batch(queries)
        assert np.array_equal(got[0], exp[0])
        assert np.array_equal(got[1], exp[1])

    def test_roundtrip_preserves_dynamic_routing(self, tmp_path):
        pts = uniform_points(10, 2, seed=31)
        index = ShardedNNCellIndex.build(
            pts, ShardConfig(n_shards=3, partitioner="hilbert")
        )
        index.delete(2)
        save_sharded_index(index, tmp_path / "dyn")
        loaded = load_sharded_index(tmp_path / "dyn")
        flat = NNCellIndex.build(pts)
        flat.delete(2)
        # Post-reload inserts allocate the same ids and route identically.
        p = np.array([0.25, 0.75])
        assert loaded.insert(p) == flat.insert(p)
        q = np.array([0.3, 0.7])
        assert loaded.nearest(q)[:2] == flat.nearest(q)[:2]

    def test_roundtrip_after_teardown_and_rebuild(self, tmp_path):
        # A torn-down shard's deleted ids leave every map; its lazy
        # rebuild maps only the new id.  The load must take such maps,
        # and deletes on the reload must find their rows in them.
        pts = uniform_points(6, 2, seed=9)
        index = ShardedNNCellIndex.build(pts, ShardConfig(n_shards=3))
        routes = index.partitioner.shard_of_batch(pts)
        victim = routes[0]
        for g in np.flatnonzero(routes == victim).tolist():
            index.delete(g)
        draws = np.random.default_rng(3).uniform(size=(50, 2))
        index.insert(next(p for p in draws if index.partitioner.shard_of(p) == victim))
        assert index._globals[victim].tolist() == [6]
        save_sharded_index(index, tmp_path / "fleet")
        loaded = load_sharded_index(tmp_path / "fleet")
        assert [ids.tolist() for ids in loaded._globals] == [
            ids.tolist() for ids in index._globals
        ]
        queries = uniform_points(20, 2, seed=10)
        for got, exp in zip(loaded.query_batch(queries), index.query_batch(queries)):
            assert np.array_equal(got, exp)
        victims = index.active_ids[::2].tolist()
        for fleet in (index, loaded):
            for g in victims:
                fleet.delete(g)
        for got, exp in zip(loaded.query_batch(queries), index.query_batch(queries)):
            assert np.array_equal(got, exp)
        assert loaded.shard_sizes() == index.shard_sizes()

    def test_load_any_index_dispatches(self, tmp_path, points, sharded):
        flat = NNCellIndex.build(points)
        save_index(flat, tmp_path / "flat.nnc")
        save_sharded_index(sharded, tmp_path / "fleet")
        assert isinstance(
            load_any_index(tmp_path / "flat.nnc"), NNCellIndex
        )
        assert isinstance(
            load_any_index(tmp_path / "fleet"), ShardedNNCellIndex
        )

    def test_load_errors(self, tmp_path, sharded):
        with pytest.raises(FileNotFoundError):
            load_sharded_index(tmp_path / "missing")
        bare = tmp_path / "bare"
        bare.mkdir()
        with pytest.raises(ValueError):
            load_any_index(bare)  # directory without a manifest
        target = tmp_path / "fleet"
        save_sharded_index(sharded, target)
        manifest = target / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["format_version"] = 99
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_sharded_index(target)

    def test_load_cross_checks_id_maps(self, tmp_path, sharded):
        target = tmp_path / "fleet"
        save_sharded_index(sharded, target)
        manifest = json.loads((target / "manifest.json").read_text())
        meta, arrays = _read_archive(target / "global.nnc")
        ids = [entry["global_ids"] for entry in manifest["shards"]]

        def refused(error, entries=None, **changes):
            """Load the fleet with ``entries`` as its manifest's shards
            and ``changes`` to its global.nnc; expect ``error``."""
            doc = dict(manifest, shards=entries or manifest["shards"])
            (target / "manifest.json").write_text(json.dumps(doc))
            _write_archive(target / "global.nnc", meta, {**arrays, **changes})
            with pytest.raises(ValueError, match=error):
                load_sharded_index(target)

        def entry(s, **changes):
            """The manifest's shard entries with entry ``s`` changed."""
            entries = [dict(e) for e in manifest["shards"]]
            entries[s].update(changes)
            return entries

        def edited(name, rows, values):
            column = arrays[name].copy()
            column[rows] = values
            return column

        # A rotated map loaded once and gave answers other points' ids;
        # one that ascends but names another shard's point.
        refused(
            "shard 0: its rows differ from the global points",
            entry(0, global_ids=sorted(ids[0][1:] + ids[1][:1])),
        )
        # delete binary-searches the maps.
        refused(
            "shard 0: its map does not strictly ascend",
            entry(0, global_ids=ids[0][::-1]),
        )
        refused(
            r"shard 1 maps \d+ global ids, but its archive holds \d+ rows",
            entry(1, global_ids=ids[1][:-1]),
        )
        refused(
            "shard 2 maps global ids outside",
            entry(2, global_ids=[48] + ids[2][1:]),
        )
        refused("shard 3 has no archive but maps", entry(3, archive=None))
        refused(
            "manifest lists 3 shards, but its partitioner has n_shards=4",
            manifest["shards"][:3],
        )
        refused(
            "shard 2: its active rows differ from the global active mask",
            active=edited("active", ids[2][0], False),
        )
        refused(
            "'active' must hold one bool per point",
            active=arrays["active"][:-1],
        )
        # The routes format 3 kept beside the maps.
        refused(
            "has unknown column 'shard_of'",
            shard_of=np.zeros(48, dtype=np.int64),
        )
        refused(
            r"global.nnc: 'points' must be an \(n, d\) array",
            points=arrays["points"].reshape(-1),
        )
        # An active id that no shard maps.
        grown = {name: np.concatenate([a, a[:1]]) for name, a in arrays.items()}
        refused("marks 49 points active, but the shards hold 48", **grown)
        # An id that two shards map: shard 1 rebuilt over its own points
        # and shard 0's first, each shard consistent with global.nnc.
        doubled = sorted(ids[1] + ids[0][:1])
        save_index(
            NNCellIndex.build(
                arrays["points"][doubled], sharded._shards[1].config
            ),
            target / "shard_1.nnc",
        )
        refused(
            f"global id {ids[0][0]} is mapped by shards 0 and 1",
            entry(1, global_ids=doubled),
        )

    def test_load_type_checks_the_shard_entries(self, tmp_path, sharded):
        target = tmp_path / "fleet"
        save_sharded_index(sharded, target)
        manifest = json.loads((target / "manifest.json").read_text())
        entries = manifest["shards"]

        def refused(error, **changes):
            doc = dict(manifest, **changes)
            (target / "manifest.json").write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=re.escape(error)):
                load_sharded_index(target)

        def entry(s, **changes):
            """The shard entries with entry ``s`` changed."""
            edited = [dict(e) for e in entries]
            edited[s].update(changes)
            return edited

        ids = entries[1]["global_ids"]
        refused("shards[0] is not a JSON object", shards=[3, *entries[1:]])
        refused("key 'shards' is not a list", shards={"0": entries[0]})
        # int() took 1.5 and true as ids.
        refused(
            "shards[1] key 'global_ids' is not a list of ints",
            shards=entry(1, global_ids=[float(ids[0]) + 0.5, *ids[1:]]),
        )
        refused(
            "shards[1] key 'global_ids' is not a list of ints",
            shards=entry(1, global_ids=[True, *ids[1:]]),
        )
        refused(
            "shards[1] key 'global_ids' is not a list of ints",
            shards=entry(1, global_ids=" ".join(map(str, ids))),
        )
        # np.int64 raised OverflowError, which the CLI printed as a trace.
        refused(
            "shards[1] key 'global_ids' holds an id outside int64",
            shards=entry(1, global_ids=[2 ** 63, *ids[1:]]),
        )
        # A path that leaves the fleet's directory, even to a valid shard.
        outside = str((target / "shard_0.nnc").resolve())
        refused(
            f"shards[0] key 'archive' is {outside!r}, not null or 'shard_0.nnc'",
            shards=entry(0, archive=outside),
        )
        refused(
            "shards[1] key 'archive' is 'shard_0.nnc', not null or "
            "'shard_1.nnc'",
            shards=entry(1, archive="shard_0.nnc"),
        )
        refused("shards[2] has unknown key 'bogus'", shards=entry(2, bogus=1))
        refused(
            "shards[3] has no key 'global_ids'",
            shards=[*entries[:3], {"archive": "shard_3.nnc"}],
        )
        refused(
            "key 'partitioner' is not a JSON object",
            partitioner=["hash", 4],
        )

    def test_load_cross_checks_the_partitioner(self, tmp_path, sharded):
        def refused(error, target, partitioner):
            manifest = json.loads((target / "manifest.json").read_text())
            doc = dict(manifest, partitioner=partitioner)
            (target / "manifest.json").write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=re.escape(error)):
                load_sharded_index(target)

        hashed = tmp_path / "hashed"
        save_sharded_index(sharded, hashed)
        # Loaded once, then the first insert raised an IndexError.
        refused(
            "manifest lists 4 shards, but its partitioner has n_shards=8",
            hashed,
            {"kind": "hash", "n_shards": 8},
        )

        # At d=7 a Hilbert key keeps 8 of its 10 bits per axis (it must
        # fit in 62 bits); such a fleet loads and takes writes.
        fleet = ShardedNNCellIndex.build(
            uniform_points(24, 7, seed=12),
            ShardConfig(n_shards=2, partitioner="hilbert"),
        )
        hilbert = tmp_path / "hilbert"
        save_sharded_index(fleet, hilbert)
        loaded = load_sharded_index(hilbert)
        assert loaded.partitioner.bits == 8
        assert loaded.shard_config == ShardConfig(2, "hilbert")
        assert loaded.insert(np.full(7, 0.5)) == 24
        refused(
            "partitioner bits is 10, but Hilbert keys at d=7 have 8",
            hilbert,
            dict(fleet.partitioner.to_manifest(), bits=10),
        )

    def test_load_checks_the_manifest(self, tmp_path, sharded):
        target = tmp_path / "fleet"
        save_sharded_index(sharded, target)
        manifest = json.loads((target / "manifest.json").read_text())

        def refused(error, **changes):
            doc = dict(manifest, **changes)
            (target / "manifest.json").write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=re.escape(error)):
                load_sharded_index(target)

        # Version 2 named its members shard_<s>.npz and global.npz;
        # version 3 also kept a shard_config and per-point routes.
        for version in (1, 2, 3):
            refused(
                f"version {version} (expected 4); rebuild the index with "
                "`repro build --shards N`",
                format_version=version,
            )
        refused("version '4'", format_version="4")

    def test_a_version_3_fleet_is_refused(self, tmp_path, sharded):
        """A fleet in the layout format 3 wrote: a ``shard_config`` and
        a ``dim`` in the manifest, and each point's shard and row in
        ``global.nnc``."""
        target = tmp_path / "fleet"
        save_sharded_index(sharded, target)
        manifest = json.loads((target / "manifest.json").read_text())
        manifest.update(
            format_version=3,
            dim=3,
            shard_config={
                "hilbert_bits": 10, "n_shards": 4, "partitioner": "hash",
                "query_workers": 0,
            },
        )
        (target / "manifest.json").write_text(json.dumps(manifest))
        meta, arrays = _read_archive(target / "global.nnc")
        shard_of = np.empty(48, dtype=np.int64)
        local_of = np.empty(48, dtype=np.int64)
        for s, entry in enumerate(manifest["shards"]):
            shard_of[entry["global_ids"]] = s
            local_of[entry["global_ids"]] = np.arange(len(entry["global_ids"]))
        _write_archive(target / "global.nnc", meta, {
            **arrays, "shard_of": shard_of, "local_of": local_of,
        })
        for load in (load_sharded_index, load_any_index):
            with pytest.raises(
                ValueError,
                match=re.escape(
                    "unsupported sharded archive version 3 (expected 4); "
                    "rebuild the index with `repro build --shards N`"
                ),
            ):
                load(target)

    def test_plain_loader_rejects_sharded_archive(
        self, tmp_path, sharded
    ):
        target = tmp_path / "fleet"
        save_sharded_index(sharded, target)
        with pytest.raises((ValueError, OSError)):
            load_index(target)
