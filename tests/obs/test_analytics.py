"""Workload analytics: sketches, access recorder, skew report, scopes."""

import threading

import pytest

from repro.obs import analytics
from repro.obs.analytics import (
    DEFAULT_HOT_SHARE_FACTOR,
    UNSHARDED,
    AccessRecorder,
    TopKSketch,
    gini,
)


@pytest.fixture(autouse=True)
def clean_recorder():
    analytics.uninstall()
    yield
    analytics.uninstall()


class TestGini:
    def test_empty_and_all_zero_are_balanced(self):
        assert gini([]) == 0.0
        assert gini([0.0, 0.0]) == 0.0

    def test_uniform_load_is_zero(self):
        assert gini([5.0, 5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_all_load_on_one_member_approaches_one(self):
        # Exact Gini of (n-1) zeros + one value is (n-1)/n.
        assert gini([0.0, 0.0, 0.0, 12.0]) == pytest.approx(0.75)

    def test_order_invariant(self):
        assert gini([1.0, 2.0, 7.0]) == gini([7.0, 1.0, 2.0])

    def test_more_skew_scores_higher(self):
        assert gini([9.0, 1.0]) > gini([6.0, 4.0])


class TestTopKSketch:
    def test_tracks_and_ranks_hits(self):
        sketch = TopKSketch(capacity=8)
        for key, hits in ((1, 5), (2, 3), (3, 1)):
            for __ in range(hits):
                sketch.hit(key)
        assert sketch.top(2) == [(1, 5.0), (2, 3.0)]
        assert len(sketch) == 3

    def test_ties_break_by_key_for_determinism(self):
        sketch = TopKSketch(capacity=8)
        sketch.hit(7)
        sketch.hit(2)
        assert sketch.top(2) == [(2, 1.0), (7, 1.0)]

    def test_eviction_inherits_the_minimum_count(self):
        sketch = TopKSketch(capacity=2)
        for __ in range(5):
            sketch.hit(1)
        sketch.hit(2)
        # Key 3 evicts the minimum (key 2, count 1) and inherits 1 + 1.
        sketch.hit(3)
        assert len(sketch) == 2
        counts = dict(sketch.top(2))
        assert 2 not in counts
        assert counts[3] == 2.0
        assert sketch.as_dict()["evictions"] == 1

    def test_space_saving_overestimate_bound(self):
        # A reported count never exceeds true count + evicted minimum.
        sketch = TopKSketch(capacity=2)
        for key in range(100):
            sketch.hit(key)
        for __, count in sketch.top(2):
            assert count <= 1.0 + 99  # true(1) + worst-case floor

    def test_decay_scales_and_forgets_cold_keys(self):
        sketch = TopKSketch(capacity=8)
        for __ in range(10):
            sketch.hit(1)
        sketch.hit(2)  # count 1 -> 0.5 after decay -> dropped (< 0.5 kept)
        sketch.decay(0.4)
        counts = dict(sketch.top(8))
        assert counts == {1: 4.0}

    def test_decay_factor_validated(self):
        sketch = TopKSketch()
        for factor in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                sketch.decay(factor)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TopKSketch(capacity=0)

    def test_as_dict_rows_are_key_count_dicts(self):
        sketch = TopKSketch(capacity=4)
        sketch.hit(9, amount=2.5)
        doc = sketch.as_dict(k=1)
        assert doc["top"] == [{"key": 9, "count": 2.5}]
        assert doc["capacity"] == 4
        assert doc["hits"] == 1


class TestAccessRecorder:
    def test_record_cells_feeds_heatmap_and_shard_tally(self):
        rec = AccessRecorder()
        rec.record_cells([4, 4, 7], shard=1)
        report = rec.report()
        assert report["shards"]["1"]["cells"] == 3
        top = {row["key"]: row["count"] for row in report["hot_cells"]["top"]}
        assert top == {4: 2.0, 7: 1.0}

    def test_record_page_attributes_cache_outcomes(self):
        rec = AccessRecorder()
        rec.record_page(10, n_blocks=3, hit=False, shard=0)
        rec.record_page(10, n_blocks=3, hit=True, shard=0)
        rec.record_page(11, n_blocks=1, shard=0)  # no cache in play
        shard = rec.report()["shards"]["0"]
        assert shard["pages"] == 3
        assert shard["blocks"] == 7
        assert shard["cache_hits"] == 1
        assert shard["cache_misses"] == 1
        assert shard["cache_hit_ratio"] == 0.5

    def test_cache_hit_ratio_is_none_without_cache_traffic(self):
        rec = AccessRecorder()
        rec.record_page(1, shard=0)
        assert rec.report()["shards"]["0"]["cache_hit_ratio"] is None

    def test_work_share_is_blocks_plus_cells(self):
        rec = AccessRecorder()
        rec.record_cells(range(6), shard=0)
        rec.record_page(1, n_blocks=4, shard=0)  # shard 0 work = 10
        rec.record_cells(range(5), shard=1)      # shard 1 work = 5
        report = rec.report()
        assert report["shards"]["0"]["work"] == 10
        assert report["shards"]["0"]["load_share"] == round(10 / 15, 4)
        assert report["shards"]["1"]["load_share"] == round(5 / 15, 4)

    def test_verdict_names_hot_shards(self):
        rec = AccessRecorder()
        rec.record_cells(range(70), shard=0)
        for shard in (1, 2, 3):
            rec.record_cells(range(10), shard=shard)
        verdict = rec.report()["verdict"]
        assert verdict["balanced"] is False
        assert verdict["hot_shards"] == [0]
        assert "shard(s) 0" in verdict["advice"]
        assert f"{DEFAULT_HOT_SHARE_FACTOR:.2f}x" in verdict["advice"]

    def test_balanced_fleet_gets_no_hot_shards(self):
        rec = AccessRecorder()
        for shard in range(4):
            rec.record_cells(range(25), shard=shard)
        verdict = rec.report()["verdict"]
        assert verdict["balanced"] is True
        assert verdict["hot_shards"] == []
        assert "balanced" in verdict["advice"]

    def test_no_sharded_traffic_verdict(self):
        rec = AccessRecorder()
        rec.record_cells([1, 2], shard=None)
        report = rec.report()
        assert report["shards"] == {}
        assert report["verdict"]["advice"] == "no sharded traffic observed"
        assert report["unsharded"]["cells"] == 2

    def test_probes_counted_per_shard(self):
        rec = AccessRecorder()
        for __ in range(3):
            rec.record_probe(2)
        report = rec.report()
        assert report["shards"]["2"]["probes"] == 3
        assert report["total_probes"] == 3

    def test_decay_fires_on_event_cadence(self):
        rec = AccessRecorder(decay_every=4, decay_factor=0.5)
        rec.record_cells([1, 1, 1, 1], shard=0)  # 4 events -> decay
        top = rec.report()["hot_cells"]["top"]
        assert top == [{"key": 1, "count": 2.0}]

    def test_reset_clears_everything(self):
        rec = AccessRecorder()
        rec.record_cells([1], shard=0)
        rec.record_page(2, shard=0)
        rec.reset()
        report = rec.report()
        assert report["shards"] == {}
        assert report["hot_cells"]["tracked"] == 0
        assert report["hot_pages"]["tracked"] == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AccessRecorder(decay_every=0)
        with pytest.raises(ValueError):
            AccessRecorder(decay_factor=0.0)

    def test_report_is_json_ready(self):
        import json

        rec = AccessRecorder()
        rec.record_cells([1], shard=0)
        rec.record_page(2, hit=True)
        json.dumps(rec.report())  # must not raise

    def test_thread_safety_under_concurrent_hooks(self):
        rec = AccessRecorder()

        def worker(shard):
            for i in range(200):
                rec.record_cells([i % 7], shard=shard)
                rec.record_page(i % 5, shard=shard)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report = rec.report()
        assert sum(
            row["cells"] for row in report["shards"].values()
        ) == 800
        assert sum(
            row["pages"] for row in report["shards"].values()
        ) == 800


class TestModuleFastPath:
    def test_hooks_are_noops_when_off(self):
        assert analytics.get_recorder() is None
        analytics.record_cells([1, 2])
        analytics.record_page(1, hit=True)
        analytics.record_probe(0)
        assert analytics.get_recorder() is None

    def test_install_and_uninstall(self):
        rec = analytics.install()
        assert analytics.get_recorder() is rec
        analytics.record_cells([5])
        assert rec.report()["unsharded"]["cells"] == 1
        analytics.uninstall()
        assert analytics.get_recorder() is None

    def test_install_accepts_existing_recorder(self):
        mine = AccessRecorder(sketch_capacity=4)
        assert analytics.install(mine) is mine
        assert analytics.get_recorder() is mine

    def test_recording_context_restores_previous(self):
        outer = analytics.install()
        with analytics.recording() as inner:
            assert inner is not outer
            assert analytics.get_recorder() is inner
        assert analytics.get_recorder() is outer

    def test_shard_scope_attributes_traffic(self):
        with analytics.recording() as rec:
            assert analytics.current_shard() is None
            with analytics.shard_scope(3):
                assert analytics.current_shard() == 3
                analytics.record_cells([1, 2])
                analytics.record_page(7, hit=False)
            assert analytics.current_shard() is None
            analytics.record_cells([9])
        report = rec.report()
        assert report["shards"]["3"]["cells"] == 2
        assert report["shards"]["3"]["pages"] == 1
        assert report["unsharded"]["cells"] == 1

    def test_shard_scope_is_per_thread(self):
        seen = {}

        def probe(shard):
            with analytics.shard_scope(shard):
                seen[shard] = analytics.current_shard()

        with analytics.recording():
            threads = [
                threading.Thread(target=probe, args=(s,)) for s in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert analytics.current_shard() is None
        assert seen == {0: 0, 1: 1, 2: 2}

    def test_unsharded_key_constant(self):
        assert UNSHARDED == -1
