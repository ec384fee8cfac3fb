"""End-to-end failure drills (`repro.chaos.drill`).

Each drill runs concurrent clients through a real
:class:`~repro.serve.QueryService` over a really-faulted sharded fleet
and verifies the resilience contract on every response; these tests
assert the drill itself verifies, accounts and tears down correctly.
"""

import pytest

from repro import NNCellIndex
from repro.chaos import FaultPlan, PageFaults, ShardFaults, run_drill
from repro.data import uniform_points
from repro.shard import ResilienceConfig, ShardConfig, ShardedNNCellIndex

N_QUERIES = 40
N_THREADS = 2


@pytest.fixture()
def sharded():
    points = uniform_points(48, 3, seed=31)
    index = ShardedNNCellIndex.build(points, ShardConfig(n_shards=4))
    yield index
    index.set_resilience(None)
    index.close()


class TestDrillValidation:
    def test_rejects_bad_sizes(self, sharded):
        with pytest.raises(ValueError):
            run_drill(sharded, FaultPlan(), n_queries=0)
        with pytest.raises(ValueError):
            run_drill(sharded, FaultPlan(), n_threads=0)


class TestHealthyDrill:
    def test_no_faults_all_ok_bit_identical(self, sharded):
        report = run_drill(
            sharded, FaultPlan(), n_queries=N_QUERIES,
            n_threads=N_THREADS,
        )
        assert report.passed
        assert report.outcomes == {"ok": N_QUERIES}
        assert report.injected == {}
        assert report.faulted_shards == []
        assert report.answered == N_QUERIES
        assert 0.0 < report.latency_p50_ms <= report.latency_p95_ms


class TestSilentlyWrongAnswers:
    def test_truth_over_other_points_fails_the_drill(self):
        # Every answer is a real fleet answer, but the truth index holds
        # different points: the drill must call that silently wrong.
        fleet = ShardedNNCellIndex.build(
            uniform_points(60, 3, seed=3), ShardConfig(n_shards=2),
        )
        truth = NNCellIndex.build(uniform_points(60, 3, seed=4))
        try:
            report = run_drill(
                fleet, FaultPlan(), n_queries=N_QUERIES,
                n_threads=N_THREADS, truth=truth,
            )
        finally:
            fleet.close()
        assert report.mismatches > 0
        assert report.passed is False


class TestFaultedDrills:
    def test_dead_shard_with_partial_degrades_every_answer(self, sharded):
        sharded.set_resilience(ResilienceConfig(
            max_retries=1, backoff_base_ms=0.1, allow_partial=True,
        ))
        plan = FaultPlan(shards={2: ShardFaults(fail_p=1.0)})
        report = run_drill(
            sharded, plan, n_queries=N_QUERIES, n_threads=N_THREADS,
        )
        assert report.passed
        assert report.degraded > 0
        assert report.outcomes.get("ok", 0) + report.degraded == N_QUERIES
        assert report.faulted_shards == [2]
        assert report.injected.get("shard2.fail", 0) > 0
        assert report.counters.get("serve.degraded_answers", 0) > 0
        assert report.counters.get("shard.retry", 0) > 0

    def test_dead_shard_without_partial_falls_back_complete(self, sharded):
        # Completeness required: the batch and serial rungs both die on
        # the dead shard, the scan rung answers exactly — the drill must
        # see bit-identical answers, not errors.
        sharded.set_resilience(ResilienceConfig(
            max_retries=0, backoff_base_ms=0.1,
        ))
        plan = FaultPlan(shards={1: ShardFaults(fail_p=1.0)})
        report = run_drill(
            sharded, plan, n_queries=N_QUERIES, n_threads=N_THREADS,
        )
        assert report.passed
        assert report.outcomes.get("ok") == N_QUERIES
        assert report.counters.get('serve.fallback{stage="scan"}', 0) > 0

    def test_transient_faults_stay_invisible(self, sharded):
        sharded.set_resilience(ResilienceConfig(
            max_retries=2, backoff_base_ms=0.1,
        ))
        plan = FaultPlan(shards={
            0: ShardFaults(fail_first=2),
            3: ShardFaults(fail_first=1),
        })
        report = run_drill(
            sharded, plan, n_queries=N_QUERIES, n_threads=N_THREADS,
        )
        assert report.passed
        assert report.outcomes.get("ok") == N_QUERIES
        assert report.degraded == 0

    def test_flaky_pages_retry_to_exactness(self, sharded):
        plan = FaultPlan(pages=PageFaults(flaky_p=0.02), seed=5)
        report = run_drill(
            sharded, plan, n_queries=N_QUERIES, n_threads=N_THREADS,
        )
        assert report.passed
        assert report.outcomes.get("ok") == N_QUERIES
        # The faults reached the query path's reads and were retried.
        injected = report.injected.get("flaky_page", 0)
        assert injected > 0
        assert report.counters.get("storage.flaky_reads") == injected

    def test_report_as_dict_round_trips(self, sharded):
        report = run_drill(
            sharded, FaultPlan(), n_queries=8, n_threads=1,
        )
        document = report.as_dict()
        assert document["passed"] is True
        assert document["n_queries"] == 8
        assert set(document) >= {
            "outcomes", "injected", "counters", "faulted_shards",
            "mismatches", "unaccounted_degraded", "untyped_errors",
            "latency_p50_ms", "latency_p95_ms", "answered",
        }
        assert document["answered"] == 8
