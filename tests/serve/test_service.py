"""Unit tests of the serving layer's four subsystems.

Batching loop, admission control, deadline handling and the fallback
ladder are each exercised in isolation — with stalled or broken batch
functions injected where the real engine would be too well-behaved to
show the degradation paths.
"""

import threading
import time

import numpy as np
import pytest
from helpers import Stall

from repro.core.nncell_index import NNCellIndex
from repro.data import query_points, uniform_points
from repro.obs import metrics
from repro.serve import (
    DeadlineExceeded,
    QueryService,
    ServeConfig,
    ServiceClosed,
    ServiceOverloaded,
)


@pytest.fixture(scope="module")
def index():
    return NNCellIndex.build(uniform_points(60, 3, seed=31))


@pytest.fixture
def registry():
    with metrics.collecting(fresh=True) as reg:
        yield reg


class TestBatchingLoop:
    def test_single_submission_round_trip(self, index):
        with QueryService(index) as service:
            result = service.submit([0.5, 0.5, 0.5])
        expected_id, expected_dist, __ = index.nearest([0.5, 0.5, 0.5])
        assert result.point_id == expected_id
        assert result.distance == expected_dist
        assert result.source == "batch"
        assert result.latency_ms >= 0.0

    def test_coalesces_queued_submissions_into_one_flush(self, index):
        """Requests parked behind a stalled flush ride the next one."""
        stall = Stall(index)
        config = ServeConfig(max_batch_size=16)
        queries = query_points(8, 3, seed=1)
        with QueryService(index, config, batch_fn=stall) as service:
            first = service.submit_async(queries[0])
            assert stall.entered.wait(5.0)
            pending = [service.submit_async(q) for q in queries[1:]]
            stall.release.set()
            first.result()
            results = [p.result() for p in pending]
            stats = service.stats()
        assert stats["flushes"] == 2
        assert stats["mean_batch_size"] == pytest.approx(4.0)
        for q, result in zip(queries[1:], results):
            assert result.point_id == index.nearest(q)[0]

    def test_non_finite_point_refused_at_admission(self, index):
        """A refused point never joins a flush, so its batch-mates stay
        on the batch rung (a NaN in the batch used to push all of them
        to the serial rung and answer itself from the scan rung)."""
        stall = Stall(index)
        config = ServeConfig(max_batch_size=16)
        queries = query_points(8, 3, seed=4)
        with QueryService(index, config, batch_fn=stall) as service:
            head = service.submit_async(queries[0])
            assert stall.entered.wait(5.0)
            pending = [service.submit_async(q) for q in queries[1:]]
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="non-finite"):
                    service.submit_async([0.5, bad, 0.5])
            stall.release.set()
            head.result()
            results = [p.result() for p in pending]
            stats = service.stats()
        assert [r.source for r in results] == ["batch"] * 7
        assert stats["fallback_batch"] == stats["fallback_serial"] == 0
        assert stats["submitted"] == 8
        for q, result in zip(queries[1:], results):
            assert result.point_id == index.nearest(q)[0]

    def test_max_batch_size_bounds_one_flush(self, index):
        queries = query_points(10, 3, seed=2)
        stall = Stall(index)
        with QueryService(
            index, ServeConfig(max_batch_size=4), batch_fn=stall
        ) as service:
            head = service.submit_async(queries[0])
            assert stall.entered.wait(5.0)
            pending = [service.submit_async(q) for q in queries[1:]]
            stall.release.set()
            head.result()
            for p in pending:
                p.result()
            stats = service.stats()
        # 1 (head) + ceil(9 / 4) flushes, never more than 4 per batch.
        assert stats["flushes"] >= 4
        assert stats["batched_requests"] == 10

    def test_results_observed_in_metrics(self, index, registry):
        with QueryService(index) as service:
            service.submit([0.1, 0.2, 0.3])
        counters = registry.as_dict()["counters"]
        assert counters["serve.submitted"] == 1
        assert counters["serve.completed"] == 1
        assert counters["serve.flush.count"] >= 1
        assert registry.histogram("serve.batch.size").count >= 1
        assert registry.histogram("serve.latency_ms").count == 1

    def test_flush_emits_span(self, index):
        from repro.obs import tracing

        with tracing.collecting() as tracer:
            with QueryService(index) as svc:
                svc.submit([0.5, 0.5, 0.5])
        flushes = tracer.find("serve.flush")
        assert flushes, "no serve.flush span recorded"
        assert flushes[0].attributes["n_requests"] == 1
        # The engine's batched-walk span nests under the flush.
        assert any(
            child.name == "query.batch" for child in flushes[0].children
        )

    def test_invalid_point_rejected_at_submission(self, index):
        with QueryService(index) as service:
            with pytest.raises(ValueError):
                service.submit([0.5, 0.5])  # wrong dimensionality
            with pytest.raises(ValueError):
                service.submit([0.5, 0.5, 0.5], timeout_ms=0)


class TestAdmissionControl:
    def test_reject_policy_raises_and_counts(self, index, registry):
        stall = Stall(index)
        config = ServeConfig(max_queue_depth=2, admission="reject")
        with QueryService(index, config, batch_fn=stall) as service:
            head = service.submit_async([0.5, 0.5, 0.5])
            assert stall.entered.wait(5.0)
            # Fill the queue to its depth bound, then overflow it.
            parked = []
            rejected = 0
            for __ in range(6):
                try:
                    parked.append(service.submit_async([0.4, 0.4, 0.4]))
                except ServiceOverloaded:
                    rejected += 1
            stall.release.set()
            head.result()
            for p in parked:
                p.result()
            stats = service.stats()
        assert len(parked) == 2 and rejected == 4
        assert stats["rejected"] == 4
        assert registry.counter("serve.rejected").value == 4
        assert stats["completed"] == 3  # nothing accepted was lost

    def test_block_policy_waits_for_space(self, index):
        stall = Stall(index)
        config = ServeConfig(max_queue_depth=1, admission="block")
        with QueryService(index, config, batch_fn=stall) as service:
            head = service.submit_async([0.5, 0.5, 0.5])
            assert stall.entered.wait(5.0)
            filler = service.submit_async([0.3, 0.3, 0.3])
            unblocked = []

            def blocked_submit():
                unblocked.append(service.submit([0.2, 0.2, 0.2]))

            thread = threading.Thread(target=blocked_submit)
            thread.start()
            time.sleep(0.05)
            assert not unblocked  # still parked on admission
            stall.release.set()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            head.result()
            filler.result()
        assert len(unblocked) == 1
        assert unblocked[0].point_id == index.nearest([0.2, 0.2, 0.2])[0]

    def test_block_policy_honours_deadline(self, index, registry):
        stall = Stall(index)
        config = ServeConfig(max_queue_depth=1, admission="block")
        with QueryService(index, config, batch_fn=stall) as service:
            head = service.submit_async([0.5, 0.5, 0.5])
            assert stall.entered.wait(5.0)
            filler = service.submit_async([0.3, 0.3, 0.3])
            with pytest.raises(DeadlineExceeded):
                service.submit([0.2, 0.2, 0.2], timeout_ms=20.0)
            stall.release.set()
            head.result()
            filler.result()
        assert registry.counter("serve.deadline_missed").value == 1


class TestDeadlines:
    def test_expired_while_queued_is_cancelled_not_computed(
        self, index, registry
    ):
        stall = Stall(index)
        calls = []

        def counting_stall(points, batch_size=None):
            calls.append(points.shape[0])
            return stall(points, batch_size)

        with QueryService(index, batch_fn=counting_stall) as service:
            head = service.submit_async([0.5, 0.5, 0.5])
            assert stall.entered.wait(5.0)
            doomed = service.submit_async([0.4, 0.4, 0.4], timeout_ms=10.0)
            time.sleep(0.05)  # let the deadline lapse while queued
            stall.release.set()
            head.result()
            with pytest.raises(DeadlineExceeded):
                doomed.result()
            stats = service.stats()
        assert stats["deadline_missed"] == 1
        assert registry.counter("serve.deadline_missed").value == 1
        # The expired request's work was cancelled: every flush that ran
        # carried exactly one live request (the head), never the doomed.
        assert calls and all(n == 1 for n in calls)

    def test_caller_side_timeout_discards_late_answer(self, index):
        stall = Stall(index)
        with QueryService(index, batch_fn=stall) as service:
            pending = service.submit_async([0.5, 0.5, 0.5])
            assert stall.entered.wait(5.0)
            with pytest.raises(DeadlineExceeded):
                pending.result(timeout_ms=20.0)
            stall.release.set()
            # The late batch answer must not resurrect the request.
            with pytest.raises(DeadlineExceeded):
                pending.result()
            stats_done = service.stats()
        assert stats_done["completed"] == 0
        assert stats_done["deadline_missed"] == 1

    def test_default_timeout_from_config(self, index):
        stall = Stall(index)
        config = ServeConfig(default_timeout_ms=20.0)
        with QueryService(index, config, batch_fn=stall) as service:
            pending = service.submit_async([0.5, 0.5, 0.5])
            with pytest.raises(DeadlineExceeded):
                pending.result()
            stall.release.set()


class TestTimeoutValidation:
    """A timeout is a finite number > 0, wherever it comes from: ``"5"``
    would fail a comparison, ``inf`` overflow the wait, ``nan`` expire at
    once and ``True`` mean 1 ms."""

    @pytest.mark.parametrize("timeout_ms", [
        "5", [1], True, float("nan"), float("inf"), -float("inf"),
    ])
    def test_malformed_timeout_refused_at_admission(self, index, timeout_ms):
        with QueryService(index) as service:
            with pytest.raises(ValueError, match="timeout_ms"):
                service.submit_async([0.5, 0.5, 0.5], timeout_ms=timeout_ms)
            assert service.stats()["submitted"] == 0

    def test_huge_finite_timeout_waits_instead_of_overflowing(self, index):
        expected = index.nearest([0.5, 0.5, 0.5])[0]
        with QueryService(index) as service:
            result = service.submit([0.5, 0.5, 0.5], timeout_ms=1e300)
            pending = service.submit_async([0.5, 0.5, 0.5])
            late = pending.result(timeout_ms=1e300)
        assert result.point_id == late.point_id == expected

    def test_result_refuses_an_infinite_wait(self, index):
        with QueryService(index) as service:
            pending = service.submit_async([0.5, 0.5, 0.5])
            with pytest.raises(ValueError, match="timeout_ms"):
                pending.result(timeout_ms=float("inf"))
            assert pending.result().source == "batch"


class TestFallbackLadder:
    def test_batch_failure_degrades_to_serial(self, index, registry):
        def broken(points, batch_size=None):
            raise RuntimeError("induced LP failure")

        with QueryService(index, batch_fn=broken) as service:
            result = service.submit([0.5, 0.5, 0.5])
        expected_id, expected_dist, __ = index.nearest([0.5, 0.5, 0.5])
        assert (result.point_id, result.distance) == (
            expected_id, expected_dist
        )
        assert result.source == "serial"
        counters = registry.as_dict()["counters"]
        assert counters['serve.fallback{stage="batch"}'] == 1
        assert counters['serve.fallback{stage="serial"}'] == 1

    def test_serial_failure_degrades_to_scan(self, index, registry,
                                             monkeypatch):
        def broken(points, batch_size=None):
            raise RuntimeError("induced LP failure")

        monkeypatch.setattr(
            index, "nearest",
            lambda q: (_ for _ in ()).throw(RuntimeError("serial down")),
        )
        q = np.asarray([0.5, 0.5, 0.5])
        with QueryService(index, batch_fn=broken) as service:
            result = service.submit(q)
        # The scan answer is still the exact nearest neighbor.
        brute = int(np.argmin(np.linalg.norm(index.points - q, axis=1)))
        assert result.point_id == brute
        assert result.source == "scan"
        counters = registry.as_dict()["counters"]
        assert counters['serve.fallback{stage="batch"}'] == 1
        assert counters['serve.fallback{stage="scan"}'] == 1
        assert 'serve.fallback{stage="serial"}' not in counters

    def test_whole_batch_survives_mixed_ladder(self, index):
        """Every request in a failing batch still gets an exact answer."""
        def broken(points, batch_size=None):
            raise RuntimeError("induced LP failure")

        queries = query_points(6, 3, seed=3)
        stall = Stall(index)
        with QueryService(
            index, ServeConfig(max_batch_size=16), batch_fn=stall
        ) as service:
            head = service.submit_async(queries[0])
            assert stall.entered.wait(5.0)
            pending = [service.submit_async(q) for q in queries[1:]]
            service._batch_fn = broken  # next flush fails as a batch
            stall.release.set()
            head.result()
            results = [p.result() for p in pending]
        for q, result in zip(queries[1:], results):
            assert result.point_id == index.nearest(q)[0]
            assert result.source == "serial"


class TestLifecycle:
    def test_close_drains_accepted_requests(self, index):
        stall = Stall(index)
        with QueryService(index, batch_fn=stall) as service:
            head = service.submit_async([0.5, 0.5, 0.5])
            assert stall.entered.wait(5.0)
            parked = [
                service.submit_async(q) for q in query_points(5, 3, seed=4)
            ]
            stall.release.set()
            service.close()  # must answer everything already accepted
            assert head.result().point_id >= 0
            for p in parked:
                assert p.result().point_id >= 0

    def test_close_without_drain_fails_pending(self, index):
        stall = Stall(index)
        service = QueryService(index, batch_fn=stall)
        head = service.submit_async([0.5, 0.5, 0.5])
        assert stall.entered.wait(5.0)
        parked = service.submit_async([0.4, 0.4, 0.4])
        # Close while the flush loop is still stalled on the head batch:
        # the parked request must be failed immediately, before any more
        # work runs.  close() joins the loop, so release the stall from
        # a helper thread once the parked request has its answer.
        closer = threading.Thread(
            target=service.close, kwargs={"drain": False}
        )
        closer.start()
        with pytest.raises(ServiceClosed):
            parked.result(timeout_ms=5_000.0)
        stall.release.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert head.result().point_id >= 0  # in flight: still answered

    def test_submit_after_close_raises(self, index):
        service = QueryService(index)
        service.close()
        assert service.closed
        with pytest.raises(ServiceClosed):
            service.submit([0.5, 0.5, 0.5])

    def test_close_is_idempotent(self, index):
        service = QueryService(index)
        service.close()
        service.close()

    def test_stats_shape(self, index):
        with QueryService(index) as service:
            service.submit([0.5, 0.5, 0.5])
            stats = service.stats()
        for key in ("submitted", "completed", "rejected", "deadline_missed",
                    "flushes", "batched_requests", "pages",
                    "fallback_batch", "fallback_serial", "fallback_scan",
                    "mean_batch_size"):
            assert key in stats
        assert stats["submitted"] == stats["completed"] == 1
        assert stats["pages"] > 0


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_batch_size": 0},
        {"max_queue_depth": 0},
        {"admission": "drop"},
        {"default_timeout_ms": 0.0},
        {"default_timeout_ms": float("nan")},
        {"default_timeout_ms": float("inf")},
        {"default_timeout_ms": -float("inf")},
        {"default_timeout_ms": True},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)
