"""Registry semantics: counters, gauges, histograms, snapshots, threads."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import metrics, timeseries
from repro.obs.metrics import (
    HISTOGRAM_SAMPLE_CAP,
    Counter,
    Gauge,
    Histogram,
    LabelCardinalityError,
    MetricsRegistry,
    base_name,
    labeled,
    parse_labeled,
)


@pytest.fixture(autouse=True)
def clean_global_state():
    """Every test starts disabled, empty, and with windows off."""
    metrics.disable()
    metrics.get_registry().reset()
    metrics.get_registry().disable_windows()
    yield
    metrics.disable()
    metrics.get_registry().reset()
    metrics.get_registry().disable_windows()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0.0
        c.inc()
        c.inc(4)
        assert c.value == 5.0

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("x")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5


class TestHistogram:
    def test_exact_aggregates(self):
        h = Histogram("x")
        for v in (4.0, 1.0, 7.0, 2.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 14.0
        assert h.min == 1.0 and h.max == 7.0
        assert h.mean == pytest.approx(3.5)

    def test_percentiles_interpolate(self):
        h = Histogram("x")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.5)

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("x").percentile(101)

    def test_empty_summary_is_all_zero(self):
        assert Histogram("x").summary() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
            "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }

    def test_sample_cap_keeps_aggregates_exact(self):
        h = Histogram("x")
        for __ in range(HISTOGRAM_SAMPLE_CAP + 10):
            h.observe(1.0)
        assert h.count == HISTOGRAM_SAMPLE_CAP + 10
        assert len(h._samples) == HISTOGRAM_SAMPLE_CAP

    def test_reservoir_admits_late_observations(self, monkeypatch):
        """Past the cap, percentiles must keep tracking the stream
        instead of freezing on the first-N warm-up values (the old
        first-come-first-kept bias)."""
        monkeypatch.setattr(metrics, "HISTOGRAM_SAMPLE_CAP", 64)
        h = Histogram("x")
        for __ in range(64):
            h.observe(1.0)  # warm-up plateau fills the reservoir
        for __ in range(64 * 20):
            h.observe(100.0)  # the steady state the sample must reflect
        late = sum(1 for v in h._samples if v == 100.0)
        # ~95% of the stream is late values; a uniform reservoir keeps a
        # clear majority of them (first-N-kept would hold zero).
        assert late > 32
        assert h.percentile(50) == 100.0
        # Exact aggregates are unaffected by sampling.
        assert h.count == 64 * 21
        assert h.min == 1.0 and h.max == 100.0
        assert h.total == 64 * 1.0 + 64 * 20 * 100.0

    def test_reservoir_is_deterministic_per_name(self, monkeypatch):
        monkeypatch.setattr(metrics, "HISTOGRAM_SAMPLE_CAP", 16)
        a, b = Histogram("same"), Histogram("same")
        for i in range(500):
            a.observe(float(i))
            b.observe(float(i))
        assert a._samples == b._samples


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")
        assert len(reg) == 3

    def test_snapshot_and_delta(self):
        reg = MetricsRegistry()
        reg.inc("hits", 3)
        reg.observe("sizes", 10)
        before = reg.snapshot()
        assert before == {"hits": 3.0, "sizes.count": 1.0, "sizes.sum": 10.0}
        reg.inc("hits")
        reg.inc("misses", 2)
        delta = reg.delta_since(before)
        # Only what changed, including the brand-new counter.
        assert delta == {"hits": 1.0, "misses": 2.0}

    def test_snapshot_excludes_gauges(self):
        reg = MetricsRegistry()
        reg.set_gauge("height", 4)
        assert reg.snapshot() == {}

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.set_gauge("b", 1)
        reg.observe("c", 1)
        reg.reset()
        assert len(reg) == 0
        assert reg.snapshot() == {}

    def test_as_dict_structure(self):
        reg = MetricsRegistry()
        reg.inc("z.counter", 2)
        reg.set_gauge("gauge", 7)
        reg.observe("hist", 5)
        data = reg.as_dict()
        assert data["counters"] == {"z.counter": 2.0}
        assert data["gauges"] == {"gauge": 7.0}
        assert data["histograms"]["hist"]["count"] == 1

    def test_thread_safety_under_contention(self):
        reg = MetricsRegistry()
        n_threads, n_events = 8, 2000

        def worker():
            for __ in range(n_events):
                reg.inc("shared")
                reg.observe("sizes", 1.0)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            for f in [pool.submit(worker) for __ in range(n_threads)]:
                f.result()
        assert reg.counter("shared").value == n_threads * n_events
        assert reg.histogram("sizes").count == n_threads * n_events


class TestModuleFastPath:
    def test_disabled_events_are_dropped(self):
        metrics.inc("a")
        metrics.observe("b", 1)
        metrics.set_gauge("c", 1)
        assert len(metrics.get_registry()) == 0
        assert not metrics.enabled()

    def test_enable_records_then_disable_stops(self):
        metrics.enable()
        metrics.inc("a", 2)
        metrics.disable()
        metrics.inc("a", 100)  # dropped
        assert metrics.snapshot() == {"a": 2.0}

    def test_collecting_restores_previous_state(self):
        assert not metrics.enabled()
        with metrics.collecting() as reg:
            assert metrics.enabled()
            metrics.inc("inside")
        assert not metrics.enabled()
        assert reg.snapshot() == {"inside": 1.0}

    def test_collecting_fresh_clears_registry(self):
        metrics.enable()
        metrics.inc("stale")
        with metrics.collecting(fresh=True) as reg:
            assert reg.snapshot() == {}
            metrics.inc("new")
        # Outer scope was enabled, so recording stays on afterwards.
        assert metrics.enabled()
        assert metrics.snapshot() == {"new": 1.0}

    def test_noop_overhead_is_bounded(self):
        """Disabled inc() must stay within a small multiple of a plain
        no-op function call — the "cheap when disabled" contract."""
        import timeit

        def nop():
            return None

        n = 50_000
        base = min(
            timeit.repeat(nop, number=n, repeat=5)
        )
        instrumented = min(
            timeit.repeat(lambda: metrics.inc("x"), number=n, repeat=5)
        )
        # Generous bound: one extra boolean check should never cost more
        # than 20x an empty call even on noisy CI machines.
        assert instrumented < base * 20


class TestTimeseriesSink:
    """Windows live in the registry, next to the cumulative values."""

    def test_enabled_events_mirror_into_installed_sink(self):
        registry = metrics.get_registry()
        registry.enable_windows()
        metrics.enable()
        metrics.inc("serve.rejected", 2)
        metrics.observe("serve.latency_ms", 5.0)
        metrics.set_gauge("serve.queue.depth", 3)
        window = timeseries.window(registry, 10)
        assert window.total("serve.rejected") == 2.0
        assert window.get("serve.latency_ms").count == 1
        assert window.get("serve.queue.depth").last == 3.0
        # The registry recorded the same events.
        assert metrics.snapshot()["serve.rejected"] == 2.0

    def test_disabled_events_never_reach_sink(self):
        registry = metrics.get_registry()
        registry.enable_windows()
        metrics.inc("serve.rejected")
        metrics.observe("serve.latency_ms", 5.0)
        assert timeseries.window(registry, 10).names() == []

    def test_uninstall_stops_mirroring(self):
        registry = metrics.get_registry()
        registry.enable_windows()
        metrics.enable()
        registry.disable_windows()
        assert not registry.windowed
        metrics.inc("serve.rejected")
        assert timeseries.window(registry, 10).names() == []
        assert metrics.snapshot()["serve.rejected"] == 1.0


class TestApply:
    """Several updates under one lock acquisition."""

    def test_apply_matches_separate_calls(self):
        clock = lambda: 1000.0  # noqa: E731
        one, many = MetricsRegistry(), MetricsRegistry()
        for registry in (one, many):
            registry.enable_windows(clock=clock)
        counters = [("query.count", 1.0), ("lp.solves", 3)]
        histograms = [("query.candidates", 4), ("query.candidates", 7)]
        one.apply(counters, histograms)
        for name, amount in counters:
            many.inc(name, amount)
        for name, value in histograms:
            many.observe(name, value)
        assert one.as_dict() == many.as_dict()
        assert (
            timeseries.window(one, 1).as_dict()
            == timeseries.window(many, 1).as_dict()
        )

    def test_apply_takes_the_lock_once(self):
        registry = MetricsRegistry()
        acquisitions = []
        inner = registry._lock

        class Counting:
            def __enter__(self):
                acquisitions.append(1)
                return inner.__enter__()

            def __exit__(self, *exc):
                return inner.__exit__(*exc)

        registry._lock = Counting()
        registry.apply(
            [("query.count", 1.0)], [("query.candidates", v) for v in range(9)]
        )
        assert len(acquisitions) == 1
        assert registry.histogram("query.candidates").count == 9


class TestLabels:
    """Canonical labeled keys, escaping, and the cardinality guard."""

    def test_labeled_builds_sorted_canonical_key(self):
        key = labeled("serve.fallback", stage="batch", shard="3")
        assert key == 'serve.fallback{shard="3",stage="batch"}'

    def test_labeled_without_labels_is_the_base_name(self):
        assert labeled("serve.fallback") == "serve.fallback"

    def test_labeled_escapes_quotes_backslashes_newlines(self):
        key = labeled("m", v='a"b\\c\nd')
        assert key == 'm{v="a\\"b\\\\c\\nd"}'
        base, labels_dict = parse_labeled(key)
        assert base == "m"
        assert labels_dict == {"v": 'a"b\\c\nd'}

    def test_labeled_rejects_bad_label_names(self):
        with pytest.raises(ValueError):
            labeled("m", **{"bad-name": "v"})

    def test_labeled_rejects_brace_in_base_name(self):
        with pytest.raises(ValueError):
            labeled("m{oops", k="v")

    def test_parse_labeled_round_trips_tricky_values(self):
        tricky = 'we"ird,}\n\\val'
        key = labeled("shard.retry", shard=tricky, other="x")
        base, labels_dict = parse_labeled(key)
        assert base == "shard.retry"
        assert labels_dict == {"shard": tricky, "other": "x"}

    def test_parse_labeled_rejects_malformed_keys(self):
        for bad in ("m{", 'm{k="v"', "m{k=v}", 'm{k="v"x}'):
            with pytest.raises(ValueError):
                parse_labeled(bad)

    def test_base_name_strips_label_block(self):
        assert base_name('serve.fallback{stage="scan"}') == "serve.fallback"
        assert base_name("serve.fallback") == "serve.fallback"

    def test_sum_labeled_aggregates_children_and_base(self):
        flat = {
            "shard.retry": 1.0,
            'shard.retry{shard="0"}': 2.0,
            'shard.retry{shard="1"}': 3.0,
            "shard.retries": 100.0,  # different base: not summed
        }
        assert metrics.sum_labeled(flat, "shard.retry") == 6.0

    def test_registry_accepts_labeled_counters(self):
        reg = MetricsRegistry()
        reg.inc(labeled("shard.retry", shard="2"), 5)
        flat = reg.snapshot()
        assert flat['shard.retry{shard="2"}'] == 5.0

    def test_cardinality_cap_raises_typed_error(self):
        reg = MetricsRegistry(max_label_sets=3)
        for i in range(3):
            reg.inc(labeled("m", shard=str(i)))
        with pytest.raises(LabelCardinalityError) as excinfo:
            reg.inc(labeled("m", shard="overflow"))
        assert excinfo.value.base == "m"
        assert excinfo.value.cap == 3

    def test_cardinality_cap_is_per_base_name(self):
        reg = MetricsRegistry(max_label_sets=2)
        reg.inc(labeled("a", k="1"))
        reg.inc(labeled("a", k="2"))
        reg.inc(labeled("b", k="1"))  # different base: fresh budget
        with pytest.raises(LabelCardinalityError):
            reg.inc(labeled("a", k="3"))

    def test_repeat_label_sets_do_not_consume_budget(self):
        reg = MetricsRegistry(max_label_sets=1)
        key = labeled("m", k="v")
        for __ in range(10):
            reg.inc(key)
        assert reg.snapshot()[key] == 10.0

    def test_unlabeled_name_not_counted_against_cap(self):
        reg = MetricsRegistry(max_label_sets=1)
        reg.inc("m")
        reg.inc(labeled("m", k="v"))
        assert reg.snapshot()["m"] == 1.0

    def test_malformed_labeled_key_rejected_at_admission(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc('m{k=unquoted}')

    def test_reset_clears_label_budget(self):
        reg = MetricsRegistry(max_label_sets=1)
        reg.inc(labeled("m", k="a"))
        reg.reset()
        reg.inc(labeled("m", k="b"))  # would raise without the reset
        assert reg.snapshot() == {'m{k="b"}': 1.0}

    def test_validator_runs_on_the_base_name(self):
        reg = MetricsRegistry()

        def validator(name):
            if name == "forbidden":
                raise ValueError("nope")

        reg.set_name_validator(validator)
        reg.inc(labeled("allowed", k="v"))
        with pytest.raises(ValueError):
            reg.inc(labeled("forbidden", k="v"))
