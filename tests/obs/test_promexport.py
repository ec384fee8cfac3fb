"""Prometheus exposition: rendering, strict parsing, scrape endpoint."""

import json
import urllib.request

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    MetricsRegistry,
    labeled,
    parse_labeled,
    sum_labeled,
)
from repro.obs.promexport import (
    CONTENT_TYPE,
    ExpositionNameError,
    MetricsServer,
    metric_name,
    parse_exposition,
    render_prometheus,
    validate_metric_name,
)
from repro.obs.timeseries import DEFAULT_WINDOWS


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.inc("serve.rejected", 3)
    reg.set_gauge("serve.queue.depth", 7)
    for v in (1.0, 2.0, 3.0, 4.0):
        reg.observe("serve.latency_ms", v)
    return reg


class TestMetricName:
    def test_dots_become_underscores(self):
        assert metric_name("serve.latency_ms") == "serve_latency_ms"

    def test_invalid_chars_sanitised(self):
        assert metric_name("a-b c") == "a_b_c"

    def test_leading_digit_prefixed(self):
        assert metric_name("9lives") == "_9lives"


class TestRender:
    def test_counter_exposed_with_total_suffix(self, registry):
        text = render_prometheus(registry)
        assert "# TYPE serve_rejected_total counter" in text
        assert "serve_rejected_total 3" in text

    def test_gauge_keeps_name(self, registry):
        text = render_prometheus(registry)
        assert "# TYPE serve_queue_depth gauge" in text
        assert "serve_queue_depth 7" in text

    def test_histogram_as_summary_with_min_max(self, registry):
        text = render_prometheus(registry)
        assert "# TYPE serve_latency_ms summary" in text
        assert 'serve_latency_ms{quantile="0.5"}' in text
        assert "serve_latency_ms_sum 10" in text
        assert "serve_latency_ms_count 4" in text
        assert "serve_latency_ms_min 1" in text
        assert "serve_latency_ms_max 4" in text

    def test_round_trip_through_parser(self, registry):
        samples = parse_exposition(render_prometheus(registry))
        assert samples["serve_rejected_total"] == 3.0
        assert samples['serve_latency_ms{quantile="0.5"}'] == 2.5
        assert samples["serve_latency_ms_count"] == 4.0


class TestParse:
    def test_comments_and_blanks_skipped(self):
        assert parse_exposition("# HELP x\n\nx 1\n") == {"x": 1.0}

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_exposition("not a metric line at all!\n")

    def test_non_numeric_value_raises(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_exposition("x abc\n")


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode()


class TestMetricsServer:
    def test_scrape_on_ephemeral_port(self, registry):
        with MetricsServer(registry=registry) as server:
            assert server.port > 0
            status, headers, body = _get(server.url)
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        samples = parse_exposition(body)
        assert samples["serve_rejected_total"] == 3.0

    def test_telemetry_endpoint_serves_windows(self, registry):
        registry.enable_windows()
        registry.observe("serve.latency_ms", 5.0)
        with MetricsServer(registry=registry) as server:
            __, __, body = _get(
                f"http://{server.host}:{server.port}/telemetry"
            )
        document = json.loads(body)
        assert sorted(document["windows"]) == sorted(
            str(s) for s in DEFAULT_WINDOWS
        )
        one_second = document["windows"]["1"]["serve.latency_ms"]
        assert one_second["count"] == 1

    def test_telemetry_without_timeseries_is_empty(self, registry):
        with MetricsServer(registry=registry) as server:
            __, __, body = _get(
                f"http://{server.host}:{server.port}/telemetry"
            )
        assert json.loads(body) == {"windows": {}}

    def test_healthz_and_404(self, registry):
        with MetricsServer(registry=registry) as server:
            status, __, body = _get(
                f"http://{server.host}:{server.port}/healthz"
            )
            assert (status, body) == (200, "ok\n")
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"http://{server.host}:{server.port}/nope")
            assert err.value.code == 404

    def test_close_is_idempotent(self, registry):
        server = MetricsServer(registry=registry).start()
        server.close()
        server.close()


class TestValidateMetricName:
    @pytest.mark.parametrize("name", [
        "serve.latency_ms", "build_total", "lp:solve", "a1.b2_c3",
    ])
    def test_accepts_exposable_names(self, name):
        validate_metric_name(name)  # no exception

    @pytest.mark.parametrize("name,reason_match", [
        ("", "non-empty"),
        (None, "non-empty"),
        ("serve latency", "offending characters"),
        ("café.latency", "offending characters"),
        ("9lives", "exposition grammar"),
        ("_.reserved", "reserved"),
        ("__internal", "reserved"),
    ])
    def test_rejects_unexposable_names(self, name, reason_match):
        with pytest.raises(ExpositionNameError, match=reason_match):
            validate_metric_name(name)

    def test_error_carries_name_and_reason(self):
        with pytest.raises(ExpositionNameError) as err:
            validate_metric_name("bad name")
        assert err.value.name == "bad name"
        assert "bad name" in str(err.value)
        assert isinstance(err.value, ValueError)


class TestRegistryValidator:
    def test_typo_fails_at_registration_time(self):
        reg = MetricsRegistry()
        reg.set_name_validator(validate_metric_name)
        with pytest.raises(ExpositionNameError):
            reg.inc("serve latency")
        with pytest.raises(ExpositionNameError):
            reg.observe("café.ms", 1.0)
        with pytest.raises(ExpositionNameError):
            reg.set_gauge("9lives", 1.0)
        reg.inc("serve.ok")  # valid names still register

    def test_installing_validator_revalidates_existing_names(self):
        reg = MetricsRegistry()
        reg.inc("bad name")
        with pytest.raises(ExpositionNameError):
            reg.set_name_validator(validate_metric_name)

    def test_validator_can_be_removed(self):
        reg = MetricsRegistry()
        reg.set_name_validator(validate_metric_name)
        reg.set_name_validator(None)
        reg.inc("anything goes")  # back to permissive


class TestTraceEndpoint:
    def _store_with_request(self):
        from repro.obs.tracestore import StoredTrace, TraceStore
        from repro.obs.tracing import Span

        root = Span("serve.request")
        root.start, root.end = 0.0, 0.005
        child = Span("serve.queue_wait")
        child.start, child.end = 0.0, 0.002
        root.children.append(child)
        store = TraceStore()
        store.add_trace(StoredTrace(
            trace_id="deadbeef00000001", root=root, kind="request",
            ts=0.0, duration_ms=5.0,
        ))
        return store

    def test_trace_lookup_serves_critical_path_and_tree(self, registry):
        store = self._store_with_request()
        with MetricsServer(registry=registry, tracestore=store) as server:
            status, __, body = _get(
                f"http://{server.host}:{server.port}"
                "/trace/deadbeef00000001"
            )
        assert status == 200
        document = json.loads(body)
        assert document["trace_id"] == "deadbeef00000001"
        assert document["critical_path"]["stages"]["queue_wait"] == 2.0
        assert document["root"]["name"] == "serve.request"

    def test_unknown_trace_is_404(self, registry):
        store = self._store_with_request()
        with MetricsServer(registry=registry, tracestore=store) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"http://{server.host}:{server.port}/trace/nope")
            assert err.value.code == 404

    def test_trace_endpoint_without_store_is_404(self, registry):
        with MetricsServer(registry=registry) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"http://{server.host}:{server.port}/trace/any")
            assert err.value.code == 404

    def test_telemetry_reports_trace_retention(self, registry):
        store = self._store_with_request()
        with MetricsServer(registry=registry, tracestore=store) as server:
            __, __, body = _get(
                f"http://{server.host}:{server.port}/telemetry"
            )
        document = json.loads(body)
        assert document["traces"] == {
            "stored": 1, "added": 1, "dropped": 0,
        }


class TestWatchdogWiring:
    def test_healthz_pages_as_503(self, registry):
        from repro.obs.slo import SLO, SLOWatchdog

        ts = MetricsRegistry()
        ts.enable_windows()
        for __ in range(20):
            ts.observe("serve.latency_ms", 500.0)
        dog = SLOWatchdog(ts, slos=[SLO(
            name="latency_p99", kind="latency", budget=0.01,
            threshold_ms=50.0,
        )])
        dog.evaluate()
        assert dog.paging
        with MetricsServer(registry=registry, watchdog=dog) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"http://{server.host}:{server.port}/healthz")
            assert err.value.code == 503

    def test_telemetry_carries_slo_status(self, registry):
        from repro.obs.slo import SLOWatchdog

        ts = MetricsRegistry()
        ts.enable_windows()
        dog = SLOWatchdog(ts)
        dog.evaluate()
        with MetricsServer(registry=registry, watchdog=dog) as server:
            __, __, body = _get(
                f"http://{server.host}:{server.port}/telemetry"
            )
        document = json.loads(body)
        assert document["slo"]["state"] == "ok"
        assert len(document["slo"]["objectives"]) == 4


class TestLabeledExposition:
    """Dimensional registry keys render as real Prometheus labels."""

    @pytest.fixture
    def labeled_registry(self):
        reg = MetricsRegistry()
        reg.inc(labeled("shard.retry", shard="0"), 2)
        reg.inc(labeled("shard.retry", shard="1"), 5)
        reg.inc(labeled("serve.fallback", stage="batch"), 1)
        reg.set_gauge(labeled("shard.depth", shard="1"), 9)
        reg.observe(labeled("shard.latency_ms", shard="0"), 3.0)
        return reg

    def test_one_type_line_per_family(self, labeled_registry):
        text = render_prometheus(labeled_registry)
        assert text.count("# TYPE shard_retry_total counter") == 1
        assert 'shard_retry_total{shard="0"} 2' in text
        assert 'shard_retry_total{shard="1"} 5' in text

    def test_labeled_gauge_and_summary(self, labeled_registry):
        text = render_prometheus(labeled_registry)
        assert 'shard_depth{shard="1"} 9' in text
        assert 'shard_latency_ms{shard="0",quantile="0.5"} 3' in text
        assert 'shard_latency_ms_sum{shard="0"} 3' in text
        assert 'shard_latency_ms_count{shard="0"} 1' in text

    def test_scrape_round_trips_to_canonical_keys(self, labeled_registry):
        samples = parse_exposition(render_prometheus(labeled_registry))
        assert samples['shard_retry_total{shard="0"}'] == 2.0
        assert samples['shard_retry_total{shard="1"}'] == 5.0
        assert samples['serve_fallback_total{stage="batch"}'] == 1.0
        assert sum_labeled(samples, "shard_retry_total") == 7.0

    def test_tricky_label_values_survive_the_round_trip(self):
        reg = MetricsRegistry()
        tricky = 'we"ird,}\n\\val'
        reg.inc(labeled("m", k=tricky), 4)
        samples = parse_exposition(render_prometheus(reg))
        [(key, value)] = samples.items()
        assert value == 4.0
        base, labels_dict = parse_labeled(key.replace("m_total", "m", 1))
        assert labels_dict == {"k": tricky}

    def test_parser_rejects_malformed_label_lines(self):
        for bad in (
            'm{k="v" 1',          # unterminated label block
            'm{k=v} 1',           # unquoted value
            'm{k="v",} junk 1',   # two value tokens
            'm{k="v\\"} 1',       # dangling escape eats the quote
            'm{0k="v"} 1',        # bad label name
        ):
            with pytest.raises(ValueError):
                parse_exposition(bad)


@st.composite
def label_values(draw):
    return draw(
        st.text(
            alphabet=st.characters(
                codec="ascii", exclude_characters="\r"
            ),
            min_size=0,
            max_size=12,
        )
    )


class TestLabeledRoundTripProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        values=st.dictionaries(
            st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
            label_values(),
            min_size=1,
            max_size=3,
        ),
        count=st.integers(min_value=1, max_value=100),
    )
    def test_any_label_values_round_trip(self, values, count):
        """Rendered expositions parse back to the exact canonical key,
        whatever quotes/commas/braces/newlines the values contain."""
        reg = MetricsRegistry()
        key = labeled("prop.metric", **values)
        reg.inc(key, count)
        samples = parse_exposition(render_prometheus(reg))
        [(sample_key, value)] = samples.items()
        assert value == float(count)
        base, parsed = parse_labeled(
            sample_key.replace("prop_metric_total", "prop.metric", 1)
        )
        assert base == "prop.metric"
        assert parsed == values
