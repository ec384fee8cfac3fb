"""Structured event log: ring bound, sampling, sinks, module fast path."""

import io
import json

import pytest

from repro.obs import events
from repro.obs.events import EventLog


@pytest.fixture(autouse=True)
def clean_global_state():
    """Every test starts with events disabled and no module-level log."""
    events.disable()
    events._log = None
    yield
    events.disable()
    events._log = None


class TestEventLog:
    def test_records_carry_seq_ts_kind(self):
        log = EventLog(clock=lambda: 123.5)
        assert log.emit("query", outcome="cell", duration_ms=1.0)
        (record,) = log.records()
        assert record["seq"] == 1
        assert record["ts"] == 123.5
        assert record["kind"] == "query"
        assert record["outcome"] == "cell"

    def test_ring_is_bounded_oldest_evicted(self, monkeypatch):
        monkeypatch.setattr(EventLog, "capacity", 3)
        log = EventLog()
        for i in range(5):
            log.emit("query", i=i)
        assert len(log) == 3
        assert [r["i"] for r in log.records()] == [2, 3, 4]
        assert log.seen == 5
        assert log.recorded == 5  # recorded counts writes, not retention
        assert log.dropped == 2

    def test_records_filter_by_kind(self):
        log = EventLog()
        log.emit("query")
        log.emit("flush")
        log.emit("query")
        assert len(log.records("query")) == 2
        assert len(log.records("flush")) == 1

    def test_sampling_is_deterministic_and_audited(self):
        a = EventLog(sample=0.25)
        b = EventLog(sample=0.25)
        kept_a = [a.emit("query", i=i) for i in range(200)]
        kept_b = [b.emit("query", i=i) for i in range(200)]
        assert kept_a == kept_b  # seeded RNG: reproducible runs
        assert 0 < a.recorded < a.seen == 200
        assert a.recorded == sum(kept_a)
        # seq counts every offered record, so gaps show what sampling
        # dropped.
        assert [r["seq"] for r in a.records()] == [
            i + 1 for i, kept in enumerate(kept_a) if kept
        ]

    def test_sample_bounds_validated(self):
        with pytest.raises(ValueError):
            EventLog(sample=1.5)
        with pytest.raises(ValueError):
            EventLog(sample=-0.1)

    def test_filelike_sink_is_borrowed_not_closed(self):
        sink = io.StringIO()
        log = EventLog(sink=sink)
        log.emit("flush", outcome="ok")
        log.close()
        assert not sink.closed
        (line,) = sink.getvalue().splitlines()
        assert json.loads(line)["outcome"] == "ok"

    def test_path_sink_is_owned_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(sink=path)
        log.emit("query", i=0)
        log.emit("batch", n_queries=4)
        log.close()
        lines = [json.loads(s) for s in path.read_text().splitlines()]
        assert [r["kind"] for r in lines] == ["query", "batch"]

    def test_clear_keeps_counters(self):
        log = EventLog()
        log.emit("query")
        log.clear()
        assert len(log) == 0
        assert log.seen == 1


class TestModuleFastPath:
    def test_disabled_emit_is_dropped(self):
        events.emit("query", i=1)
        assert not events.enabled()
        assert events.get_log() is None

    def test_enable_emit_disable(self):
        log = events.enable()
        events.emit("query", i=1)
        events.disable()
        events.emit("query", i=2)  # dropped
        assert [r["i"] for r in log.records()] == [1]

    def test_enable_with_kwargs_builds_fresh_log(self):
        log = events.enable(sample=0.5)
        assert log.sample == 0.5
        assert events.get_log() is log

    def test_enable_rejects_log_plus_kwargs(self):
        with pytest.raises(ValueError):
            events.enable(EventLog(), sample=0.5)

    def test_enable_reuses_previous_log(self):
        first = events.enable()
        events.disable()
        assert events.enable() is first

    def test_collecting_restores_prior_state(self):
        outer = events.enable()
        events.emit("query", where="outer")
        with events.collecting() as inner:
            events.emit("query", where="inner")
        assert events.enabled()
        assert events.get_log() is outer
        assert [r["where"] for r in inner.records()] == ["inner"]
        assert [r["where"] for r in outer.records()] == ["outer"]

    def test_collecting_from_disabled_state(self):
        with events.collecting() as log:
            events.emit("flush")
        assert not events.enabled()
        assert len(log.records("flush")) == 1

    def test_noop_overhead_is_bounded(self):
        """Disabled emit() must stay within a small multiple of a plain
        no-op call — the same "cheap when disabled" contract metrics
        honours."""
        import timeit

        def nop():
            return None

        n = 50_000
        base = min(timeit.repeat(nop, number=n, repeat=5))
        instrumented = min(
            timeit.repeat(lambda: events.emit("query"), number=n, repeat=5)
        )
        assert instrumented < base * 20
