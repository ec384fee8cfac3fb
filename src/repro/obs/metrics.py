"""Process-wide metrics registry: counters, gauges and histograms.

The paper's whole argument is a cost decomposition — CPU work vs. page
accesses (Figures 9/12) — so every layer of this codebase emits the
quantities that decomposition is made of: LP solves and pivots, candidate
counts, decomposition fan-out, page reads, cache hits, node visits.  This
module is the sink for those events.

Design constraints, in order:

1. **Cheap when disabled.**  Instrumentation is off by default; every
   hot-path helper (:func:`inc`, :func:`observe`, :func:`set_gauge`)
   checks one module-level boolean and returns immediately, so a page
   read or an LP solve pays a single function call.  The benchmark gate
   is < 3% query-throughput overhead with metrics disabled.
2. **Thread-safe when enabled.**  Counter increments and histogram
   observations from parallel workers (e.g. threads driving
   :mod:`repro.index.parallel` searches) are serialised by one registry
   lock; ``n`` threads adding ``k`` events each always total ``n * k``.
   :meth:`MetricsRegistry.apply` makes several updates — one query's
   record — under a single acquisition.
3. **Windows next to the totals.**  A metric whose name starts with one
   of :data:`WINDOW_PREFIXES` also keeps per-second buckets over the
   last :data:`WINDOW_HORIZON_SECONDS` while windows are on
   (:meth:`MetricsRegistry.enable_windows`), updated under the same
   lock as its cumulative value; :mod:`repro.obs.timeseries` reads them.
4. **Snapshot/delta friendly.**  The evaluation harness brackets a query
   workload with :meth:`MetricsRegistry.snapshot` /
   :meth:`MetricsRegistry.delta_since` to attribute counter traffic to
   that workload, the same way :class:`repro.storage.page.AccessStats`
   is snapshotted around a single query.

Metric names are dot-separated, lowest-level subsystem first
(``lp.solves``, ``storage.cache.hits``, ``query.candidates``); the full
taxonomy is documented in ``docs/observability.md``.
"""

from __future__ import annotations

import math
import random
import re
import threading
import time
import zlib
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

__all__ = [
    "BUCKET_EXEMPLAR_CAP",
    "BUCKET_SAMPLE_CAP",
    "Bucket",
    "Counter",
    "Gauge",
    "Histogram",
    "LabelCardinalityError",
    "MAX_LABEL_SETS",
    "MetricsRegistry",
    "WINDOW_HORIZON_SECONDS",
    "WINDOW_PREFIXES",
    "base_name",
    "enabled",
    "enable",
    "disable",
    "get_registry",
    "inc",
    "labeled",
    "parse_labeled",
    "set_gauge",
    "observe",
    "snapshot",
    "sum_labeled",
    "delta_since",
    "collecting",
]

#: Histograms keep exact count/sum/min/max forever but cap the stored
#: sample list, so month-long processes cannot grow without bound.
#: Past the cap, reservoir sampling keeps the stored list a uniform
#: sample of *everything* observed, so long-run percentiles do not
#: freeze on the warm-up distribution.
HISTOGRAM_SAMPLE_CAP = 65_536

#: Default ceiling on distinct label sets per base metric name.  Labels
#: are for *bounded* dimensions (shard id, pipeline stage, outcome); an
#: unbounded dimension (query id, user id) would grow the registry and
#: the ``/metrics`` payload without limit, so crossing the cap raises
#: :class:`LabelCardinalityError` instead of silently registering.
MAX_LABEL_SETS = 64

#: Name prefixes whose metrics keep per-second window buckets: serving,
#: query and sharded scatter-gather traffic.  Build-time counter storms
#: stay out of the serving dashboard.
WINDOW_PREFIXES: "Tuple[str, ...]" = ("serve.", "query.", "shard.")

#: Ring length in seconds: how far back a window may reach.
WINDOW_HORIZON_SECONDS = 120

#: Reservoir cap on stored samples per bucket (one metric, one second).
BUCKET_SAMPLE_CAP = 512

#: Exemplar trace ids kept per bucket — only the largest traced
#: observations keep their id, since those are the ones a p99 on
#: ``/telemetry`` points at.
BUCKET_EXEMPLAR_CAP = 4


class LabelCardinalityError(RuntimeError):
    """A metric exceeded the allowed number of distinct label sets."""

    def __init__(self, base: str, cap: int):
        super().__init__(
            f"metric {base!r} exceeded the cardinality cap of {cap}"
            f" distinct label sets; label values must come from a"
            f" bounded domain"
        )
        self.base = base
        self.cap = cap


# ----------------------------------------------------------------------
# Canonical labeled keys
# ----------------------------------------------------------------------
#
# A labeled metric is stored under one canonical string key:
# ``base{k="v",...}`` with label names sorted and values escaped the
# way the Prometheus text format escapes them ("\\", "\"", "\n").  The
# key keeps the dotted base name as its prefix, so the window prefixes
# (:data:`WINDOW_PREFIXES`) cover labeled children without any special
# casing.

_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    out: "List[str]" = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:  # unknown escape: keep both characters
                out.append(ch)
                out.append(nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def labeled(name: str, **labels: object) -> str:
    """The canonical registry key for ``name`` with ``labels`` attached.

    Label names must match ``[a-zA-Z_][a-zA-Z0-9_]*``; values are
    stringified and escaped.  With no labels the plain name is returned,
    so call sites can attach labels unconditionally.  Keys for static
    label sets should be built once at import time — this function is
    not on the disabled fast path, but it is not free either.
    """
    if not labels:
        return name
    if "{" in name:
        raise ValueError(f"base metric name may not contain '{{': {name!r}")
    parts = []
    for key in sorted(labels):
        if not _LABEL_NAME.match(key):
            raise ValueError(f"invalid label name: {key!r}")
        parts.append(f'{key}="{_escape_label_value(labels[key])}"')
    return f"{name}{{{','.join(parts)}}}"


def base_name(key: str) -> str:
    """The base metric name of a (possibly labeled) canonical key."""
    brace = key.find("{")
    return key if brace < 0 else key[:brace]


def sum_labeled(flat: "Dict[str, float]", base: str) -> float:
    """Sum of ``base`` across all its label sets in a flat mapping.

    Accepts the shapes :meth:`MetricsRegistry.snapshot` and
    :meth:`MetricsRegistry.delta_since` return: the unlabeled sample
    plus every ``base{...}`` child contribute.
    """
    total = flat.get(base, 0.0)
    prefix = base + "{"
    for key, value in flat.items():
        if key.startswith(prefix):
            total += value
    return total


def parse_labeled(key: str) -> "Tuple[str, Dict[str, str]]":
    """Split a canonical key into ``(base, labels)``.

    The inverse of :func:`labeled` — quote- and escape-aware, so label
    values containing ``,``, ``}``, ``"`` or ``\\n`` round-trip.  Raises
    ``ValueError`` on a malformed key.
    """
    brace = key.find("{")
    if brace < 0:
        return key, {}
    if not key.endswith("}"):
        raise ValueError(f"malformed labeled key: {key!r}")
    base = key[:brace]
    body = key[brace + 1 : -1]
    labels: "Dict[str, str]" = {}
    i = 0
    n = len(body)
    while i < n:
        eq = body.find("=", i)
        if eq < 0:
            raise ValueError(f"malformed label pair in key: {key!r}")
        label = body[i:eq]
        if not _LABEL_NAME.match(label):
            raise ValueError(f"invalid label name {label!r} in {key!r}")
        if eq + 1 >= n or body[eq + 1] != '"':
            raise ValueError(f"unquoted label value in key: {key!r}")
        j = eq + 2
        raw: "List[str]" = []
        while j < n:
            ch = body[j]
            if ch == "\\" and j + 1 < n:
                raw.append(body[j : j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        else:
            raise ValueError(f"unterminated label value in key: {key!r}")
        labels[label] = _unescape_label_value("".join(raw))
        j += 1  # closing quote
        if j < n:
            if body[j] != ",":
                raise ValueError(f"malformed label separator in {key!r}")
            j += 1
        i = j
    return base, labels


class Counter:
    """A monotonically increasing sum of events."""

    __slots__ = ("name", "value", "ring")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        #: Per-second buckets of a windowed metric (see the registry).
        self.ring: "Optional[List[Optional[Bucket]]]" = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A point-in-time value (buffer occupancy, tree height, ...)."""

    __slots__ = ("name", "value", "ring")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.ring: "Optional[List[Optional[Bucket]]]" = None

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A distribution of observed values.

    Count, sum, min and max are exact; percentiles are computed from a
    stored sample capped at :attr:`sample_cap` observations.  Past the
    cap the sample is maintained by *reservoir sampling* (Vitter's
    Algorithm R with a per-name seeded RNG, so runs are reproducible):
    every observation — early or late — has an equal chance of being
    represented, which keeps long-running percentiles honest instead of
    frozen on the first warm-up values.
    """

    __slots__ = (
        "name", "count", "total", "min", "max", "_samples", "_rng", "ring",
    )

    #: Stored-sample cap: the reservoir size.
    sample_cap = HISTOGRAM_SAMPLE_CAP

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: "List[float]" = []
        self._rng: "Optional[random.Random]" = None
        self.ring: "Optional[List[Optional[Bucket]]]" = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self.sample_cap:
            self._samples.append(value)
        else:
            # Algorithm R: the i-th observation replaces a random slot
            # with probability cap/i, leaving a uniform sample.  The
            # per-name seed makes the draw independent of creation
            # order and of Python's randomized str hashing.
            if self._rng is None:
                self._rng = random.Random(zlib.crc32(self.name.encode("utf-8")))
            j = self._rng.randrange(self.count)
            if j < len(self._samples):
                self._samples[j] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentiles(self, *qs: float) -> "List[float]":
        """Linear-interpolation percentiles of the stored sample, each
        ``q`` in [0, 100]; one sort serves them all."""
        for q in qs:
            if not 0.0 <= q <= 100.0:
                raise ValueError("q must be in [0, 100]")
        if not self._samples:
            return [0.0 for __ in qs]
        ordered = sorted(self._samples)
        out = []
        for q in qs:
            pos = (len(ordered) - 1) * q / 100.0
            lo = int(pos)
            hi = min(lo + 1, len(ordered) - 1)
            frac = pos - lo
            out.append(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)
        return out

    def percentile(self, q: float) -> float:
        """Linear-interpolation percentile of the stored sample, ``q`` in
        [0, 100]."""
        return self.percentiles(q)[0]

    def summary(self) -> "Dict[str, float]":
        """The exported aggregate view of this histogram."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
        p50, p90, p99 = self.percentiles(50, 90, 99)
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": p50,
            "p90": p90,
            "p99": p99,
        }


class Bucket(Histogram):
    """One windowed metric's events within one wall-clock second.

    Gauge and histogram updates land as :class:`Histogram` observations
    (reservoir capped at :data:`BUCKET_SAMPLE_CAP`); a counter bucket
    keeps only the event count and amount sum.  Every bucket keeps the
    last value, and the ids of its largest traced observations.
    """

    __slots__ = ("second", "last", "exemplars")

    sample_cap = BUCKET_SAMPLE_CAP

    def __init__(self, name: str, second: int):
        super().__init__(name)
        self.second = second
        self.last = 0.0
        #: ``(value, trace_id)`` for the largest traced observations.
        self.exemplars: "List[Tuple[float, str]]" = []

    def add(self, amount: float) -> None:
        """A counter increment."""
        self.count += 1
        self.total += amount
        self.last = amount

    def observe(
        self, value: float, trace_id: "Optional[str]" = None
    ) -> None:
        value = float(value)
        super().observe(value)
        self.last = value
        exemplars = self.exemplars
        if trace_id is not None and (
            len(exemplars) < BUCKET_EXEMPLAR_CAP or value > exemplars[-1][0]
        ):
            exemplars.append((value, trace_id))
            exemplars.sort(key=lambda e: e[0], reverse=True)
            del exemplars[BUCKET_EXEMPLAR_CAP:]


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    All mutating operations take the registry lock, so a registry can be
    shared by worker threads.  Metric objects are created on first use
    and live for the registry's lifetime.  A metric named under
    :data:`WINDOW_PREFIXES` is *windowed*, decided once at creation:
    while windows are on it also fills one :class:`Bucket` per
    wall-clock second in a ring of :data:`WINDOW_HORIZON_SECONDS`
    slots, under the same lock acquisition as its cumulative value.
    """

    def __init__(self, max_label_sets: int = MAX_LABEL_SETS):
        if max_label_sets < 1:
            raise ValueError("max_label_sets must be >= 1")
        self._lock = threading.Lock()
        self._counters: "Dict[str, Counter]" = {}
        self._gauges: "Dict[str, Gauge]" = {}
        self._histograms: "Dict[str, Histogram]" = {}
        self._name_validator: "Optional[Callable[[str], None]]" = None
        self.max_label_sets = int(max_label_sets)
        #: base name -> canonical labeled keys registered under it.
        self._label_keys: "Dict[str, set]" = {}
        #: Monotonic seconds clock of the windows; ``None`` = windows off.
        self._clock: "Optional[Callable[[], float]]" = None

    def set_name_validator(
        self, validator: "Optional[Callable[[str], None]]"
    ) -> None:
        """Apply ``validator`` to every *new* metric name at creation.

        The validator sees the *base* name (labels stripped); it raises
        to reject a name, and nothing is registered in that case.
        Existing names are re-checked immediately, so installing the
        exposition-grammar validator
        (:func:`repro.obs.promexport.validate_metric_name`) on a live
        registry surfaces an unscrapeable name at install time rather
        than at scrape time.
        """
        with self._lock:
            if validator is not None:
                for metric in self._metrics():
                    validator(base_name(metric.name))
            self._name_validator = validator

    def _get(self, table: dict, cls: type, name: str):
        """Get-or-create ``name`` in ``table`` (lock held).  A new name
        passes base-name validation, then the per-base cardinality cap
        for labeled keys; its windowing is decided here, once."""
        metric = table.get(name)
        if metric is not None:
            return metric
        base = base_name(name)
        if self._name_validator is not None:
            self._name_validator(base)
        if base != name:  # labeled key
            parse_labeled(name)  # reject malformed hand-built keys
            keys = self._label_keys.setdefault(base, set())
            if name not in keys:
                if len(keys) >= self.max_label_sets:
                    raise LabelCardinalityError(base, self.max_label_sets)
                keys.add(name)
        metric = table[name] = cls(name)
        if name.startswith(WINDOW_PREFIXES):
            metric.ring = [None] * WINDOW_HORIZON_SECONDS
        return metric

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def enable_windows(
        self, clock: "Callable[[], float]" = time.monotonic
    ) -> None:
        """Start filling buckets, from empty rings; ``clock`` is
        monotonic seconds (tests inject a fixed one)."""
        self._set_windows(clock)

    def disable_windows(self) -> None:
        """Stop filling buckets and drop the ones held."""
        self._set_windows(None)

    def _set_windows(self, clock: "Optional[Callable[[], float]]") -> None:
        with self._lock:
            self._clock = clock
            for metric in self._metrics():
                if metric.ring is not None:
                    metric.ring = [None] * WINDOW_HORIZON_SECONDS

    @property
    def windowed(self) -> bool:
        """Whether windows are on."""
        return self._clock is not None

    def _metrics(self) -> "Iterator":
        yield from self._counters.values()
        yield from self._gauges.values()
        yield from self._histograms.values()

    def _second(self) -> "Optional[int]":
        """The current window second, or ``None`` with windows off."""
        clock = self._clock
        return None if clock is None else int(clock())

    @staticmethod
    def _bucket(metric, second: int) -> Bucket:
        """``metric``'s bucket of ``second`` (lock held); a ring slot is
        reset lazily when a new second claims it."""
        slot = second % WINDOW_HORIZON_SECONDS
        bucket = metric.ring[slot]
        if bucket is None or bucket.second != second:
            bucket = metric.ring[slot] = Bucket(metric.name, second)
        return bucket

    def visit_windows(
        self, seconds: int, visit: "Callable[[str, str, Bucket], None]"
    ) -> None:
        """Call ``visit(name, kind, bucket)`` under the lock for each
        bucket of the last ``seconds`` seconds, oldest first per metric
        (nothing with windows off); :func:`repro.obs.timeseries.window`
        merges them.  ``kind`` is ``counter``, ``gauge`` or
        ``histogram``."""
        with self._lock:
            now = self._second()
            if now is None:
                return
            for metric in self._metrics():
                if metric.ring is None:
                    continue
                kind = type(metric).__name__.lower()
                for second in range(now - int(seconds) + 1, now + 1):
                    bucket = metric.ring[second % WINDOW_HORIZON_SECONDS]
                    if bucket is not None and bucket.second == second:
                        visit(metric.name, kind, bucket)

    # ------------------------------------------------------------------
    # Metric access (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._get(self._counters, Counter, name)

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._get(self._gauges, Gauge, name)

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            return self._get(self._histograms, Histogram, name)

    # ------------------------------------------------------------------
    # Recording (one lock round-trip per call)
    # ------------------------------------------------------------------
    def _inc(self, name: str, amount: float, second: "Optional[int]") -> None:
        metric = self._get(self._counters, Counter, name)
        metric.inc(amount)
        if second is not None and metric.ring is not None:
            self._bucket(metric, second).add(amount)

    def _observe(
        self,
        name: str,
        value: float,
        trace_id: "Optional[str]",
        second: "Optional[int]",
    ) -> None:
        metric = self._get(self._histograms, Histogram, name)
        metric.observe(value)
        if second is not None and metric.ring is not None:
            self._bucket(metric, second).observe(value, trace_id)

    def inc(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self._inc(name, amount, self._second())

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            metric = self._get(self._gauges, Gauge, name)
            metric.set(value)
            second = self._second()
            if second is not None and metric.ring is not None:
                self._bucket(metric, second).observe(value)

    def observe(
        self, name: str, value: float, trace_id: "Optional[str]" = None
    ) -> None:
        """One histogram observation; ``trace_id`` tags it in its window
        bucket as an exemplar candidate (the cumulative histogram ignores
        it)."""
        with self._lock:
            self._observe(name, value, trace_id, self._second())

    def apply(
        self,
        counters: "Iterable[Tuple[str, float]]" = (),
        histograms: "Iterable[Tuple[str, float]]" = (),
    ) -> None:
        """Several updates under one lock acquisition: each
        ``(name, amount)`` of ``counters`` is an :meth:`inc`, each
        ``(name, value)`` of ``histograms`` an :meth:`observe`.  One
        query's record (:mod:`repro.obs.workload`) lands this way."""
        with self._lock:
            second = self._second()
            for name, amount in counters:
                self._inc(name, amount, second)
            for name, value in histograms:
                self._observe(name, value, None, second)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> "Dict[str, float]":
        """Flat ``name -> value`` view of every cumulative quantity.

        Counters appear under their own name; histograms contribute
        ``<name>.count`` and ``<name>.sum`` (the cumulative components a
        delta is meaningful for).  Gauges are excluded — they are not
        cumulative.
        """
        with self._lock:
            flat: "Dict[str, float]" = {
                name: c.value for name, c in self._counters.items()
            }
            for name, h in self._histograms.items():
                flat[f"{name}.count"] = float(h.count)
                flat[f"{name}.sum"] = h.total
            return flat

    def delta_since(self, earlier: "Dict[str, float]") -> "Dict[str, float]":
        """Non-zero counter/histogram increments since ``earlier``."""
        now = self.snapshot()
        delta = {}
        for name, value in now.items():
            change = value - earlier.get(name, 0.0)
            if change != 0.0:
                delta[name] = change
        return delta

    def as_dict(self) -> "Dict[str, object]":
        """Structured export view (used by :mod:`repro.obs.export`)."""
        with self._lock:
            return {
                "counters": {
                    name: c.value
                    for name, c in sorted(self._counters.items())
                },
                "gauges": {
                    name: g.value
                    for name, g in sorted(self._gauges.items())
                },
                "histograms": {
                    name: h.summary()
                    for name, h in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        """Drop every metric and its windows (tests and per-run
        profiling)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._label_keys.clear()

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._counters)
                + len(self._gauges)
                + len(self._histograms)
            )


# ======================================================================
# Module-level fast path
# ======================================================================

_enabled = False
_registry = MetricsRegistry()


def enabled() -> bool:
    """Whether instrumentation events are currently being recorded."""
    return _enabled


def enable() -> MetricsRegistry:
    """Turn recording on; returns the process-wide registry."""
    global _enabled
    _enabled = True
    return _registry


def disable() -> None:
    """Turn recording off (the registry keeps its accumulated values)."""
    global _enabled
    _enabled = False


def get_registry() -> MetricsRegistry:
    """The process-wide registry (whether or not recording is on)."""
    return _registry


def inc(name: str, amount: float = 1.0) -> None:
    """Hot-path counter increment; no-op unless metrics are enabled."""
    if not _enabled:
        return
    _registry.inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    """Hot-path gauge update; no-op unless metrics are enabled."""
    if not _enabled:
        return
    _registry.set_gauge(name, value)


def observe(
    name: str, value: float, trace_id: "Optional[str]" = None
) -> None:
    """Hot-path histogram observation; no-op unless metrics are enabled.

    ``trace_id`` tags the observation in its window bucket so tail
    percentiles keep exemplar links to stored traces; the cumulative
    histogram ignores it.
    """
    if not _enabled:
        return
    _registry.observe(name, value, trace_id)


def snapshot() -> "Dict[str, float]":
    """Snapshot of the process-wide registry (see the registry method)."""
    return _registry.snapshot()


def delta_since(earlier: "Dict[str, float]") -> "Dict[str, float]":
    """Delta of the process-wide registry since ``earlier``."""
    return _registry.delta_since(earlier)


@contextmanager
def collecting(fresh: bool = False) -> "Iterator[MetricsRegistry]":
    """Enable metrics for a ``with`` block, restoring the previous state.

    ``fresh=True`` additionally clears the registry on entry, so the
    block observes only its own events without snapshot arithmetic.
    Reentrant: nesting inside an already-enabled scope leaves recording
    on afterwards.
    """
    was_enabled = _enabled
    if fresh:
        _registry.reset()
    enable()
    try:
        yield _registry
    finally:
        if not was_enabled:
            disable()
