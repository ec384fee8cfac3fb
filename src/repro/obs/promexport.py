"""Prometheus text exposition of the metrics registry + scrape endpoint.

Rendering follows the Prometheus text format (version 0.0.4):

* counters are exposed as ``<name>_total`` with ``# TYPE ... counter``;
* gauges keep their name with ``# TYPE ... gauge``;
* histograms are exposed as *summaries* — ``<name>{quantile="0.5"}``
  (plus 0.9/0.99), ``<name>_sum`` and ``<name>_count`` — because the
  registry keeps sampled percentiles, not fixed buckets; exact min/max
  ride along as ``<name>_min`` / ``<name>_max`` gauges.

Metric names translate dots to underscores (``serve.latency_ms`` →
``serve_latency_ms``); :func:`metric_name` is the single source of that
mapping and :func:`parse_exposition` is the strict round-trip parser the
telemetry smoke test validates scrapes with.

:class:`MetricsServer` is a deliberately tiny stdlib ``http.server``
wrapper — one daemon thread, ``GET /metrics`` for Prometheus,
``GET /telemetry`` for the windowed JSON view while the registry's
windows are on, ``GET /healthz``
for liveness.  It is wired into ``python -m repro serve
--metrics-port`` (see ``docs/serving.md``); there is intentionally no
auth, TLS or routing beyond that — run it on loopback or behind a real
proxy.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from .metrics import (
    MetricsRegistry,
    _escape_label_value,
    _unescape_label_value,
    get_registry,
    parse_labeled,
)
from .timeseries import DEFAULT_WINDOWS, windows

__all__ = [
    "CONTENT_TYPE",
    "ExpositionNameError",
    "MetricsServer",
    "metric_name",
    "parse_exposition",
    "render_prometheus",
    "validate_metric_name",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: The exposition grammar for a full metric name (prometheus.io data
#: model); what :func:`metric_name` must produce for a scrape to parse.
_VALID_PROM_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class ExpositionNameError(ValueError):
    """A metric name that cannot be exposed on ``/metrics``.

    Raised at *registration* time when the exposition validator is
    installed on the registry (see
    :meth:`repro.obs.metrics.MetricsRegistry.set_name_validator`), so a
    typo'd metric name fails at the call site that introduced it instead
    of rendering an unscrapeable exposition page.
    """

    def __init__(self, name: str, reason: str):
        super().__init__(
            f"metric name {name!r} cannot be exposed to Prometheus: "
            f"{reason}"
        )
        self.name = name
        self.reason = reason


def validate_metric_name(name: str) -> None:
    """Reject ``name`` unless its exposition form obeys the grammar.

    Registry names are dotted (``serve.latency_ms``); the check runs on
    the :func:`metric_name` mapping (dots become underscores) plus the
    constraints the mapping cannot repair: emptiness and reserved
    ``__``-prefixed names.  Raises :class:`ExpositionNameError`.
    """
    if not isinstance(name, str) or not name:
        raise ExpositionNameError(str(name), "name must be a non-empty string")
    exposed = name.replace(".", "_")
    if exposed.startswith("__"):
        raise ExpositionNameError(
            name, "names starting with '__' are reserved by Prometheus"
        )
    if not _VALID_PROM_NAME.match(exposed):
        bad = sorted(set(_INVALID_CHARS.findall(exposed)))
        raise ExpositionNameError(
            name,
            f"maps to {exposed!r} which violates the exposition grammar "
            f"[a-zA-Z_:][a-zA-Z0-9_:]* (offending characters: {bad})",
        )

#: Summary quantile label -> key in ``Histogram.summary()``.
_QUANTILES: "Tuple[Tuple[str, str], ...]" = (
    ("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"),
)


def metric_name(name: str) -> str:
    """A registry metric name as a valid Prometheus metric name."""
    sanitized = _INVALID_CHARS.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value: float) -> str:
    """Floats in Go-compatible exposition form (ints without ``.0``)."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_suffix(
    labels: "Dict[str, str]",
    extra: "Optional[Tuple[str, str]]" = None,
) -> str:
    """Render a label dict as ``{k="v",...}`` (sorted, escaped).

    ``extra`` appends one synthetic pair after the user labels — the
    summary ``quantile`` label, which Prometheus convention keeps last.
    Empty labels render as the empty string.
    """
    pairs = [
        (key, _escape_label_value(value))
        for key, value in sorted(labels.items())
    ]
    if extra is not None:
        pairs.append((extra[0], _escape_label_value(extra[1])))
    if not pairs:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + body + "}"


def _families(entries: "Dict[str, object]"):
    """Group ``{canonical_key: value}`` by base name.

    Yields ``(base, [(labels, value), ...])`` — one Prometheus metric
    family per base name, labeled children under one ``# TYPE`` line.
    """
    families: "Dict[str, list]" = {}
    for name, value in entries.items():
        base, labels = parse_labeled(name)
        families.setdefault(base, []).append((labels, value))
    return families.items()


def render_prometheus(registry: "Optional[MetricsRegistry]" = None) -> str:
    """The whole registry in Prometheus text exposition format.

    Labeled registry keys (``serve.fallback{stage="batch"}``) render as
    real Prometheus labels: every label set of a base name becomes a
    child sample under a single ``# TYPE`` family line.
    """
    data = (registry or get_registry()).as_dict()
    lines: "list[str]" = []
    for name, children in _families(data["counters"]):
        prom = metric_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        for labels, value in children:
            lines.append(
                f"{prom}{_labels_suffix(labels)} {_format_value(value)}"
            )
    for name, children in _families(data["gauges"]):
        prom = metric_name(name)
        lines.append(f"# TYPE {prom} gauge")
        for labels, value in children:
            lines.append(
                f"{prom}{_labels_suffix(labels)} {_format_value(value)}"
            )
    for name, children in _families(data["histograms"]):
        prom = metric_name(name)
        lines.append(f"# TYPE {prom} summary")
        for labels, summary in children:
            for label, key in _QUANTILES:
                value = summary.get(key, 0.0)
                suffix = _labels_suffix(labels, ("quantile", label))
                lines.append(f"{prom}{suffix} {_format_value(value)}")
            lines.append(
                f"{prom}_sum{_labels_suffix(labels)}"
                f" {_format_value(summary['sum'])}"
            )
            lines.append(
                f"{prom}_count{_labels_suffix(labels)}"
                f" {_format_value(summary['count'])}"
            )
        observed = [(lbl, s) for lbl, s in children if s["count"]]
        if observed:
            lines.append(f"# TYPE {prom}_min gauge")
            for labels, summary in observed:
                lines.append(
                    f"{prom}_min{_labels_suffix(labels)}"
                    f" {_format_value(summary['min'])}"
                )
            lines.append(f"# TYPE {prom}_max gauge")
            for labels, summary in observed:
                lines.append(
                    f"{prom}_max{_labels_suffix(labels)}"
                    f" {_format_value(summary['max'])}"
                )
    return "\n".join(lines) + "\n"


_SAMPLE_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_SAMPLE_LABEL = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")


def _parse_sample_line(
    line: str, lineno: int
) -> "Tuple[str, Dict[str, str], str]":
    """One exposition sample line -> ``(name, labels, value_token)``.

    Quote- and escape-aware, so a ``}`` or ``,`` inside a quoted label
    value does not end the label block (the failure mode of the old
    single-regex parser).  Raises :class:`ValueError` with the line
    number on any malformation.
    """

    def fail(reason: str) -> "ValueError":
        return ValueError(
            f"malformed exposition line {lineno} ({reason}): {line!r}"
        )

    match = _SAMPLE_NAME.match(line)
    if match is None:
        raise fail("no metric name")
    name = match.group(0)
    i = match.end()
    labels: "Dict[str, str]" = {}
    if i < len(line) and line[i] == "{":
        i += 1
        while True:
            if i >= len(line):
                raise fail("unterminated label block")
            if line[i] == "}":
                i += 1
                break
            lmatch = _SAMPLE_LABEL.match(line, i)
            if lmatch is None:
                raise fail("bad label name")
            label = lmatch.group(0)
            i = lmatch.end()
            if i >= len(line) or line[i] != "=":
                raise fail("label without '='")
            i += 1
            if i >= len(line) or line[i] != '"':
                raise fail("unquoted label value")
            i += 1
            raw: "list[str]" = []
            while i < len(line):
                ch = line[i]
                if ch == "\\":
                    if i + 1 >= len(line):
                        raise fail("dangling escape in label value")
                    raw.append(line[i : i + 2])
                    i += 2
                    continue
                if ch == '"':
                    break
                raw.append(ch)
                i += 1
            else:
                raise fail("unterminated label value")
            labels[label] = _unescape_label_value("".join(raw))
            i += 1  # closing quote
            if i < len(line) and line[i] == ",":
                i += 1
    if i >= len(line) or line[i] != " ":
        raise fail("expected a single space before the value")
    value = line[i + 1 :]
    if not value or " " in value:
        raise fail("expected exactly one value token")
    return name, labels, value


def parse_exposition(text: str) -> "Dict[str, float]":
    """Strictly parse exposition text into ``{sample_name: value}``.

    Labels are folded into a canonical key — sorted label names,
    re-escaped values — so ``serve_latency_ms{quantile="0.5"}`` stays
    one sample and a rendered exposition round-trips exactly even when
    label values contain ``,``, ``}``, quotes or newlines.  Raises
    :class:`ValueError` on any line that is neither a comment nor a
    well-formed sample — the validation the CI telemetry smoke leg runs
    on a live scrape.
    """
    samples: "Dict[str, float]" = {}
    # Split on newline only: splitlines() would also split on control
    # characters (\x0b, \x0c, \x1c..) that are legal inside escaped
    # label values and would tear a sample line in two.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        name, labels, token = _parse_sample_line(line, lineno)
        key = name + _labels_suffix(labels)
        try:
            samples[key] = float(token)
        except ValueError:
            raise ValueError(
                f"non-numeric sample value on line {lineno}: {line!r}"
            ) from None
    return samples


class MetricsServer:
    """Loopback HTTP scrape endpoint over one registry.

    ``port=0`` binds an ephemeral port (read it back from ``.port``) —
    tests and the smoke tool rely on this.  Usable as a context
    manager; :meth:`close` is idempotent.
    """

    def __init__(
        self,
        registry: "Optional[MetricsRegistry]" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        tracestore=None,
        watchdog=None,
        analytics=None,
    ):
        """``tracestore`` (a :class:`~repro.obs.tracestore.TraceStore`)
        adds ``GET /trace/<id>`` — the stored trace, its span tree and
        critical path as JSON, the link target for /telemetry exemplars.
        ``watchdog`` (a :class:`~repro.obs.slo.SLOWatchdog`) adds SLO
        state to ``/telemetry`` and flips ``/healthz`` to 503 while any
        objective pages.  ``analytics`` (a
        :class:`~repro.obs.analytics.AccessRecorder`) adds
        ``GET /analytics`` — the live workload-skew report as JSON."""
        self.registry = registry  # None = the process-wide registry
        self.tracestore = tracestore
        self.watchdog = watchdog
        self.analytics = analytics
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path in ("/metrics", "/"):
                    body = render_prometheus(server.registry).encode()
                    self._reply(200, CONTENT_TYPE, body)
                elif self.path == "/telemetry":
                    body = json.dumps(
                        server.telemetry_document(), sort_keys=True
                    ).encode()
                    self._reply(200, "application/json", body)
                elif self.path == "/analytics":
                    if server.analytics is None:
                        self._reply(
                            404, "text/plain", b"no analytics recorder\n"
                        )
                    else:
                        body = json.dumps(
                            server.analytics.report(), sort_keys=True
                        ).encode()
                        self._reply(200, "application/json", body)
                elif self.path == "/healthz":
                    if server.watchdog is not None and server.watchdog.paging:
                        self._reply(503, "text/plain", b"paging\n")
                    else:
                        self._reply(200, "text/plain", b"ok\n")
                elif self.path.startswith("/trace/"):
                    document = server.trace_document(
                        self.path[len("/trace/"):]
                    )
                    if document is None:
                        self._reply(404, "text/plain", b"no such trace\n")
                    else:
                        body = json.dumps(document, sort_keys=True).encode()
                        self._reply(200, "application/json", body)
                else:
                    self._reply(404, "text/plain", b"not found\n")

            def _reply(self, status: int, ctype: str, body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # scrapes stay quiet
                return None

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = int(self._httpd.server_address[1])
        self._thread: "Optional[threading.Thread]" = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def telemetry_document(self) -> "Dict[str, object]":
        """The windowed JSON view served at ``/telemetry``.

        ``windows`` is empty while the registry's windows are off.
        Histogram window summaries carry tail ``exemplars`` — resolve a
        ``trace_id`` via ``GET /trace/<id>``.  With a watchdog attached
        the document gains an ``slo`` section; with a trace store, a
        ``traces`` retention summary.
        """
        document: "Dict[str, object]" = {"windows": {}}
        registry = self.registry if self.registry is not None else (
            get_registry()
        )
        if registry.windowed:
            document["windows"] = {
                str(seconds): snapshot.as_dict()
                for seconds, snapshot in
                windows(registry, DEFAULT_WINDOWS).items()
            }
        if self.watchdog is not None:
            document["slo"] = self.watchdog.status()
        if self.tracestore is not None:
            document["traces"] = {
                "stored": len(self.tracestore),
                "added": self.tracestore.added,
                "dropped": self.tracestore.dropped,
            }
        if self.analytics is not None:
            document["analytics"] = self.analytics.report()
        return document

    def trace_document(self, trace_id: str) -> "Optional[Dict[str, object]]":
        """One stored trace as JSON, or ``None`` if unknown."""
        if self.tracestore is None:
            return None
        trace = self.tracestore.get(trace_id)
        if trace is None:
            return None
        from .export import span_to_dict
        from .tracestore import critical_path

        document = trace.as_dict()
        document["critical_path"] = critical_path(
            trace, self.tracestore
        ).as_dict()
        document["root"] = span_to_dict(trace.root)
        return document

    def start(self) -> "MetricsServer":
        """Serve scrapes on a daemon thread; returns ``self``."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="repro-metrics-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
