"""SLO declarations and multi-window burn-rate alerting.

A service level objective turns the telemetry windows into a yes/no
question an operator can page on: *is the service spending its error
budget faster than it can afford?*  Each :class:`SLO` declares a bounded
bad-event fraction (the **budget**) over one of two shapes:

* ``latency`` — the fraction of ``serve.latency_ms`` observations above
  a threshold must stay within the budget (equivalently: the p-quantile
  at ``1 - budget`` stays below the threshold);
* ``ratio`` — bad-event counters over (bad + good) counters, e.g.
  deadline misses over completions, rejections over submissions.

The **burn rate** of a window is ``bad_fraction / budget`` — 1.0 means
the budget is being consumed exactly as fast as it is allotted; 10×
means ten times too fast.  Following the classic multi-window pattern
(Google SRE workbook, ch. 5), the watchdog *pages* only when both the
short (10s) and long (60s) windows burn at ``page_burn`` or more — the
long window proves the problem is sustained, the short window proves it
is still happening — and *warns* on a long-window burn alone.  This
keeps a one-second blip from paging while catching a real regression in
seconds rather than minutes.

:class:`SLOWatchdog` evaluates a registry's windows
(:mod:`repro.obs.timeseries`) periodically, publishes ``serve.slo.*`` gauges,
emits an event-log record on every state transition, and exposes its
state for ``/healthz`` (503 while paging) and ``/telemetry``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import events, metrics
from .metrics import MetricsRegistry
from .timeseries import WindowSnapshot, window

__all__ = [
    "DEFAULT_SLOS",
    "DEFAULT_PAGE_BURN",
    "DEFAULT_WARN_BURN",
    "SLO",
    "SLOStatus",
    "SLOWatchdog",
    "STATE_OK",
    "STATE_PAGE",
    "STATE_WARN",
]

STATE_OK = "ok"
STATE_WARN = "warn"
STATE_PAGE = "page"

#: Numeric encoding for the ``serve.slo.<name>.state`` gauge.
_STATE_CODE = {STATE_OK: 0.0, STATE_WARN: 1.0, STATE_PAGE: 2.0}

#: Page when both alerting windows burn the budget at >= 10x its rate.
DEFAULT_PAGE_BURN = 10.0

#: Warn when the long window alone burns at >= 2x.
DEFAULT_WARN_BURN = 2.0

#: (short, long) alerting windows, seconds — must be a subset of the
#: telemetry ring's standard windows.
DEFAULT_ALERT_WINDOWS: "Tuple[int, int]" = (10, 60)


@dataclass(frozen=True)
class SLO:
    """One declared objective: a budgeted bad-event fraction."""

    #: Stable identifier (metric names derive from it).
    name: str
    #: ``"latency"`` or ``"ratio"``.
    kind: str
    #: Allowed bad-event fraction (error budget), in (0, 1).
    budget: float
    #: Human-readable statement of the objective.
    description: str = ""
    #: ``latency`` kind: the histogram to inspect ...
    metric: str = "serve.latency_ms"
    #: ... and the threshold above which an observation is "bad".
    threshold_ms: float = 50.0
    #: ``ratio`` kind: counters whose window totals are bad events ...
    bad: "Tuple[str, ...]" = ()
    #: ... and counters whose totals are good events.
    good: "Tuple[str, ...]" = ()

    def __post_init__(self):
        if self.kind not in ("latency", "ratio"):
            raise ValueError(f"unknown SLO kind: {self.kind!r}")
        if not 0.0 < self.budget < 1.0:
            raise ValueError("budget must be in (0, 1)")
        if self.kind == "ratio" and not self.bad:
            raise ValueError("ratio SLO needs at least one bad counter")

    def bad_fraction(self, snapshot: WindowSnapshot) -> float:
        """Fraction of events in ``snapshot`` that violate the objective.

        An empty window reports 0.0 — no traffic burns no budget.
        """
        if self.kind == "latency":
            window = snapshot.get(self.metric)
            if window is None or window.count == 0:
                return 0.0
            return window.fraction_above(self.threshold_ms)
        bad = sum(snapshot.total(name) for name in self.bad)
        total = bad + sum(snapshot.total(name) for name in self.good)
        return bad / total if total > 0.0 else 0.0

    def burn_rate(self, snapshot: WindowSnapshot) -> float:
        """How many times faster than allotted the budget is burning."""
        return self.bad_fraction(snapshot) / self.budget


#: The serving objectives declared by default.  Thresholds are paper-
#: scale (an NN-cell point query is sub-millisecond; 50 ms of enqueue-
#: to-answer latency means queueing, not computing) and overridable via
#: ``TelemetryConfig`` / ``SLOWatchdog(slos=...)``.
DEFAULT_SLOS: "Tuple[SLO, ...]" = (
    SLO(
        name="latency_p99",
        kind="latency",
        budget=0.01,
        threshold_ms=50.0,
        description="99% of answers within 50 ms of submission",
    ),
    SLO(
        name="error_rate",
        kind="ratio",
        budget=0.01,
        bad=("serve.deadline_missed",),
        good=("serve.completed",),
        description="99% of accepted requests answered within deadline",
    ),
    SLO(
        name="overload_rate",
        kind="ratio",
        budget=0.05,
        bad=("serve.rejected",),
        good=("serve.submitted",),
        description="95% of submissions admitted",
    ),
    SLO(
        name="degraded_rate",
        kind="ratio",
        budget=0.05,
        bad=("serve.degraded_answers",),
        good=("serve.completed",),
        description=(
            "95% of answers complete (all shards); partial answers under"
            " allow_partial burn this budget"
        ),
    ),
)


@dataclass
class SLOStatus:
    """One objective's evaluated state at a point in time."""

    slo: SLO
    state: str = STATE_OK
    #: window seconds -> burn rate.
    burn: "Dict[int, float]" = field(default_factory=dict)
    #: Bad-event fraction over the long window.
    bad_fraction: float = 0.0

    def as_dict(self) -> "Dict[str, object]":
        return {
            "name": self.slo.name,
            "kind": self.slo.kind,
            "description": self.slo.description,
            "budget": self.slo.budget,
            "state": self.state,
            "bad_fraction": self.bad_fraction,
            "burn": {f"{s}s": rate for s, rate in self.burn.items()},
        }


class SLOWatchdog:
    """Periodic multi-window burn-rate evaluation over a registry's
    windows.

    One evaluation is cheap (two window merges per objective), so the
    default 1 s cadence adds nothing measurable to a serving process.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        slos: "Sequence[SLO]" = DEFAULT_SLOS,
        page_burn: float = DEFAULT_PAGE_BURN,
        warn_burn: float = DEFAULT_WARN_BURN,
        alert_windows: "Tuple[int, int]" = DEFAULT_ALERT_WINDOWS,
    ):
        if page_burn <= 0 or warn_burn <= 0:
            raise ValueError("burn thresholds must be > 0")
        if warn_burn > page_burn:
            raise ValueError("warn_burn must not exceed page_burn")
        short, long_ = alert_windows
        if short >= long_:
            raise ValueError("alert windows must be (short, long)")
        self.registry = registry
        self.slos = tuple(slos)
        self.page_burn = float(page_burn)
        self.warn_burn = float(warn_burn)
        self.alert_windows = (int(short), int(long_))
        self._lock = threading.Lock()
        self._statuses: "Dict[str, SLOStatus]" = {
            slo.name: SLOStatus(slo) for slo in self.slos
        }
        self._paging = False
        self._stop = threading.Event()
        self._thread: "Optional[threading.Thread]" = None

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self) -> "List[SLOStatus]":
        """Evaluate every objective once; returns the new statuses."""
        short, long_ = self.alert_windows
        snapshots = {
            short: window(self.registry, short),
            long_: window(self.registry, long_),
        }
        changed: "List[Tuple[str, str, SLOStatus]]" = []
        with self._lock:
            for slo in self.slos:
                burn = {
                    seconds: slo.burn_rate(snapshot)
                    for seconds, snapshot in snapshots.items()
                }
                if (
                    burn[short] >= self.page_burn
                    and burn[long_] >= self.page_burn
                ):
                    state = STATE_PAGE
                elif burn[long_] >= self.warn_burn:
                    state = STATE_WARN
                else:
                    state = STATE_OK
                status = self._statuses[slo.name]
                previous = status.state
                status.state = state
                status.burn = burn
                status.bad_fraction = slo.bad_fraction(snapshots[long_])
                if state != previous:
                    changed.append((previous, state, status))
                metrics.set_gauge(
                    f"serve.slo.{slo.name}.burn_rate", burn[long_]
                )
                metrics.set_gauge(
                    f"serve.slo.{slo.name}.state", _STATE_CODE[state]
                )
            self._paging = any(
                s.state == STATE_PAGE for s in self._statuses.values()
            )
            statuses = list(self._statuses.values())
        for previous, state, status in changed:
            events.emit(
                "slo",
                objective=status.slo.name,
                previous=previous,
                state=state,
                burn_short=status.burn.get(short, 0.0),
                burn_long=status.burn.get(long_, 0.0),
                bad_fraction=status.bad_fraction,
            )
        return statuses

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def paging(self) -> bool:
        """Whether any objective is currently in the page state."""
        with self._lock:
            return self._paging

    def status(self) -> "Dict[str, object]":
        """JSON-ready aggregate view for /telemetry and /healthz."""
        with self._lock:
            worst = STATE_OK
            objectives = []
            for slo in self.slos:
                s = self._statuses[slo.name]
                objectives.append(s.as_dict())
                if _STATE_CODE[s.state] > _STATE_CODE[worst]:
                    worst = s.state
            return {
                "state": worst,
                "paging": self._paging,
                "page_burn": self.page_burn,
                "warn_burn": self.warn_burn,
                "windows_s": list(self.alert_windows),
                "objectives": objectives,
            }

    # ------------------------------------------------------------------
    # Background evaluation
    # ------------------------------------------------------------------
    def start(self, interval_s: float = 1.0) -> None:
        """Begin periodic evaluation on a daemon thread.  Idempotent."""
        if self._thread is not None:
            return
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")

        def loop() -> None:
            while not self._stop.wait(interval_s):
                self.evaluate()

        self._stop.clear()
        self._thread = threading.Thread(
            target=loop, name="repro-slo-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background thread (a final evaluation is not run)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
