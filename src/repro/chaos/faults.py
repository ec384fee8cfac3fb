"""Deterministic, seedable fault injection for the serving stack.

Distributed serving fails in a handful of canonical ways — a shard goes
slow, a shard throws, a probe wedges, a disk read flakes — and a
resilience layer is only trustworthy if those failures can be *produced
on demand, reproducibly*.  This module is that production line:

* :class:`ShardFaults` / :class:`PageFaults` declare the failure mix of
  one injection site (probability-driven from a seeded RNG, or
  deterministic "fail the first N" counters for tests);
* :class:`FaultPlan` maps shard ids to their faults plus an optional
  storage-layer fault spec, under one seed;
* :class:`ChaosInjector` executes a plan: the scatter path calls
  :meth:`ChaosInjector.before_probe` before each shard probe and the
  page layer calls :meth:`ChaosInjector.page_read` per read attempt.
  Both are wired through a single ``is None`` check at the hook sites
  (:meth:`repro.shard.ShardedNNCellIndex.set_chaos`,
  :meth:`repro.storage.PageManager.set_chaos`), so a process that never
  installs an injector pays one attribute load — zero overhead when
  disabled.

Injected failures raise :class:`InjectedFault` subclasses, never bare
``Exception``, so test assertions can tell a drill's own faults from a
genuine bug ("zero non-typed errors" in the chaos leg of
``tools/smoke.py``).

Determinism: one locked ``random.Random(seed)`` drives every
probabilistic decision, so a single-threaded replay of the same plan
makes identical choices.  Under concurrency the *assignment* of draws
to probes follows thread scheduling; the deterministic ``fail_first`` /
``stuck_first`` counters are per-site and scheduling-independent, which
is what the property suites use.  See ``docs/resilience.md``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = [
    "ChaosInjector",
    "FaultPlan",
    "FlakyPageRead",
    "InjectedFault",
    "PageFaults",
    "ShardFaults",
    "StuckProbe",
]


class InjectedFault(Exception):
    """Base class of every chaos-injected failure (typed, on purpose)."""

    code = "injected_fault"


class FlakyPageRead(InjectedFault):
    """One storage read attempt failed transiently (retryable)."""

    code = "flaky_page_read"


class StuckProbe(InjectedFault):
    """A stuck probe was released by injector teardown, not by answering.

    Raised *after* the block, so an abandoned probe thread unwinds
    instead of delivering a stale answer once the drill ends.
    """

    code = "stuck_probe"


@dataclass(frozen=True)
class ShardFaults:
    """Failure mix of one shard's probe site.

    Probabilities are per *probe attempt* (retries and hedges re-draw),
    which is exactly what makes retrying/hedging effective against
    them.  The ``*_first`` counters are deterministic: the first N
    probes of this shard fault regardless of the RNG — use these in
    tests that must not depend on draw order.
    """

    #: Probability a probe attempt is delayed by ``slow_ms``.
    slow_p: float = 0.0
    #: Injected latency of a slow attempt, milliseconds.
    slow_ms: float = 0.0
    #: Probability a probe attempt raises :class:`InjectedFault`.
    fail_p: float = 0.0
    #: Deterministically fail this many attempts before behaving.
    fail_first: int = 0
    #: Probability a probe attempt blocks until release or ``stuck_ms``.
    stuck_p: float = 0.0
    #: Deterministically wedge this many attempts before behaving.
    stuck_first: int = 0
    #: How long a stuck attempt blocks, milliseconds; ``None`` blocks
    #: until :meth:`ChaosInjector.release` (only a probe timeout can
    #: save the query).
    stuck_ms: "Optional[float]" = None

    def __post_init__(self):
        for name in ("slow_p", "fail_p", "stuck_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.slow_ms < 0.0:
            raise ValueError("slow_ms must be >= 0")
        if self.fail_first < 0 or self.stuck_first < 0:
            raise ValueError("*_first counters must be >= 0")
        if self.stuck_ms is not None and self.stuck_ms < 0.0:
            raise ValueError("stuck_ms must be >= 0 or None")

    @property
    def any_active(self) -> bool:
        return bool(
            self.slow_p or self.fail_p or self.stuck_p
            or self.fail_first or self.stuck_first
        )


@dataclass(frozen=True)
class PageFaults:
    """Failure mix of the storage layer's read path."""

    #: Probability one read *attempt* raises :class:`FlakyPageRead`
    #: (the page layer re-issues the read up to its retry budget).
    flaky_p: float = 0.0
    #: Deterministically fail this many read attempts before behaving.
    flaky_first: int = 0

    def __post_init__(self):
        if not 0.0 <= self.flaky_p <= 1.0:
            raise ValueError("flaky_p must be in [0, 1]")
        if self.flaky_first < 0:
            raise ValueError("flaky_first must be >= 0")

    @property
    def any_active(self) -> bool:
        return bool(self.flaky_p or self.flaky_first)


@dataclass(frozen=True)
class FaultPlan:
    """One reproducible failure drill: shard faults + page faults + seed."""

    #: Shard id -> that shard's failure mix.  Shards not listed are
    #: healthy (``default`` overrides that).
    shards: "Dict[int, ShardFaults]" = field(default_factory=dict)
    #: Faults applied to shards absent from ``shards``.
    default: ShardFaults = ShardFaults()
    #: Storage-read faults (every hooked :class:`PageManager`).
    pages: PageFaults = PageFaults()
    #: RNG seed for every probabilistic decision.
    seed: int = 0

    def faults_of(self, shard: int) -> ShardFaults:
        return self.shards.get(shard, self.default)


class ChaosInjector:
    """Executes a :class:`FaultPlan` at the hook sites, counting as it goes.

    Thread-safe; every count and RNG draw is serialised by one lock (the
    hook sites are probe workers).  The injected *sleeps and blocks*
    happen outside the lock, so one slow shard never blocks another
    shard's draw.

    Counters (:meth:`counts`) record what was actually injected —
    ``slow`` / ``fail`` / ``stuck`` / ``flaky_page`` totals plus
    per-shard ``shard<N>.<kind>`` breakdowns — so drills can assert the
    plan really fired.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._rng = random.Random(plan.seed)
        self._counts: "Dict[str, int]" = {}
        self._fail_left: "Dict[int, int]" = {
            s: f.fail_first for s, f in plan.shards.items()
        }
        self._stuck_left: "Dict[int, int]" = {
            s: f.stuck_first for s, f in plan.shards.items()
        }
        self._flaky_left = plan.pages.flaky_first
        self._released = threading.Event()

    # ------------------------------------------------------------------
    # Hook sites
    # ------------------------------------------------------------------
    def before_probe(self, shard: int) -> None:
        """Run the fault decision for one probe attempt against ``shard``.

        May sleep (latency spike), block (stuck probe) or raise
        :class:`InjectedFault`; returns normally for a healthy attempt.
        """
        faults = self.plan.faults_of(shard)
        if not faults.any_active:
            return
        with self._lock:
            left = self._fail_left.get(shard, 0)
            if left > 0:
                self._fail_left[shard] = left - 1
                self._count(shard, "fail")
                fail = True
            else:
                fail = faults.fail_p > 0 and self._rng.random() < faults.fail_p
                if fail:
                    self._count(shard, "fail")
            if not fail:
                left = self._stuck_left.get(shard, 0)
                if left > 0:
                    self._stuck_left[shard] = left - 1
                    self._count(shard, "stuck")
                    stuck = True
                else:
                    stuck = (
                        faults.stuck_p > 0
                        and self._rng.random() < faults.stuck_p
                    )
                    if stuck:
                        self._count(shard, "stuck")
                slow = (
                    not stuck
                    and faults.slow_p > 0
                    and self._rng.random() < faults.slow_p
                )
                if slow:
                    self._count(shard, "slow")
        if fail:
            raise InjectedFault(f"injected failure on shard {shard}")
        if stuck:
            timeout = (
                None if faults.stuck_ms is None else faults.stuck_ms / 1e3
            )
            released = self._released.wait(timeout)
            if released:
                raise StuckProbe(
                    f"stuck probe on shard {shard} released at teardown"
                )
            return  # stuck_ms elapsed: behave like a (very) slow probe
        if slow:
            time.sleep(faults.slow_ms / 1e3)

    def page_read(self, page_id: int) -> None:
        """Fault decision for one storage read attempt (may raise)."""
        faults = self.plan.pages
        if not faults.any_active:
            return
        with self._lock:
            if self._flaky_left > 0:
                self._flaky_left -= 1
                flaky = True
            else:
                flaky = (
                    faults.flaky_p > 0
                    and self._rng.random() < faults.flaky_p
                )
            if flaky:
                self._counts["flaky_page"] = (
                    self._counts.get("flaky_page", 0) + 1
                )
        if flaky:
            raise FlakyPageRead(f"injected flaky read of page {page_id}")

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def release(self) -> None:
        """Free every stuck probe (they unwind with :class:`StuckProbe`).

        Call at drill teardown so abandoned probe threads do not outlive
        the drill.  Idempotent.
        """
        self._released.set()

    def counts(self) -> "Dict[str, int]":
        """Copy of the injected-fault counters."""
        with self._lock:
            return dict(self._counts)

    def total(self, kind: str) -> int:
        """Total injections of one kind (``slow``/``fail``/``stuck``/
        ``flaky_page``)."""
        with self._lock:
            return self._counts.get(kind, 0)

    def _count(self, shard: int, kind: str) -> None:
        # Caller holds the lock.
        self._counts[kind] = self._counts.get(kind, 0) + 1
        key = f"shard{shard}.{kind}"
        self._counts[key] = self._counts.get(key, 0) + 1

    def __enter__(self) -> "ChaosInjector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
