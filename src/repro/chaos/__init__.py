"""Fault injection and failure drills for the scatter-gather stack.

``repro.chaos`` makes failure a first-class, reproducible input:

* :mod:`repro.chaos.faults` — seedable :class:`ChaosInjector` executing
  a :class:`FaultPlan` (per-shard latency spikes, raised exceptions,
  stuck probes; flaky page reads) at two hook sites —
  :meth:`repro.shard.ShardedNNCellIndex.set_chaos` and
  :meth:`repro.storage.PageManager.set_chaos` — with zero overhead
  while no injector is installed;
* :mod:`repro.chaos.drill` — the end-to-end drill harness behind the
  ``repro chaos`` CLI subcommand and the chaos leg of ``tools/smoke.py``.

The mitigations themselves live with the scatter path in
:mod:`repro.shard.resilience`; this package only *breaks* things and
*verifies* the response.  See ``docs/resilience.md``.
"""

from .drill import DrillReport, install_page_chaos, run_drill
from .faults import (
    ChaosInjector,
    FaultPlan,
    FlakyPageRead,
    InjectedFault,
    PageFaults,
    ShardFaults,
    StuckProbe,
)

__all__ = [
    "ChaosInjector",
    "DrillReport",
    "FaultPlan",
    "FlakyPageRead",
    "InjectedFault",
    "PageFaults",
    "ShardFaults",
    "StuckProbe",
    "install_page_chaos",
    "run_drill",
]
