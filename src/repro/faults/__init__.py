"""Dynamic-asymmetry fault injection for the repro runtime.

The paper's platforms are *statically* asymmetric; real AMP deployments
are dynamically so: DVFS/thermal throttling, core offlining and
transient stalls change the effective big-to-small speedup mid-loop —
exactly the quantity every AID variant bakes its decisions on. This
package provides

* a declarative, JSON-round-trippable fault model
  (:mod:`repro.faults.model`),
* the simulator-side injection engine
  (:mod:`repro.faults.engine`, driven by the slot engine of
  :mod:`repro.backends.vectorized` when
  :meth:`repro.runtime.executor.LoopExecutor.run` gets ``faults=``),
* real-thread stall injection and a stalled-worker watchdog
  (:meth:`repro.exec_real.team.ThreadTeam.parallel_for` consumes
  :class:`~repro.faults.model.WorkerStallEvent` plans via ``stalls=``),
* a resilience CLI (``python -m repro.faults``).

Determinism contract: a plan's firings are slots in the slot engine's
``(time, seq)`` min-scan, taking the first seqs in plan order, so at one
instant they fire before any thread event and tie-breaking and
replayability are exactly the engine's. An empty plan (or
``faults=None``) is a strict no-op — the executor takes the identical
code path and produces byte-identical results.
"""

from repro.faults.model import (
    CoreOfflineEvent,
    CoreOnlineEvent,
    FaultPlan,
    OverheadSpikeEvent,
    ThrottleEvent,
    WorkerStallEvent,
    plan_from_tuples,
    random_plan,
)

__all__ = [
    "CoreOfflineEvent",
    "CoreOnlineEvent",
    "FaultPlan",
    "OverheadSpikeEvent",
    "ThrottleEvent",
    "WorkerStallEvent",
    "plan_from_tuples",
    "random_plan",
]
