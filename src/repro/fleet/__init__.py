"""``repro.fleet`` — parallel experiment orchestration with caching.

The paper's evaluation is a large grid (21 programs x 7 schedules x 2
platforms, plus sweeps), and every cell is an independent deterministic
simulation — embarrassingly parallel work with wildly heterogeneous cell
costs. This subsystem turns the serial
:func:`repro.experiments.harness.run_grid` loop into a fleet:

* :mod:`~repro.fleet.jobs` — frozen :class:`JobSpec` work units with a
  stable salted content digest;
* :mod:`~repro.fleet.cache` — a content-addressed on-disk
  :class:`ResultCache`, digest-prefix sharded with a versioned layout
  manifest — so unchanged cells are instant hits across bench reruns
  and CI;
* :mod:`~repro.fleet.scrub` — :func:`scrub_cache`, the cache's fsck:
  verify every entry, quarantine corruption, repair the manifest;
* :mod:`~repro.fleet.checkpoint` — :class:`SweepCheckpoint`, an
  append-only JSONL journal of a sweep's plans and failed cells; with
  the cache, whose entries are the only record of finished cells, it
  makes sweeps resumable after a crash (``python -m repro.fleet
  --resume``);
* :mod:`~repro.fleet.pool` — :func:`run_jobs`: process-pool execution
  with LPT (longest-first) dispatch, per-job timeouts, bounded retry
  with backoff, broken-pool recovery, and graceful degradation to
  inline serial execution — both tiers feeding the same
  submission-order observability merge;
* :mod:`~repro.fleet.progress` — :class:`FleetProgress` counters and a
  per-job event log riding the standard observability registry, plus
  the merged per-job observability capture: every worker runs its job
  with a live ``Observability`` bundle, ships a compact snapshot home in
  the :class:`JobResult`, and the pool folds them (in submission order)
  into one fleet-level view — cached results replay their stored
  snapshot, so warm runs report identical metrics;
* :mod:`~repro.fleet.supervisor` — :class:`Supervisor`: worker
  heartbeats with EWMA-based hang detection, poison-job quarantine,
  a circuit breaker degrading ``process -> inline``, and seeded
  digest-keyed retry jitter;
* :mod:`~repro.fleet.chaos` — the deterministic infrastructure-chaos
  harness: seeded, JSON-round-trippable :class:`ChaosPlan`\\ s inject
  worker kills/stalls, cache I/O errors and pool-break storms, and
  ``python -m repro.fleet chaos`` asserts sweeps stay byte-identical to
  the fault-free run under them;
* ``python -m repro.fleet`` — CLI running any registered grid
  (see :mod:`~repro.fleet.cli`), with ``--obs-snapshot`` /
  ``--trajectory`` feeding the perf-regression observatory.

The simulator is deterministic, so fleet results are cell-for-cell
identical to the serial harness — parallelism and caching change wall
time, never numbers (and never metrics: the merged snapshot is
byte-identical across ``jobs=1``/``jobs=N``/warm reruns, modulo
wall-clock fields).
"""

from __future__ import annotations

from repro.fleet.cache import ResultCache
from repro.fleet.chaos import ChaosCache, ChaosEngine, ChaosPlan
from repro.fleet.chaos import random_plan as random_chaos_plan
from repro.fleet.checkpoint import CheckpointState, SweepCheckpoint
from repro.fleet.jobs import CODE_SALT, JobResult, JobSpec
from repro.fleet.pool import (
    FleetConfig,
    FleetOutcome,
    require_ok,
    run_jobs,
)
from repro.fleet.progress import FleetProgress, NullFleetProgress
from repro.fleet.scrub import ScrubReport, scrub_cache
from repro.fleet.supervisor import (
    DEGRADATION,
    BreakerOpen,
    Supervisor,
    SupervisorConfig,
)

__all__ = [
    "NullFleetProgress",
    "CODE_SALT",
    "JobSpec",
    "JobResult",
    "ResultCache",
    "CheckpointState",
    "SweepCheckpoint",
    "DEGRADATION",
    "BreakerOpen",
    "Supervisor",
    "SupervisorConfig",
    "ChaosPlan",
    "ChaosEngine",
    "ChaosCache",
    "random_chaos_plan",
    "ScrubReport",
    "scrub_cache",
    "FleetConfig",
    "FleetOutcome",
    "FleetProgress",
    "run_jobs",
    "require_ok",
]
