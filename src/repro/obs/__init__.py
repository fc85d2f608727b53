"""Unified observability layer: metrics, decision log, exporters.

The paper's evidence is observational — Paraver traces (Figs. 1/4),
per-loop SF profiles (Fig. 2), runtime-overhead breakdowns — and this
package makes the reproduction observable the same way, as a first-class
layer over ``sim``/``runtime``/``sched``:

* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms fed by instrumentation hooks in the runtime
  (dispatches, fetch-and-add pool removals, barrier waits, runtime-call
  overhead seconds, keyed by loop and thread);
* :class:`~repro.obs.decisions.DecisionLog` — one structured record per
  scheduler decision (sampled mean times, SF estimates, chunk targets);
* :mod:`~repro.obs.chrome_trace` — ``chrome://tracing`` / Perfetto
  export of the execution timeline with decision annotations;
* :mod:`~repro.obs.snapshot` — deterministic JSON snapshot of all of the
  above, read by ``python -m repro.obs.report``.

Everything hangs off one :class:`Observability` bundle. The default
everywhere is :data:`NULL_OBS` (the null sink): hooks collapse to a
single ``enabled`` check and simulated results are bit-identical to an
uninstrumented build. Enable by passing a fresh ``Observability()`` to
:class:`~repro.runtime.program_runner.ProgramRunner` or
:class:`~repro.runtime.executor.LoopExecutor`.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs.decisions import (
    DecisionEmitter,
    DecisionLog,
    NullDecisionLog,
    sf_as_json,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    POW2_BUCKETS,
)
from repro.obs.snapshot import (
    build_snapshot,
    grid_payload,
    load_snapshot,
    write_snapshot,
)
from repro.obs.chrome_trace import export_chrome_trace, to_trace_events
from repro.obs.merge import (
    MergedSnapshot,
    comparable_snapshot,
    job_snapshot_json,
    merge,
    read_job_snapshot,
    summarize_decisions,
)
from repro.obs.diff import DiffThresholds, SnapshotDiff, diff_snapshots
from repro.obs.trajectory import TrajectoryStore
from repro.obs.spans import CausalEdge, Span, SpanRecorder, span_violations


class Observability:
    """Bundle of one metrics registry + one decision log.

    Attributes:
        registry: the metrics sink.
        decisions: the scheduler decision log.
        spans: optional causal span recorder; ``None`` (the default)
            disables span tracing, and every emission site gates on a
            single ``is not None`` check.
        merge_labels: the labels a fleet merge files this run's
            instruments under (a fleet job's ``program``, ``config``
            and ``platform``). Instruments never carry them while the
            run records; :func:`~repro.obs.merge.job_snapshot_json`
            writes every instrument with them added, so the merge can
            keep its text as it is. Empty by default.
        enabled: False only for the null bundle; hot paths check this
            before doing any metric computation.
    """

    __slots__ = ("registry", "decisions", "spans", "merge_labels", "enabled")

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        decisions: DecisionLog | None = None,
        spans: SpanRecorder | None = None,
        merge_labels: Mapping[str, object] | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.decisions = decisions if decisions is not None else DecisionLog()
        self.spans = spans
        self.merge_labels = dict(merge_labels) if merge_labels else {}
        self.enabled = self.registry.enabled and self.decisions.enabled

    @classmethod
    def disabled(cls) -> "Observability":
        """A null bundle: every hook is a no-op."""
        return cls(NullRegistry(), NullDecisionLog())


#: Shared null bundle — the default sink throughout the runtime.
NULL_OBS = Observability.disabled()

__all__ = [
    "Observability",
    "NULL_OBS",
    "MetricsRegistry",
    "NullRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "POW2_BUCKETS",
    "DecisionLog",
    "NullDecisionLog",
    "DecisionEmitter",
    "sf_as_json",
    "build_snapshot",
    "write_snapshot",
    "load_snapshot",
    "grid_payload",
    "export_chrome_trace",
    "to_trace_events",
    "MergedSnapshot",
    "merge",
    "job_snapshot_json",
    "read_job_snapshot",
    "summarize_decisions",
    "comparable_snapshot",
    "DiffThresholds",
    "SnapshotDiff",
    "diff_snapshots",
    "TrajectoryStore",
    "Span",
    "CausalEdge",
    "SpanRecorder",
    "span_violations",
]
