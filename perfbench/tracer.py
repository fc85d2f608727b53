"""Layer tracing from outside the program.

:class:`SpanStats` aggregates spans into per-name call counts, inclusive
time and self time as they close, so a traced pass keeps a few dozen
numbers in memory instead of millions of spans. :class:`LayerTracer`
wraps the public entry points of ``sched``, ``backends``, ``runtime``,
``obs``, ``fleet`` and ``faults`` with spans; nothing inside ``src/`` is
instrumented.

Worker processes of the fleet's process pool are forked from the
traced coordinator, so they inherit the wrappers. After a fork the
child's statistics restart from zero and are spooled to one JSON file
per worker whenever its outermost span (a whole job) closes;
:meth:`LayerTracer.collect` folds those files into the coordinator's
numbers.

Each process runs the wrapped layers on one thread, so every process
keeps a single span stack.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from pathlib import Path
from typing import Callable


class SpanStats:
    """Per-process span aggregation with self time.

    A span's self time is its duration minus the time its child spans
    cover. Spans nest strictly on one thread, so the covered part is
    the sum of the direct children's durations.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: name -> [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list[float]] = {}
        #: name -> exact count or byte total recorded at a layer boundary
        self.counts: dict[str, float] = {}
        #: called with no arguments when the outermost open span closes
        self.on_outermost_exit: Callable[[], None] | None = None
        self._names: list[str] = []
        self._starts: list[float] = []
        self._child: list[float] = []

    def enter(self, name: str) -> None:
        self._names.append(name)
        self._child.append(0.0)
        self._starts.append(self.clock())

    def exit(self, alias: str | None = None) -> None:
        """Close the innermost span; ``alias`` credits it to a second
        name as well (same duration and self time)."""
        end = self.clock()
        duration = end - self._starts.pop()
        own = duration - self._child.pop()
        name = self._names.pop()
        if self._child:
            self._child[-1] += duration
        self._add(name, duration, own)
        if alias is not None:
            self._add(alias, duration, own)
        if not self._names and self.on_outermost_exit is not None:
            self.on_outermost_exit()

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def parent(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self._names[-1] if self._names else None

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _add(self, name: str, duration: float, own: float) -> None:
        row = self.spans.get(name)
        if row is None:
            self.spans[name] = [1, duration, own]
        else:
            row[0] += 1
            row[1] += duration
            row[2] += own

    def reset(self) -> None:
        self.spans = {}
        self.counts = {}
        self._names, self._starts, self._child = [], [], []

    def to_doc(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def merge_doc(self, doc: dict) -> None:
        for name, (calls, total, own) in doc["spans"].items():
            row = self.spans.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        for name, value in doc["counts"].items():
            self.count(name, value)

    # -- reading ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return float(self.spans.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, name: str) -> float:
        return float(self.spans.get(name, (0, 0.0, 0.0))[2])


#: Scheduler class name -> schedule family reported under ``sched.<family>``.
SCHED_FAMILIES = {
    "StaticScheduler": "static",
    "DynamicScheduler": "dynamic",
    "GuidedScheduler": "guided",
    "AidStaticScheduler": "aid_static",
    "AidHybridScheduler": "aid_hybrid",
    "AidDynamicScheduler": "aid_dynamic",
    "AidStealScheduler": "aid_steal",
    "AidAutoScheduler": "aid_auto",
}


@contextlib.contextmanager
def patched(owner, attr: str, make):
    """Temporarily replace ``owner.attr`` by ``make(original)``."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _subclasses(cls: type) -> list[type]:
    """Every subclass of ``cls`` loaded so far, each once."""
    seen: list[type] = []
    todo = list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in seen:
            seen.append(sub)
            todo.extend(sub.__subclasses__())
    return seen


def _spanned(stats: SpanStats, name: str, fn):
    def wrapper(*args, **kwargs):
        stats.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            stats.exit()

    return functools.wraps(fn)(wrapper)


class LayerTracer:
    """Spans around each layer's public entry points, coordinator and
    forked workers alike.

    ``install()`` patches the entry points and ``uninstall()`` restores
    them; ``collect()`` returns the coordinator's statistics merged with
    every worker's spool file and clears the spool.
    """

    def __init__(self, spool_dir: str | Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.stats = SpanStats()
        self._patches: contextlib.ExitStack | None = None
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    @property
    def installed(self) -> bool:
        return self._patches is not None

    def _after_fork_in_child(self) -> None:
        if not self.installed:
            return
        self.stats.reset()
        self.stats.on_outermost_exit = self._spool

    def _spool(self) -> None:
        path = self.spool_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.stats.to_doc()), encoding="utf-8")
        os.replace(tmp, path)

    def _patch(self, owner, attr: str, make) -> None:
        self._patches.enter_context(patched(owner, attr, make))

    def _span(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: _spanned(self.stats, name, fn))

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        self._patches = contextlib.ExitStack()
        import importlib

        import repro.experiments.harness as harness
        from repro.backends.reference import ReferenceBackend
        from repro.backends.vectorized import VectorizedBackend
        from repro.fleet.cache import ResultCache
        from repro.fleet.checkpoint import SweepCheckpoint
        from repro.fleet.jobs import JobSpec
        from repro.fleet.progress import FleetProgress
        from repro.runtime.executor import LoopExecutor
        from repro.runtime.program_runner import ProgramRunner
        from repro.sched import LoopScheduler

        # ``repro.obs.merge`` the module, not the function ``repro.obs``
        # re-exports under the same name.
        obs_merge = importlib.import_module("repro.obs.merge")
        for cls in _subclasses(LoopScheduler):
            if "next_range" in cls.__dict__:
                self._patch(cls, "next_range", self._sched_wrapper)
        self._span(VectorizedBackend, "run_scheduled", "backends.vectorized")
        self._patch(ReferenceBackend, "run_scheduled", self._reference_wrapper)
        self._span(ProgramRunner, "run", "runtime.program_run")
        self._patch(LoopExecutor, "run", self._loop_wrapper)
        self._patch(obs_merge, "job_snapshot_json", self._job_snapshot_wrapper)
        self._span(FleetProgress, "job_obs", "obs.merge")
        self._span(FleetProgress, "obs_snapshot", "obs.snapshot_build")
        self._span(JobSpec, "digest", "fleet.digest")
        self._span(JobSpec, "execute", "fleet.execute")
        self._span(ResultCache, "get", "fleet.cache_get")
        self._span(ResultCache, "put", "fleet.cache_put")
        self._span(ResultCache, "poison_reason", "fleet.poison_check")
        self._span(ResultCache, "flush", "fleet.cache_flush")
        self._span(SweepCheckpoint, "record", "fleet.checkpoint_record")
        self._span(harness, "run_jobs", "fleet.run_jobs")

    def uninstall(self) -> None:
        if self._patches is not None:
            self._patches.close()
            self._patches = None

    def collect(self) -> SpanStats:
        """Coordinator statistics plus every worker spool; both restart."""
        merged = SpanStats()
        merged.merge_doc(self.stats.to_doc())
        for path in sorted(self.spool_dir.glob("worker-*.json")):
            merged.merge_doc(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
        self.stats.reset()
        return merged

    # -- wrappers that need more than a plain span ----------------------------

    def _sched_wrapper(self, fn):
        stats = self.stats
        names: dict[type, str] = {}

        def next_range(sched, tid, now):
            cls = type(sched)
            name = names.get(cls)
            if name is None:
                family = next(
                    (
                        SCHED_FAMILIES[k.__name__]
                        for k in cls.__mro__
                        if k.__name__ in SCHED_FAMILIES
                    ),
                    "other",
                )
                name = names[cls] = f"sched.{family}.next_range"
            parent = stats.parent()
            if parent is not None and parent.startswith("sched."):
                # A policy delegating to another (aid_auto's inner
                # aid_dynamic): one call, two self-time shares.
                stats.count("sched.nested_calls")
            stats.enter(name)
            try:
                return fn(sched, tid, now)
            finally:
                stats.exit()

        return functools.wraps(fn)(next_range)

    def _reference_wrapper(self, fn):
        stats = self.stats

        def run_scheduled(backend, executor, req):
            if stats.parent() == "backends.vectorized":
                stats.count("backends.fallback.calls")
            stats.enter("backends.reference")
            try:
                return fn(backend, executor, req)
            finally:
                stats.exit()

        return functools.wraps(fn)(run_scheduled)

    def _loop_wrapper(self, fn):
        stats = self.stats

        def run(executor, *args, **kwargs):
            plan = kwargs.get("faults", args[10] if len(args) > 10 else None)
            faulted = plan is not None and not plan.is_empty
            if faulted:
                stats.count("faults.faulted_loops")
            stats.enter("runtime.loop_run")
            try:
                return fn(executor, *args, **kwargs)
            finally:
                stats.exit(
                    "faults.faulted_loop" if faulted else "faults.clean_loop"
                )

        return functools.wraps(fn)(run)

    def _job_snapshot_wrapper(self, fn):
        stats = self.stats

        def job_snapshot_json(obs):
            stats.enter("obs.job_snapshot")
            try:
                text = fn(obs)
            finally:
                stats.exit()
            stats.count("obs.job_snapshot.bytes", len(text))
            return text

        return functools.wraps(fn)(job_snapshot_json)
