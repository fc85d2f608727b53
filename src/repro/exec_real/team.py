"""A ``threading``-based OpenMP-style team driving the shared schedulers."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.amp.platform import Platform
from repro.amp.presets import dual_speed_platform
from repro.amp.topology import bs_mapping
from repro.errors import ConfigError, FaultError, SchedulerError, WatchdogTimeout
from repro.faults.model import FaultPlan, WorkerStallEvent
from repro.obs import NULL_OBS
from repro.obs.decisions import DecisionEmitter
from repro.runtime.context import LoopContext
from repro.runtime.team import Team
from repro.sched.base import ScheduleSpec


@dataclass
class RealLoopStats:
    """Outcome of one real-thread parallel loop.

    Attributes:
        n_iterations: the loop's trip count.
        iterations_per_thread: how many iterations each worker executed.
        dispatches: successful pool removals.
        wall_time: elapsed seconds.
        ranges: every assigned range as ``(tid, lo, hi)``.
        errors: exceptions raised inside workers (re-raised by default).
    """

    n_iterations: int
    iterations_per_thread: list[int]
    dispatches: int
    wall_time: float
    ranges: list[tuple[int, int, int]] = field(default_factory=list)
    errors: list[BaseException] = field(default_factory=list)
    #: Ranges the watchdog re-queued after declaring their owner stalled.
    redistributed: list[tuple[int, int]] = field(default_factory=list)


class ThreadTeam:
    """A reusable team of worker threads executing parallel loops.

    Args:
        n_threads: team size (>= 1).
        platform: optional AMP description; used only to give schedulers
            a thread->core-type map (AID distributes by it). Defaults to
            a synthetic two-type AMP with half "big" threads, so AID
            methods exercise their asymmetric paths even on a laptop.
    """

    #: Class-level kill switch for the stalled-worker watchdog. Exists so
    #: the conformance mutant catalog can disable recovery without
    #: touching call sites; production code leaves it True.
    watchdog_enabled = True

    def __init__(self, n_threads: int, platform: Platform | None = None) -> None:
        if n_threads <= 0:
            raise ConfigError("n_threads must be positive")
        if platform is None:
            n_big = max(1, n_threads // 2)
            n_small = max(1, n_threads - n_big)
            platform = dual_speed_platform(n_small, n_big, big_speedup=2.0)
        if n_threads > platform.n_cores:
            raise ConfigError(
                f"{n_threads} threads oversubscribe {platform.n_cores} cores"
            )
        self.n_threads = n_threads
        self.team = Team(platform, bs_mapping(platform, n_threads))

    def parallel_for(
        self,
        n_iterations: int,
        body: Callable[[int, int, int], None],
        spec: ScheduleSpec,
        default_chunk: int = 1,
        offline_sf: dict[int, float] | None = None,
        check=None,
        obs=None,
        watchdog_timeout: float | None = None,
        stalls: FaultPlan | None = None,
    ) -> RealLoopStats:
        """Execute ``body(tid, lo, hi)`` over ``[0, n_iterations)``.

        The scheduler decides the ranges exactly as in the simulator;
        each worker loops on ``next_range`` until the pool drains. Worker
        exceptions abort the loop and are re-raised.

        ``check`` is an opt-in conformance recorder
        (:class:`repro.check.recording.CheckContext`). Its take log is
        appended under the team's lock, so it is in the pool's order.

        ``watchdog_timeout`` (seconds) arms a stalled-worker watchdog: a
        worker sitting on one chunk longer than the timeout has that
        chunk's range handed back to the scheduler via ``reclaim`` so the
        survivors re-execute it. The stalled worker may still finish the
        chunk itself, so under redistribution the completion criterion
        becomes *coverage* (every iteration executed at least once,
        duplicates only inside redistributed ranges) instead of an exact
        count. Workers hung past any hope of joining leave the loop via
        :class:`~repro.errors.WatchdogTimeout` only if coverage failed —
        if the survivors covered the loop, the result stands.

        ``stalls`` injects latency faults for testing the watchdog: a
        :class:`~repro.faults.model.FaultPlan` whose events must all be
        :class:`~repro.faults.model.WorkerStallEvent` (times are seconds
        since loop start; the victim's next chunk after that point sleeps
        for the event's duration). An empty plan is a strict no-op.
        """
        if n_iterations < 0:
            raise ConfigError("negative trip count")
        if watchdog_timeout is not None and watchdog_timeout <= 0:
            raise ConfigError("watchdog_timeout must be positive")
        obs = obs if obs is not None else NULL_OBS
        pending_stalls: dict[int, list[tuple[float, float]]] = {}
        if stalls is not None and not stalls.is_empty:
            for ev in stalls.events:
                if not isinstance(ev, WorkerStallEvent):
                    raise FaultError(
                        "real execution supports only worker-stall fault "
                        f"events, got {ev.kind!r}"
                    )
                if ev.tid < self.n_threads:
                    pending_stalls.setdefault(ev.tid, []).append(
                        (ev.t, ev.seconds)
                    )
            for lst in pending_stalls.values():
                lst.sort()
        loop_name = f"real-{spec.name}"
        # The one lock around every call into the scheduler (next_range,
        # the watchdog's reclaim) and the fault emitter. Scheduler, pool
        # and counter code therefore runs one call at a time, as it does
        # in the simulator, and takes no lock of its own.
        lock = threading.Lock()
        if check is not None:
            check.on_loop_begin(
                loop_name=loop_name,
                n_iterations=n_iterations,
                spec_name=spec.name,
            )
            info = self.team.conformance_info()
            if watchdog_timeout is not None:
                info = {**info, "watchdog_timeout": watchdog_timeout}
            check.on_team(info)
        if check is not None:
            dec = check.fault_emitter(loop_name, obs)
        elif obs.enabled:
            dec = DecisionEmitter(obs, loop_name, "faults")
        else:
            dec = None
        ctx = LoopContext(
            team=self.team,
            n_iterations=n_iterations,
            default_chunk=default_chunk,
            offline_sf=offline_sf,
            obs=obs,
            loop_name=loop_name,
            check=check,
        )
        scheduler = spec.create(ctx)
        iterations = [0] * self.n_threads
        ranges: list[tuple[int, int, int]] = []
        ranges_lock = threading.Lock()
        errors: list[BaseException] = []
        # Watchdog bookkeeping, all guarded by ranges_lock: the chunk each
        # worker is currently executing, a per-worker block counter so one
        # slow block is redistributed at most once, and what was reclaimed.
        current: list[tuple[int, int, float, int] | None] = (
            [None] * self.n_threads
        )
        block_seq = [0] * self.n_threads
        redistributed: list[tuple[int, int]] = []
        stall_seconds_total = 0.0
        watchdog_stop = threading.Event()
        use_watchdog = watchdog_timeout is not None and self.watchdog_enabled
        # Wall-clock tail instruments; real_* names are declared
        # wall-clock in repro.obs.merge so fleet diffs ignore them. Fed
        # under ranges_lock: the instruments are not thread-safe.
        track = obs.enabled
        if track:
            reg = obs.registry
            real_compute = reg.digest("real_chunk_compute_seconds", loop=loop_name)
            real_dispatch = reg.digest(
                "real_dispatch_overhead_seconds", loop=loop_name
            )
            real_sizes = reg.digest("real_chunk_size_iters", loop=loop_name)
            real_rate = reg.timeseries("real_worker_rate", loop=loop_name)
        # Worker-lifetime spans (wall-clock seconds since loop start);
        # collected per tid and recorded after the join, so the recorder
        # is only touched from this thread.
        srec = getattr(obs, "spans", None)
        lifetimes: list[list[float]] = [[0.0, 0.0] for _ in range(self.n_threads)]

        t0 = time.perf_counter()

        def worker(tid: int) -> None:
            nonlocal stall_seconds_total
            lifetimes[tid][0] = time.perf_counter() - t0
            try:
                while True:
                    if errors:
                        return
                    t_disp = time.perf_counter()
                    with lock:
                        got = scheduler.next_range(tid, time.perf_counter())
                    if check is not None:
                        # Serialize the append so event seq numbers stay
                        # unique (list.append alone is safe, the seq
                        # derivation inside on_dispatch is not).
                        with ranges_lock:
                            check.on_dispatch(tid, time.perf_counter(), got)
                    if got is None:
                        return
                    lo, hi = got
                    now = time.perf_counter()
                    with ranges_lock:
                        block_seq[tid] += 1
                        current[tid] = (lo, hi, now, block_seq[tid])
                        if track:
                            real_dispatch.observe(now - t_disp)
                    stall = 0.0
                    queue = pending_stalls.get(tid)
                    while queue and now - t0 >= queue[0][0]:
                        stall += queue.pop(0)[1]
                    if stall > 0.0:
                        if dec is not None and dec.on:
                            with lock:
                                dec.emit(
                                    tid, now - t0, "stall_injected",
                                    seconds=stall, range=[lo, hi],
                                )
                        with ranges_lock:
                            stall_seconds_total += stall
                        time.sleep(stall)
                    body(tid, lo, hi)
                    t_done = time.perf_counter()
                    iterations[tid] += hi - lo
                    with ranges_lock:
                        current[tid] = None
                        ranges.append((tid, lo, hi))
                        if track:
                            compute_dt = t_done - now - stall
                            real_compute.observe(max(0.0, compute_dt))
                            real_sizes.observe(hi - lo)
                            if compute_dt > 0.0:
                                real_rate.observe(
                                    now - t0, (hi - lo) / compute_dt
                                )
            except BaseException as exc:  # noqa: BLE001 - propagate to caller
                errors.append(exc)
            finally:
                lifetimes[tid][1] = time.perf_counter() - t0

        def watchdog() -> None:
            seen: set[tuple[int, int]] = set()
            while not watchdog_stop.wait(watchdog_timeout / 4.0):
                now = time.perf_counter()
                with ranges_lock:
                    snapshot = list(current)
                for tid, blk in enumerate(snapshot):
                    if blk is None:
                        continue
                    lo, hi, started, bid = blk
                    if now - started <= watchdog_timeout:
                        continue
                    if (tid, bid) in seen:
                        continue
                    seen.add((tid, bid))
                    with lock:
                        scheduler.reclaim(tid, lo, hi)
                        if dec is not None and dec.on:
                            dec.emit(
                                tid, now - t0, "watchdog_redistribute",
                                range=[lo, hi], stalled_for=now - started,
                                timeout=watchdog_timeout,
                            )
                    with ranges_lock:
                        redistributed.append((lo, hi))

        threads = [
            threading.Thread(
                target=worker,
                args=(tid,),
                name=f"omp-worker-{tid}",
                daemon=use_watchdog,
            )
            for tid in range(self.n_threads)
        ]
        monitor = None
        if use_watchdog:
            monitor = threading.Thread(
                target=watchdog, name="omp-watchdog", daemon=True
            )
            monitor.start()
        for t in threads:
            t.start()
        join_timeout = (
            None if watchdog_timeout is None
            else max(5.0, watchdog_timeout * 200.0)
        )
        hung: list[threading.Thread] = []
        for t in threads:
            t.join(join_timeout)
            if t.is_alive():
                hung.append(t)
        if monitor is not None:
            watchdog_stop.set()
            monitor.join(5.0)
        wall = time.perf_counter() - t0
        if srec is not None:
            for tid in range(self.n_threads):
                start, end = lifetimes[tid]
                srec.record_worker(
                    tid, start, max(start, end), loop=loop_name
                )

        if errors:
            raise errors[0]
        self._check_completion(
            n_iterations, spec, iterations, ranges, redistributed, hung
        )
        if obs.enabled:
            reg = obs.registry
            if redistributed:
                reg.counter(
                    "fault_watchdog_redistributes_total", loop=loop_name
                ).inc(len(redistributed))
            if stall_seconds_total > 0.0:
                reg.counter(
                    "fault_stall_seconds_total", loop=loop_name
                ).inc(stall_seconds_total)
        stats = RealLoopStats(
            n_iterations=n_iterations,
            iterations_per_thread=iterations,
            dispatches=ctx.workshare.dispatch_count,
            wall_time=wall,
            ranges=ranges,
            redistributed=list(redistributed),
        )
        if check is not None:
            check.on_loop_end(stats)
        return stats

    def _check_completion(
        self,
        n_iterations: int,
        spec: ScheduleSpec,
        iterations: list[int],
        ranges: list[tuple[int, int, int]],
        redistributed: list[tuple[int, int]],
        hung: list[threading.Thread],
    ) -> None:
        """Validate that the loop ran to completion.

        Fault-free runs keep the strict exactly-once count. Once the
        watchdog redistributed anything, iterations inside redistributed
        ranges may legitimately run twice (stalled owner plus the worker
        that picked up the requeued tail), so the criterion weakens to
        coverage: everything executed at least once, duplicates only
        inside redistributed ranges.
        """
        if not redistributed and not hung:
            executed = sum(iterations)
            if executed != n_iterations:
                raise SchedulerError(
                    f"schedule {spec.name!r} executed {executed} of "
                    f"{n_iterations} iterations under real threads"
                )
            return
        cover = [0] * (n_iterations + 1)
        for _tid, lo, hi in ranges:
            cover[lo] += 1
            cover[hi] -= 1
        allowed = [0] * (n_iterations + 1)
        for lo, hi in redistributed:
            allowed[lo] += 1
            allowed[hi] -= 1
        depth = 0
        extra_ok = 0
        for i in range(n_iterations):
            depth += cover[i]
            extra_ok += allowed[i]
            if depth < 1:
                if hung:
                    raise WatchdogTimeout(
                        f"schedule {spec.name!r}: worker(s) "
                        f"{[t.name for t in hung]} hung and iteration {i} "
                        "was never executed"
                    )
                raise SchedulerError(
                    f"schedule {spec.name!r}: iteration {i} never executed "
                    "after watchdog redistribution"
                )
            if depth > 1 and extra_ok == 0:
                raise SchedulerError(
                    f"schedule {spec.name!r}: iteration {i} executed "
                    f"{depth} times outside any redistributed range"
                )


def parallel_map(
    func: Callable[[int], Any],
    n_items: int,
    spec: ScheduleSpec,
    n_threads: int = 4,
    platform: Platform | None = None,
) -> list[Any]:
    """Map ``func`` over ``range(n_items)`` under a schedule; returns the
    results in index order."""
    results: list[Any] = [None] * n_items
    team = ThreadTeam(n_threads, platform)

    def body(tid: int, lo: int, hi: int) -> None:
        for i in range(lo, hi):
            results[i] = func(i)

    team.parallel_for(n_items, body, spec)
    return results
