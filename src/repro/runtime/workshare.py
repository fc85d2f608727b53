"""The work-share structure: libgomp's shared iteration pool.

For each parallel loop libgomp keeps a ``work_share`` structure whose
``next`` field is the first unassigned iteration and whose ``end`` field
is one past the last iteration. Threads steal chunks by atomically
incrementing ``next`` with fetch-and-add and clamping the result against
``end`` (paper Sec. 4.2). :class:`WorkShare` reproduces exactly that,
plus a dispatch counter used for overhead accounting in experiments.
"""

from __future__ import annotations

from collections import deque

from repro.errors import WorkShareError
from repro.runtime.atomics import AtomicCounter


class WorkShare:
    """Shared iteration pool for one parallel-loop execution.

    Iterations are the half-open range ``[start, end)``.

    Args:
        start: first iteration index.
        end: one past the last iteration index.
        check: optional conformance recorder (a
            :class:`repro.check.recording.CheckContext`); when set, every
            fetch-and-add on ``next`` is reported with its pre-add value
            and clamped result, so the schedule-conformance oracle sees
            the pool's ground truth instead of reconstructed state.
    """

    def __init__(
        self,
        start: int,
        end: int,
        check=None,
    ) -> None:
        if end < start:
            raise WorkShareError(f"invalid iteration range [{start}, {end})")
        self.start = int(start)
        self.end = int(end)
        self._next = AtomicCounter(start)
        self._dispatches = AtomicCounter(0)
        # Empty-handed takes are counted separately (cold branch: once
        # per thread per loop) so the successful-take hot path pays no
        # extra atomic; attempt_count derives from the two.
        self._empty_takes = AtomicCounter(0)
        # Ranges returned to the pool by fault recovery (preempted or
        # watchdog-redistributed chunks). Served before the fetch-and-add
        # pointer so returned work drains first; empty on every
        # fault-free run, so the hot path is a single falsy check.
        self._returned: deque[tuple[int, int]] = deque()
        self._check = check

    # -- pool state --------------------------------------------------------

    @property
    def n_iterations(self) -> int:
        """Total iterations in the loop."""
        return self.end - self.start

    @property
    def remaining(self) -> int:
        """Iterations still in the pool (advisory read, like reading
        ``next``/``end`` in libgomp; exact inside a scheduler call).
        Includes iterations returned to the pool by fault recovery."""
        left = self.end - self._next._value
        if left < 0:
            left = 0
        return left + self.requeued_pending if self._returned else left

    @property
    def requeued_pending(self) -> int:
        """Iterations sitting in the returned-range queue (advisory)."""
        return sum(hi - lo for lo, hi in self._returned)

    @property
    def exhausted(self) -> bool:
        return self._next.value >= self.end and not self._returned

    @property
    def dispatch_count(self) -> int:
        """Number of successful pool removals so far."""
        return self._dispatches.value

    @property
    def attempt_count(self) -> int:
        """Fetch-and-add executions on ``next``, including the final
        empty-handed ones (the quantity the overhead model serializes on
        the work-share cache line; exported as
        ``workshare_take_attempts_total``)."""
        return self._dispatches.value + self._empty_takes.value

    @property
    def empty_take_count(self) -> int:
        """Fetch-and-adds that found the pool already drained."""
        return self._empty_takes.value

    # -- removal -----------------------------------------------------------

    def take(self, n: int) -> tuple[int, int] | None:
        """Atomically remove up to ``n`` iterations from the pool.

        This is ``gomp_iter_dynamic_next``'s core: fetch-and-add on
        ``next`` then clamp against ``end``.

        Returns:
            The removed half-open range ``(lo, hi)``, or ``None`` when the
            pool was already empty. The range may be shorter than ``n`` if
            fewer iterations remained.
        """
        if n <= 0:
            raise WorkShareError(f"chunk size must be positive, got {n}")
        if self._returned:
            lo, hi = self._returned.popleft()
            if hi - lo > n:
                self._returned.appendleft((lo + n, hi))
                hi = lo + n
            self._dispatches.add_fetch(1)
            if self._check is not None:
                self._check.on_take(n, lo, (lo, hi), requeued=True)
            return (lo, hi)
        # The fetch-and-add pair, inlined: this is the hottest call site
        # of the whole dynamic-schedule hot loop.
        n = int(n)
        nxt = self._next
        lo = nxt._value
        nxt._value = lo + n
        if lo >= self.end:
            self._empty_takes._value += 1
            if self._check is not None:
                self._check.on_take(n, lo, None)
            return None
        hi = lo + n
        if hi > self.end:
            hi = self.end
        self._dispatches._value += 1
        if self._check is not None:
            self._check.on_take(n, lo, (lo, hi))
        return (lo, hi)

    def take_all(self) -> tuple[int, int] | None:
        """Remove everything left in the pool (used by endgame paths).

        With returned ranges pending this serves the oldest of them
        first (a single contiguous range is all a caller can receive);
        policies that depend on ``take_all`` draining the pool in one
        shot override :meth:`repro.sched.base.LoopScheduler.reclaim`
        instead of requeueing here.
        """
        size = self.end - self.start
        return self.take(size) if size > 0 else None

    # -- fault recovery ----------------------------------------------------

    def requeue(self, lo: int, hi: int) -> None:
        """Return the half-open range ``[lo, hi)`` to the pool.

        Used by fault recovery when a chunk's owner is preempted (core
        offlined, throttle-triggered preemption) or declared stalled by
        the real-execution watchdog. The range must lie inside the
        loop's iteration space; it is handed back out by :meth:`take`
        before any fresh fetch-and-add work.
        """
        lo, hi = int(lo), int(hi)
        if not (self.start <= lo < hi <= self.end):
            raise WorkShareError(
                f"cannot requeue [{lo}, {hi}) into pool [{self.start}, {self.end})"
            )
        self._returned.append((lo, hi))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkShare([{self.start}, {self.end}), "
            f"next={self._next.value}, dispatches={self.dispatch_count})"
        )
