"""Real-thread execution of the schedulers (functional correctness).

The scheduling policies in :mod:`repro.sched` are written against
abstract atomics and take no lock: the team here holds one lock around
every call into the scheduler, so the *same* state machines that run
one event at a time on the discrete-event simulator can drive genuine
``threading`` workers executing real Python/numpy code. This is the
analogue of running the patched libgomp on real cores — except that
CPython's GIL serializes bytecode execution, so *timing* is
unrepresentative (the calibration note for this reproduction). What
real threads do give us:

* functional validation under true concurrency — every iteration
  executed exactly once, no range overlap, schedulers race-free behind
  the team's lock;
* runnable examples computing real results (see ``examples/``).
"""

from repro.exec_real.team import RealLoopStats, ThreadTeam, parallel_map

__all__ = ["ThreadTeam", "RealLoopStats", "parallel_map"]
