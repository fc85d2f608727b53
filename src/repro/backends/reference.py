"""The reference backend: the slot engine with the pool drain off.

Every event — wake, dispatch, block completion, redispatch, fault-plan
firing — is stepped one at a time through
:func:`repro.backends.vectorized.slot_engine`, so the scheduler and the
real work-share structure see every call. This is the ground truth the
``vectorized`` backend (the same engine with the
:class:`~repro.sched.base.PoolAdvancement` drain on) is gated against by
the conformance oracle and the differential backend fuzzer
(``python -m repro.check backends``); the engine corpus under
``tests/golden/`` ties both to the outputs of the event-heap simulator
the slot engine replaced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.backends.common import LoopRunRequest
from repro.backends.core import ExecutionBackend
from repro.backends.vectorized import slot_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executor import LoopExecutor, LoopResult


class ReferenceBackend(ExecutionBackend):
    """The slot engine, one event per step, no pool drain."""

    name = "reference"

    def run_scheduled(
        self, executor: "LoopExecutor", req: LoopRunRequest
    ) -> "LoopResult":
        return slot_engine(executor, req, drain=False)
