"""The execution-backend protocol and its registry.

An :class:`ExecutionBackend` is the engine that actually plays out one
runtime-scheduled parallel loop for a
:class:`~repro.runtime.executor.LoopExecutor`. The executor owns the
*what* (team, cost vector, schedule spec, models); the backend owns the
*how* (the event-driven slot engine, with or without its closed-form
pool drain, or real threads). All backends consume the same
:class:`~repro.backends.common.LoopRunRequest` and return the same
:class:`~repro.runtime.executor.LoopResult`, so everything above the
executor — program runner, fleet, experiments — is backend-agnostic.

Three implementations register themselves here:

* ``reference`` — the slot engine of :mod:`repro.backends.vectorized`
  with its pool drain off: every event, fault-plan firings included, is
  stepped one at a time. The semantics every other backend is measured
  against.
* ``vectorized`` — the same engine with the drain on, advancing pure
  fixed-chunk pool drains in closed form. Decision logs,
  :class:`~repro.runtime.executor.LoopResult` fields and observability
  output are byte-identical to ``reference``.
* ``real`` — wraps :mod:`repro.exec_real`: the loop runs on actual
  Python threads in wall-clock time (non-deterministic; cross-validation
  only).

Selection precedence: an explicit name (CLI flag, constructor argument,
:class:`~repro.fleet.jobs.JobSpec` field) beats the ``REPRO_BACKEND``
environment variable, which beats the default ``reference``. Invalid
names raise :class:`~repro.errors.BackendError` listing the registry.
"""

from __future__ import annotations

import abc
import os
from typing import TYPE_CHECKING, Callable

from repro.errors import BackendError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.common import LoopRunRequest
    from repro.runtime.executor import LoopExecutor, LoopResult

#: Environment variable consulted when no backend is named explicitly.
ENV_VAR = "REPRO_BACKEND"

#: The backend used when neither an explicit name nor the environment
#: selects one.
DEFAULT_BACKEND = "reference"


class ExecutionBackend(abc.ABC):
    """One engine for playing out runtime-scheduled parallel loops.

    Lifecycle: the executor instantiates its backend through
    :func:`resolve_backend` and calls :meth:`prepare` once before the
    first loop; :meth:`close` releases whatever :meth:`prepare`
    acquired. Both default to no-ops — the simulator backends are
    stateless between loops.
    """

    #: Registry key; subclasses override.
    name: str = "?"

    def prepare(self, executor: "LoopExecutor") -> None:
        """One-time binding to an executor (thread pools, caches)."""

    def close(self) -> None:
        """Release resources acquired in :meth:`prepare`."""

    @abc.abstractmethod
    def run_scheduled(
        self, executor: "LoopExecutor", req: "LoopRunRequest"
    ) -> "LoopResult":
        """Execute one runtime-scheduled loop and return its result."""


_REGISTRY: dict[str, Callable[[], ExecutionBackend]] = {}


def register_backend(
    name: str, factory: Callable[[], ExecutionBackend]
) -> None:
    """Register a backend factory under ``name`` (last wins)."""
    _REGISTRY[name] = factory


def backend_names() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_backend_name(explicit: str | None = None) -> str:
    """The effective backend name: explicit > ``$REPRO_BACKEND`` > default.

    Raises :class:`~repro.errors.BackendError` for names outside the
    registry — including an invalid environment override, so a typo'd
    ``REPRO_BACKEND`` fails loudly instead of silently running the
    default.
    """
    source = "backend"
    name = explicit
    if name is None:
        env = os.environ.get(ENV_VAR)
        if env:
            name, source = env, f"{ENV_VAR} environment variable"
    if name is None:
        return DEFAULT_BACKEND
    if name not in _REGISTRY:
        raise BackendError(
            f"unknown execution backend {name!r} (from {source}); "
            f"registered backends: {', '.join(backend_names())}"
        )
    return name


def create_backend(name: str) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown execution backend {name!r}; "
            f"registered backends: {', '.join(backend_names())}"
        ) from None
    return factory()


def resolve_backend(
    selector: "str | ExecutionBackend | None" = None,
) -> ExecutionBackend:
    """Resolve a constructor argument into a live backend instance.

    Accepts an already-built :class:`ExecutionBackend` (returned as-is),
    a registered name, or ``None`` (environment override, then the
    default).
    """
    if isinstance(selector, ExecutionBackend):
        return selector
    return create_backend(resolve_backend_name(selector))
