"""Pluggable execution backends for runtime-scheduled loops.

Public surface:

* :class:`ExecutionBackend` — the protocol.
* :func:`register_backend`, :func:`backend_names`,
  :func:`resolve_backend_name`, :func:`create_backend`,
  :func:`resolve_backend` — the registry and selection rules
  (explicit name > ``$REPRO_BACKEND`` > ``reference``).
* :class:`LoopRunRequest` — the argument bundle every backend consumes.
* The three built-in backends: :class:`ReferenceBackend` and
  :class:`VectorizedBackend`, the slot engine with its closed-form pool
  drain off and on (byte-identical decision logs either way), and
  :class:`RealBackend` (actual threads via :mod:`repro.exec_real`).
"""

from repro.backends.common import LoopRunRequest
from repro.backends.core import (
    DEFAULT_BACKEND,
    ENV_VAR,
    ExecutionBackend,
    backend_names,
    create_backend,
    register_backend,
    resolve_backend,
    resolve_backend_name,
)
from repro.backends.real import RealBackend
from repro.backends.reference import ReferenceBackend
from repro.backends.vectorized import VectorizedBackend

register_backend(ReferenceBackend.name, ReferenceBackend)
register_backend(VectorizedBackend.name, VectorizedBackend)
register_backend(RealBackend.name, RealBackend)

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "ExecutionBackend",
    "LoopRunRequest",
    "RealBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "backend_names",
    "create_backend",
    "register_backend",
    "resolve_backend",
    "resolve_backend_name",
]
