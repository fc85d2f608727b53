"""Reproducible random streams for the simulated runtime.

Workload costs, wake jitter and measurement noise draw from
:class:`numpy.random.Generator` streams derived from stable string keys
(:func:`stable_seed`, :class:`RngStreams`), never from global state, so
equal seeds give bit-identical runs across processes. The event engine
that plays loops out in virtual time is the slot engine of
:mod:`repro.backends.vectorized`.
"""

from repro.sim.rng import RngStreams, stable_seed

__all__ = [
    "RngStreams",
    "stable_seed",
]
