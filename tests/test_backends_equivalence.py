"""The vectorized backend's byte-identity contract, plus the diff tools.

The acceptance property of the backend subsystem: for every schedule the
grids run — static, dynamic, guided and all five AID variants — the
vectorized engine produces the *same bytes* as the reference simulator:
equal :class:`LoopResult` fields and an equal canonical decision log.
The 200-case CI campaigns (``python -m repro.check backends``) cover the
random space; these tests pin the named configurations and the fallback
wiring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amp.presets import odroid_xu4, xeon_emulated
from repro.check.backend_diff import (
    DEFAULT_BACKENDS,
    decision_bytes,
    diff_case,
    diff_fuzz,
    result_key,
)
from repro.check.generators import FuzzCase, preset_platform, run_loop
from repro.faults.model import plan_from_tuples
from repro.obs import Observability
from repro.sched.registry import parse_schedule

#: Every schedule kind the experiment grids exercise, incl. all five AID
#: variants (the ISSUE's acceptance list).
ALL_SCHEDULES = (
    "static",
    "static,7",
    "dynamic,1",
    "dynamic,4",
    "guided,1",
    "aid_static",
    "aid_hybrid,80",
    "aid_dynamic,1,5",
    "aid_auto,1,5",
    "aid_steal,8",
)


def _run(backend, platform, schedule, ni, costs, rng_seed=None):
    obs = Observability()
    rng = (
        np.random.default_rng(rng_seed) if rng_seed is not None else None
    )
    result = run_loop(
        platform, parse_schedule(schedule), n_iterations=ni, costs=costs,
        obs=obs, rng=rng, backend=backend,
    )
    return result_key(result), decision_bytes(obs)


class TestByteIdentity:
    @pytest.mark.parametrize("schedule", ALL_SCHEDULES)
    def test_odroid_nonuniform_costs(self, schedule):
        rng = np.random.default_rng(42)
        ni = 197  # odd on purpose: uneven remainders everywhere
        costs = rng.lognormal(mean=np.log(1e-4), sigma=0.6, size=ni)
        ref = _run("reference", odroid_xu4(), schedule, ni, costs)
        vec = _run("vectorized", odroid_xu4(), schedule, ni, costs)
        assert ref == vec

    @pytest.mark.parametrize(
        "schedule", ["dynamic,1", "aid_dynamic,1,5", "aid_steal,8"]
    )
    def test_xeon_with_wake_jitter(self, schedule):
        # A wake-jitter RNG draws once per run in prepare_run; both
        # backends must consume the stream identically.
        costs = np.full(256, 1e-4)
        ref = _run(
            "reference", xeon_emulated(), schedule, 256, costs, rng_seed=7
        )
        vec = _run(
            "vectorized", xeon_emulated(), schedule, 256, costs, rng_seed=7
        )
        assert ref == vec

    @pytest.mark.parametrize("ni", [1, 2, 7, 8, 9])
    def test_tiny_trip_counts(self, ni):
        costs = np.full(ni, 1e-4)
        for schedule in ("dynamic,1", "aid_dynamic,1,5"):
            ref = _run("reference", odroid_xu4(), schedule, ni, costs)
            vec = _run("vectorized", odroid_xu4(), schedule, ni, costs)
            assert ref == vec, schedule


class TestFallbacks:
    def test_faulted_run_delegates_and_matches(self):
        platform = preset_platform("dual:2:2")
        costs = np.full(64, 1e-4)
        plan = plan_from_tuples((("throttle", 0, 0.001, 0.004, 0.25),))
        spec = parse_schedule("aid_dynamic,1,5")

        obs = Observability()
        vec = run_loop(
            platform, spec, n_iterations=64, costs=costs, faults=plan,
            obs=obs, backend="vectorized",
        )
        ref = run_loop(
            platform, spec, n_iterations=64, costs=costs, faults=plan,
            backend="reference",
        )
        assert result_key(vec) == result_key(ref)
        # The delegation is observable, not silent.
        assert obs.registry.value(
            "backend_fallbacks_total", backend="vectorized", reason="faults"
        ) == 1.0

    def test_empty_fault_plan_does_not_delegate(self):
        from repro.errors import ObsError

        platform = preset_platform("dual:2:2")
        obs = Observability()
        run_loop(
            platform, parse_schedule("dynamic,1"), n_iterations=32,
            faults=plan_from_tuples(()), obs=obs, backend="vectorized",
        )
        # The fallback counter is only minted when a fallback happens.
        with pytest.raises(ObsError, match="backend_fallbacks_total"):
            obs.registry.value(
                "backend_fallbacks_total",
                backend="vectorized", reason="faults",
            )

    def test_traced_run_stays_on_the_fast_engine(self):
        from repro.tracing.trace import TraceRecorder

        # dynamic,1 takes the drain, aid_hybrid the generic slot engine.
        for schedule in ("dynamic,1", "aid_hybrid,80"):
            traces = {}
            for backend in DEFAULT_BACKENDS:
                obs = Observability()
                trace = TraceRecorder()
                run_loop(
                    odroid_xu4(), parse_schedule(schedule), n_iterations=48,
                    costs=np.linspace(1e-4, 3e-4, 48), trace=trace, obs=obs,
                    backend=backend,
                )
                traces[backend] = trace.intervals
                counters = obs.registry.snapshot()["counters"]
                assert not [
                    c for c in counters
                    if c["name"] == "backend_fallbacks_total"
                ], (schedule, backend)
            assert traces["vectorized"] == traces["reference"], schedule
            assert traces["reference"]


class TestRealBackendSmoke:
    def test_real_threads_execute_every_iteration(self):
        # Wall-clock execution: non-deterministic timing, but the
        # iteration accounting must still be exact.
        result = run_loop(
            preset_platform("dual:1:1"), parse_schedule("dynamic,2"),
            n_iterations=24, work=1e-5, backend="real",
        )
        assert sum(result.iterations) == 24
        assert result.dispatches > 0


class TestDiffTools:
    def test_diff_case_clean(self):
        case = FuzzCase(
            seed=11, schedule="aid_hybrid,80", platform="odroid_xu4",
            n_iterations=120,
        )
        assert diff_case(case, DEFAULT_BACKENDS) is None

    def test_diff_case_detects_a_lying_backend(self, monkeypatch):
        # Sabotage: register a backend that reruns reference but then
        # doubles the reported dispatch count.
        from repro.backends import ReferenceBackend, register_backend
        from repro.backends.core import _REGISTRY

        class Liar(ReferenceBackend):
            name = "liar"

            def run_scheduled(self, executor, req):
                result = super().run_scheduled(executor, req)
                result.dispatches *= 2
                return result

        register_backend("liar", Liar)
        try:
            case = FuzzCase(
                seed=5, schedule="dynamic,1", platform="dual:2:2",
                n_iterations=40,
            )
            mismatch = diff_case(case, ("reference", "liar"))
            assert mismatch is not None
            assert mismatch.field_name == "dispatches"
        finally:
            _REGISTRY.pop("liar", None)

    def test_diff_fuzz_small_campaign_clean(self):
        result = diff_fuzz(12, seed=9)
        assert result.ok
        assert "byte-identical" in result.render()

    def test_diff_fuzz_faulted_campaign_clean(self):
        result = diff_fuzz(6, seed=13, faults="sim")
        assert result.ok
