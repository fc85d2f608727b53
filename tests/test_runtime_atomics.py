"""Unit tests for the atomic primitives and the work-share pool built on
them. Scheduler calls never overlap on either backend, so these are
single-threaded; the pool-partition property under real threads is
checked end to end by ``test_exec_real.py`` and ``test_exec_real_fuzz.py``.
"""

import pytest

from repro.check.mutants import apply_mutant
from repro.check.recording import CheckContext
from repro.runtime.atomics import AtomicCounter, AtomicFloat
from repro.runtime.workshare import WorkShare


class TestAtomicCounter:
    def test_fetch_add_returns_old_value(self):
        c = AtomicCounter(10)
        assert c.fetch_add(5) == 10
        assert c.value == 15

    def test_add_fetch_returns_new_value(self):
        c = AtomicCounter(10)
        assert c.add_fetch(5) == 15

    def test_negative_delta(self):
        c = AtomicCounter(10)
        c.fetch_add(-3)
        assert c.value == 7

    def test_store(self):
        c = AtomicCounter()
        c.store(42)
        assert c.value == 42


class TestAtomicFloat:
    def test_add_returns_new_value(self):
        f = AtomicFloat(1.5)
        assert f.add(0.5) == 2.0
        assert f.value == 2.0

    def test_store(self):
        f = AtomicFloat()
        f.store(3.25)
        assert f.value == 3.25


class TestFetchAddProperties:
    """Randomized fetch-and-add properties, seeded via the rng fixture.

    The properties are the work-share half of the conformance oracle:
    chunks removed by concurrent fetch-and-add never overlap, never
    run past ``end``, and together cover the pool exactly once.
    """

    @pytest.mark.parametrize("case", range(8))
    def test_interleaved_takes_partition_the_pool(self, rng, case):
        end = int(rng.integers(1, 200))
        ws = WorkShare(0, end)
        grants = []
        while True:
            got = ws.take(int(rng.integers(1, 8)))
            if got is None:
                break
            grants.append(got)
        self._assert_partition(grants, end)

    @staticmethod
    def _assert_partition(grants, end):
        seen = [0] * end
        for lo, hi in grants:
            assert 0 <= lo < hi <= end, f"grant [{lo}, {hi}) outside [0, {end})"
            for i in range(lo, hi):
                seen[i] += 1
        assert all(c == 1 for c in seen), (
            f"pool not partitioned exactly once: counts {sorted(set(seen))}"
        )

    @pytest.mark.parametrize(
        "mutant", ["aid-dynamic-chunk-decrement", "workshare-no-clamp"]
    )
    def test_properties_catch_planted_bugs(self, rng, mutant):
        """The same properties must fail under each planted pool bug —
        otherwise they are not actually constraining the semantics."""
        broken = False
        with apply_mutant(mutant):
            for _ in range(20):
                end = int(rng.integers(5, 60))
                ws = WorkShare(0, end)
                grants = []
                while True:
                    got = ws.take(int(rng.integers(2, 6)))
                    if got is None:
                        break
                    grants.append(got)
                try:
                    self._assert_partition(grants, end)
                except AssertionError:
                    broken = True
                    break
        assert broken, f"mutant {mutant} never violated the partition property"

    def test_take_reports_ground_truth_to_check_context(self, rng):
        end = int(rng.integers(10, 100))
        check = CheckContext()
        ws = WorkShare(0, end, check=check)
        while ws.take(int(rng.integers(1, 5))) is not None:
            pass
        granted = [ev.granted for ev in check.takes if ev.granted is not None]
        assert granted, "no takes recorded"
        assert granted[-1][1] == end
        # the recorded pre-add pointers replay the exact serialization
        assert [ev.before for ev in check.takes[:-1]] == sorted(
            ev.before for ev in check.takes[:-1]
        )
