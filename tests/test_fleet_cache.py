"""Tests for the content-addressed fleet result cache."""

from repro.amp.presets import odroid_xu4
from repro.fleet import jobs as jobs_mod
from repro.fleet.cache import ResultCache
from repro.fleet.jobs import JobSpec
from repro.obs import Observability
from repro.runtime.env import OmpEnv
from repro.workloads.registry import get_program


def make_spec(seed=0):
    return JobSpec(
        program=get_program("EP"),
        platform=odroid_xu4(),
        env=OmpEnv(schedule="static", affinity="BS"),
        root_seed=seed,
    )


def test_miss_then_put_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    assert cache.get(spec.key) is None
    result = spec.execute()
    path = cache.put(result)
    assert path.is_file() and path.parent.parent == tmp_path
    assert cache.get(spec.key) == result
    assert len(cache) == 1


def test_different_seed_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(make_spec(seed=0).execute())
    assert cache.get(make_spec(seed=1).key) is None


def test_corrupt_entry_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    cache.put(spec.execute())
    cache.path_for(spec.key).write_text("{not json", encoding="utf-8")
    assert cache.get(spec.key) is None


def test_corrupt_entry_is_quarantined_and_counted(tmp_path):
    obs = Observability()
    cache = ResultCache(tmp_path, obs=obs)
    spec = make_spec()
    result = spec.execute()
    cache.put(result)
    path = cache.path_for(spec.key)
    path.write_text("{truncated garbage", encoding="utf-8")
    assert cache.get(spec.key) is None
    # The bad bytes moved aside for inspection; the slot is free.
    corrupt = path.with_name(path.name + ".corrupt")
    assert corrupt.is_file()
    assert corrupt.read_text(encoding="utf-8") == "{truncated garbage"
    assert not path.exists()
    counter = obs.registry.counter(
        "fleet_cache_corrupt_total", reason="json"
    )
    assert counter.value == 1
    # A second read of the same digest is a plain miss, not a re-count.
    assert cache.get(spec.key) is None
    assert counter.value == 1
    # The recompute-and-overwrite path works on the freed slot.
    cache.put(result)
    assert cache.get(spec.key) == result


def test_entry_under_the_wrong_digest_is_quarantined(tmp_path):
    cache = ResultCache(tmp_path, obs=Observability())
    spec_a, spec_b = make_spec(seed=0), make_spec(seed=1)
    good = cache.path_for(spec_a.key)
    cache.put(spec_a.execute())
    # Plant spec A's (internally valid) entry at spec B's path.
    wrong = cache.path_for(spec_b.key)
    wrong.parent.mkdir(parents=True, exist_ok=True)
    wrong.write_text(good.read_text(encoding="utf-8"), encoding="utf-8")
    assert cache.get(spec_b.key) is None
    assert wrong.with_name(wrong.name + ".corrupt").is_file()
    assert cache.obs.registry.counter(
        "fleet_cache_corrupt_total", reason="digest"
    ).value == 1
    # The legitimate entry is untouched.
    assert cache.get(spec_a.key) is not None


def test_stale_salt_misses_without_quarantine(tmp_path, monkeypatch):
    obs = Observability()
    cache = ResultCache(tmp_path, obs=obs)
    spec = make_spec()
    cache.put(spec.execute())
    path = cache.path_for(spec.key)
    monkeypatch.setattr("repro.fleet.cache.CODE_SALT", "v999/other-schema")
    # A version bump is staleness, not corruption: the entry stays put.
    assert cache.get(spec.key) is None
    assert path.is_file()
    assert not path.with_name(path.name + ".corrupt").exists()
    assert not [
        c for c in obs.registry.snapshot()["counters"]
        if c["name"] == "fleet_cache_corrupt_total"
    ]


def test_clear_removes_quarantined_files(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    cache.put(spec.execute())
    cache.path_for(spec.key).write_text("garbage", encoding="utf-8")
    assert cache.get(spec.key) is None
    assert list(tmp_path.rglob("*.corrupt"))
    cache.put(spec.execute())
    assert cache.clear() == 1
    assert not list(tmp_path.rglob("*.corrupt"))


def test_salt_change_invalidates(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    cache.put(spec.execute())
    assert cache.get(spec.key) is not None
    # A new code version changes every digest: old entries never hit.
    monkeypatch.setattr(jobs_mod, "CODE_SALT", "v999/other-schema")
    new_digest = spec.digest()
    assert new_digest != spec.key
    assert cache.get(new_digest) is None
    # Defense in depth: even asking for the *old* digest misses, because
    # the stored salt no longer matches the running code's salt.
    monkeypatch.setattr("repro.fleet.cache.CODE_SALT", "v999/other-schema")
    assert cache.get(spec.key) is None


def test_env_var_selects_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("FLEET_CACHE_DIR", str(tmp_path / "env-cache"))
    cache = ResultCache()
    spec = make_spec()
    cache.put(spec.execute())
    assert (tmp_path / "env-cache").is_dir()
    assert ResultCache().get(spec.key) is not None


def test_duration_estimates_feed_lpt(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    assert cache.duration_estimate(spec) is None
    cache.note_duration(spec, 2.0)
    assert cache.duration_estimate(spec) == 2.0
    cache.note_duration(spec, 1.0)  # EWMA, not last-write-wins
    assert cache.duration_estimate(spec) == 1.5
    # Seeds share a duration profile (same program/schedule/platform).
    assert cache.duration_estimate(make_spec(seed=9)) == 1.5
    # And a fresh cache object reads it back from disk once flushed.
    cache.flush()
    assert ResultCache(tmp_path).duration_estimate(spec) == 1.5


def test_atomic_writes_leave_no_temp_files(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(make_spec().execute())
    assert not list(tmp_path.rglob("*.tmp"))


def test_clear(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    cache.put(spec.execute())
    cache.note_duration(spec, 1.0)
    assert cache.clear() == 1
    assert len(cache) == 0
    assert cache.get(spec.key) is None
    assert cache.duration_estimate(spec) is None


# -- backend identity in the digest -------------------------------------------


def test_backend_is_part_of_the_digest(tmp_path):
    # Results computed under one execution backend must never satisfy a
    # lookup for another: the backend name is in the job payload, so the
    # digests are disjoint.
    ref = make_spec()
    vec = JobSpec(
        program=get_program("EP"),
        platform=odroid_xu4(),
        env=OmpEnv(schedule="static", affinity="BS"),
        root_seed=0,
        backend="vectorized",
    )
    assert ref.payload()["backend"] == "reference"
    assert vec.payload()["backend"] == "vectorized"
    assert ref.key != vec.key

    cache = ResultCache(tmp_path)
    cache.put(ref.execute())
    assert cache.get(ref.key) is not None
    assert cache.get(vec.key) is None


def test_env_selected_backend_pins_into_the_digest(tmp_path, monkeypatch):
    # JobSpec resolves the environment override at construction time, so
    # a spec built under REPRO_BACKEND=vectorized carries (and hashes)
    # the concrete name — shipping it to a fleet worker with a different
    # environment cannot change what it means.
    from repro.backends import ENV_VAR

    monkeypatch.delenv(ENV_VAR, raising=False)
    explicit = JobSpec(
        program=get_program("EP"),
        platform=odroid_xu4(),
        env=OmpEnv(schedule="static", affinity="BS"),
        root_seed=0,
        backend="vectorized",
    )
    monkeypatch.setenv(ENV_VAR, "vectorized")
    ambient = make_spec()
    assert ambient.backend == "vectorized"
    assert ambient.key == explicit.key


def test_warm_cache_is_backend_local(tmp_path):
    # A grid warmed under the reference backend replays from cache only
    # for reference reruns; switching to vectorized recomputes every
    # cell (and, the simulator being byte-identical, lands on the same
    # numbers).
    from repro.experiments.harness import ScheduleConfig, run_grid
    from repro.fleet.progress import FleetProgress
    from repro.workloads.registry import all_programs

    program = all_programs()[:1]
    configs = (
        ScheduleConfig("static(SB)", OmpEnv(schedule="static", affinity="SB")),
        ScheduleConfig("AID-dyn", OmpEnv(schedule="aid_dynamic,1,5")),
    )

    def grid(backend):
        progress = FleetProgress()
        result = run_grid(
            odroid_xu4(), program, configs, jobs=2, cache=tmp_path,
            progress=progress, backend=backend,
        )
        return result, progress.summary()

    cold, s_cold = grid("reference")
    assert s_cold["jobs_computed"] == s_cold["jobs_submitted"] == 2

    warm, s_warm = grid("reference")
    assert s_warm["cache_hits"] == 2 and s_warm["jobs_computed"] == 0

    vec, s_vec = grid("vectorized")
    assert s_vec["cache_hits"] == 0
    assert s_vec["jobs_computed"] == 2
    assert vec.times == cold.times == warm.times
