"""Tests for the fleet job model: digests, execution, result payloads."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amp.presets import dual_speed_platform, odroid_xu4
from repro.errors import FleetError
from repro.experiments.harness import ScheduleConfig, run_one
from repro.fleet import jobs as jobs_mod
from repro.fleet.jobs import JobResult, JobSpec, canonical
from repro.runtime.env import OmpEnv
from repro.workloads.registry import get_program


def spec_for(
    program="EP",
    schedule="aid_static",
    affinity="BS",
    seed=0,
    label="",
    platform=None,
    **kwargs,
):
    return JobSpec(
        program=get_program(program),
        platform=platform if platform is not None else odroid_xu4(),
        env=OmpEnv(schedule=schedule, affinity=affinity),
        root_seed=seed,
        label=label,
        **kwargs,
    )


# -- digests ---------------------------------------------------------------


def test_equal_specs_equal_digests():
    assert spec_for().digest() == spec_for().digest()


def test_digest_ignores_label():
    assert spec_for(label="a").digest() == spec_for(label="b").digest()


@pytest.mark.parametrize(
    "variant",
    [
        dict(program="IS"),
        dict(schedule="dynamic,1"),
        dict(affinity="SB"),
        dict(seed=7),
        dict(capture_sf_loop="ep.main"),
        dict(use_offline_sf=True),
        dict(platform=dual_speed_platform(2, 2)),
    ],
)
def test_digest_sensitive_to_identity_fields(variant):
    assert spec_for(**variant).digest() != spec_for().digest()


def test_digest_changes_with_salt():
    base = spec_for()
    assert base.digest() != base.digest(salt="other-version")
    assert base.digest() == base.digest(salt=jobs_mod.CODE_SALT)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    label=st.text(max_size=12),
)
def test_digest_property_label_free_seed_keyed(seed, label):
    """Property: the digest is a function of the seed, never the label."""
    a = spec_for(seed=seed, label=label)
    b = spec_for(seed=seed, label="")
    assert a.digest() == b.digest()
    assert len(a.digest()) == 64
    if seed != 0:
        assert a.digest() != spec_for(seed=0).digest()


def test_canonical_rejects_unknown_types():
    with pytest.raises(FleetError):
        canonical(object())


def test_canonical_is_json_stable():
    payload = spec_for().payload()
    a = json.dumps(payload, sort_keys=True)
    b = json.dumps(spec_for().payload(), sort_keys=True)
    assert a == b


# -- spec validation -------------------------------------------------------


def test_offline_sf_requires_aid_static():
    with pytest.raises(FleetError):
        spec_for(schedule="dynamic,1", use_offline_sf=True)


# -- execution -------------------------------------------------------------


def test_execute_matches_run_one():
    spec = spec_for(schedule="aid_hybrid,80")
    direct = run_one(
        odroid_xu4(),
        get_program("EP"),
        ScheduleConfig("x", OmpEnv(schedule="aid_hybrid,80", affinity="BS")),
    )
    result = spec.execute()
    assert result.completion_time == direct.completion_time
    assert result.serial_time == direct.serial_time
    assert result.total_dispatches == direct.total_dispatches
    assert result.digest == spec.key
    assert result.duration > 0


def test_execute_captures_sf_series():
    spec = spec_for(program="blackscholes", capture_sf_loop="bs.price")
    result = spec.execute()
    series = result.sf_series_dicts()
    assert series, "blackscholes aid_static must publish SF estimates"
    assert all(isinstance(sf, dict) and 1 in sf for sf in series)


# -- result payload round-trip --------------------------------------------


def test_job_result_round_trips_through_json():
    result = spec_for(program="blackscholes", capture_sf_loop="bs.price").execute()
    doc = json.loads(json.dumps(result.to_payload(), sort_keys=True))
    back = JobResult.from_payload(doc)
    assert back == result
    # obs_json participates in equality, so the capture round-trips too.
    assert back.obs_json == result.obs_json


def test_execute_captures_worker_side_observability():
    from repro.obs.merge import JOB_SCHEMA

    result = spec_for(schedule="aid_hybrid,80").execute()
    snap = result.obs_snapshot()
    assert snap is not None and snap["schema"] == JOB_SCHEMA
    names = {c["name"] for c in snap["metrics"]["counters"]}
    assert "dispatches_total" in names
    assert "runtime_overhead_seconds_total" in names
    # AID schedulers decide; the digest travels, the raw records do not.
    assert snap["decisions"]["total"] > 0
    assert "aid_hybrid" in snap["decisions"]["schedulers"]


def test_obs_capture_is_deterministic_across_executions():
    a = spec_for(schedule="aid_static").execute()
    b = spec_for(schedule="aid_static").execute()
    assert a.obs_json == b.obs_json  # canonical string equality


def test_payload_carries_obs_json_verbatim_and_checksummed():
    result = spec_for().execute()
    doc = result.to_payload()
    # Verbatim: the worker's text, never decoded and re-encoded.
    assert doc["obs_json"] == result.obs_json
    assert doc["obs_sha256"] == hashlib.sha256(
        result.obs_json.encode("utf-8")
    ).hexdigest()
    assert JobResult.from_payload(json.loads(json.dumps(doc))) == result
    # One changed character in the opaque text fails the checksum.
    text = doc["obs_json"]
    i = next(k for k, c in enumerate(text) if c.isdigit())
    doc["obs_json"] = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    with pytest.raises(FleetError, match="obs_sha256"):
        JobResult.from_payload(doc)


def test_job_result_rejects_malformed_payload():
    with pytest.raises(FleetError):
        JobResult.from_payload({"digest": "x"})
