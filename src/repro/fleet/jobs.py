"""The fleet's unit of work: one grid cell as a frozen, digestable job.

A :class:`JobSpec` captures everything that determines a simulated run's
outcome — program, platform, OMP environment, root seed, the
performance-model knobs and the execution backend — as picklable frozen
dataclasses, so the same
spec can execute in-process, in a worker process, or be skipped entirely
when the content-addressed cache already holds its result.

The digest is computed over a *canonical payload*: every constituent
dataclass is walked field-by-field into plain JSON types, serialized
with sorted keys and hashed with SHA-256. Two specs that would produce
the same simulation are therefore the same cache entry, regardless of
object identity, process, or construction order. A code-version salt
(:data:`CODE_SALT`) is mixed in so that bumping the package version or
the result schema invalidates every stale entry at once — the simulator
is deterministic *per code version*, not across refactors.

Display-only attributes (``label``) are deliberately excluded from the
digest: renaming a column must not recompute the grid.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from repro._version import __version__
from repro.amp.platform import Platform
from repro.errors import FleetError
from repro.obs.snapshot import canonical_json
from repro.perfmodel.contention import ContentionModel
from repro.perfmodel.overhead import OverheadModel
from repro.runtime.env import OmpEnv
from repro.workloads.program import Program

#: Result document format identifier (bump to invalidate cached results
#: whose *shape* changed even if the simulation did not).
#: v2: results carry the per-job observability snapshot (``obs_json``).
#: v3: the snapshot gained time-resolved instruments (timeseries and
#: quantile digests), so cached v2 entries lack the new data.
#: v4: span-tracing jobs attach the causal span trace to the per-job
#: snapshot (``JOB_SCHEMA`` v3), so cached v3 entries lack span trees.
#: v5: payloads carry the snapshot verbatim as the ``obs_json`` string
#: plus its ``obs_sha256`` checksum, not as an embedded ``obs`` document.
#: v6: every simulated backend publishes its snapshot through one
#: projection of the dispatch log, so ``reference`` series and digests
#: (and the last float bits of drain overhead sums) changed.
#: v7: snapshots drop four per-chunk instruments nothing read (the
#: worker-rate, pool-depth and chunk-size series and the chunk-size
#: histogram), so a cached v6 snapshot no longer matches a fresh run's.
RESULT_SCHEMA = "repro.fleet.result/v7"

#: Code-version salt mixed into every digest. Any release that changes
#: simulated numbers bumps ``__version__`` and thereby every digest.
CODE_SALT = f"{__version__}/{RESULT_SCHEMA}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(obj: object) -> object:
    """Reduce an object tree to canonical JSON-serializable form.

    Dataclasses become ``{"__type__": ClassName, field: ...}`` dicts
    (private fields skipped), mappings get stringified sorted keys, and
    numpy scalars collapse to their Python values. Anything else must
    already be a JSON scalar — unknown types raise
    :class:`~repro.errors.FleetError` rather than hashing an unstable
    ``repr``.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, object] = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            if f.name.startswith("_"):
                continue
            out[f.name] = canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, Mapping):
        return {
            str(k): canonical(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, np.generic):
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise FleetError(
        f"cannot canonicalize {type(obj).__name__!r} for a job digest"
    )


@dataclass(frozen=True)
class JobSpec:
    """One (program, platform, environment) cell, ready to run anywhere.

    Attributes:
        program: the benchmark program model.
        platform: the AMP to simulate.
        env: OMP environment (schedule, team size, affinity).
        root_seed: workload RNG seed.
        overhead: runtime-call cost model override (None = defaults).
        contention: LLC contention model override (None = defaults).
        use_offline_sf: run the AID-static(offline-SF) variant of Fig. 9
            — skip sampling, distribute by offline per-loop SF tables.
            Only valid with an ``aid_static`` schedule.
        capture_sf_loop: loop name whose per-invocation estimated-SF
            series the result should carry (Fig. 9c needs this for
            ``bs.price``); None captures nothing.
        backend: execution-backend name (``"reference"``,
            ``"vectorized"``, ``"real"``). ``None`` is resolved at
            construction — environment override, then the default — so
            the frozen spec always carries a concrete name: the job
            executes identically wherever it lands (worker processes do
            not consult ``REPRO_BACKEND``), and the digest incorporates
            the backend identity, so results computed under different
            backends never collide in the cache.
        trace_context: when set, the job runs with a causal span
            recorder (:class:`repro.obs.spans.SpanRecorder`) under this
            context label and the canonical span trace rides home inside
            the result's observability snapshot. Part of the digest —
            span-bearing results have a different shape than span-free
            ones, so they must not collide in the cache — but the spans
            themselves are deterministic, so jobs=1 / jobs=N / warm
            cache replays carry byte-identical traces. ``None`` (the
            default) records no spans and leaves results byte-unchanged.
        label: display label for reports and event logs. Excluded from
            the digest: renaming a grid column must stay a cache hit.
    """

    program: Program
    platform: Platform
    env: OmpEnv
    root_seed: int = 0
    overhead: OverheadModel | None = None
    contention: ContentionModel | None = None
    use_offline_sf: bool = False
    capture_sf_loop: str | None = None
    backend: str | None = None
    trace_context: str | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.use_offline_sf and not self.env.schedule.startswith(
            "aid_static"
        ):
            raise FleetError(
                "use_offline_sf reproduces the AID-static(offline-SF) "
                f"variant and needs an aid_static schedule, got "
                f"{self.env.schedule!r}"
            )
        # Pin the backend to a concrete registered name (frozen
        # dataclass, hence the setattr). Raises BackendError for unknown
        # names, including an invalid environment override.
        from repro.backends import resolve_backend_name

        object.__setattr__(
            self, "backend", resolve_backend_name(self.backend)
        )

    def payload(self, salt: str | None = None) -> dict:
        """The canonical identity payload the digest hashes."""
        return {
            "salt": CODE_SALT if salt is None else salt,
            "program": canonical(self.program),
            "platform": canonical(self.platform),
            "env": canonical(self.env),
            "root_seed": self.root_seed,
            "overhead": canonical(self.overhead),
            "contention": canonical(self.contention),
            "use_offline_sf": self.use_offline_sf,
            "capture_sf_loop": self.capture_sf_loop,
            "backend": self.backend,
            "trace_context": self.trace_context,
        }

    def digest(self, salt: str | None = None) -> str:
        """Stable SHA-256 content digest of this job."""
        return _sha256(canonical_json(self.payload(salt)))

    @cached_property
    def key(self) -> str:
        """The digest under the current :data:`CODE_SALT`, memoized."""
        return self.digest()

    @property
    def profile_key(self) -> str:
        """Coarse key for duration estimates (LPT ordering): the same
        (program, schedule, platform) tends to cost the same wall time
        even across seeds and code versions."""
        return "|".join(
            (self.program.name, self.env.schedule, self.env.affinity,
             self.platform.name, self.backend or "")
        )

    def describe(self) -> str:
        label = self.label or f"{self.env.schedule}({self.env.affinity})"
        return f"{self.program.name} / {label} @ {self.platform.name}"

    def execute(self) -> "JobResult":
        """Run the cell in this process and package the outcome.

        Mirrors :func:`repro.experiments.harness.run_one` (plus the
        Fig. 9 offline-SF variant), so fleet results are cell-for-cell
        identical to the serial harness.
        """
        # Imported lazily: experiments.harness routes its grids through
        # the fleet, so a top-level import would be a cycle.
        from repro.experiments.harness import offline_sf_tables
        from repro.obs import Observability, SpanRecorder
        from repro.obs.merge import job_snapshot_json
        from repro.runtime.program_runner import ProgramRunner

        schedule_override = None
        needs_offline = self.env.schedule_spec().needs_offline_sf
        if self.use_offline_sf:
            from repro.sched.aid_static import AidStaticSpec

            schedule_override = AidStaticSpec(use_offline_sf=True)
            needs_offline = True
        # Every fleet job runs with a live observability bundle: the
        # instrumentation never perturbs simulated numbers, and the
        # compact snapshot rides home in the result (so cached replays
        # report the very same metrics as the run that produced them).
        obs = Observability(
            spans=(
                SpanRecorder(context=self.trace_context)
                if self.trace_context is not None
                else None
            )
        )
        runner = ProgramRunner(
            self.platform,
            self.env,
            overhead=self.overhead,
            contention=self.contention,
            root_seed=self.root_seed,
            obs=obs,
            offline_sf_tables=(
                offline_sf_tables(self.platform, self.program)
                if needs_offline
                else None
            ),
            schedule_override=schedule_override,
            backend=self.backend,
        )
        t0 = time.perf_counter()
        result = runner.run(self.program)
        duration = time.perf_counter() - t0
        sf_series: tuple[tuple[tuple[int, float], ...], ...] | None = None
        if self.capture_sf_loop is not None:
            sf_series = tuple(
                tuple(sorted(sf.items()))
                for sf in result.estimated_sf_series(self.capture_sf_loop)
            )
        return JobResult(
            digest=self.key,
            program=self.program.name,
            schedule=result.schedule_name,
            completion_time=result.completion_time,
            serial_time=result.serial_time,
            total_dispatches=result.total_dispatches,
            duration=duration,
            sf_series=sf_series,
            obs_json=job_snapshot_json(obs),
        )


@dataclass(frozen=True)
class JobResult:
    """The JSON-round-trippable outcome of one job.

    Deliberately lean: the grid harnesses need completion times (plus
    the Fig. 9c SF series), not full :class:`ProgramResult` objects, and
    lean results keep cache entries small and rehydration exact.

    Attributes:
        digest: content digest of the producing spec.
        program: program name.
        schedule: schedule label as reported by the runner.
        completion_time: simulated wall time of the run (seconds).
        serial_time: simulated time in serial phases.
        total_dispatches: scheduler dispatch count across all loops.
        duration: real wall-clock seconds the simulation took (feeds
            the LPT duration estimates; telemetry, so excluded from
            equality — two runs of the same job are the *same result*
            however long the host took).
        sf_series: captured estimated-SF series, as sorted (core-type
            index, SF) pairs per invocation, or None.
        obs_json: the per-job observability snapshot
            (:func:`repro.obs.merge.job_snapshot_json`) as a canonical
            JSON string — a string so results stay hashable, canonical
            so snapshot equality is string equality. Everything in it is
            simulated-time, so it *is* compared: a replayed cache entry
            must report the same metrics as the run that produced it.
            The worker encodes it once; payloads and cache entries carry
            the text verbatim and only the obs merge parses it.
    """

    digest: str
    program: str
    schedule: str
    completion_time: float
    serial_time: float
    total_dispatches: int
    duration: float = dataclasses.field(compare=False)
    sf_series: tuple[tuple[tuple[int, float], ...], ...] | None = None
    obs_json: str | None = None

    def obs_snapshot(self) -> dict | None:
        """The per-job observability snapshot as a document, if any."""
        return None if self.obs_json is None else json.loads(self.obs_json)

    def sf_series_dicts(self) -> list[dict[int, float]]:
        """The captured SF series in the runner's dict-per-invocation
        form (what :meth:`ProgramResult.estimated_sf_series` returns)."""
        if self.sf_series is None:
            return []
        return [dict(inv) for inv in self.sf_series]

    def to_payload(self) -> dict:
        """The JSON-ready payload :meth:`from_payload` inverts.

        ``obs_json`` travels verbatim, never decoded and re-encoded, so
        nothing parses it on the way through; ``obs_sha256`` guards it
        instead, and :meth:`from_payload` rejects text that no longer
        matches.
        """
        doc = dataclasses.asdict(self)
        if self.sf_series is not None:
            doc["sf_series"] = [
                [[j, sf] for j, sf in inv] for inv in self.sf_series
            ]
        if self.obs_json is not None:
            doc["obs_sha256"] = _sha256(self.obs_json)
        return doc

    @classmethod
    def from_payload(cls, payload: Mapping) -> "JobResult":
        """Rehydrate a :meth:`to_payload` document.

        Raises :class:`~repro.errors.FleetError` on missing or mistyped
        fields and when ``obs_json`` does not match ``obs_sha256``.
        """
        obs_json = payload.get("obs_json")
        if obs_json is not None and (
            not isinstance(obs_json, str)
            or payload.get("obs_sha256") != _sha256(obs_json)
        ):
            raise FleetError(
                "malformed job-result payload: obs_json does not match "
                "its obs_sha256 checksum"
            )
        try:
            sf_series = payload.get("sf_series")
            return cls(
                digest=str(payload["digest"]),
                program=str(payload["program"]),
                schedule=str(payload["schedule"]),
                completion_time=float(payload["completion_time"]),
                serial_time=float(payload["serial_time"]),
                total_dispatches=int(payload["total_dispatches"]),
                duration=float(payload["duration"]),
                sf_series=(
                    None
                    if sf_series is None
                    else tuple(
                        tuple((int(j), float(sf)) for j, sf in inv)
                        for inv in sf_series
                    )
                ),
                obs_json=obs_json,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FleetError(f"malformed job-result payload: {exc}") from exc
