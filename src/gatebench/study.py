"""Controller decision study: two single-hook variants over one web workload.

Each study run plays a fixed episode count on ``runner.LaneScheduler`` with
``LANES`` simulated actor lanes sharing one verifier queue; this module holds
the controller's steps. The two variants consume the same telemetry substrate:

* ``hook_a_only`` filters verification samples by validity and staleness at
  first delivery (it never retries); dropped samples terminate their episode
  as failures.
* ``hook_b_only`` keeps every sample, pays the harness retry policy for
  invalid or fault-hit samples, and adapts lane concurrency from queue-wait
  telemetry.

Sample-channel draws (invalid markers, transient missing-terminal faults) and
episode bodies come from substreams keyed by (seed, budget, setting, episode)
only, so the two variants and both backends see paired workloads; outcomes
differ only through hook behavior. Staleness is a version-drift marker set
when a sample's queue wait exceeds the staleness bound, and drift can only
occur under fault-injecting settings, so clean runs never go stale.

All constants here are synthetic calibration, chosen so the stressed surface
weights queue- and tail-sensitive costs; they are not measured claims.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Final

from .drivers import (
    DriverRecord,
    HookBConfig,
    SampleMeta,
    SyntheticLlmProfile,
    TelemetryWindow,
    draw_lognormal,
    hook_a_filter,
    hook_b_adjust,
)
from .gate import GateDecision, decide_runset, gate_report, save_gate_outputs
from .manifest import ManifestStore, ReleaseRoot, TaskManifest, make_manifest, publish_release
from .records import record
from .report import (
    STUDY_SETTINGS,
    VARIANT_LABELS,
    DecisionStudyReport,
    decision_study,
    save_report_outputs,
)
from .runner import (
    DriverSpec,
    LaneScheduler,
    PlanEntry,
    RunPlan,
    RunRecord,
    RunSet,
    close_run,
    emit_verifier_outcome,
    end_episode,
    make_episode_id,
    open_run,
    run_episode_steps,
    run_plan,
)
from .schema import Digest
from .simenv import (
    CLEAN_LABEL,
    STRESSED_LABEL,
    OperatingSetting,
    TerminalOutcome,
    Ticket,
)

STUDY_TASK_ID: Final = "study-web-001"
STUDY_ROOT_ID: Final = "study-root"

# The study's simulation constants (synthetic calibration, see above).
BACKEND_LATENCY_SCALE: Final[dict[str, float]] = {"vllm": 1.0, "sglang": 0.96}
EPISODES_PER_RUN: Final = 8
GOAL: Final = 3
LANES: Final = 4
LANE_STAGGER_MS: Final = 400.0
HOOK_B: Final = HookBConfig(pressure_threshold_ms=50.0, min_conc=2, max_conc=4, step=1)
WINDOW_CAPACITY: Final = 12
PROFILE: Final = SyntheticLlmProfile(
    mean_model_latency_ms=150.0, latency_cv=0.3, invalid_action_prob=0.08, success_bias=0.75
)
VERIFY_DEMAND_MS: Final = 400.0
VERIFY_CV: Final = 0.2
VERIFY_SERVERS: Final = 2
SAMPLE_INVALID_PROB: Final = 0.15
STALE_AFTER_MS: Final = 300.0
SAMPLE_RETRY_BUDGET: Final = 2
HORIZONS_MS: Final[dict[str, float]] = {CLEAN_LABEL: 30_000.0, STRESSED_LABEL: 120_000.0}
# Width of the study plan's run pool, the demo plan's; the plan's bytes are
# the same at any width.
STUDY_CONCURRENCY: Final = 2


@record
class StudyConfig:
    """The study grid: backends x seeds x budgets, each run under both
    settings and both variants; the default is 2 x 2 x 3 x 2 x 2 = 48 runs."""

    backends: tuple[str, ...] = ("vllm", "sglang")
    seeds: tuple[int, ...] = (0, 1)
    budgets: tuple[int, ...] = (5, 7, 9)


def _substream(*parts: Any) -> random.Random:
    return random.Random(":".join(str(part) for part in parts))


@dataclass(slots=True)
class _Sample:
    """An episode's result on its way to the verifier in a controller run."""

    episode_id: str
    env_status: str
    invalid: bool
    missing_first: bool
    demand_rng: random.Random
    start_ms: float
    steps: int
    attempts: int = 0


class _ControllerRun(LaneScheduler):
    """One controller run: ``LANES`` scheduler lanes over ``VERIFY_SERVERS`` servers.

    Each lane runs its episodes through the episode kernel with a synthetic
    LLM actor, whose policy version is the variant, and hands each sample to
    the shared verifier queue; the hook acts on the verifier's deliveries.
    """

    def __init__(
        self,
        manifest: TaskManifest,
        setting: OperatingSetting,
        driver: DriverRecord,
        variant: str,
        episodes: int,
        run_id: str,
    ) -> None:
        # One (time_ms, order, event) per event, as ``EventBuilder.emit``'s six
        # arguments; ``order`` is unique, so the tuples sort without comparing
        # events. The emitter holds the list, not the run: no reference cycle.
        records: list[tuple[float, int, tuple]] = []

        def record(*event: Any) -> None:
            records.append((event[1], len(records), event))

        super().__init__(record, episodes, LANES, VERIFY_SERVERS, LANE_STAGGER_MS)
        self.records = records
        self.manifest = manifest
        self.setting = setting
        self.budget = driver.budget
        self.stream_key = (driver.seed, driver.budget, setting.label)
        self.variant = variant
        self.run_id = run_id
        self.actor = DriverSpec(
            name=f"{variant}-actor",
            driver_type="llm",
            driver_version=variant,
            profile=PROFILE,
            backend_engine=driver.backend_engine,
        )
        self.latency_scale = BACKEND_LATENCY_SCALE.get(driver.backend_engine, 1.0)
        self.window = TelemetryWindow(capacity=WINDOW_CAPACITY)

    def body(self, time_ms: float, episode_index: int) -> tuple[float, _Sample]:
        episode_id = make_episode_id(self.run_id, episode_index)
        env, body_end, retries = run_episode_steps(
            self.emit,
            self.manifest,
            self.actor,
            self.setting,
            _substream("study-body", *self.stream_key, episode_index),
            episode_id,
            episode_index,
            self.budget,
            time_ms,
            latency_scale=self.latency_scale,
            retry_cap=None,
            retry_on_last_step=False,
        )
        self.retries += retries
        rng = _substream("study-sample", *self.stream_key, episode_index)
        invalid = rng.random() < SAMPLE_INVALID_PROB
        missing = rng.random() < self.setting.fault_injection_prob
        return body_end, _Sample(
            episode_id=episode_id,
            env_status=env.terminal.status if env.terminal is not None else "failure",
            invalid=invalid,
            missing_first=missing or env.terminal is None,
            demand_rng=rng,
            start_ms=time_ms,
            steps=env.step_count,
        )

    def demand(self, sample: _Sample) -> float:
        demand = draw_lognormal(
            sample.demand_rng,
            VERIFY_DEMAND_MS
            * self.setting.env_latency_multiplier
            * self.setting.verifier_arrival_rate_boost,
            VERIFY_CV,
        )
        if self.setting.tail_inflation > 1.0 and sample.demand_rng.random() > 0.9:
            demand *= self.setting.tail_inflation
        sample.attempts += 1
        return demand

    def _finalize(
        self, time_ms: float, sample: _Sample, status: str, detail: str, drop_reason: str | None
    ) -> None:
        extra: dict[str, Any] = {"sample_retry_count": sample.attempts - 1}
        if drop_reason is not None:
            extra["drop_reason"] = drop_reason
        end_episode(
            self.emit, time_ms, sample.episode_id, 0, sample.steps, sample.start_ms,
            TerminalOutcome(status=status, evaluator_id=self.manifest.verifier_id, detail=detail),
            **extra,
        )

    def deliver(self, time_ms: float, lane: int, sample: _Sample, info: Ticket) -> None:
        wait = info.queue_wait_ms
        stale = self.setting.fault_injection_prob > 0.0 and wait > STALE_AFTER_MS
        missing = sample.missing_first and sample.attempts == 1
        attempt_status = "error" if missing else ("failure" if sample.invalid else sample.env_status)
        emit_verifier_outcome(
            self.emit, info, sample.episode_id, 0, attempt_status,
            self.manifest.verifier_id, detail="sample_attempt",
        )

        if self.variant == "hook_a_only":
            meta = SampleMeta(
                has_terminal_outcome=not missing,
                invalid_sample_marker=sample.invalid,
                version_fields_present=True,
                version_mismatch=stale,
                snapshot_mismatch=False,
                retry_count=sample.attempts - 1,
                retry_budget=SAMPLE_RETRY_BUDGET,
            )
            decision = hook_a_filter(meta)
            if decision.keep:
                self._finalize(time_ms, sample, sample.env_status, "verified", None)
            else:
                self._finalize(
                    time_ms, sample, "failure", "filtered_sample", decision.reason
                )
            self.lane_done(time_ms, lane)
            return

        # hook_b_only: keep everything, pay the harness retry policy, adapt lanes.
        needs_retry = (missing or sample.invalid) and (
            sample.attempts <= SAMPLE_RETRY_BUDGET
        )
        if needs_retry:
            self.retries += 1
            self.emit(
                "retry",
                time_ms,
                sample.episode_id,
                0,
                None,
                {
                    "attempt": sample.attempts,
                    "reason": "missing_terminal" if missing else "invalid_sample",
                    "scope": "sample",
                },
            )
            self.submit(time_ms, lane, sample)
            return
        if sample.invalid:
            self._finalize(time_ms, sample, "failure", "invalid_sample_exhausted", None)
        else:
            self._finalize(time_ms, sample, sample.env_status, "verified", None)

        self.window.push(time_ms, self.queue.depth_at(time_ms), wait)
        self.set_target(time_ms, hook_b_adjust(self.window, HOOK_B, self.target))
        self.lane_done(time_ms, lane)


def simulate_controller_run(
    manifest: TaskManifest,
    setting: OperatingSetting,
    spec: DriverSpec,
    seed: int,
    budget: int,
    episodes: int,
    repetition: int = 0,
    manifest_hash: Digest | None = None,
) -> tuple[RunRecord, list]:
    """One controller run of a plan's ``controller`` driver; returns its record
    and validated event stream. ``manifest_hash`` is the manifest's verified
    hash, when the caller has it, or else computed.

    The variant is the driver's ``hooks_enabled``, the backend its
    ``backend_engine`` (``vllm`` when unset). The driver record is the
    driver's own, with ``{backend}:synthetic`` as its model backend id when
    the driver names none; every other quantity comes from the study's
    constants.
    """

    backend = spec.backend_engine or "vllm"
    variant = spec.hooks_enabled
    driver = replace(
        spec.record(seed, setting.label, budget),
        model_backend_id=spec.model_backend_id or f"{backend}:synthetic",
        backend_engine=backend,
    )
    manifest_hash = manifest_hash or manifest.manifest_hash()
    builder = open_run(
        manifest, manifest_hash, driver, repetition, episodes, variant=variant, backend=backend
    )
    sim = _ControllerRun(manifest, setting, driver, variant, episodes, builder.run_id)
    sim.run()
    for _, _, event in sorted(sim.records):
        builder.emit(*event)
    return close_run(
        builder, manifest, driver, repetition, episodes,
        retry_count=sim.retries,
        # The run-level retry allowance the gate checks aggregate retries against.
        retry_budget=episodes * (SAMPLE_RETRY_BUDGET + 1),
        concurrency=LANES,
        backend=backend,
        variant=variant,
        horizon_ms=HORIZONS_MS[setting.label],
    )


def build_study_release(store: ManifestStore) -> ReleaseRoot:
    """Publish the single-task study release the study plan runs against."""

    manifest = make_manifest(
        "web",
        STUDY_TASK_ID,
        release_binding=STUDY_ROOT_ID,
        family_params={"goal": GOAL, "session_config": "study-session",
                       "evaluator_semantics": "final_state", "exec_mode": "live"},
    )
    return publish_release(store, STUDY_ROOT_ID, [manifest])


def study_plan(cfg: StudyConfig) -> RunPlan:
    """The study grid as a run plan: one entry per cell and variant, in the
    order backend, seed, budget, setting, variant.

    Each entry names a ``controller`` driver ``controller-{variant}-{backend}-b{budget}``.
    """

    drivers: dict[str, DriverSpec] = {}
    entries: list[PlanEntry] = []
    for backend in cfg.backends:
        for seed in cfg.seeds:
            for budget in cfg.budgets:
                for label in STUDY_SETTINGS:
                    for variant in VARIANT_LABELS:
                        name = f"controller-{variant}-{backend}-b{budget}"
                        drivers[name] = DriverSpec(
                            name=name,
                            driver_type="controller",
                            backend_engine=backend,
                            hooks_enabled=variant,
                        )
                        entries.append(PlanEntry(STUDY_TASK_ID, name, label, seed, budget))
    return RunPlan(
        entries=tuple(entries),
        drivers=drivers,
        release_root=STUDY_ROOT_ID,
        concurrency=STUDY_CONCURRENCY,
        episodes_per_run=EPISODES_PER_RUN,
    )


def run_study(
    cfg: StudyConfig | None = None,
    out_dir: Path | str | None = None,
) -> tuple[RunSet, list[GateDecision], DecisionStudyReport]:
    """Run the study plan, gate it with the decision gate, and aggregate.

    Deterministic: identical configuration yields byte-identical artifacts.
    With ``out_dir``, the release, the plan's ``logs/`` and ``runset.json``,
    the gate outputs and the study report are written there.
    """

    base = Path(out_dir) if out_dir is not None else None
    tmp: tempfile.TemporaryDirectory[str] | None = None
    if base is not None:
        store = ManifestStore(base / "release")
    else:
        tmp = tempfile.TemporaryDirectory()
        store = ManifestStore(Path(tmp.name))
    root = build_study_release(store)
    runset = run_plan(study_plan(cfg or StudyConfig()), store, out_dir=base)
    decisions = decide_runset(runset, root)
    study_report = decision_study(runset, decisions)

    if base is not None:
        decision_scope = gate_report(runset, decisions, scope="decision_study")
        canonical_scope = gate_report(runset, decisions, scope="canonical")
        save_gate_outputs(base, canonical_scope, decisions, decision_report=decision_scope)
        save_report_outputs(base, study=study_report)
    if tmp is not None:
        tmp.cleanup()
    return runset, decisions, study_report


__all__ = [
    "STUDY_ROOT_ID",
    "STUDY_TASK_ID",
    "StudyConfig",
    "build_study_release",
    "run_study",
    "simulate_controller_run",
    "study_plan",
]
