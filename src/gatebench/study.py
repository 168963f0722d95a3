"""Controller decision study: two single-hook variants over one web workload.

Each study run executes a fixed episode count through a pool of simulated
actor lanes sharing one verifier queue. The two variants consume the same
telemetry substrate:

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

import heapq
import random
import tempfile
from dataclasses import dataclass
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
    EpisodeSummary,
    PlanEntry,
    RunPlan,
    RunRecord,
    RunSet,
    close_run,
    emit_verifier_outcome,
    end_episode,
    open_run,
    run_episode_steps,
    run_plan,
)
from .schema import TimingFields
from .simenv import (
    CLEAN_LABEL,
    STRESSED_LABEL,
    OperatingSetting,
    TerminalOutcome,
    Ticket,
    VerifierQueue,
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
VERIFY_BASE_MS: Final = 400.0
VERIFY_CV: Final = 0.2
VERIFY_SERVERS: Final = 2
SAMPLE_INVALID_PROB: Final = 0.15
STALE_AFTER_MS: Final = 300.0
SAMPLE_RETRY_BUDGET: Final = 2
HORIZONS_MS: Final[dict[str, float]] = {CLEAN_LABEL: 30_000.0, STRESSED_LABEL: 120_000.0}
# Width of the study plan's run pool. Kept at 1 while the benchmark's tracer
# cannot see the spans of forked workers; the plan's bytes are the same at
# any width.
STUDY_CONCURRENCY: Final = 1


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


class _ControllerRunSim:
    """Discrete-event simulation of one controller run.

    Each lane runs its episodes through the episode kernel with a synthetic
    LLM actor, whose policy version is the variant, and hands each sample to
    the shared verifier queue; the hook acts on the verifier's deliveries.
    """

    def __init__(
        self,
        manifest: TaskManifest,
        setting: OperatingSetting,
        backend: str,
        seed: int,
        budget: int,
        variant: str,
        episodes: int,
        run_id: str,
    ) -> None:
        self.manifest = manifest
        self.setting = setting
        self.seed = seed
        self.budget = budget
        self.variant = variant
        self.run_id = run_id
        self.actor = DriverSpec(
            name=f"{variant}-actor",
            driver_type="llm",
            driver_version=variant,
            profile=PROFILE,
            backend_engine=backend,
        )
        self.latency_scale = BACKEND_LATENCY_SCALE.get(backend, 1.0)
        self.queue = VerifierQueue(servers=VERIFY_SERVERS)
        self.window = TelemetryWindow(capacity=WINDOW_CAPACITY)
        self.target = LANES
        self.idle_lanes: set[int] = set()
        self.pending = list(range(episodes))
        # One tuple per event: (time_ms, order, kind, episode_id, step_index,
        # timing, payload). ``order`` is unique within the run, so the tuples
        # sort by (time, order) without comparing the fields after it.
        self.records: list[tuple] = []
        # Episodes end in time order, so this is also the order of their
        # ``episode_end`` events in the sorted stream.
        self.summaries: list[EpisodeSummary] = []
        self.retry_events = 0
        self._heap: list[tuple[float, int, str, tuple]] = []
        self._heap_seq = 0

    # -- event collection ---------------------------------------------------

    def _record(
        self,
        kind: str,
        time_ms: float,
        episode_id: str = "",
        step_index: int = 0,
        timing: TimingFields | None = None,
        payload: dict[str, Any] | None = None,
    ) -> None:
        """``EventBuilder.emit``'s signature; the event is kept for sorting."""

        records = self.records
        records.append(
            (time_ms, len(records), kind, episode_id, step_index, timing, payload)
        )

    def _schedule(self, time_ms: float, kind: str, args: tuple) -> None:
        heapq.heappush(self._heap, (time_ms, self._heap_seq, kind, args))
        self._heap_seq += 1

    # -- verification lifecycle ----------------------------------------------

    def _submit(self, time_ms: float, lane: int, sample: _Sample) -> None:
        demand = draw_lognormal(
            sample.demand_rng,
            VERIFY_BASE_MS
            * self.setting.env_latency_multiplier
            * self.setting.verifier_arrival_rate_boost,
            VERIFY_CV,
        )
        if self.setting.tail_inflation > 1.0 and sample.demand_rng.random() > 0.9:
            demand *= self.setting.tail_inflation
        ticket = self.queue.submit(time_ms, demand)
        sample.attempts += 1
        info = self.queue.ticket(ticket)
        self._schedule(info.completion_ms, "deliver", (lane, sample, info))

    def _finalize(
        self, time_ms: float, sample: _Sample, status: str, detail: str, drop_reason: str | None
    ) -> None:
        extra: dict[str, Any] = {"sample_retry_count": sample.attempts - 1}
        if drop_reason is not None:
            extra["drop_reason"] = drop_reason
        self.summaries.append(
            end_episode(
                self._record,
                time_ms,
                sample.episode_id,
                0,
                sample.steps,
                sample.start_ms,
                TerminalOutcome(
                    status=status, evaluator_id=self.manifest.verifier_id, detail=detail
                ),
                **extra,
            )
        )

    def _deliver(self, time_ms: float, lane: int, sample: _Sample, info: Ticket) -> None:
        wait = info.queue_wait_ms
        stale = self.setting.fault_injection_prob > 0.0 and wait > STALE_AFTER_MS
        missing = sample.missing_first and sample.attempts == 1
        attempt_status = "error" if missing else ("failure" if sample.invalid else sample.env_status)
        emit_verifier_outcome(
            self._record, info, sample.episode_id, 0, attempt_status,
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
            self._lane_done(time_ms, lane)
            return

        # hook_b_only: keep everything, pay the harness retry policy, adapt lanes.
        needs_retry = (missing or sample.invalid) and (
            sample.attempts <= SAMPLE_RETRY_BUDGET
        )
        if needs_retry:
            self.retry_events += 1
            self._record(
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
            self._submit(time_ms, lane, sample)
            return
        if sample.invalid:
            self._finalize(time_ms, sample, "failure", "invalid_sample_exhausted", None)
        else:
            self._finalize(time_ms, sample, sample.env_status, "verified", None)

        self.window.push(time_ms, self.queue.depth_at(time_ms), wait)
        new_target = hook_b_adjust(self.window, HOOK_B, self.target)
        if new_target > self.target:
            revived = [l for l in sorted(self.idle_lanes) if l < new_target]
            for lane_id in revived:
                self.idle_lanes.discard(lane_id)
                self._schedule(time_ms, "assign", (lane_id,))
        self.target = new_target
        self._lane_done(time_ms, lane)

    def _lane_done(self, time_ms: float, lane: int) -> None:
        self._schedule(time_ms, "assign", (lane,))

    def _assign(self, time_ms: float, lane: int) -> None:
        if lane >= self.target:
            self.idle_lanes.add(lane)
            return
        if not self.pending:
            return
        episode_index = self.pending.pop(0)
        episode_id = f"{self.run_id}-ep{episode_index:03d}"
        env, body_end, retries = run_episode_steps(
            self._record,
            self.manifest,
            self.actor,
            self.setting,
            _substream("study-body", self.seed, self.budget, self.setting.label, episode_index),
            episode_id,
            episode_index,
            self.budget,
            time_ms,
            latency_scale=self.latency_scale,
            retry_cap=None,
            retry_on_last_step=False,
        )
        self.retry_events += retries
        rng = _substream(
            "study-sample", self.seed, self.budget, self.setting.label, episode_index
        )
        invalid = rng.random() < SAMPLE_INVALID_PROB
        missing = rng.random() < self.setting.fault_injection_prob
        sample = _Sample(
            episode_id=episode_id,
            env_status=env.terminal.status if env.terminal is not None else "failure",
            invalid=invalid,
            missing_first=missing or env.terminal is None,
            demand_rng=rng,
            start_ms=time_ms,
            steps=env.step_count,
        )
        self._schedule(body_end, "submit", (lane, sample))

    # -- main loop -------------------------------------------------------------

    def run(self) -> list[tuple]:
        """Simulate the run; its events sorted by (time, order of recording)."""

        for lane in range(LANES):
            start = lane * LANE_STAGGER_MS
            if lane < self.target:
                self._schedule(start, "assign", (lane,))
            else:
                self.idle_lanes.add(lane)
        while self._heap:
            time_ms, _, kind, args = heapq.heappop(self._heap)
            if kind == "assign":
                self._assign(time_ms, *args)
            elif kind == "submit":
                self._submit(time_ms, *args)
            elif kind == "deliver":
                self._deliver(time_ms, *args)
        self.records.sort()
        return self.records


def simulate_controller_run(
    manifest: TaskManifest,
    setting: OperatingSetting,
    spec: DriverSpec,
    seed: int,
    budget: int,
    episodes: int,
    repetition: int = 0,
) -> tuple[RunRecord, list]:
    """One controller run of a plan's ``controller`` driver; returns its record
    and validated event stream.

    The variant is the driver's ``hooks_enabled``, the backend its
    ``backend_engine`` (``vllm`` when unset); the driver record and every
    other quantity come from the study's constants.
    """

    backend = spec.backend_engine or "vllm"
    variant = spec.hooks_enabled
    driver = DriverRecord(
        driver_id=spec.name,
        driver_type="controller",
        driver_version="1.0.0",
        parser_version="1.0.0",
        budget=budget,
        seed=seed,
        setting_label=setting.label,
        evidence_status="paper_facing",
        model_backend_id=f"{backend}:synthetic",
        backend_engine=backend,
    )
    builder = open_run(manifest, driver, repetition, episodes, variant=variant, backend=backend)
    sim = _ControllerRunSim(
        manifest, setting, backend, seed, budget, variant, episodes, builder.run_id
    )
    timed = sim.run()
    emit = builder.emit
    for time_ms, _, kind, episode_id, step_index, timing, payload in timed:
        emit(kind, time_ms, episode_id, step_index, timing, payload)
    return close_run(
        builder,
        manifest,
        driver,
        repetition,
        episodes,
        sim.summaries,
        timed[-1][0] if timed else 0.0,
        retry_count=sim.retry_events,
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
