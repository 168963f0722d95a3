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
from dataclasses import dataclass, field, replace as dataclasses_replace
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
from .manifest import (
    ManifestStore,
    ReleaseRoot,
    TaskManifest,
    make_manifest,
    publish_release,
    resolve_manifest,
)
from .records import record
from .report import DecisionStudyReport, StudyGrid, decision_study, save_report_outputs
from .runner import (
    DriverSpec,
    EpisodeSummary,
    RunRecord,
    RunSet,
    close_run,
    emit_verifier_outcome,
    end_episode,
    open_run,
    run_episode_steps,
    save_runset,
)
from .schema import TimingFields, write_event_log
from .simenv import (
    OperatingSetting,
    TerminalOutcome,
    Ticket,
    VerifierQueue,
    setting_for_label,
)

STUDY_TASK_ID: Final = "study-web-001"
STUDY_ROOT_ID: Final = "study-root"


@record
class StudyConfig:
    """Default desk-scale grid: 2 backends x 2 seeds x 3 budgets x 2 settings
    x 2 variants = 48 runs."""

    backends: tuple[str, ...] = ("vllm", "sglang")
    backend_latency_scale: dict[str, float] = field(
        default_factory=lambda: {"vllm": 1.0, "sglang": 0.96}
    )
    seeds: tuple[int, ...] = (0, 1)
    budgets: tuple[int, ...] = (5, 7, 9)
    setting_labels: tuple[str, ...] = ("clean", "medium_live_stressed")
    variants: tuple[str, ...] = ("hook_a_only", "hook_b_only")
    episodes_per_run: int = 8
    goal: int = 3
    lanes: int = 4
    lane_stagger_ms: float = 400.0
    hook_b: HookBConfig = field(
        default_factory=lambda: HookBConfig(
            pressure_threshold_ms=50.0, min_conc=2, max_conc=4, step=1
        )
    )
    window_capacity: int = 12
    profile: SyntheticLlmProfile = field(
        default_factory=lambda: SyntheticLlmProfile(
            mean_model_latency_ms=150.0,
            latency_cv=0.3,
            invalid_action_prob=0.08,
            success_bias=0.75,
        )
    )
    verify_base_ms: float = 400.0
    verify_cv: float = 0.2
    verify_servers: int = 2
    sample_invalid_prob: float = 0.15
    stale_after_ms: float = 300.0
    sample_retry_budget: int = 2
    horizons_ms: dict[str, float] = field(
        default_factory=lambda: {"clean": 30_000.0, "medium_live_stressed": 120_000.0}
    )

    def run_retry_budget(self) -> int:
        """Run-level retry allowance the gate checks aggregate retries against."""

        return self.episodes_per_run * (self.sample_retry_budget + 1)

    def grid(self) -> StudyGrid:
        return StudyGrid(
            backends=self.backends,
            seeds=self.seeds,
            budgets=self.budgets,
            settings=self.setting_labels,
            variants=self.variants,
            horizons_ms=dict(self.horizons_ms),
        )


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
        cfg: StudyConfig,
        manifest: TaskManifest,
        setting: OperatingSetting,
        backend: str,
        seed: int,
        budget: int,
        variant: str,
        run_id: str,
    ) -> None:
        self.cfg = cfg
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
            profile=cfg.profile,
            backend_engine=backend,
        )
        self.latency_scale = cfg.backend_latency_scale.get(backend, 1.0)
        self.queue = VerifierQueue(servers=cfg.verify_servers)
        self.window = TelemetryWindow(capacity=cfg.window_capacity)
        self.target = cfg.lanes
        self.idle_lanes: set[int] = set()
        self.pending = list(range(cfg.episodes_per_run))
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
            self.cfg.verify_base_ms
            * self.setting.env_latency_multiplier
            * self.setting.verifier_arrival_rate_boost,
            self.cfg.verify_cv,
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
        cfg = self.cfg
        wait = info.queue_wait_ms
        stale = (
            self.setting.fault_injection_prob > 0.0 and wait > cfg.stale_after_ms
        )
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
                retry_budget=cfg.sample_retry_budget,
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
            sample.attempts <= cfg.sample_retry_budget
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
        new_target = hook_b_adjust(self.window, cfg.hook_b, self.target)
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
        invalid = rng.random() < self.cfg.sample_invalid_prob
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

        for lane in range(self.cfg.lanes):
            start = lane * self.cfg.lane_stagger_ms
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
    cfg: StudyConfig,
    manifest: TaskManifest,
    setting: OperatingSetting,
    backend: str,
    seed: int,
    budget: int,
    variant: str,
    repetition: int = 0,
    driver_id: str | None = None,
) -> tuple[RunRecord, list]:
    """One controller run; returns its record and validated event stream."""

    driver = DriverRecord(
        driver_id=driver_id or f"controller-{variant}-{backend}-b{budget}",
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
    builder = open_run(
        manifest, driver, repetition, cfg.episodes_per_run, variant=variant, backend=backend
    )
    sim = _ControllerRunSim(cfg, manifest, setting, backend, seed, budget, variant, builder.run_id)
    timed = sim.run()
    emit = builder.emit
    for time_ms, _, kind, episode_id, step_index, timing, payload in timed:
        emit(kind, time_ms, episode_id, step_index, timing, payload)
    return close_run(
        builder,
        manifest,
        driver,
        repetition,
        cfg.episodes_per_run,
        sim.summaries,
        timed[-1][0] if timed else 0.0,
        retry_count=sim.retry_events,
        retry_budget=cfg.run_retry_budget(),
        concurrency=cfg.lanes,
        backend=backend,
        variant=variant,
        horizon_ms=cfg.horizons_ms[setting.label],
    )


def controller_run_for_plan(
    manifest: TaskManifest,
    setting: OperatingSetting,
    spec: DriverSpec,
    seed: int,
    budget: int,
    episodes: int,
    repetition: int = 0,
) -> tuple[RunRecord, list]:
    """Controller run driven from a run-plan driver configuration.

    The variant comes from the driver's hooks_enabled field; the backend label
    from its backend_engine; everything else uses the study defaults.
    """

    cfg = dataclasses_replace(StudyConfig(), episodes_per_run=episodes)
    return simulate_controller_run(
        cfg,
        manifest,
        setting,
        backend=spec.backend_engine or "vllm",
        seed=seed,
        budget=budget,
        variant=spec.hooks_enabled,
        repetition=repetition,
        driver_id=spec.name,
    )


def build_study_release(store: ManifestStore, cfg: StudyConfig | None = None) -> ReleaseRoot:
    """Publish the single-task study release used by the default grid."""

    cfg = cfg or StudyConfig()
    manifest = make_manifest(
        "web",
        STUDY_TASK_ID,
        release_binding=STUDY_ROOT_ID,
        family_params={"goal": cfg.goal, "session_config": "study-session",
                       "evaluator_semantics": "final_state", "exec_mode": "live"},
    )
    return publish_release(store, STUDY_ROOT_ID, [manifest])


def run_study(
    cfg: StudyConfig | None = None,
    out_dir: Path | str | None = None,
) -> tuple[RunSet, list[GateDecision], DecisionStudyReport]:
    """Execute the full grid, gate it with the decision gate, and aggregate.

    Deterministic: identical configuration yields byte-identical artifacts.
    The grid runs in the calling process; each run's event log is written as
    soon as the run finishes, so its events are not kept.
    """

    cfg = cfg or StudyConfig()
    base = Path(out_dir) if out_dir is not None else None
    tmp: tempfile.TemporaryDirectory[str] | None = None
    if base is not None:
        store = ManifestStore(base / "release")
    else:
        tmp = tempfile.TemporaryDirectory()
        store = ManifestStore(Path(tmp.name))
    root = build_study_release(store, cfg)
    manifest = resolve_manifest(STUDY_TASK_ID, root, store)

    if base is not None:
        (base / "logs").mkdir(parents=True, exist_ok=True)
    runs: list[RunRecord] = []
    for backend in cfg.backends:
        for seed in cfg.seeds:
            for budget in cfg.budgets:
                for label in cfg.setting_labels:
                    setting = setting_for_label(label)
                    for variant in cfg.variants:
                        record, events = simulate_controller_run(
                            cfg, manifest, setting, backend, seed, budget, variant
                        )
                        runs.append(record)
                        if base is not None:
                            write_event_log(base / record.event_log_ref, events)

    runset = RunSet(runs=runs)
    decisions = decide_runset(runset, root)
    study_report = decision_study(runset, decisions, cfg.grid())

    if base is not None:
        save_runset(runset, base)
        runset.base_dir = base
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
    "controller_run_for_plan",
    "run_study",
    "simulate_controller_run",
]
