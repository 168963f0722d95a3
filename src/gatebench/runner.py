"""Run execution: the episode kernel, event emission, retries, and run records.

A run is one workload-driver-setting execution of ``planned_episodes``
episodes on a single simulated clock. Episodes inside a plain run execute
sequentially. The step loop (``run_episode_steps``), the verifier and
episode-end events and the run's start and close-out are shared with the
controller runs of ``study``, which schedule their lanes on a heap. The runs
of a plan, the study's plan included, are independent, so ``run_plan``
spreads them over a pool of worker processes (``map_runs``, shared with
replay and the report's log pass), ``concurrency`` wide but never wider than
the usable CPUs; each worker writes the event logs of its own runs and sends
back only their run records.
Because every run owns its seed, clock, and rng, results are a pure function
of the plan: event logs are byte-identical across concurrency levels.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Final, Mapping, Sequence, TypeVar

from .drivers import (
    Action,
    DriverError,
    DriverRecord,
    SyntheticLlmProfile,
    action_kind_hash,
    calibration_action,
    draw_lognormal,
    observation_hash,
    scripted_next_action,
    synthetic_llm_call,
)
from .manifest import (
    DEFAULT_PARSER_VERSION,
    FreezeRecord,
    ManifestError,
    ManifestStore,
    ReleaseRoot,
    SuiteVersions,
    TaskManifest,
    freeze_run,
    resolve_manifest,
)
from .records import record
from .schema import (
    ActionRecord,
    Digest,
    EventRecord,
    GatebenchError,
    ProvenanceFields,
    Record,
    RunValidator,
    SCHEMA_VERSION,
    SchemaError,
    TimingFields,
    _exact,
    canonical_hash,
    canonical_json,  # unused here; perfbench's tracer self-test patches runner's binding
    decode_events,
    doc_field,
    new_trace_context,
    read_event_log,
    read_json,
    require_valid_log,
    write_event_log,
    write_json,
)
from .simenv import (
    EnvState,
    OperatingSetting,
    TerminalOutcome,
    Ticket,
    VERIFY_BASE_MS,
    VerifierQueue,
    draw_service_ms,
    env_step,
    init_env,
    setting_for_label,
    verifier_outcome,
)

DEFAULT_EPISODES_PER_RUN: Final = 4
DEFAULT_RETRY_BUDGET: Final = 2
RUN_ID_HEX_LEN: Final = 16

_Context = TypeVar("_Context")
_Job = TypeVar("_Job")
_Result = TypeVar("_Result")


class RunnerError(GatebenchError):
    """Raised for invalid plans, unresolved manifests, missing logs and bad trajectories."""


# ---------------------------------------------------------------------------
# Driver specifications (plan-file driver configuration)
# ---------------------------------------------------------------------------


@record
class DriverSpec(Record):
    """Driver configuration as written in a run plan."""

    name: str
    driver_type: str
    evidence_status: str = "paper_facing"
    driver_version: str = "1.0.0"
    parser_version: str = DEFAULT_PARSER_VERSION
    mode: str | None = None  # calibration: "oracle" | "noop"
    script: tuple[str, ...] = doc_field(default=(), omit_empty=True)
    cyclic: bool = True
    profile: SyntheticLlmProfile | None = None
    model_family: str | None = None
    backend_engine: str | None = None
    model_backend_id: str | None = None
    retry_budget: int = DEFAULT_RETRY_BUDGET
    hooks_enabled: str | None = None  # controller: "hook_a_only" | "hook_b_only"

    def __post_init__(self) -> None:
        if self.driver_type == "controller" and self.hooks_enabled not in (
            "hook_a_only",
            "hook_b_only",
        ):
            raise RunnerError(
                "invalid_plan",
                "controller drivers need hooks_enabled set to exactly one of "
                "hook_a_only or hook_b_only",
            )

    def record(self, seed: int, setting_label: str, budget: int) -> DriverRecord:
        return DriverRecord(
            driver_id=self.name,
            driver_type=self.driver_type,
            driver_version=self.driver_version,
            parser_version=self.parser_version,
            budget=budget,
            seed=seed,
            setting_label=setting_label,
            evidence_status=self.evidence_status,
            model_family=self.model_family,
            model_backend_id=self.model_backend_id,
            backend_engine=self.backend_engine,
            prompt_template_hash=(
                canonical_hash({"template": self.name}) if self.driver_type == "llm" else None
            ),
        )


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@record
class PlanEntry(Record):
    """One plan line: a task under a named driver and setting, run ``repetitions`` times."""

    task_id: str
    driver: str
    setting_label: str = doc_field(key="setting")
    seed: int
    budget: int
    repetitions: int = 1
    episodes: int | None = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise RunnerError("invalid_plan", "repetitions must be >= 1")
        if self.budget < 1:
            raise RunnerError("invalid_plan", "budget must be >= 1")


def _decode_drivers(docs: Any) -> dict[str, DriverSpec]:
    # A driver's name is its key in the plan, whatever its stored "name" says.
    return {
        name: DriverSpec.from_doc({**doc, "name": name})
        for name, doc in _exact(dict, docs).items()
    }


@record
class RunPlan(Record):
    """An executable plan: its entries, the drivers they name and the pool width."""

    entries: tuple[PlanEntry, ...]
    # Absent drivers decode as {}, so the plan's own check reports the entries.
    drivers: dict[str, DriverSpec] = doc_field(missing=dict, decode=_decode_drivers)
    release_root: str
    concurrency: int = 1
    episodes_per_run: int = DEFAULT_EPISODES_PER_RUN
    settings: dict[str, OperatingSetting] = doc_field(default_factory=dict, omit_empty=True)

    def __post_init__(self) -> None:
        if not self.entries:
            raise RunnerError("invalid_plan", "plan has no entries")
        if self.concurrency < 1:
            raise RunnerError("invalid_plan", "concurrency must be >= 1")
        for entry in self.entries:
            spec = self.drivers.get(entry.driver)
            if spec is None:
                raise RunnerError(
                    "invalid_plan", f"entry references unknown driver {entry.driver!r}"
                )
            # Built here as each run of the entry builds them first, so that a
            # bad driver or setting fails the plan at load, before any log.
            spec.record(entry.seed, entry.setting_label, entry.budget)
            self.setting_for(entry.setting_label)

    def setting_for(self, label: str) -> OperatingSetting:
        """Plan-defined setting when present, built-in definition otherwise."""

        if label in self.settings:
            return self.settings[label]
        return setting_for_label(label)


def load_plan(path: Path | str) -> RunPlan:
    return RunPlan.from_doc(read_json(path, RunnerError, "missing_plan", "invalid_plan"))


def save_plan(plan: RunPlan, path: Path | str) -> None:
    write_json(path, plan)


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------


@record
class RewardPoint(Record):
    """Cumulative reward of a run at one simulated wall-clock time."""

    wall_clock_ms: float
    reward: float


@record
class EpisodeSummary(Record):
    """Outcome, step count and simulated wall time of one episode."""

    episode_id: str
    status: str
    steps: int
    wall_ms: float


@record
class RunRecord(Record):
    """One completed (or rejected-candidate) workload-driver-setting run."""

    run_id: str
    task_id: str
    family: str
    manifest_hash: Digest
    driver: DriverRecord
    setting_label: str
    seed: int
    repetition: int
    event_log_ref: str
    trace_complete: bool
    freeze: FreezeRecord | None = None
    terminal: TerminalOutcome | None = None
    episode_summaries: tuple[EpisodeSummary, ...] = ()
    reward_trajectory: tuple[RewardPoint, ...] = ()
    manifest_resolved: bool = True
    invalid_sample: bool = False
    retry_count: int = 0
    retry_budget: int = DEFAULT_RETRY_BUDGET
    concurrency: int = 1
    backend: str | None = None
    variant: str | None = None
    horizon_ms: float | None = None


def make_run_id(
    manifest_hash: Digest, driver_id: str, setting_label: str, seed: int, repetition: int
) -> str:
    digest = canonical_hash(
        {
            "manifest_hash": manifest_hash.hex,
            "driver_id": driver_id,
            "setting": setting_label,
            "seed": seed,
            "repetition": repetition,
        }
    )
    return digest.hex[:RUN_ID_HEX_LEN]


# ---------------------------------------------------------------------------
# Event building
# ---------------------------------------------------------------------------


# The timing of an event emitted without one; frozen, so every such event shares it.
_NO_TIMING: Final = TimingFields()


class EventBuilder:
    """Sequence, span, and validation bookkeeping for one run's event stream."""

    def __init__(
        self,
        run_id: str,
        provenance: ProvenanceFields,
        run_seed: int,
    ) -> None:
        self.run_id = run_id
        self.provenance = provenance
        self.run_seed = run_seed
        self.validator = RunValidator()
        self.events: list[EventRecord] = []
        self.trace_complete = True
        self._sequence = 0  # also the counter each event's span id derives from
        self._run_span: str | None = None
        self._episode_spans: dict[str, str] = {}

    def emit(
        self,
        kind: str,
        wall_clock_ms: float,
        episode_id: str = "",
        step_index: int = 0,
        timing: TimingFields | None = None,
        payload: Mapping[str, Any] | None = None,
    ) -> EventRecord:
        sequence = self._sequence
        trace = new_trace_context(
            self.run_seed, sequence, self._episode_spans.get(episode_id, self._run_span)
        )
        # Positional, in field order: matching ten keyword arguments is a
        # measurable share of this per-event constructor's cost.
        event = EventRecord(
            self.run_id,
            episode_id,
            step_index,
            trace,
            kind,
            sequence,
            wall_clock_ms,
            _NO_TIMING if timing is None else timing,
            self.provenance,
            dict(payload or {}),
        )
        self._sequence = sequence + 1
        if not self.validator.validate(event).ok:
            self.trace_complete = False
        self.events.append(event)
        if kind == "run_start":
            self._run_span = trace.span_id
        elif kind == "episode_start":
            self._episode_spans[episode_id] = trace.span_id
        return event

    def finalize(self) -> bool:
        report = self.validator.finalize()
        if not report.ok:
            self.trace_complete = False
        return self.trace_complete


def provenance_for(
    manifest: TaskManifest, driver: DriverRecord, seed: int, manifest_hash: Digest
) -> ProvenanceFields:
    """The provenance every event of a run carries; ``manifest_hash`` is
    ``manifest.manifest_hash()``, which the caller has already computed."""

    return ProvenanceFields(
        manifest_hash=manifest_hash,
        driver_id=driver.driver_id,
        schema_version=SCHEMA_VERSION,
        replay_class=manifest.replay_class,
        seed=seed,
        model_backend_id=driver.model_backend_id,
        snapshot_digest=manifest.snapshot_digest(),
        verifier_version=str(manifest.family_params.get("verifier_version", "1.0.0")),
    )


# ---------------------------------------------------------------------------
# The episode kernel (plain runs and controller lanes)
# ---------------------------------------------------------------------------

# Where the kernel writes its events: ``EventBuilder.emit``, or a controller
# run's recorder, called as (kind, wall_clock_ms, episode_id, step_index,
# timing, payload).
Emit = Callable[..., Any]


def _driver_call(
    spec: DriverSpec,
    manifest: TaskManifest,
    obs: Mapping[str, Any],
    step: int,
    rng: random.Random,
) -> tuple[ActionRecord, Action]:
    """One driver invocation: the action record and the action."""

    if spec.driver_type == "llm":
        return synthetic_llm_call(
            obs,
            spec.profile or SyntheticLlmProfile(),
            rng,
            backend_engine=spec.backend_engine or "vllm",
            policy_version=spec.driver_version,
        )
    if spec.driver_type == "calibration":
        action = calibration_action(spec.mode or "oracle", manifest)
        record = ActionRecord(
            observation_hash=observation_hash(obs),
            parse_status="parsed",
            invalid_action=False,
            prompt_tokens=0,
            completion_tokens=0,
            model_latency_ms=0.0,
            parsed_action_hash=action_kind_hash(action.kind),
            policy_version=spec.driver_version,
        )
        return record, action
    if spec.driver_type in ("scripted", "sanity"):
        script = (
            tuple(Action(kind=k, advance_prob=1.0) for k in spec.script)
            if spec.script
            else (Action(kind="advance", advance_prob=1.0),)
        )
        return scripted_next_action(obs, script, step, cyclic=spec.cyclic)
    raise DriverError("invalid_driver", f"no call path for driver type {spec.driver_type!r}")


def run_episode_steps(
    emit: Emit,
    manifest: TaskManifest,
    spec: DriverSpec,
    setting: OperatingSetting,
    rng: random.Random,
    episode_id: str,
    episode_index: int,
    budget: int,
    clock_ms: float,
    *,
    latency_scale: float,
    retry_cap: int | None,
    retry_on_last_step: bool,
) -> tuple[EnvState, float, int]:
    """Start one episode at ``clock_ms`` and step it until it ends.

    One step: observation, driver call, model request events (LLM drivers
    only), ``action_parsed``, ``env_step``, ``env_step_end``, then fault and
    retry. A code-family episode is one patch step; its verification is the
    caller's. Every fault counts as a retry. Callers differ in three rules:
    ``latency_scale`` multiplies model latency (1.0 is exact in float); a
    fault beyond ``retry_cap`` retries ends the episode (``None``: no cap);
    without ``retry_on_last_step`` no ``retry`` is written once no step
    remains. Returns (environment, end clock, retries).
    """

    env = init_env(
        manifest, setting, seed=0, budget=None if manifest.family == "code" else budget
    )
    emit(
        "episode_start", clock_ms, episode_id, 0, None,
        {"episode_index": episode_index, "goal": env.goal},
    )
    model_requests = spec.driver_type == "llm"
    retries = 0
    while env.terminal is None and env.step_count < budget:
        step_index = env.step_count
        obs = {"task_id": manifest.task_id, "step": step_index, "progress": env.solved_progress}
        record, action = _driver_call(spec, manifest, obs, step_index, rng)
        model_ms = record.model_latency_ms * latency_scale
        model_timing = TimingFields(model_latency_ms=model_ms)
        if model_requests:  # one request per step, so its index is the step's
            emit("model_request_start", clock_ms, episode_id, step_index, None,
                 {"request_index": step_index})
            clock_ms += model_ms
            emit("model_request_end", clock_ms, episode_id, step_index, model_timing,
                 {"request_index": step_index, "model_latency_ms": model_ms})
        payload = record.to_payload()
        payload["model_latency_ms"] = model_ms
        emit("action_parsed", clock_ms, episode_id, step_index, model_timing, payload)
        emit("env_step_start", clock_ms, episode_id, step_index, None, {"action_kind": action.kind})
        outcome = env_step(env, action, setting, rng)
        clock_ms += outcome.timing.service_time_ms
        emit(
            "env_step_end", clock_ms, episode_id, step_index, outcome.timing,
            {
                "service_time_ms": outcome.timing.service_time_ms,
                "progress": env.solved_progress,
                "fault": outcome.fault,
            },
        )
        if manifest.family == "code":
            break  # the patch is applied once; the verifier owns the verdict
        if outcome.fault:
            retries += 1
            if (retry_cap is not None and retries > retry_cap) or (
                not retry_on_last_step and env.step_count >= budget
            ):
                break
            emit("retry", clock_ms, episode_id, step_index, None,
                 {"attempt": retries, "reason": "env_fault", "scope": "step"})
    return env, clock_ms, retries


def emit_verifier_outcome(
    emit: Emit,
    ticket: Ticket,
    episode_id: str,
    step_index: int,
    status: str,
    evaluator_id: str,
    **extra: Any,
) -> float:
    """The ``verifier_outcome`` of a served ticket, at its completion; returns that time."""

    latency = ticket.completion_ms - ticket.submit_time_ms
    emit(
        "verifier_outcome",
        ticket.completion_ms,
        episode_id,
        step_index,
        TimingFields(
            queue_wait_ms=ticket.queue_wait_ms,
            service_time_ms=ticket.service_demand_ms,
            verifier_latency_ms=latency,
        ),
        {
            "status": status,
            "queue_wait_ms": ticket.queue_wait_ms,
            "verifier_latency_ms": latency,
            "evaluator_id": evaluator_id,
            "ticket_id": ticket.ticket_id,
            **extra,
        },
    )
    return ticket.completion_ms


def end_episode(
    emit: Emit,
    clock_ms: float,
    episode_id: str,
    step_index: int,
    steps: int,
    start_ms: float,
    terminal: TerminalOutcome | None,
    **extra: Any,
) -> EpisodeSummary:
    """An episode's ``terminal_result`` (``error`` without a terminal) and ``episode_end``."""

    if terminal is None:
        status = "missing_terminal"
        emit("error", clock_ms, episode_id, step_index, None,
             {"message": "episode ended without terminal outcome", "scope": "episode"})
    else:
        status = terminal.status
        emit(
            "terminal_result", clock_ms, episode_id, step_index, None,
            {
                "status": status,
                "evaluator_id": terminal.evaluator_id,
                "detail": terminal.detail,
                **extra,
            },
        )
    wall_ms = clock_ms - start_ms
    emit("episode_end", clock_ms, episode_id, 0, None,
         {"status": status, "steps": steps, "wall_ms": wall_ms})
    return EpisodeSummary(episode_id=episode_id, status=status, steps=steps, wall_ms=wall_ms)


# ---------------------------------------------------------------------------
# Run open and close-out (plain runs and controller runs)
# ---------------------------------------------------------------------------


def open_run(
    manifest: TaskManifest,
    driver: DriverRecord,
    repetition: int,
    planned_episodes: int,
    **start: Any,
) -> EventBuilder:
    """The event builder of a new run, its ``run_start`` written at 0."""

    manifest_hash = manifest.manifest_hash()
    run_id = make_run_id(
        manifest_hash, driver.driver_id, driver.setting_label, driver.seed, repetition
    )
    builder = EventBuilder(
        run_id,
        provenance_for(manifest, driver, driver.seed, manifest_hash),
        run_seed=driver.seed,
    )
    builder.emit(
        "run_start",
        0.0,
        payload={
            "setting_label": driver.setting_label,
            "planned_episodes": planned_episodes,
            "driver_type": driver.driver_type,
            **start,
        },
    )
    return builder


def close_run(
    builder: EventBuilder,
    manifest: TaskManifest,
    driver: DriverRecord,
    repetition: int,
    planned_episodes: int,
    summaries: Sequence[EpisodeSummary],
    end_ms: float,
    versions: SuiteVersions | None = None,
    **fields: Any,
) -> tuple[RunRecord, list[EventRecord]]:
    """Write ``run_end``, validate the stream and build the run's record.

    The harness terminal counts successes over planned episodes; a run with
    an episode that ended without a terminal has none. ``fields`` are the
    remaining ``RunRecord`` fields of the caller's run kind.
    """

    successes = sum(1 for item in summaries if item.status == "success")
    builder.emit(
        "run_end",
        end_ms,
        payload={
            "status": "success",
            "successes": successes,
            "episodes_completed": len(summaries),
        },
    )
    trace_complete = builder.finalize()
    terminal = None
    if all(item.status != "missing_terminal" for item in summaries):
        terminal = TerminalOutcome(
            status="success", evaluator_id="harness", detail=f"{successes}/{planned_episodes}"
        )
    manifest_hash = builder.provenance.manifest_hash
    record = RunRecord(
        run_id=builder.run_id,
        task_id=manifest.task_id,
        family=manifest.family,
        manifest_hash=manifest_hash,
        driver=driver,
        setting_label=driver.setting_label,
        seed=driver.seed,
        repetition=repetition,
        event_log_ref=f"logs/{builder.run_id}.log",
        trace_complete=trace_complete,
        freeze=freeze_run(manifest, driver, driver.setting_label, manifest_hash, versions),
        terminal=terminal,
        episode_summaries=tuple(summaries),
        reward_trajectory=tuple(build_reward_trajectory(builder.events)),
        **fields,
    )
    return record, builder.events


# ---------------------------------------------------------------------------
# Plain runs: sequential episodes on one clock
# ---------------------------------------------------------------------------


def _patch_quality(spec: DriverSpec) -> tuple[str, float]:
    if spec.driver_type == "calibration":
        return ("gold" if (spec.mode or "oracle") == "oracle" else "noop", 1.0)
    profile = spec.profile or SyntheticLlmProfile()
    return "generated", profile.success_bias


def _verify_demand_ms(rng: random.Random, family: str, setting: OperatingSetting) -> float:
    return draw_lognormal(
        rng,
        VERIFY_BASE_MS[family]
        * setting.env_latency_multiplier
        * setting.verifier_arrival_rate_boost,
        0.2,
    )


def _verify_patch(
    builder: EventBuilder,
    manifest: TaskManifest,
    spec: DriverSpec,
    setting: OperatingSetting,
    rng: random.Random,
    queue: VerifierQueue,
    episode_id: str,
    episode_index: int,
    clock_ms: float,
) -> tuple[TerminalOutcome, float]:
    """Apply a code episode's patch and verify it; returns (verdict, end clock)."""

    apply_ms = draw_service_ms(rng, 25.0, setting)
    clock_ms += apply_ms
    builder.emit("tool_call", clock_ms, episode_id, 0, TimingFields(tool_latency_ms=apply_ms),
                 {"tool_name": "patch_apply"})
    quality, pass_prob = _patch_quality(spec)
    ticket = queue.ticket(queue.submit(clock_ms, _verify_demand_ms(rng, "code", setting)))
    # Decision stream frozen to (snapshot, run seed, episode) so
    # snapshot-class replay can recompute the verdict bit for bit.
    snapshot = builder.provenance.snapshot_digest
    decision_rng = random.Random(
        f"verify:{snapshot.hex if snapshot else ''}:{builder.run_seed}:{episode_index}"
    )
    terminal = verifier_outcome(
        quality, decision_rng, generated_pass_prob=pass_prob, evaluator_id=manifest.verifier_id
    )
    end_ms = emit_verifier_outcome(
        builder.emit, ticket, episode_id, 0, terminal.status, terminal.evaluator_id,
        detail=terminal.detail, patch_quality=quality, pass_prob=pass_prob,
    )
    return terminal, end_ms


def _run_one_episode(
    builder: EventBuilder,
    manifest: TaskManifest,
    spec: DriverSpec,
    setting: OperatingSetting,
    rng: random.Random,
    queue: VerifierQueue,
    episode_index: int,
    budget: int,
    clock_ms: float,
) -> tuple[EpisodeSummary, float, int]:
    """Execute one episode starting at ``clock_ms``; returns (summary, end clock, retries)."""

    episode_id = f"{builder.run_id}-ep{episode_index:03d}"
    env, end_ms, retries = run_episode_steps(
        builder.emit, manifest, spec, setting, rng, episode_id, episode_index, budget, clock_ms,
        latency_scale=1.0, retry_cap=spec.retry_budget, retry_on_last_step=True,
    )
    terminal = env.terminal
    if manifest.family == "code" and env.step_count:
        # The verifier, not the environment, owns a patch's verdict.
        terminal, end_ms = _verify_patch(
            builder, manifest, spec, setting, rng, queue, episode_id, episode_index, end_ms
        )
    elif manifest.family == "web" and terminal is not None:
        ticket = queue.ticket(queue.submit(end_ms, _verify_demand_ms(rng, "web", setting)))
        end_ms = emit_verifier_outcome(
            builder.emit, ticket, episode_id, env.step_count, terminal.status,
            manifest.verifier_id,
        )
    summary = end_episode(
        builder.emit, end_ms, episode_id, env.step_count, env.step_count, clock_ms, terminal
    )
    return summary, end_ms, retries


def execute_run(
    manifest: TaskManifest,
    spec: DriverSpec,
    setting: OperatingSetting,
    seed: int,
    budget: int,
    planned_episodes: int,
    repetition: int = 0,
    concurrency: int = 1,
    versions: SuiteVersions | None = None,
) -> tuple[RunRecord, list[EventRecord]]:
    """Execute one plain run of sequential episodes on a fresh simulated clock."""

    if not manifest.resolved:
        raise RunnerError("unresolved_manifest", f"manifest {manifest.task_id} not resolved")
    driver = spec.record(seed=seed, setting_label=setting.label, budget=budget)
    builder = open_run(manifest, driver, repetition, planned_episodes)
    rng = random.Random(f"run:{builder.run_id}:{seed}")
    queue = VerifierQueue(servers=1)

    clock_ms = 0.0
    summaries: list[EpisodeSummary] = []
    retry_total = 0
    for index in range(planned_episodes):
        summary, clock_ms, retries = _run_one_episode(
            builder, manifest, spec, setting, rng, queue, index, budget, clock_ms
        )
        summaries.append(summary)
        retry_total += retries
        if not builder.trace_complete:
            # Validator violation: abort the run with an error event.
            builder.emit(
                "error",
                clock_ms,
                payload={"message": "validator rejected emitted events", "scope": "run"},
            )
            break

    return close_run(
        builder, manifest, driver, repetition, planned_episodes, summaries, clock_ms, versions,
        retry_count=retry_total, retry_budget=spec.retry_budget, concurrency=concurrency,
    )


def run_episode(
    manifest: TaskManifest,
    spec: DriverSpec,
    setting: OperatingSetting,
    seed: int,
    budget: int,
) -> tuple[EpisodeSummary, list[EventRecord]]:
    """Execute a single-episode run; returns its summary and the full event stream."""

    record, events = execute_run(
        manifest, spec, setting, seed=seed, budget=budget, planned_episodes=1
    )
    return record.episode_summaries[0], events


# ---------------------------------------------------------------------------
# Reward trajectories
# ---------------------------------------------------------------------------


def build_reward_trajectory(events: Sequence[EventRecord]) -> list[RewardPoint]:
    """Cumulative success fraction at each terminal result, prefixed with (0, 0).

    The denominator is the planned episode count declared at run start. Points
    landing at identical instants collapse to the latest cumulative value.
    """

    planned = 0
    for event in events:
        if event.kind == "run_start":
            planned = int(event.payload.get("planned_episodes", 0))
            break
    if planned <= 0:
        raise RunnerError("invalid_trajectory", "run_start with planned_episodes required")

    points: list[RewardPoint] = [RewardPoint(wall_clock_ms=0.0, reward=0.0)]
    successes = 0
    for event in events:
        if event.kind != "terminal_result":
            continue
        if event.payload.get("status") == "success":
            successes += 1
        reward = successes / planned
        point = RewardPoint(wall_clock_ms=event.wall_clock_ms, reward=reward)
        if points and point.wall_clock_ms == points[-1].wall_clock_ms:
            points[-1] = point
        else:
            points.append(point)
    return points


# ---------------------------------------------------------------------------
# Plan execution and run sets
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class RunSet(Record):
    """The run records of one ``runs/`` directory, whose logs live under ``base_dir``."""

    runs: list[RunRecord]
    base_dir: Path | None = doc_field(default=None, stored=False)
    # Written as the version of the code that writes the file; never read.
    schema_version: str = field(default=SCHEMA_VERSION, init=False)

    def events_for(self, run: RunRecord) -> list[EventRecord]:
        """The events of ``run``'s log, decoded and held to every event rule.

        A log that breaks a rule raises ``invalid_log`` at its first violation;
        one with a line that does not decode to an event, at that line.
        """

        if self.base_dir is None or not run.event_log_ref:
            raise RunnerError("missing_log", f"run {run.run_id} has no readable event log")
        path = self.base_dir / run.event_log_ref
        try:
            _, docs = read_event_log(path)
        except OSError as exc:
            raise RunnerError(
                "missing_log", f"run {run.run_id}: cannot read event log {path}: {exc.strerror}"
            ) from exc
        try:
            events = decode_events(docs)
        except GatebenchError as exc:
            line = _first_undecodable_line(path)
            raise SchemaError(
                "invalid_log", f"run {run.run_id}: line {line}: {exc.code}: {exc.message}"
            ) from exc
        require_valid_log(events, run.run_id)
        return events


def _decodes(line: str) -> bool:
    try:
        EventRecord.from_doc(json.loads(line))
    except GatebenchError:
        return False
    return True


def _first_undecodable_line(path: Path) -> int:
    """The number of the first line of an event log that does not decode to
    an event, the header being line 1; read again only once the log failed."""

    lines = path.read_text(encoding="utf-8").split("\n")
    return next(n for n, line in enumerate(lines[1:], start=2) if line and not _decodes(line))


def _candidate_run(
    entry: PlanEntry, spec: DriverSpec, repetition: int, concurrency: int
) -> RunRecord:
    placeholder = canonical_hash({"unresolved_task": entry.task_id})
    driver = spec.record(entry.seed, entry.setting_label, entry.budget)
    return RunRecord(
        run_id=make_run_id(placeholder, driver.driver_id, entry.setting_label, entry.seed, repetition),
        task_id=entry.task_id,
        family="web",
        manifest_hash=placeholder,
        driver=driver,
        setting_label=entry.setting_label,
        seed=entry.seed,
        repetition=repetition,
        event_log_ref="",
        trace_complete=False,
        manifest_resolved=False,
        retry_budget=spec.retry_budget,
        concurrency=concurrency,
    )


@record
class _PlanContext:
    """What every job of one plan shares; a pool worker receives it once."""

    plan: RunPlan
    root: ReleaseRoot
    store: ManifestStore
    out_dir: Path | None


def _run_job(context: _PlanContext, job: tuple[int, int]) -> RunRecord:
    """Execute one (entry index, repetition) of a plan and write its event log."""

    entry_index, repetition = job
    plan = context.plan
    entry = plan.entries[entry_index]
    spec = plan.drivers[entry.driver]
    try:
        manifest = resolve_manifest(entry.task_id, context.root, context.store)
    except ManifestError:
        return _candidate_run(entry, spec, repetition, plan.concurrency)
    setting = plan.setting_for(entry.setting_label)
    episodes = entry.episodes or plan.episodes_per_run
    if spec.driver_type == "controller":
        from .study import simulate_controller_run  # deferred: study builds on runner

        record, events = simulate_controller_run(
            manifest, setting, spec, entry.seed, entry.budget, episodes, repetition
        )
    else:
        record, events = execute_run(
            manifest,
            spec,
            setting,
            seed=entry.seed,
            budget=entry.budget,
            planned_episodes=episodes,
            repetition=repetition,
            concurrency=plan.concurrency,
        )
    if context.out_dir is not None and events:
        write_event_log(context.out_dir / record.event_log_ref, events)
    return record


# Set once in each pool worker by ``_init_worker``; the parent never sets it.
_worker_task: tuple[Callable[[Any, Any], Any], Any] | None = None


def _init_worker(fn: Callable[[Any, Any], Any], context: Any) -> None:
    global _worker_task
    _worker_task = (fn, context)


def _worker_job(job: Any) -> Any:
    assert _worker_task is not None, "pool worker started without _init_worker"
    fn, context = _worker_task
    return fn(context, job)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_width(cap: int, jobs: int, cpus: int) -> int:
    """Worker processes for a set of jobs: ``cap``, capped by jobs and CPUs."""

    return max(1, min(cap, jobs, cpus))


def map_runs(
    fn: Callable[[_Context, _Job], _Result], context: _Context, jobs: Sequence[_Job], cap: int
) -> list[_Result]:
    """``[fn(context, job) for job in jobs]`` on up to ``cap`` worker processes.

    The pool is ``min(cap, len(jobs), usable CPUs)`` wide; at width 1 every
    job runs in this process. Wider pools are forked, so ``fn`` and
    ``context`` reach each worker once without pickling; only the jobs and
    the results cross the pipe, so both should be small. Results come back
    in job order, and the first error in job order is re-raised with its type
    and code. Whatever a job writes to disk stays written when a later job
    fails.
    """

    width = _pool_width(cap, len(jobs), _usable_cpus())
    if width == 1:
        return [fn(context, job) for job in jobs]
    # Deferred so that no verb pays for importing the pool unless it forks
    # one. A fork start skips re-importing the package in every worker; it
    # assumes the calling process runs no other threads (the CLI runs none).
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=width,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(fn, context),
    )
    try:
        chunksize = max(1, len(jobs) // (4 * width))
        return list(pool.map(_worker_job, jobs, chunksize=chunksize))
    finally:
        pool.shutdown(cancel_futures=True)


def run_plan(
    plan: RunPlan,
    store: ManifestStore,
    out_dir: Path | str | None = None,
) -> RunSet:
    """Execute all plan entries times repetitions on up to ``concurrency`` processes.

    The pool is ``min(plan.concurrency, jobs, usable CPUs)`` worker processes
    wide; at width 1 every run executes in this process. Output order is
    deterministic (entry-major, then repetition) regardless of completion
    order; unresolved tasks become rejected-candidate runs rather than
    failures. With ``out_dir``, each run's event log is written as soon as the
    run finishes, so when a run raises (the first error in plan order is
    re-raised with its type and code), the logs of finished runs may remain
    without a ``runset.json``.
    """

    root = store.load_root()
    if root.root_id != plan.release_root:
        raise RunnerError(
            "invalid_plan",
            f"plan wants root {plan.release_root!r} but store has {root.root_id!r}",
        )

    jobs = [
        (entry_index, repetition)
        for entry_index, entry in enumerate(plan.entries)
        for repetition in range(entry.repetitions)
    ]
    base = None if out_dir is None else Path(out_dir)
    if base is not None:
        (base / "logs").mkdir(parents=True, exist_ok=True)
    context = _PlanContext(plan, root, store, base)

    runs = map_runs(_run_job, context, jobs, cap=plan.concurrency)

    run_ids = [run.run_id for run in runs]
    if len(set(run_ids)) != len(run_ids):
        raise RunnerError("invalid_plan", "run_id collision across plan entries")

    runset = RunSet(runs=runs)
    if base is not None:
        save_runset(runset, base)
        runset.base_dir = base
    return runset


def save_runset(runset: RunSet, out_dir: Path | str) -> Path:
    """Write ``runset.json`` under ``out_dir``, creating it; returns the file's path.

    The file is ``canonical_json(runset.to_doc())`` and a line feed, written
    by ``write_json`` one run at a time: no step holds the whole document
    tree, so the writer's memory grows with one run's document and the
    rendered text, not with the tree of every run. A runset that cannot be
    rendered raises the error ``canonical_json(runset.to_doc())`` raises and
    leaves an existing ``runset.json`` as it was.
    """

    base = Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    path = base / "runset.json"
    write_json(path, runset)
    return path


def load_runset(path: Path | str) -> RunSet:
    path = Path(path)
    index = path if path.is_file() else path / "runset.json"
    runset = RunSet.from_doc(read_json(index, RunnerError, "missing_runset", "invalid_runset"))
    runset.base_dir = index.parent
    return runset


__all__ = [
    "DEFAULT_EPISODES_PER_RUN",
    "DEFAULT_RETRY_BUDGET",
    "DriverSpec",
    "EpisodeSummary",
    "EventBuilder",
    "PlanEntry",
    "RewardPoint",
    "RunPlan",
    "RunRecord",
    "RunSet",
    "RunnerError",
    "build_reward_trajectory",
    "close_run",
    "emit_verifier_outcome",
    "end_episode",
    "execute_run",
    "load_plan",
    "load_runset",
    "make_run_id",
    "map_runs",
    "open_run",
    "provenance_for",
    "run_episode",
    "run_episode_steps",
    "run_plan",
    "save_plan",
    "save_runset",
]
