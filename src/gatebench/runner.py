"""Run execution: the episode kernel, the lane scheduler, event emission, retries, and run records.

A run is one workload-driver-setting execution of ``planned_episodes``
episodes on a single simulated clock. ``LaneScheduler`` plays them on lanes
through the step loop ``run_episode_steps``, with one shared verifier queue:
a plain run is its one-lane, one-server case, and the controller runs of
``study`` add lanes and a hook on each delivery. The runs of a plan, the
study's plan included, are independent, so ``run_plan`` spreads them over a
pool of workers (``map_runs``, shared with replay and the report's log pass),
``concurrency`` wide but never wider than the usable CPUs. The calling
process is worker 0 and forks the others. Worker ``k`` of ``width`` takes
every ``width``-th job from job ``k`` on and writes the event logs of its own
runs; a forked worker, after its last job, sends back only their run
records, in one pickle on a pipe of its own.
Because every run owns its seed, clock, and rng, results are a pure function
of the plan: event logs are byte-identical across concurrency levels.
"""

from __future__ import annotations

import heapq
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable, Final, Mapping, NamedTuple, NoReturn, Sequence, TypeVar

from .drivers import (
    Action,
    DriverError,
    DriverRecord,
    SyntheticLlmProfile,
    calibration_action,
    draw_lognormal,
    scripted_next_action,
    synthetic_llm_call,
)
from .manifest import (
    DEFAULT_PARSER_VERSION,
    FAMILIES,
    FreezeRecord,
    ManifestError,
    ManifestStore,
    TaskManifest,
    freeze_run,
    resolve_manifest,
)
from .records import record
from .schema import (
    HASH_ALGORITHM,
    Digest,
    EventLog,
    EventRecord,
    GatebenchError,
    LogLineError,
    ProvenanceFields,
    Record,
    RunValidator,
    SCHEMA_VERSION,
    SchemaError,
    TimingFields,
    _exact,
    canonical_hash,
    canonical_json,  # unused here; perfbench's tracer self-test patches runner's binding
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
        if self.retry_budget < 0:
            raise RunnerError("invalid_plan", "retry_budget must be >= 0")
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
        if self.episodes is not None and self.episodes < 1:
            raise RunnerError("invalid_plan", "episodes must be >= 1")


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
        if self.episodes_per_run < 1:
            raise RunnerError("invalid_plan", "episodes_per_run must be >= 1")
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


def make_episode_id(run_id: str, index: int) -> str:
    return f"{run_id}-ep{index:03d}"


def parse_episode_index(episode_id: str) -> int:
    """The index in an id from :func:`make_episode_id`; ``ValueError`` without one."""

    _, sep, digits = episode_id.rpartition("-ep")
    if not sep or not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"episode id {episode_id!r} has no episode index")
    return int(digits)


def verdict_rng(snapshot_hex: str, seed: int, episode_index: int) -> random.Random:
    """A code episode's verdict stream, frozen so that R2 replay recomputes it bit for bit."""

    return random.Random(f"verify:{snapshot_hex}:{seed}:{episode_index}")


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
        if self.validator.validate(event):
            self.trace_complete = False
        self.events.append(event)
        if kind == "run_start":
            self._run_span = trace.span_id
        elif kind == "episode_start":
            self._episode_spans[episode_id] = trace.span_id
        return event

    def finalize(self) -> bool:
        if self.validator.finalize():
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
# run's recorder, called with all six of (kind, wall_clock_ms, episode_id,
# step_index, timing, payload), in that order.
Emit = Callable[..., Any]


def _driver_call(
    spec: DriverSpec,
    manifest: TaskManifest,
    obs: Mapping[str, Any],
    step: int,
    rng: random.Random,
) -> tuple[dict[str, Any], Action]:
    """One driver invocation: the ``action_parsed`` payload and the action."""

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
        payload, _ = scripted_next_action(obs, (action,), 0)
        payload["policy_version"] = spec.driver_version
        return payload, action
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

    env = init_env(manifest, budget=None if manifest.family == "code" else budget)
    emit(
        "episode_start", clock_ms, episode_id, 0, None,
        {"episode_index": episode_index, "goal": env.goal},
    )
    model_requests = spec.driver_type == "llm"
    retries = 0
    while env.terminal is None and env.step_count < budget:
        step_index = env.step_count
        obs = {"task_id": manifest.task_id, "step": step_index, "progress": env.solved_progress}
        payload, action = _driver_call(spec, manifest, obs, step_index, rng)
        model_ms = payload["model_latency_ms"] * latency_scale
        payload["model_latency_ms"] = model_ms
        model_timing = TimingFields(model_latency_ms=model_ms)
        if model_requests:  # one request per step, so its index is the step's
            emit("model_request_start", clock_ms, episode_id, step_index, None,
                 {"request_index": step_index})
            clock_ms += model_ms
            emit("model_request_end", clock_ms, episode_id, step_index, model_timing,
                 {"request_index": step_index, "model_latency_ms": model_ms})
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
) -> None:
    """The ``verifier_outcome`` of a served ticket, at its completion."""

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


def end_episode(
    emit: Emit,
    clock_ms: float,
    episode_id: str,
    step_index: int,
    steps: int,
    start_ms: float,
    terminal: TerminalOutcome | None,
    **extra: Any,
) -> None:
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
    emit("episode_end", clock_ms, episode_id, 0, None,
         {"status": status, "steps": steps, "wall_ms": clock_ms - start_ms})


# ---------------------------------------------------------------------------
# Run open and close-out (plain runs and controller runs)
# ---------------------------------------------------------------------------


def open_run(
    manifest: TaskManifest,
    manifest_hash: Digest,
    driver: DriverRecord,
    repetition: int,
    planned_episodes: int,
    **start: Any,
) -> EventBuilder:
    """The event builder of a new run, its ``run_start`` written at 0;
    ``manifest_hash`` is ``manifest.manifest_hash()``."""

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
    **fields: Any,
) -> tuple[RunRecord, list[EventRecord]]:
    """Write ``run_end`` at the last event's time, validate, build the run's record.

    Its episode rows and reward trajectory are :func:`reduce_log`'s. The
    harness terminal counts successes over planned episodes; a run with an
    episode that ended without a terminal has none. ``fields`` are the
    remaining ``RunRecord`` fields of the caller's run kind.
    """

    rows, trajectory = reduce_log(builder.events).outcomes()
    successes = sum(1 for row in rows if row.status == "success")
    builder.emit(
        "run_end",
        builder.events[-1].wall_clock_ms,
        payload={
            "status": "success",
            "successes": successes,
            "episodes_completed": len(rows),
        },
    )
    trace_complete = builder.finalize()
    terminal = None
    if all(row.status != "missing_terminal" for row in rows):
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
        freeze=freeze_run(manifest, driver, driver.setting_label, manifest_hash),
        terminal=terminal,
        episode_summaries=tuple(rows),
        reward_trajectory=tuple(trajectory),
        **fields,
    )
    return record, builder.events


# ---------------------------------------------------------------------------
# The lane scheduler (plain runs and controller runs)
# ---------------------------------------------------------------------------


class LaneScheduler:
    """Discrete-event simulation of one run's episodes over lanes and one verifier.

    Lane ``k`` is first assigned at ``k * stagger_ms``; an assigned lane at or
    above ``target`` idles until :meth:`set_target` raises the target past it.
    A run kind subclasses this with three steps that write through ``emit``
    and count ``retries``: ``body(time_ms, index)`` plays an episode and
    returns (its end, its verifier job or ``None``), ``demand(job)`` is a
    submission's service time, and ``deliver(time_ms, lane, job, ticket)``
    ends in :meth:`submit` or :meth:`lane_done`. Steps due at one instant run
    in scheduling order.
    """

    def __init__(
        self, emit: Emit, episodes: int, lanes: int, servers: int, stagger_ms: float = 0.0
    ) -> None:
        self.emit = emit
        self.queue = VerifierQueue(servers=servers)
        self.target = lanes
        self.idle_lanes: set[int] = set()
        self.pending = list(range(episodes))
        self.retries = 0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        for lane in range(lanes):
            self._schedule(lane * stagger_ms, self._assign, (lane,))

    def _schedule(self, time_ms: float, step: Callable[..., None], args: tuple) -> None:
        heapq.heappush(self._heap, (time_ms, self._seq, step, args))
        self._seq += 1

    def _assign(self, time_ms: float, lane: int) -> None:
        if lane >= self.target:
            self.idle_lanes.add(lane)
        elif self.pending:
            end_ms, job = self.body(time_ms, self.pending.pop(0))
            if job is None:
                self.lane_done(end_ms, lane)
            else:
                self._schedule(end_ms, self.submit, (lane, job))

    def submit(self, time_ms: float, lane: int, job: Any) -> None:
        """Queue ``job`` at the verifier; it is delivered at its ticket's completion."""

        ticket = self.queue.submit(time_ms, self.demand(job))
        self._schedule(ticket.completion_ms, self.deliver, (lane, job, ticket))

    def lane_done(self, time_ms: float, lane: int) -> None:
        """``lane`` is free at ``time_ms`` for its next episode."""

        self._schedule(time_ms, self._assign, (lane,))

    def set_target(self, time_ms: float, target: int) -> None:
        """Move the lane target; idle lanes below the new one restart at ``time_ms``."""

        self.target = target
        for lane in sorted(self.idle_lanes):
            if lane < target:
                self.idle_lanes.discard(lane)
                self._schedule(time_ms, self._assign, (lane,))

    def run(self) -> None:
        """Run every scheduled step, in (time, seq) order, until none is left."""

        while self._heap:
            time_ms, _, step, args = heapq.heappop(self._heap)
            step(time_ms, *args)


# ---------------------------------------------------------------------------
# Plain runs: the scheduler's one-lane, one-server case
# ---------------------------------------------------------------------------


def _patch_quality(spec: DriverSpec) -> tuple[str, float]:
    if spec.driver_type == "calibration":
        return ("gold" if (spec.mode or "oracle") == "oracle" else "noop", 1.0)
    profile = spec.profile or SyntheticLlmProfile()
    return "generated", profile.success_bias


class _PlainRun(LaneScheduler):
    """One plain run, written straight into ``builder``: one lane, one server and
    one random stream (steps, then patch apply, then verifier demand). A code
    patch or a web terminal goes to the verifier as the job (episode id, start,
    steps, outcome step index, verdict, outcome extras); any other episode ends
    in its body. A validator rejection stops the run when its episode ends.
    """

    def __init__(
        self,
        builder: EventBuilder,
        manifest: TaskManifest,
        spec: DriverSpec,
        setting: OperatingSetting,
        budget: int,
        episodes: int,
    ) -> None:
        super().__init__(builder.emit, episodes, lanes=1, servers=1)
        self.builder = builder
        self.manifest = manifest
        self.spec = spec
        self.setting = setting
        self.budget = budget
        self.rng = random.Random(f"run:{builder.run_id}:{builder.run_seed}")

    def body(self, time_ms: float, episode_index: int) -> tuple[float, tuple | None]:
        manifest, builder = self.manifest, self.builder
        episode_id = make_episode_id(builder.run_id, episode_index)
        env, end_ms, retries = run_episode_steps(
            self.emit, manifest, self.spec, self.setting, self.rng, episode_id,
            episode_index, self.budget, time_ms,
            latency_scale=1.0, retry_cap=self.spec.retry_budget, retry_on_last_step=True,
        )
        self.retries += retries
        if manifest.family == "code" and env.step_count:
            apply_ms = draw_service_ms(self.rng, 25.0, self.setting)
            end_ms += apply_ms
            self.emit("tool_call", end_ms, episode_id, 0, TimingFields(tool_latency_ms=apply_ms),
                      {"tool_name": "patch_apply"})
            # The verifier, not the environment, owns a patch's verdict; its
            # stream is frozen apart from the run's.
            quality, pass_prob = _patch_quality(self.spec)
            snapshot = builder.provenance.snapshot_digest
            verdict = verifier_outcome(
                quality,
                verdict_rng(snapshot.hex if snapshot else "", builder.run_seed, episode_index),
                generated_pass_prob=pass_prob,
                evaluator_id=manifest.verifier_id,
            )
            extra = {"detail": verdict.detail, "patch_quality": quality, "pass_prob": pass_prob}
            return end_ms, (episode_id, time_ms, env.step_count, 0, verdict, extra)
        if manifest.family == "web" and env.terminal is not None:
            return end_ms, (episode_id, time_ms, env.step_count, env.step_count, env.terminal, {})
        end_episode(
            self.emit, end_ms, episode_id, env.step_count, env.step_count, time_ms, env.terminal
        )
        return end_ms, None

    def demand(self, job: tuple) -> float:
        setting = self.setting
        demand = FAMILIES[self.manifest.family].verify_base_ms * setting.env_latency_multiplier
        return draw_lognormal(self.rng, demand * setting.verifier_arrival_rate_boost, 0.2)

    def deliver(self, time_ms: float, lane: int, job: tuple, ticket: Ticket) -> None:
        episode_id, start_ms, steps, step_index, terminal, extra = job
        emit_verifier_outcome(self.emit, ticket, episode_id, step_index, terminal.status,
                              self.manifest.verifier_id, **extra)
        end_episode(self.emit, time_ms, episode_id, steps, steps, start_ms, terminal)
        self.lane_done(time_ms, lane)

    def lane_done(self, time_ms: float, lane: int) -> None:
        if self.builder.trace_complete:
            super().lane_done(time_ms, lane)
        else:  # validator violation: abort the run with an error event
            self.emit("error", time_ms,
                      payload={"message": "validator rejected emitted events", "scope": "run"})


def execute_run(
    manifest: TaskManifest,
    spec: DriverSpec,
    setting: OperatingSetting,
    seed: int,
    budget: int,
    planned_episodes: int,
    repetition: int = 0,
    concurrency: int = 1,
    manifest_hash: Digest | None = None,
) -> tuple[RunRecord, list[EventRecord]]:
    """Execute one plain run on a fresh simulated clock. ``manifest_hash`` is
    the manifest's verified hash, when the caller has it, or else computed."""

    if not manifest.resolved:
        raise RunnerError("unresolved_manifest", f"manifest {manifest.task_id} not resolved")
    driver = spec.record(seed=seed, setting_label=setting.label, budget=budget)
    manifest_hash = manifest_hash or manifest.manifest_hash()
    builder = open_run(manifest, manifest_hash, driver, repetition, planned_episodes)
    run = _PlainRun(builder, manifest, spec, setting, budget, planned_episodes)
    run.run()
    return close_run(
        builder, manifest, driver, repetition, planned_episodes,
        retry_count=run.retries, retry_budget=spec.retry_budget, concurrency=concurrency,
    )


# ---------------------------------------------------------------------------
# The log reducer: what the runner, replay and report read of a run's events
# ---------------------------------------------------------------------------


class ReducedLog(NamedTuple):
    """A run's events in one pass (:func:`reduce_log`), payload values as logged.

    ``points`` is (clock, successes so far) per ``terminal_result`` instant,
    from (0, 0). ``steps`` is, per ``env_step_end``: (episode id, service
    time, the latency its episode's last ``model_request_end`` since its
    previous step recorded or 0.0, progress)."""

    planned_episodes: Any
    points: list[tuple[float, int]]
    ends: list[EventRecord]
    steps: list[tuple[str, Any, Any, Any]]
    verifier_outcomes: list[EventRecord]
    goals: dict[str, Any]
    terminals: dict[str, Any]
    parse_statuses: dict[str, int]
    invalid_actions: int
    latest_ms: float

    def outcomes(self) -> tuple[list[EpisodeSummary], list[RewardPoint]]:
        """(The episode rows, one per ``episode_end``; the reward trajectory,
        each point's successes over the first ``run_start``'s
        ``planned_episodes``, which must be a positive int: ``invalid_trajectory``)."""

        rows = [
            EpisodeSummary(end.episode_id, end.payload["status"], end.payload["steps"],
                           end.payload.get("wall_ms"))
            for end in self.ends
        ]
        planned = self.planned_episodes
        if type(planned) is not int or planned <= 0:
            raise RunnerError("invalid_trajectory", "run_start with planned_episodes required")
        return rows, [RewardPoint(clock, count / planned) for clock, count in self.points]


def reduce_log(events: Sequence[EventRecord]) -> ReducedLog:
    """Reduce a run's events in one pass; raises nothing on a valid log. Keys
    R1 replay does not read are read with ``get``: R1 bundles are not validated."""

    planned, successes, invalid, latest, points = None, 0, 0, 0.0, [(0.0, 0)]
    ends, steps, outcomes = [], [], []
    goals, terminals, parse_statuses = {}, {}, {}
    model_ms = {}  # episode id -> its latest request's latency, until its next step
    for event in events:
        kind, payload, episode_id = event.kind, event.payload, event.episode_id
        if kind == "env_step_end":
            steps.append((episode_id, payload["service_time_ms"], model_ms.pop(episode_id, 0.0),
                          payload["progress"]))
        elif kind == "model_request_end":
            model_ms[episode_id] = payload["model_latency_ms"]
        elif kind == "action_parsed":
            status = str(payload.get("parse_status"))
            parse_statuses[status] = parse_statuses.get(status, 0) + 1
            invalid += bool(payload.get("invalid_action"))
        elif kind == "terminal_result":
            status = terminals[episode_id] = payload["status"]
            successes += status == "success"
            if event.wall_clock_ms == points[-1][0]:
                points.pop()
            points.append((event.wall_clock_ms, successes))
        elif kind == "episode_end":
            ends.append(event)
        elif kind == "verifier_outcome":
            outcomes.append(event)
        elif kind == "episode_start":
            goals[episode_id] = payload.get("goal", 0)
        elif kind == "run_start" and planned is None:
            planned = payload.get("planned_episodes")
        if event.wall_clock_ms > latest:
            latest = event.wall_clock_ms
    return ReducedLog(
        planned, points, ends, steps, outcomes, goals, terminals, parse_statuses, invalid, latest
    )


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

    def events_for(self, run: RunRecord) -> EventLog:
        """The events of ``run``'s log, held to every event rule.

        This is the one way a verb gets a run's events. ``schema.read_event_log``
        reads, parses and decodes the log once; the events of an R1 log keep
        the text of their lines (``EventLog.lines``). An unreadable log is
        ``missing_log``. A line that does not decode to an event is
        ``invalid_log`` as ``run <id>: line N: <code>: <message>``. The first
        rule the events break is ``invalid_log`` (``schema.require_valid_log``).
        """

        if self.base_dir is None or not run.event_log_ref:
            raise RunnerError("missing_log", f"run {run.run_id} has no readable event log")
        path = self.base_dir / run.event_log_ref
        try:
            _, events = read_event_log(path)
        except OSError as exc:
            raise RunnerError(
                "missing_log", f"run {run.run_id}: cannot read event log {path}: {exc.strerror}"
            ) from exc
        except LogLineError as exc:
            raise SchemaError("invalid_log", f"run {run.run_id}: {exc.message}") from exc
        require_valid_log(events, run.run_id)
        return events


def candidate_manifest_hash(task_id: str) -> Digest:
    """The placeholder ``manifest_hash`` of a candidate run, whose task did not resolve."""

    return canonical_hash({"unresolved_task": task_id})


def _candidate_run(
    entry: PlanEntry, spec: DriverSpec, repetition: int, concurrency: int
) -> RunRecord:
    placeholder = candidate_manifest_hash(entry.task_id)
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
    """What every job of one plan shares; a forked worker inherits it.

    ``manifests`` holds each task id's resolved manifest with its hash, as
    the release root registers it and ``resolve_manifest`` has verified it,
    or ``None`` where it did not resolve, so its runs become
    rejected-candidate runs.
    """

    plan: RunPlan
    manifests: dict[str, tuple[TaskManifest, Digest] | None]
    out_dir: Path | None


def _run_job(context: _PlanContext, job: tuple[int, int]) -> RunRecord:
    """Execute one (entry index, repetition) of a plan and write its event log."""

    entry_index, repetition = job
    plan = context.plan
    entry = plan.entries[entry_index]
    spec = plan.drivers[entry.driver]
    resolved = context.manifests[entry.task_id]
    if resolved is None:
        return _candidate_run(entry, spec, repetition, plan.concurrency)
    manifest, manifest_hash = resolved
    setting = plan.setting_for(entry.setting_label)
    episodes = entry.episodes or plan.episodes_per_run
    if spec.driver_type == "controller":
        from .study import simulate_controller_run  # deferred: study builds on runner

        record, events = simulate_controller_run(
            manifest, setting, spec, entry.seed, entry.budget, episodes, repetition, manifest_hash
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
            manifest_hash=manifest_hash,
        )
    if context.out_dir is not None and events:
        write_event_log(context.out_dir / record.event_log_ref, events)
    return record


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_width(cap: int, jobs: int, cpus: int) -> int:
    """Workers for a set of jobs, the calling process included: ``cap``,
    capped by jobs and CPUs; ``map_runs`` forks one child fewer."""

    return max(1, min(cap, jobs, cpus))


def _run_stride(
    fn: Callable[[Any, Any], Any], context: Any, jobs: Sequence[Any]
) -> tuple[list[Any], Exception | None]:
    """Run ``jobs`` in order up to the first error: ``(results, that error or None)``."""

    results: list[Any] = []
    for job in jobs:
        try:
            results.append(fn(context, job))
        except Exception as exc:  # noqa: BLE001  (map_runs re-raises it in job order)
            return results, exc
    return results, None


def _work(
    fn: Callable[[Any, Any], Any], context: Any, jobs: Sequence[Any], pipe: int, mask: Any
) -> NoReturn:
    """A forked child: restore the signal ``mask``, run its stride, report, exit.

    The report is one pickle of ``(results, failure)`` written to ``pipe``;
    ``failure`` is the exception that stopped the stride, or ``None``. The
    child leaves by ``os._exit`` on every path, so nothing of the parent's
    (its ``finally`` blocks, ``atexit`` handlers, buffered output) runs twice.
    """

    status = 1
    try:
        import pickle
        import signal

        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results, failure = _run_stride(fn, context, jobs)
        try:
            report = pickle.dumps((results, failure), pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001  (the failure cannot be pickled)
            failure = RunnerError(
                "worker_failed", f"worker {os.getpid()}: a job raised {failure!r}"
            )
            report = pickle.dumps((results, failure), pickle.HIGHEST_PROTOCOL)
        with open(pipe, "wb") as out:
            out.write(report)
        status = 0
    finally:
        os._exit(status)


def _child_report(pid: int, status: int, report: bytes) -> tuple[list[Any], Exception | None]:
    """A reaped child's ``(results, failure)``; one that left no readable
    report is ``([], RunnerError("worker_failed"))``, so it counts at its first job."""

    import pickle
    import signal

    try:
        return pickle.loads(report)
    except Exception:  # noqa: BLE001  (an empty, cut or unreadable report)
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by {signal.Signals(-code).name}" if code < 0 else (
            f"exited with status {code}"
        )
        return [], RunnerError(
            "worker_failed", f"worker {pid} {how} and left no readable report"
        )


def map_runs(
    fn: Callable[[_Context, _Job], _Result], context: _Context, jobs: Sequence[_Job], cap: int
) -> list[_Result]:
    """``[fn(context, job) for job in jobs]`` on up to ``cap`` worker processes.

    The pool is ``width = min(cap, len(jobs), usable CPUs)`` workers, and the
    calling process is worker 0: it forks ``width - 1`` plain ``os.fork``
    children, so ``fn`` and ``context`` reach each without pickling, and the
    calling process must run no other threads (the CLI runs none). Worker
    ``k`` runs jobs ``k``, ``k + width``, ... in order and stops at its first
    error; worker 0 does so in this process once every child is forked, and
    child ``k`` then writes one pickle, its results and that error, to a pipe
    of its own and exits. At width 1 nothing is forked and the same loop runs
    every job here. The parent then reads the pipes one after another, which
    loses no parallelism because a child writes only after its last job, and
    reaps every child on every path; an interrupt in the parent kills its
    children first. SIGINT is blocked while each child is forked, so an
    interrupt that arrives meanwhile is raised in the parent once the fork
    has returned, not swallowed by an at-fork hook. Results come back in job
    order, and the first error in job order is re-raised with its type and
    code; from worker 0's stride it is the job's own exception. A child that
    exits without a readable report raises ``RunnerError("worker_failed")``
    naming its pid and exit status or signal, counted at its first job; so
    does a child's job error that cannot be pickled, with its repr. Whatever
    a job writes to disk stays written when another job fails.
    """

    import signal

    width = _pool_width(cap, len(jobs), _usable_cpus())
    pids: list[int] = []
    pipes: list[BinaryIO] = []
    try:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())  # the mask to restore
        for k in range(1, width):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                pid = os.fork()
                if pid == 0:
                    os.close(read_end)
                    _work(fn, context, jobs[k::width], write_end, mask)
                pids.append(pid)
            finally:
                os.close(write_end)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        strides = [_run_stride(fn, context, jobs[::width])]
        reports = [pipe.read() for pipe in pipes]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]

    strides += map(_child_report, pids, statuses, reports)
    results: list[Any] = [None] * len(jobs)
    failures: list[tuple[int, Exception]] = []
    for k, (done, failure) in enumerate(strides):
        if failure is not None:
            failures.append((k + len(done) * width, failure))
        else:
            results[k::width] = done
    if failures:
        raise min(failures, key=lambda item: item[0])[1]
    return results


def run_plan(
    plan: RunPlan,
    store: ManifestStore,
    out_dir: Path | str | None = None,
) -> RunSet:
    """Execute all plan entries times repetitions on up to ``concurrency`` processes.

    Each distinct task id's manifest is resolved once, in this process,
    before the first run: a task that does not resolve (a ``ManifestError``)
    becomes rejected-candidate runs rather than a failure, and any other
    error, such as a manifest file that does not decode, is raised before a
    log is written. The runs then go to ``map_runs``, whose pool is
    ``min(plan.concurrency, jobs, usable CPUs)`` workers wide, this process
    being the first. Output order is deterministic (entry-major, then
    repetition) regardless of completion order. With ``out_dir``, each run's
    event log is written as soon as the run finishes, so when a run raises
    (the first error in plan order is re-raised with its type and code), the
    logs of finished runs may remain without a ``runset.json``.
    """

    root = store.load_root()
    if root.root_id != plan.release_root:
        raise RunnerError(
            "invalid_plan",
            f"plan wants root {plan.release_root!r} but store has {root.root_id!r}",
        )
    manifests: dict[str, tuple[TaskManifest, Digest] | None] = {}
    for entry in plan.entries:
        if entry.task_id not in manifests:
            try:
                manifest = resolve_manifest(entry.task_id, root, store)
            except ManifestError:
                manifests[entry.task_id] = None
            else:  # resolve_manifest has checked the manifest's hash against this one
                registered = Digest(HASH_ALGORITHM, root.registry[entry.task_id])
                manifests[entry.task_id] = (manifest, registered)

    jobs = [
        (entry_index, repetition)
        for entry_index, entry in enumerate(plan.entries)
        for repetition in range(entry.repetitions)
    ]
    base = None if out_dir is None else Path(out_dir)
    if base is not None:
        (base / "logs").mkdir(parents=True, exist_ok=True)
    context = _PlanContext(plan, manifests, base)

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
    """Write ``runset.json`` under ``out_dir`` by ``write_json``; returns the file's path."""

    base = Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    path = base / "runset.json"
    write_json(path, runset)
    return path


def load_runset(path: Path | str) -> RunSet:
    """Read ``runset.json`` (``path`` or the file under it) and check its index:
    ``invalid_runset`` if a run id repeats or holds a ``/``, a log ref is not
    ``logs/<run_id>.log`` for a resolved run or ``""`` and the placeholder hash
    for a candidate, a retry count, retry budget or repetition is negative, or
    a concurrency is below 1."""

    path = Path(path)
    index = path if path.is_file() else path / "runset.json"
    runset = RunSet.from_doc(read_json(index, RunnerError, "missing_runset", "invalid_runset"))
    seen: set[str] = set()
    for run in runset.runs:
        if run.run_id in seen:
            problem = "is indexed twice"
        elif "/" in run.run_id:
            problem = "has a '/' in its run id"
        elif run.event_log_ref != (
            ref := f"logs/{run.run_id}.log" if run.manifest_resolved else ""
        ):
            problem = f"has event_log_ref {run.event_log_ref!r}, not {ref!r}"
        elif not run.manifest_resolved and run.manifest_hash != candidate_manifest_hash(run.task_id):
            problem = "is a candidate whose manifest_hash is not its task's placeholder"
        elif min(run.retry_count, run.retry_budget, run.repetition) < 0:
            problem = "has a negative retry_count, retry_budget or repetition"
        elif run.concurrency < 1:
            problem = f"has concurrency {run.concurrency}, below 1"
        else:
            seen.add(run.run_id)
            continue
        raise RunnerError("invalid_runset", f"{index}: run {run.run_id!r} {problem}")
    runset.base_dir = index.parent
    return runset


__all__ = [
    "DEFAULT_EPISODES_PER_RUN",
    "DEFAULT_RETRY_BUDGET",
    "DriverSpec",
    "EpisodeSummary",
    "EventBuilder",
    "LaneScheduler",
    "PlanEntry",
    "ReducedLog",
    "RewardPoint",
    "RunPlan",
    "RunRecord",
    "RunSet",
    "RunnerError",
    "candidate_manifest_hash",
    "close_run",
    "emit_verifier_outcome",
    "end_episode",
    "execute_run",
    "load_plan",
    "load_runset",
    "make_episode_id",
    "make_run_id",
    "map_runs",
    "open_run",
    "parse_episode_index",
    "provenance_for",
    "reduce_log",
    "run_episode_steps",
    "run_plan",
    "save_plan",
    "save_runset",
    "verdict_rng",
]
