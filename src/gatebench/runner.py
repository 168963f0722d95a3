"""Run execution: episode loops, event emission, retries, and run records.

A run is one workload-driver-setting execution of ``planned_episodes``
episodes on a single simulated clock. Episodes inside a plain run execute
sequentially. The runs of a plan are independent, so ``run_plan`` spreads them
over a pool of worker processes, ``concurrency`` wide but never wider than the
usable CPUs; each worker writes the event logs of its own runs and sends back
only their run records. Because every run owns its seed, clock, and rng,
results are a pure function of the plan: event logs are byte-identical across
concurrency levels.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Final, Mapping, Sequence

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
    FreezeRecord,
    ManifestError,
    ManifestStore,
    ReleaseRoot,
    SuiteVersions,
    TaskManifest,
    freeze_run,
    resolve_manifest,
)
from .schema import (
    ActionRecord,
    Digest,
    EventRecord,
    GatebenchError,
    ProvenanceFields,
    RunValidator,
    SCHEMA_VERSION,
    TimingFields,
    canonical_hash,
    canonical_json,
    new_trace_context,
    read_event_log,
    write_event_log,
)
from .simenv import (
    OperatingSetting,
    TerminalOutcome,
    VERIFY_BASE_MS,
    VerifierQueue,
    draw_service_ms,
    env_step,
    init_env,
    setting_for_label,
    submit_patch,
    verifier_outcome,
)

DEFAULT_EPISODES_PER_RUN: Final = 4
DEFAULT_RETRY_BUDGET: Final = 2
RUN_ID_HEX_LEN: Final = 16


class RunnerError(GatebenchError):
    """Raised for invalid plans, unresolved manifests, missing logs and bad trajectories."""


# ---------------------------------------------------------------------------
# Driver specifications (plan-file driver configuration)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DriverSpec:
    """Driver configuration as written in a run plan."""

    name: str
    driver_type: str
    evidence_status: str = "paper_facing"
    driver_version: str = "1.0.0"
    parser_version: str = DEFAULT_PARSER_VERSION
    mode: str | None = None  # calibration: "oracle" | "noop"
    script: tuple[str, ...] = ()
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

    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": self.name,
            "driver_type": self.driver_type,
            "evidence_status": self.evidence_status,
            "driver_version": self.driver_version,
            "parser_version": self.parser_version,
            "cyclic": self.cyclic,
            "retry_budget": self.retry_budget,
        }
        if self.mode is not None:
            doc["mode"] = self.mode
        if self.script:
            doc["script"] = list(self.script)
        if self.profile is not None:
            doc["profile"] = self.profile.to_doc()
        if self.model_family is not None:
            doc["model_family"] = self.model_family
        if self.backend_engine is not None:
            doc["backend_engine"] = self.backend_engine
        if self.model_backend_id is not None:
            doc["model_backend_id"] = self.model_backend_id
        if self.hooks_enabled is not None:
            doc["hooks_enabled"] = self.hooks_enabled
        return doc

    @classmethod
    def from_doc(cls, name: str, doc: Mapping[str, Any]) -> "DriverSpec":
        return cls(
            name=name,
            driver_type=str(doc["driver_type"]),
            evidence_status=str(doc.get("evidence_status", "paper_facing")),
            driver_version=str(doc.get("driver_version", "1.0.0")),
            parser_version=str(doc.get("parser_version", DEFAULT_PARSER_VERSION)),
            mode=str(doc["mode"]) if "mode" in doc else None,
            script=tuple(str(item) for item in doc.get("script", ())),
            cyclic=bool(doc.get("cyclic", True)),
            profile=(
                SyntheticLlmProfile.from_doc(doc["profile"]) if "profile" in doc else None
            ),
            model_family=str(doc["model_family"]) if "model_family" in doc else None,
            backend_engine=str(doc["backend_engine"]) if "backend_engine" in doc else None,
            model_backend_id=(
                str(doc["model_backend_id"]) if "model_backend_id" in doc else None
            ),
            retry_budget=int(doc.get("retry_budget", DEFAULT_RETRY_BUDGET)),
            hooks_enabled=str(doc["hooks_enabled"]) if "hooks_enabled" in doc else None,
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


@dataclass(frozen=True, slots=True)
class PlanEntry:
    task_id: str
    driver: str
    setting_label: str
    seed: int
    budget: int
    repetitions: int = 1
    episodes: int | None = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise RunnerError("invalid_plan", "repetitions must be >= 1")
        if self.budget < 1:
            raise RunnerError("invalid_plan", "budget must be >= 1")

    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "task_id": self.task_id,
            "driver": self.driver,
            "setting": self.setting_label,
            "seed": self.seed,
            "budget": self.budget,
            "repetitions": self.repetitions,
        }
        if self.episodes is not None:
            doc["episodes"] = self.episodes
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "PlanEntry":
        return cls(
            task_id=str(doc["task_id"]),
            driver=str(doc["driver"]),
            setting_label=str(doc["setting"]),
            seed=int(doc["seed"]),
            budget=int(doc["budget"]),
            repetitions=int(doc.get("repetitions", 1)),
            episodes=int(doc["episodes"]) if "episodes" in doc else None,
        )


@dataclass(frozen=True, slots=True)
class RunPlan:
    entries: tuple[PlanEntry, ...]
    drivers: dict[str, DriverSpec]
    release_root: str
    concurrency: int = 1
    episodes_per_run: int = DEFAULT_EPISODES_PER_RUN
    settings: dict[str, OperatingSetting] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.entries:
            raise RunnerError("invalid_plan", "plan has no entries")
        if self.concurrency < 1:
            raise RunnerError("invalid_plan", "concurrency must be >= 1")
        for entry in self.entries:
            if entry.driver not in self.drivers:
                raise RunnerError(
                    "invalid_plan", f"entry references unknown driver {entry.driver!r}"
                )

    def setting_for(self, label: str) -> OperatingSetting:
        """Plan-defined setting when present, built-in definition otherwise."""

        if label in self.settings:
            return self.settings[label]
        return setting_for_label(label)

    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "release_root": self.release_root,
            "concurrency": self.concurrency,
            "episodes_per_run": self.episodes_per_run,
            "drivers": {name: spec.to_doc() for name, spec in sorted(self.drivers.items())},
            "entries": [entry.to_doc() for entry in self.entries],
        }
        if self.settings:
            doc["settings"] = {
                label: setting.to_doc() for label, setting in sorted(self.settings.items())
            }
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "RunPlan":
        drivers = {
            name: DriverSpec.from_doc(name, spec_doc)
            for name, spec_doc in doc.get("drivers", {}).items()
        }
        settings = {
            label: OperatingSetting.from_doc(setting_doc)
            for label, setting_doc in doc.get("settings", {}).items()
        }
        return cls(
            entries=tuple(PlanEntry.from_doc(item) for item in doc["entries"]),
            drivers=drivers,
            release_root=str(doc["release_root"]),
            concurrency=int(doc.get("concurrency", 1)),
            episodes_per_run=int(doc.get("episodes_per_run", DEFAULT_EPISODES_PER_RUN)),
            settings=settings,
        )


def load_plan(path: Path | str) -> RunPlan:
    return RunPlan.from_doc(json.loads(Path(path).read_text(encoding="utf-8")))


def save_plan(plan: RunPlan, path: Path | str) -> None:
    Path(path).write_text(canonical_json(plan.to_doc()) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RewardPoint:
    wall_clock_ms: float
    reward: float

    def to_doc(self) -> dict[str, float]:
        return {"wall_clock_ms": self.wall_clock_ms, "reward": self.reward}

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "RewardPoint":
        return cls(wall_clock_ms=float(doc["wall_clock_ms"]), reward=float(doc["reward"]))


@dataclass(frozen=True, slots=True)
class EpisodeSummary:
    episode_id: str
    status: str
    steps: int
    wall_ms: float

    def to_doc(self) -> dict[str, Any]:
        return {
            "episode_id": self.episode_id,
            "status": self.status,
            "steps": self.steps,
            "wall_ms": self.wall_ms,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "EpisodeSummary":
        return cls(
            episode_id=str(doc["episode_id"]),
            status=str(doc["status"]),
            steps=int(doc["steps"]),
            wall_ms=float(doc["wall_ms"]),
        )


@dataclass(frozen=True, slots=True)
class RunRecord:
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

    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "run_id": self.run_id,
            "task_id": self.task_id,
            "family": self.family,
            "manifest_hash": self.manifest_hash.to_doc(),
            "driver": self.driver.to_doc(),
            "setting_label": self.setting_label,
            "seed": self.seed,
            "repetition": self.repetition,
            "event_log_ref": self.event_log_ref,
            "trace_complete": self.trace_complete,
            "episode_summaries": [item.to_doc() for item in self.episode_summaries],
            "reward_trajectory": [item.to_doc() for item in self.reward_trajectory],
            "manifest_resolved": self.manifest_resolved,
            "invalid_sample": self.invalid_sample,
            "retry_count": self.retry_count,
            "retry_budget": self.retry_budget,
            "concurrency": self.concurrency,
        }
        if self.freeze is not None:
            doc["freeze"] = self.freeze.to_doc()
        if self.terminal is not None:
            doc["terminal"] = self.terminal.to_doc()
        if self.backend is not None:
            doc["backend"] = self.backend
        if self.variant is not None:
            doc["variant"] = self.variant
        if self.horizon_ms is not None:
            doc["horizon_ms"] = self.horizon_ms
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "RunRecord":
        return cls(
            run_id=str(doc["run_id"]),
            task_id=str(doc["task_id"]),
            family=str(doc["family"]),
            manifest_hash=Digest.from_doc(doc["manifest_hash"]),
            driver=DriverRecord.from_doc(doc["driver"]),
            setting_label=str(doc["setting_label"]),
            seed=int(doc["seed"]),
            repetition=int(doc["repetition"]),
            event_log_ref=str(doc["event_log_ref"]),
            trace_complete=bool(doc["trace_complete"]),
            freeze=FreezeRecord.from_doc(doc["freeze"]) if "freeze" in doc else None,
            terminal=TerminalOutcome.from_doc(doc["terminal"]) if "terminal" in doc else None,
            episode_summaries=tuple(
                EpisodeSummary.from_doc(item) for item in doc.get("episode_summaries", [])
            ),
            reward_trajectory=tuple(
                RewardPoint.from_doc(item) for item in doc.get("reward_trajectory", [])
            ),
            manifest_resolved=bool(doc.get("manifest_resolved", True)),
            invalid_sample=bool(doc.get("invalid_sample", False)),
            retry_count=int(doc.get("retry_count", 0)),
            retry_budget=int(doc.get("retry_budget", DEFAULT_RETRY_BUDGET)),
            concurrency=int(doc.get("concurrency", 1)),
            backend=str(doc["backend"]) if "backend" in doc else None,
            variant=str(doc["variant"]) if "variant" in doc else None,
            horizon_ms=float(doc["horizon_ms"]) if "horizon_ms" in doc else None,
        )


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


class EventBuilder:
    """Sequence, span, and validation bookkeeping for one run's event stream."""

    def __init__(
        self,
        run_id: str,
        provenance: ProvenanceFields,
        run_seed: int,
        strict: bool = True,
    ) -> None:
        self.run_id = run_id
        self.provenance = provenance
        self.run_seed = run_seed
        self.validator = RunValidator(strict=strict)
        self.events: list[EventRecord] = []
        self.trace_complete = True
        self._sequence = 0
        self._span_counter = 0
        self._run_span: str | None = None
        self._episode_spans: dict[str, str] = {}

    def _next_trace(self, episode_id: str):
        ctx = new_trace_context(
            self.run_seed,
            self._span_counter,
            parent_span_id=self._episode_spans.get(episode_id, self._run_span),
        )
        self._span_counter += 1
        return ctx

    def emit(
        self,
        kind: str,
        wall_clock_ms: float,
        episode_id: str = "",
        step_index: int = 0,
        timing: TimingFields | None = None,
        payload: Mapping[str, Any] | None = None,
    ) -> EventRecord:
        trace = self._next_trace(episode_id)
        event = EventRecord(
            run_id=self.run_id,
            episode_id=episode_id,
            step_index=step_index,
            trace=trace,
            kind=kind,
            sequence=self._sequence,
            wall_clock_ms=wall_clock_ms,
            timing=timing or TimingFields(),
            provenance=self.provenance,
            payload=dict(payload or {}),
        )
        self._sequence += 1
        report = self.validator.validate(event)
        if not report.ok:
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
    manifest: TaskManifest, driver: DriverRecord, seed: int
) -> ProvenanceFields:
    return ProvenanceFields(
        manifest_hash=manifest.manifest_hash(),
        driver_id=driver.driver_id,
        schema_version=SCHEMA_VERSION,
        replay_class=manifest.replay_class,
        seed=seed,
        model_backend_id=driver.model_backend_id,
        snapshot_digest=manifest.snapshot_digest(),
        verifier_version=str(manifest.family_params.get("verifier_version", "1.0.0")),
    )


# ---------------------------------------------------------------------------
# Episode execution (plain sequential runs)
# ---------------------------------------------------------------------------


def _driver_call(
    spec: DriverSpec,
    manifest: TaskManifest,
    obs: Mapping[str, Any],
    step: int,
    rng: random.Random,
) -> tuple[ActionRecord, Action, float]:
    """One driver invocation: (action record, action, model latency in ms)."""

    if spec.driver_type == "llm":
        profile = spec.profile or SyntheticLlmProfile()
        record, action = synthetic_llm_call(
            obs,
            profile,
            rng,
            backend_engine=spec.backend_engine or "vllm",
            policy_version=spec.driver_version,
        )
        return record, action, record.model_latency_ms
    if spec.driver_type == "calibration":
        action = calibration_action(spec.mode or "oracle", manifest)
        record = ActionRecord(
            observation_hash=canonical_hash({"obs": dict(obs)}),
            parse_status="parsed",
            invalid_action=False,
            prompt_tokens=0,
            completion_tokens=0,
            model_latency_ms=0.0,
            parsed_action_hash=canonical_hash({"kind": action.kind}),
            policy_version=spec.driver_version,
        )
        return record, action, 0.0
    if spec.driver_type in ("scripted", "sanity"):
        script = (
            tuple(Action(kind=k, advance_prob=1.0) for k in spec.script)
            if spec.script
            else (Action(kind="advance", advance_prob=1.0),)
        )
        record, action = scripted_next_action(obs, script, step, cyclic=spec.cyclic)
        return record, action, 0.0
    raise DriverError("invalid_driver", f"no call path for driver type {spec.driver_type!r}")


def _patch_quality(spec: DriverSpec) -> tuple[str, float]:
    if spec.driver_type == "calibration":
        return ("gold" if (spec.mode or "oracle") == "oracle" else "noop", 1.0)
    profile = spec.profile or SyntheticLlmProfile()
    return "generated", profile.success_bias


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
    start_ms = clock_ms
    env = init_env(
        manifest, setting, seed=0, budget=None if manifest.family == "code" else budget
    )
    builder.emit(
        "episode_start",
        clock_ms,
        episode_id=episode_id,
        payload={"episode_index": episode_index, "goal": env.goal},
    )
    retries_used = 0
    request_index = 0
    terminal: TerminalOutcome | None = None

    while env.terminal is None and env.step_count < budget:
        step_index = env.step_count
        obs = {"task_id": manifest.task_id, "step": step_index, "progress": env.solved_progress}

        record, action, model_ms = _driver_call(spec, manifest, obs, step_index, rng)
        if spec.driver_type == "llm":
            builder.emit(
                "model_request_start",
                clock_ms,
                episode_id=episode_id,
                step_index=step_index,
                payload={"request_index": request_index},
            )
            clock_ms += model_ms
            builder.emit(
                "model_request_end",
                clock_ms,
                episode_id=episode_id,
                step_index=step_index,
                timing=TimingFields(model_latency_ms=model_ms),
                payload={"request_index": request_index, "model_latency_ms": model_ms},
            )
            request_index += 1
        builder.emit(
            "action_parsed",
            clock_ms,
            episode_id=episode_id,
            step_index=step_index,
            timing=TimingFields(model_latency_ms=model_ms),
            payload=record.to_payload(),
        )

        builder.emit(
            "env_step_start",
            clock_ms,
            episode_id=episode_id,
            step_index=step_index,
            payload={"action_kind": action.kind},
        )
        outcome = env_step(env, action, setting, rng)
        clock_ms += outcome.timing.service_time_ms
        builder.emit(
            "env_step_end",
            clock_ms,
            episode_id=episode_id,
            step_index=step_index,
            timing=outcome.timing,
            payload={
                "service_time_ms": outcome.timing.service_time_ms,
                "progress": env.solved_progress,
                "fault": outcome.fault,
            },
        )

        if manifest.family == "code":
            # Patch application and verification; the verifier owns the verdict.
            apply_ms = draw_service_ms(rng, 25.0, setting)
            clock_ms += apply_ms
            builder.emit(
                "tool_call",
                clock_ms,
                episode_id=episode_id,
                step_index=step_index,
                timing=TimingFields(tool_latency_ms=apply_ms),
                payload={"tool_name": "patch_apply"},
            )
            quality, pass_prob = _patch_quality(spec)
            demand = draw_lognormal(
                rng,
                VERIFY_BASE_MS["code"]
                * setting.env_latency_multiplier
                * setting.verifier_arrival_rate_boost,
                0.2,
            )
            ticket = submit_patch(queue, clock_ms, demand)
            # Decision stream frozen to (snapshot, run seed, episode) so
            # snapshot-class replay can recompute the verdict bit for bit.
            decision_rng = random.Random(
                f"verify:{builder.provenance.snapshot_digest.hex if builder.provenance.snapshot_digest else ''}"
                f":{builder.run_seed}:{episode_index}"
            )
            terminal, timing = verifier_outcome(
                queue,
                ticket,
                quality,
                rng=decision_rng,
                generated_pass_prob=pass_prob,
                evaluator_id=manifest.verifier_id,
            )
            clock_ms = queue.ticket(ticket).completion_ms
            builder.emit(
                "verifier_outcome",
                clock_ms,
                episode_id=episode_id,
                step_index=step_index,
                timing=timing,
                payload={
                    "status": terminal.status,
                    "queue_wait_ms": timing.queue_wait_ms,
                    "verifier_latency_ms": timing.verifier_latency_ms or 0.0,
                    "evaluator_id": terminal.evaluator_id,
                    "detail": terminal.detail,
                    "ticket_id": ticket,
                    "patch_quality": quality,
                    "pass_prob": pass_prob,
                },
            )
            break

        if outcome.fault:
            retries_used += 1
            if retries_used > spec.retry_budget:
                break  # fault budget exhausted: episode ends without a terminal
            builder.emit(
                "retry",
                clock_ms,
                episode_id=episode_id,
                step_index=step_index,
                payload={"attempt": retries_used, "reason": "env_fault", "scope": "step"},
            )
            continue

    if manifest.family != "code" and env.terminal is not None:
        terminal = env.terminal
        if manifest.family == "web":
            demand = draw_lognormal(
                rng,
                VERIFY_BASE_MS["web"]
                * setting.env_latency_multiplier
                * setting.verifier_arrival_rate_boost,
                0.2,
            )
            ticket = queue.submit(clock_ms, demand)
            info = queue.ticket(ticket)
            clock_ms = info.completion_ms
            builder.emit(
                "verifier_outcome",
                clock_ms,
                episode_id=episode_id,
                step_index=env.step_count,
                timing=TimingFields(
                    queue_wait_ms=info.queue_wait_ms,
                    service_time_ms=info.service_demand_ms,
                    verifier_latency_ms=info.completion_ms - info.submit_time_ms,
                ),
                payload={
                    "status": terminal.status,
                    "queue_wait_ms": info.queue_wait_ms,
                    "verifier_latency_ms": info.completion_ms - info.submit_time_ms,
                    "evaluator_id": manifest.verifier_id,
                    "ticket_id": ticket,
                },
            )

    status = "missing_terminal"
    if terminal is not None:
        builder.emit(
            "terminal_result",
            clock_ms,
            episode_id=episode_id,
            step_index=env.step_count,
            payload={
                "status": terminal.status,
                "evaluator_id": terminal.evaluator_id,
                "detail": terminal.detail,
            },
        )
        status = terminal.status
    else:
        builder.emit(
            "error",
            clock_ms,
            episode_id=episode_id,
            step_index=env.step_count,
            payload={"message": "episode ended without terminal outcome", "scope": "episode"},
        )

    builder.emit(
        "episode_end",
        clock_ms,
        episode_id=episode_id,
        payload={"status": status, "steps": env.step_count, "wall_ms": clock_ms - start_ms},
    )
    summary = EpisodeSummary(
        episode_id=episode_id,
        status=status,
        steps=env.step_count,
        wall_ms=clock_ms - start_ms,
    )
    return summary, clock_ms, retries_used


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
    strict: bool = True,
) -> tuple[RunRecord, list[EventRecord]]:
    """Execute one plain run of sequential episodes on a fresh simulated clock."""

    if not manifest.resolved:
        raise RunnerError("unresolved_manifest", f"manifest {manifest.task_id} not resolved")
    driver = spec.record(seed=seed, setting_label=setting.label, budget=budget)
    run_id = make_run_id(manifest.manifest_hash(), driver.driver_id, setting.label, seed, repetition)
    provenance = provenance_for(manifest, driver, seed)
    builder = EventBuilder(run_id, provenance, run_seed=seed, strict=strict)
    rng = random.Random(f"run:{run_id}:{seed}")
    queue = VerifierQueue(servers=1)

    clock_ms = 0.0
    builder.emit(
        "run_start",
        clock_ms,
        payload={
            "setting_label": setting.label,
            "planned_episodes": planned_episodes,
            "driver_type": spec.driver_type,
        },
    )

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

    successes = sum(1 for item in summaries if item.status == "success")
    builder.emit(
        "run_end",
        clock_ms,
        payload={
            "status": "success",
            "successes": successes,
            "episodes_completed": len(summaries),
        },
    )
    trace_complete = builder.finalize()

    missing = any(item.status == "missing_terminal" for item in summaries)
    terminal = None
    if not missing:
        terminal = TerminalOutcome(
            status="success",
            evaluator_id="harness",
            detail=f"{successes}/{planned_episodes}",
        )

    freeze = freeze_run(manifest, driver, setting.label, versions)
    trajectory = build_reward_trajectory(builder.events)
    record = RunRecord(
        run_id=run_id,
        task_id=manifest.task_id,
        family=manifest.family,
        manifest_hash=manifest.manifest_hash(),
        driver=driver,
        setting_label=setting.label,
        seed=seed,
        repetition=repetition,
        event_log_ref=f"logs/{run_id}.log",
        trace_complete=trace_complete,
        freeze=freeze,
        terminal=terminal,
        episode_summaries=tuple(summaries),
        reward_trajectory=tuple(trajectory),
        retry_count=retry_total,
        retry_budget=spec.retry_budget,
        concurrency=concurrency,
    )
    return record, builder.events


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
class RunSet:
    runs: list[RunRecord]
    base_dir: Path | None = None

    def to_doc(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "runs": [run.to_doc() for run in self.runs],
        }

    def events_for(self, run: RunRecord) -> list[EventRecord]:
        if self.base_dir is None or not run.event_log_ref:
            raise RunnerError("missing_log", f"run {run.run_id} has no readable event log")
        _, docs = read_event_log(self.base_dir / run.event_log_ref)
        return [EventRecord.from_doc(doc) for doc in docs]


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


@dataclass(frozen=True, slots=True)
class _PlanContext:
    """What every job of one plan shares; a pool worker receives it once."""

    plan: RunPlan
    root: ReleaseRoot
    store: ManifestStore
    out_dir: Path | None
    strict: bool


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
        from .study import controller_run_for_plan  # deferred: study builds on runner

        record, events = controller_run_for_plan(
            manifest, setting, spec, seed=entry.seed, budget=entry.budget,
            episodes=episodes, repetition=repetition,
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
            strict=context.strict,
        )
    if context.out_dir is not None and events:
        write_event_log(context.out_dir / record.event_log_ref, events)
    return record


# Set once in each pool worker by ``_init_worker``; the parent never sets it.
_worker_context: _PlanContext | None = None


def _init_worker(context: _PlanContext) -> None:
    global _worker_context
    _worker_context = context


def _worker_job(job: tuple[int, int]) -> RunRecord:
    assert _worker_context is not None, "pool worker started without _init_worker"
    return _run_job(_worker_context, job)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_width(concurrency: int, jobs: int, cpus: int) -> int:
    """Worker processes for a plan: its concurrency, capped by jobs and CPUs."""

    return max(1, min(concurrency, jobs, cpus))


def run_plan(
    plan: RunPlan,
    store: ManifestStore,
    out_dir: Path | str | None = None,
    strict: bool = True,
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
    context = _PlanContext(plan, root, store, base, strict)

    width = _pool_width(plan.concurrency, len(jobs), _usable_cpus())
    if width == 1:
        runs = [_run_job(context, job) for job in jobs]
    else:
        # Deferred so that no other verb pays for importing the pool. A fork
        # start skips re-importing the package in every worker.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            max_workers=width,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(context,),
        )
        try:
            chunksize = max(1, len(jobs) // (4 * width))
            runs = list(pool.map(_worker_job, jobs, chunksize=chunksize))
        finally:
            pool.shutdown(cancel_futures=True)

    run_ids = [run.run_id for run in runs]
    if len(set(run_ids)) != len(run_ids):
        raise RunnerError("invalid_plan", "run_id collision across plan entries")

    runset = RunSet(runs=runs)
    if base is not None:
        save_runset(runset, base)
        runset.base_dir = base
    return runset


def save_runset(runset: RunSet, out_dir: Path | str) -> Path:
    base = Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    path = base / "runset.json"
    path.write_text(canonical_json(runset.to_doc()) + "\n", encoding="utf-8")
    return path


def load_runset(path: Path | str) -> RunSet:
    path = Path(path)
    index = path if path.is_file() else path / "runset.json"
    doc = json.loads(index.read_text(encoding="utf-8"))
    runs = [RunRecord.from_doc(item) for item in doc["runs"]]
    return RunSet(runs=runs, base_dir=index.parent)


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
    "execute_run",
    "load_plan",
    "load_runset",
    "make_run_id",
    "provenance_for",
    "run_episode",
    "run_plan",
    "save_plan",
    "save_runset",
]
