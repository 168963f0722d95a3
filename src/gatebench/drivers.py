"""Declared drivers: scripted, calibration, synthetic-LLM, and controller hooks.

A driver is the component generating actions for a workload. Every driver call
produces exactly one action-level record carrying parse status, hashes, token
counts, and latency, so downstream reports can audit traffic without knowing
which driver produced it. The two controller hooks are pure functions over
their inputs:

* hook A filters samples by validity and staleness, with a fixed reason order;
* hook B adjusts actor concurrency from verifier queue-pressure telemetry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Final, Mapping, Sequence

from .manifest import TaskManifest
from .schema import ActionRecord, Digest, GatebenchError, canonical_hash

DRIVER_TYPES: Final[frozenset[str]] = frozenset(
    {"llm", "controller", "calibration", "sanity", "scripted"}
)

EVIDENCE_STATUSES: Final[frozenset[str]] = frozenset(
    {"paper_facing", "smoke_only", "fixture_backed", "diagnostic"}
)


class DriverError(GatebenchError):
    """Raised for invalid driver declarations, scripts, profiles and hook settings."""


@dataclass(frozen=True, slots=True)
class DriverRecord:
    """Declared-driver metadata bound to every run the driver produces."""

    driver_id: str
    driver_type: str
    driver_version: str
    parser_version: str
    budget: int
    seed: int
    setting_label: str
    evidence_status: str
    model_family: str | None = None
    model_backend_id: str | None = None
    backend_engine: str | None = None
    prompt_template_hash: Digest | None = None

    def __post_init__(self) -> None:
        if self.driver_type not in DRIVER_TYPES:
            raise DriverError("invalid_driver", f"unknown driver type {self.driver_type!r}")
        if self.evidence_status not in EVIDENCE_STATUSES:
            raise DriverError(
                "invalid_driver", f"unknown evidence status {self.evidence_status!r}"
            )
        if self.budget < 1:
            raise DriverError("invalid_driver", "budget must be >= 1")
        if self.driver_type == "llm" and (
            self.model_family is None or self.backend_engine is None
        ):
            raise DriverError(
                "invalid_driver", "llm drivers require model_family and backend_engine"
            )

    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "driver_id": self.driver_id,
            "driver_type": self.driver_type,
            "driver_version": self.driver_version,
            "parser_version": self.parser_version,
            "budget": self.budget,
            "seed": self.seed,
            "setting_label": self.setting_label,
            "evidence_status": self.evidence_status,
        }
        if self.model_family is not None:
            doc["model_family"] = self.model_family
        if self.model_backend_id is not None:
            doc["model_backend_id"] = self.model_backend_id
        if self.backend_engine is not None:
            doc["backend_engine"] = self.backend_engine
        if self.prompt_template_hash is not None:
            doc["prompt_template_hash"] = self.prompt_template_hash.to_doc()
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "DriverRecord":
        return cls(
            driver_id=str(doc["driver_id"]),
            driver_type=str(doc["driver_type"]),
            driver_version=str(doc["driver_version"]),
            parser_version=str(doc["parser_version"]),
            budget=int(doc["budget"]),
            seed=int(doc["seed"]),
            setting_label=str(doc["setting_label"]),
            evidence_status=str(doc["evidence_status"]),
            model_family=str(doc["model_family"]) if "model_family" in doc else None,
            model_backend_id=(
                str(doc["model_backend_id"]) if "model_backend_id" in doc else None
            ),
            backend_engine=str(doc["backend_engine"]) if "backend_engine" in doc else None,
            prompt_template_hash=(
                Digest.from_doc(doc["prompt_template_hash"])
                if "prompt_template_hash" in doc
                else None
            ),
        )


@dataclass(frozen=True, slots=True)
class Action:
    """One environment action: its kind and the chance it advances the task."""

    kind: str
    advance_prob: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.advance_prob <= 1.0:
            raise DriverError("invalid_action", "advance_prob must be in [0, 1]")


NOOP_ACTION: Final = Action(kind="noop", advance_prob=0.0)


# ---------------------------------------------------------------------------
# Scripted and calibration drivers
# ---------------------------------------------------------------------------


def scripted_next_action(
    obs: Any, script: Sequence[Action], step: int, cyclic: bool = False
) -> tuple[ActionRecord, Action]:
    """Return the scripted action for ``step`` with its parsed action record."""

    if not script:
        raise DriverError("empty_script", "scripted driver needs a non-empty script")
    if not cyclic and step >= len(script):
        raise DriverError("empty_script", f"step {step} beyond script of length {len(script)}")
    action = script[step % len(script)]
    record = ActionRecord(
        observation_hash=canonical_hash({"obs": _observation_doc(obs)}),
        parse_status="parsed",
        invalid_action=False,
        prompt_tokens=0,
        completion_tokens=0,
        model_latency_ms=0.0,
        parsed_action_hash=canonical_hash({"kind": action.kind}),
    )
    return record, action


def calibration_action(mode: str, task: TaskManifest) -> Action:
    """Return the oracle (solving) or noop (no-effect) calibration action.

    Calibration drivers are diagnostic-only; the oracle action always advances
    the task and the noop action never does.
    """

    if mode == "noop":
        return NOOP_ACTION
    if mode == "oracle":
        if task.family not in ("micro", "web", "code"):
            raise DriverError("no_oracle", f"no oracle for family {task.family!r}")
        return Action(kind=f"oracle:{task.family}", advance_prob=1.0)
    raise DriverError("invalid_driver", f"unknown calibration mode {mode!r}")


# ---------------------------------------------------------------------------
# Synthetic LLM driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SyntheticLlmProfile:
    """Latency/validity profile standing in for a local model backend."""

    mean_model_latency_ms: float = 150.0
    latency_cv: float = 0.3
    invalid_action_prob: float = 0.05
    mean_prompt_tokens: int = 256
    mean_completion_tokens: int = 48
    success_bias: float = 0.75

    def __post_init__(self) -> None:
        if self.mean_model_latency_ms <= 0:
            raise DriverError("invalid_profile", "mean_model_latency_ms must be > 0")
        if self.latency_cv < 0:
            raise DriverError("invalid_profile", "latency_cv must be >= 0")
        for name in ("invalid_action_prob", "success_bias"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DriverError("invalid_profile", f"{name} must be in [0, 1]")

    def to_doc(self) -> dict[str, Any]:
        return {
            "mean_model_latency_ms": self.mean_model_latency_ms,
            "latency_cv": self.latency_cv,
            "invalid_action_prob": self.invalid_action_prob,
            "mean_prompt_tokens": self.mean_prompt_tokens,
            "mean_completion_tokens": self.mean_completion_tokens,
            "success_bias": self.success_bias,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "SyntheticLlmProfile":
        base = cls()
        return cls(
            mean_model_latency_ms=float(
                doc.get("mean_model_latency_ms", base.mean_model_latency_ms)
            ),
            latency_cv=float(doc.get("latency_cv", base.latency_cv)),
            invalid_action_prob=float(
                doc.get("invalid_action_prob", base.invalid_action_prob)
            ),
            mean_prompt_tokens=int(doc.get("mean_prompt_tokens", base.mean_prompt_tokens)),
            mean_completion_tokens=int(
                doc.get("mean_completion_tokens", base.mean_completion_tokens)
            ),
            success_bias=float(doc.get("success_bias", base.success_bias)),
        )


def draw_lognormal(rng: random.Random, mean: float, cv: float) -> float:
    """Draw from a log-normal with the given arithmetic mean and CV."""

    if cv <= 0.0:
        return mean
    sigma_sq = math.log(1.0 + cv * cv)
    mu = math.log(mean) - sigma_sq / 2.0
    return rng.lognormvariate(mu, math.sqrt(sigma_sq))


def _observation_doc(obs: Any) -> Any:
    if isinstance(obs, Mapping):
        return dict(obs)
    return str(obs)


def synthetic_llm_call(
    obs: Any, profile: SyntheticLlmProfile, rng: random.Random,
    backend_engine: str = "vllm", policy_version: str = "synthetic-1",
) -> tuple[ActionRecord, Action]:
    """One synthetic model call: latency, parse status, and hashed payloads.

    Deterministic given the rng state and call order; the action advances the
    task with the profile's success bias unless the call parsed invalid.
    """

    latency = draw_lognormal(rng, profile.mean_model_latency_ms, profile.latency_cv)
    invalid = rng.random() < profile.invalid_action_prob
    prompt_tokens = max(1, int(round(profile.mean_prompt_tokens * (0.8 + 0.4 * rng.random()))))
    completion_tokens = max(
        1, int(round(profile.mean_completion_tokens * (0.8 + 0.4 * rng.random())))
    )
    obs_doc = _observation_doc(obs)
    raw_output = {"obs": obs_doc, "invalid": invalid, "tokens": completion_tokens}
    if invalid:
        action = Action(kind="unparsed", advance_prob=0.0)
        parse_status = "invalid"
    else:
        action = Action(kind="act", advance_prob=profile.success_bias)
        parse_status = "parsed"
    record = ActionRecord(
        observation_hash=canonical_hash({"obs": obs_doc}),
        parse_status=parse_status,
        invalid_action=invalid,
        prompt_tokens=prompt_tokens,
        completion_tokens=completion_tokens,
        model_latency_ms=latency,
        prompt_hash=canonical_hash({"prompt": obs_doc}),
        raw_output_hash=canonical_hash(raw_output),
        parsed_action_hash=None if invalid else canonical_hash({"kind": action.kind}),
        backend_engine=backend_engine,
        policy_version=policy_version,
    )
    return record, action


# ---------------------------------------------------------------------------
# Controller hooks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SampleMeta:
    """Validity and staleness signals for one verification sample."""

    has_terminal_outcome: bool = True
    invalid_sample_marker: bool = False
    version_fields_present: bool = True
    version_mismatch: bool = False
    snapshot_mismatch: bool = False
    retry_count: int = 0
    retry_budget: int = 2

    def __post_init__(self) -> None:
        if self.retry_count < 0 or self.retry_budget < 0:
            raise DriverError("invalid_sample_meta", "retry counts must be >= 0")


@dataclass(frozen=True, slots=True)
class FilterDecision:
    keep: bool
    reason: str | None = None


def hook_a_filter(sample: SampleMeta) -> FilterDecision:
    """Sample-validity and staleness filter (controller variant hook_a_only).

    Drops with the first matching reason in fixed order: missing terminal,
    invalid-sample marker, version/snapshot mismatch (only when version fields
    are present), retry budget exceeded. Pure function.
    """

    if not sample.has_terminal_outcome:
        return FilterDecision(keep=False, reason="missing_terminal")
    if sample.invalid_sample_marker:
        return FilterDecision(keep=False, reason="invalid_sample")
    if sample.version_fields_present and (sample.version_mismatch or sample.snapshot_mismatch):
        return FilterDecision(keep=False, reason="version_snapshot_mismatch")
    if sample.retry_count > sample.retry_budget:
        return FilterDecision(keep=False, reason="retry_budget_exceeded")
    return FilterDecision(keep=True)


@dataclass(slots=True)
class TelemetryWindow:
    """Rolling window of verifier queue telemetry, newest last."""

    capacity: int = 16
    window: list[tuple[float, int, float]] = field(default_factory=list)

    def push(self, wall_clock_ms: float, queue_depth: int, queue_wait_ms: float) -> None:
        if self.window and wall_clock_ms < self.window[-1][0]:
            raise DriverError("invalid_window", "telemetry timestamps must be non-decreasing")
        self.window.append((wall_clock_ms, queue_depth, queue_wait_ms))
        if len(self.window) > self.capacity:
            del self.window[: len(self.window) - self.capacity]

    def mean_queue_wait_ms(self) -> float | None:
        if not self.window:
            return None
        return sum(item[2] for item in self.window) / len(self.window)


@dataclass(frozen=True, slots=True)
class HookBConfig:
    """Thresholds for the adaptive concurrency hook (hook_b_only)."""

    pressure_threshold_ms: float = 50.0
    min_conc: int = 1
    max_conc: int = 8
    step: int = 1

    def __post_init__(self) -> None:
        if self.min_conc < 1 or self.max_conc < self.min_conc:
            raise DriverError("invalid_hook_config", "need 1 <= min_conc <= max_conc")
        if self.step < 1:
            raise DriverError("invalid_hook_config", "step must be >= 1")


def hook_b_adjust(window: TelemetryWindow, cfg: HookBConfig, current_conc: int) -> int:
    """Adaptive concurrency hook (controller variant hook_b_only).

    Shrinks concurrency when mean queue wait over the window exceeds the
    pressure threshold, grows it when the window is below half the threshold,
    and never leaves [min_conc, max_conc]. An empty window changes nothing.
    """

    if not cfg.min_conc <= current_conc <= cfg.max_conc:
        raise DriverError(
            "invalid_hook_config",
            f"current concurrency {current_conc} outside [{cfg.min_conc}, {cfg.max_conc}]",
        )
    mean_wait = window.mean_queue_wait_ms()
    if mean_wait is None:
        return current_conc
    if mean_wait > cfg.pressure_threshold_ms:
        return max(cfg.min_conc, current_conc - cfg.step)
    if mean_wait < cfg.pressure_threshold_ms / 2.0:
        return min(cfg.max_conc, current_conc + cfg.step)
    return current_conc


__all__ = [
    "Action",
    "ActionRecord",
    "DRIVER_TYPES",
    "DriverError",
    "DriverRecord",
    "EVIDENCE_STATUSES",
    "FilterDecision",
    "HookBConfig",
    "NOOP_ACTION",
    "SampleMeta",
    "SyntheticLlmProfile",
    "TelemetryWindow",
    "calibration_action",
    "draw_lognormal",
    "hook_a_filter",
    "hook_b_adjust",
    "scripted_next_action",
    "synthetic_llm_call",
]
