"""Declared drivers: scripted, calibration, synthetic-LLM, and controller hooks.

A driver is the component generating actions for a workload. Every driver call
produces exactly one ``action_parsed`` payload carrying parse status, hashes,
token counts, and latency, so downstream reports can audit traffic without
knowing which driver produced it. The two controller hooks are pure functions
over their inputs:

* hook A filters samples by validity and staleness, with a fixed reason order;
* hook B adjusts actor concurrency from verifier queue-pressure telemetry.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Final, Mapping, Sequence

from .manifest import TaskManifest
from .records import record
from .schema import (
    Digest,
    GatebenchError,
    Record,
    canonical_hash,
    canonical_json,
    float_sum,
    text_hash,
)

DRIVER_TYPES: Final[frozenset[str]] = frozenset(
    {"llm", "controller", "calibration", "sanity", "scripted"}
)

EVIDENCE_STATUSES: Final[frozenset[str]] = frozenset(
    {"paper_facing", "smoke_only", "fixture_backed", "diagnostic"}
)


class DriverError(GatebenchError):
    """Raised for invalid driver declarations, scripts, profiles and hook settings."""


@record
class DriverRecord(Record):
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


@record
class Action:
    """One environment action: its kind and the chance it advances the task."""

    kind: str
    advance_prob: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.advance_prob <= 1.0:
            raise DriverError("invalid_action", "advance_prob must be in [0, 1]")


NOOP_ACTION: Final = Action(kind="noop", advance_prob=0.0)
_UNPARSED_ACTION: Final = Action(kind="unparsed", advance_prob=0.0)


# ---------------------------------------------------------------------------
# Action-payload digests
# ---------------------------------------------------------------------------


def _observation_doc(obs: Any) -> Any:
    if isinstance(obs, Mapping):
        return dict(obs)
    return str(obs)


_OBS_KEY: Final = '{"obs":'


def _observation_json(obs: Any) -> str:
    """``canonical_json({"obs": doc})`` for the observation's document ``doc``.

    The observation's own canonical form is this text without the ``{"obs":``
    prefix and the closing brace; an observation ``canonical_json`` rejects
    raises here, with the same error as ``canonical_hash({"obs": doc})``.
    """

    return canonical_json({"obs": _observation_doc(obs)})


def observation_hash(obs: Any) -> Digest:
    """``canonical_hash({"obs": doc})`` for the observation's document ``doc``."""

    return text_hash(_observation_json(obs))


@functools.lru_cache(maxsize=256)
def action_kind_hash(kind: str) -> Digest:
    """``canonical_hash({"kind": kind})``, computed once per action kind."""

    return canonical_hash({"kind": kind})


# ---------------------------------------------------------------------------
# Scripted and calibration drivers
# ---------------------------------------------------------------------------


def scripted_next_action(
    obs: Any, script: Sequence[Action], step: int, cyclic: bool = False
) -> tuple[dict[str, Any], Action]:
    """Return the scripted action for ``step`` with its ``action_parsed`` payload."""

    if not script:
        raise DriverError("empty_script", "scripted driver needs a non-empty script")
    if not cyclic and step >= len(script):
        raise DriverError("empty_script", f"step {step} beyond script of length {len(script)}")
    action = script[step % len(script)]
    payload = {
        "parse_status": "parsed",
        "invalid_action": False,
        "observation_hash": observation_hash(obs).hex,
        "prompt_tokens": 0,
        "completion_tokens": 0,
        "model_latency_ms": 0.0,
        "parsed_action_hash": action_kind_hash(action.kind).hex,
    }
    return payload, action


def calibration_action(mode: str, task: TaskManifest) -> Action:
    """Return the oracle (solving) or noop (no-effect) calibration action.

    Calibration drivers are diagnostic-only; the oracle action always advances
    the task and the noop action never does.
    """

    if mode == "noop":
        return NOOP_ACTION
    if mode == "oracle":
        return Action(kind=f"oracle:{task.family}", advance_prob=1.0)
    raise DriverError("invalid_driver", f"unknown calibration mode {mode!r}")


# ---------------------------------------------------------------------------
# Synthetic LLM driver
# ---------------------------------------------------------------------------


@record
class SyntheticLlmProfile(Record):
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


def draw_lognormal(rng: random.Random, mean: float, cv: float) -> float:
    """Draw from a log-normal with the given arithmetic mean and CV."""

    if cv <= 0.0:
        return mean
    sigma_sq = math.log(1.0 + cv * cv)
    mu = math.log(mean) - sigma_sq / 2.0
    return rng.lognormvariate(mu, math.sqrt(sigma_sq))


def synthetic_llm_call(
    obs: Any, profile: SyntheticLlmProfile, rng: random.Random,
    backend_engine: str = "vllm", policy_version: str = "synthetic-1",
) -> tuple[dict[str, Any], Action]:
    """One synthetic model call: its ``action_parsed`` payload and its action.

    Deterministic given the rng state and call order; the action advances the
    task with the profile's success bias unless the call parsed invalid.

    The observation is rendered once. Its digests are those of the documents
    ``{"obs": doc}``, ``{"prompt": doc}`` and the raw output
    ``{"invalid": ..., "obs": doc, "tokens": ...}``, whose canonical text is
    assembled around that one rendering in sorted key order.
    """

    latency = draw_lognormal(rng, profile.mean_model_latency_ms, profile.latency_cv)
    invalid = rng.random() < profile.invalid_action_prob
    prompt_tokens = max(1, int(round(profile.mean_prompt_tokens * (0.8 + 0.4 * rng.random()))))
    completion_tokens = max(
        1, int(round(profile.mean_completion_tokens * (0.8 + 0.4 * rng.random())))
    )
    obs_text = _observation_json(obs)
    obs_json = obs_text[len(_OBS_KEY):-1]
    raw_output = (
        f'{{"invalid":{"true" if invalid else "false"},"obs":{obs_json},'
        f'"tokens":{completion_tokens!r}}}'
    )
    payload: dict[str, Any] = {
        "parse_status": "invalid" if invalid else "parsed",
        "invalid_action": invalid,
        "observation_hash": text_hash(obs_text).hex,
        "prompt_tokens": prompt_tokens,
        "completion_tokens": completion_tokens,
        "model_latency_ms": latency,
        "prompt_hash": text_hash(f'{{"prompt":{obs_json}}}').hex,
        "raw_output_hash": text_hash(raw_output).hex,
        "backend_engine": backend_engine,
        "policy_version": policy_version,
    }
    if invalid:
        return payload, _UNPARSED_ACTION
    payload["parsed_action_hash"] = action_kind_hash("act").hex
    return payload, Action(kind="act", advance_prob=profile.success_bias)


# ---------------------------------------------------------------------------
# Controller hooks
# ---------------------------------------------------------------------------


@record
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


@record
class FilterDecision:
    """Hook A's verdict on one sample: keep it, or drop it with the first matching reason."""

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
        return float_sum(item[2] for item in self.window) / len(self.window)


@record
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
    "action_kind_hash",
    "calibration_action",
    "draw_lognormal",
    "hook_a_filter",
    "hook_b_adjust",
    "observation_hash",
    "scripted_next_action",
    "synthetic_llm_call",
]
