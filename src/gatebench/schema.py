"""Typed event vocabulary, trace contexts, canonical hashing, and record validation.

Every other layer of the harness builds on this module: events emitted by the
runner, manifests and freeze records, and the evidence gate all serialize
through the canonical form defined here. Event logs are newline-delimited
documents, one event per line, preceded by a schema-version header line.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Final, Iterable, Mapping

SCHEMA_VERSION: Final = "1.0.0"
SUPPORTED_SCHEMA_VERSIONS: Final[frozenset[str]] = frozenset({SCHEMA_VERSION})

HASH_ALGORITHM: Final = "sha256"
_TRACE_ID_HEX_LEN: Final = 32
_SPAN_ID_HEX_LEN: Final = 16

EVENT_KINDS: Final[frozenset[str]] = frozenset(
    {
        "run_start",
        "run_end",
        "episode_start",
        "episode_end",
        "model_request_start",
        "model_request_end",
        "action_parsed",
        "env_step_start",
        "env_step_end",
        "tool_call",
        "verifier_outcome",
        "retry",
        "error",
        "terminal_result",
    }
)

# Kinds that belong to the run envelope rather than to a specific episode.
RUN_SCOPED_KINDS: Final[frozenset[str]] = frozenset({"run_start", "run_end"})

PARSE_STATUSES: Final[frozenset[str]] = frozenset({"parsed", "invalid", "empty"})

REPLAY_CLASSES: Final[frozenset[str]] = frozenset({"R0", "R1", "R2"})

# Closed per-kind payload schemas. Required keys must be present; in strict
# mode any key outside required ∪ optional is rejected.
REQUIRED_PAYLOAD_KEYS: Final[dict[str, tuple[str, ...]]] = {
    "run_start": ("setting_label", "planned_episodes"),
    "run_end": ("status",),
    "episode_start": ("episode_index",),
    "episode_end": ("status", "steps"),
    "model_request_start": ("request_index",),
    "model_request_end": ("request_index", "model_latency_ms"),
    "action_parsed": (
        "parse_status",
        "invalid_action",
        "observation_hash",
        "prompt_tokens",
        "completion_tokens",
        "model_latency_ms",
    ),
    "env_step_start": ("action_kind",),
    "env_step_end": ("service_time_ms", "progress"),
    "tool_call": ("tool_name",),
    "verifier_outcome": ("status", "queue_wait_ms", "verifier_latency_ms"),
    "retry": ("attempt", "reason"),
    "error": ("message",),
    "terminal_result": ("status",),
}

OPTIONAL_PAYLOAD_KEYS: Final[dict[str, tuple[str, ...]]] = {
    "run_start": ("driver_type", "variant", "backend"),
    "run_end": ("successes", "episodes_completed"),
    "episode_start": ("goal",),
    "episode_end": ("wall_ms",),
    "model_request_start": (),
    "model_request_end": ("backend_engine",),
    "action_parsed": (
        "prompt_hash",
        "raw_output_hash",
        "parsed_action_hash",
        "backend_engine",
        "policy_version",
    ),
    "env_step_start": (),
    "env_step_end": ("fault",),
    "tool_call": ("detail",),
    "verifier_outcome": ("evaluator_id", "detail", "ticket_id", "pass_prob", "patch_quality"),
    "retry": ("scope",),
    "error": ("scope",),
    "terminal_result": ("evaluator_id", "detail", "drop_reason", "sample_retry_count"),
}

_REQUIRED_TOP_LEVEL: Final[tuple[str, ...]] = (
    "run_id",
    "episode_id",
    "step_index",
    "trace",
    "kind",
    "sequence",
    "wall_clock_ms",
    "timing",
    "provenance",
    "payload",
)
_REQUIRED_TRACE: Final[tuple[str, ...]] = ("trace_id", "span_id")
_REQUIRED_TIMING: Final[tuple[str, ...]] = ("queue_wait_ms", "service_time_ms")
_OPTIONAL_TIMING: Final[tuple[str, ...]] = (
    "model_latency_ms",
    "tool_latency_ms",
    "verifier_latency_ms",
)
_REQUIRED_PROVENANCE: Final[tuple[str, ...]] = (
    "manifest_hash",
    "driver_id",
    "schema_version",
    "replay_class",
    "seed",
)
_OPTIONAL_PROVENANCE: Final[tuple[str, ...]] = (
    "model_backend_id",
    "snapshot_digest",
    "verifier_version",
)


class GatebenchError(Exception):
    """Base of every typed harness error: ``str()`` is ``"code: message"``.

    ``code`` is the machine-readable error code the CLI reports. The class
    pickles by its arguments, so an error raised in a plan worker process
    reaches the parent with its type and code intact.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message

    def __reduce__(self) -> tuple[type[GatebenchError], tuple[str, str]]:
        return type(self), (self.code, self.message)


class SchemaError(GatebenchError):
    """Raised for non-canonical content or malformed typed records."""


# ---------------------------------------------------------------------------
# Canonical serialization and hashing
# ---------------------------------------------------------------------------


def _check_canonical(value: Any, path: str) -> None:
    if value is None or isinstance(value, (str, bool, int)):
        return
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SchemaError("non_canonical_value", f"non-finite number at {path}")
        return
    if isinstance(value, Mapping):
        for key, item in value.items():
            if not isinstance(key, str):
                raise SchemaError(
                    "non_canonical_value", f"non-string key {key!r} at {path}"
                )
            _check_canonical(item, f"{path}.{key}")
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _check_canonical(item, f"{path}[{index}]")
        return
    raise SchemaError(
        "non_canonical_value", f"unsupported type {type(value).__name__} at {path}"
    )


# Containers nested deeper than this skip the fast scan and go to the
# reference check, which also rejects self-referencing containers.
_SCAN_MAX_DEPTH: Final = 64
_SCAN_SCALARS: Final[frozenset[type]] = frozenset({str, int, bool, type(None)})

# The same encoder ``json.dumps`` builds for these arguments, built once.
_CANONICAL_ENCODER: Final = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
)


def _is_plain_canonical(content: Any) -> bool:
    """Exact-type scan: True only for documents ``_check_canonical`` accepts.

    Accepts plain ``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``,
    ``int``, ``bool``, ``None`` and finite ``float``, nested at most
    ``_SCAN_MAX_DEPTH`` containers deep. Anything else, subclasses included,
    returns False and is left to the reference check. The walk keeps one
    iterator per open container, so it stops on self-referencing containers
    and its memory is bounded by the depth.
    """

    isfinite = math.isfinite
    stack = [iter((content,))]
    while stack:
        for item in stack[-1]:
            kind = type(item)
            if kind in _SCAN_SCALARS:
                continue
            if kind is float:
                if not isfinite(item):
                    return False
            elif kind is dict or kind is list or kind is tuple:
                if len(stack) > _SCAN_MAX_DEPTH:
                    return False
                if kind is dict:
                    for key in item:
                        if type(key) is not str:
                            return False
                    item = item.values()
                stack.append(iter(item))
                break
            else:
                return False
        else:
            stack.pop()
    return True


def canonical_json(content: Any) -> str:
    """Render ``content`` in the canonical form used for hashing and storage.

    Keys are sorted, separators are compact, numbers use shortest round-trip
    formatting, and non-finite numbers are rejected.
    """

    if not _is_plain_canonical(content):
        _check_canonical(content, "$")
    return _CANONICAL_ENCODER.encode(content)


@dataclass(frozen=True, slots=True)
class Digest:
    """A content digest: algorithm label plus fixed-length lowercase hex."""

    algorithm: str
    hex: str

    def __post_init__(self) -> None:
        if self.algorithm == HASH_ALGORITHM and len(self.hex) != 64:
            raise SchemaError("invalid_digest", f"sha256 hex must be 64 chars, got {len(self.hex)}")
        if self.hex != self.hex.lower():
            raise SchemaError("invalid_digest", "digest hex must be lowercase")

    def to_doc(self) -> dict[str, str]:
        return {"algorithm": self.algorithm, "hex": self.hex}

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Digest":
        return cls(algorithm=str(doc["algorithm"]), hex=str(doc["hex"]))


def canonical_hash(content: Any) -> Digest:
    """Hash an ordered key/value document in canonical form.

    The digest is invariant under key reordering and changes whenever any
    value changes.
    """

    rendered = canonical_json(content)
    return Digest(
        algorithm=HASH_ALGORITHM,
        hex=hashlib.sha256(rendered.encode("utf-8")).hexdigest(),
    )


# ---------------------------------------------------------------------------
# Trace context
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TraceContext:
    """Trace/span identity for one event; trace_id is constant per run."""

    trace_id: str
    span_id: str
    parent_span_id: str | None = None

    def __post_init__(self) -> None:
        if len(self.trace_id) != _TRACE_ID_HEX_LEN:
            raise SchemaError("invalid_trace", "trace_id must be 32 hex chars")
        if len(self.span_id) != _SPAN_ID_HEX_LEN:
            raise SchemaError("invalid_trace", "span_id must be 16 hex chars")

    def to_doc(self) -> dict[str, str]:
        doc = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_span_id is not None:
            doc["parent_span_id"] = self.parent_span_id
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "TraceContext":
        return cls(
            trace_id=str(doc["trace_id"]),
            span_id=str(doc["span_id"]),
            parent_span_id=(
                str(doc["parent_span_id"]) if "parent_span_id" in doc else None
            ),
        )


@functools.lru_cache(maxsize=64)
def _trace_id(run_seed: int) -> str:
    # Every event of a run shares one seed, so this hashes once per run.
    seed_bytes = run_seed.to_bytes(8, "big", signed=True)
    return hashlib.sha256(b"trace:" + seed_bytes).hexdigest()[:_TRACE_ID_HEX_LEN]


def new_trace_context(
    run_seed: int, counter: int, parent_span_id: str | None = None
) -> TraceContext:
    """Derive a deterministic trace context from a run seed and a counter.

    The trace id depends only on the seed (constant across a run); the span id
    depends on both, so distinct counters yield distinct spans.
    """

    seed_bytes = run_seed.to_bytes(8, "big", signed=True)
    span_material = b"span:" + seed_bytes + counter.to_bytes(8, "big", signed=True)
    span_id = hashlib.sha256(span_material).hexdigest()[:_SPAN_ID_HEX_LEN]
    return TraceContext(
        trace_id=_trace_id(run_seed), span_id=span_id, parent_span_id=parent_span_id
    )


# ---------------------------------------------------------------------------
# Field groups
# ---------------------------------------------------------------------------


def _require_nonneg(name: str, value: float | None) -> None:
    if value is None:
        return
    if not math.isfinite(value) or value < 0:
        raise SchemaError("invalid_value", f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True, slots=True)
class TimingFields:
    queue_wait_ms: float = 0.0
    service_time_ms: float = 0.0
    model_latency_ms: float | None = None
    tool_latency_ms: float | None = None
    verifier_latency_ms: float | None = None

    def __post_init__(self) -> None:
        _require_nonneg("queue_wait_ms", self.queue_wait_ms)
        _require_nonneg("service_time_ms", self.service_time_ms)
        _require_nonneg("model_latency_ms", self.model_latency_ms)
        _require_nonneg("tool_latency_ms", self.tool_latency_ms)
        _require_nonneg("verifier_latency_ms", self.verifier_latency_ms)

    def to_doc(self) -> dict[str, float]:
        doc: dict[str, float] = {
            "queue_wait_ms": self.queue_wait_ms,
            "service_time_ms": self.service_time_ms,
        }
        for name in _OPTIONAL_TIMING:
            value = getattr(self, name)
            if value is not None:
                doc[name] = value
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "TimingFields":
        return cls(
            queue_wait_ms=float(doc["queue_wait_ms"]),
            service_time_ms=float(doc["service_time_ms"]),
            model_latency_ms=(
                float(doc["model_latency_ms"]) if "model_latency_ms" in doc else None
            ),
            tool_latency_ms=(
                float(doc["tool_latency_ms"]) if "tool_latency_ms" in doc else None
            ),
            verifier_latency_ms=(
                float(doc["verifier_latency_ms"])
                if "verifier_latency_ms" in doc
                else None
            ),
        )


@dataclass(frozen=True, slots=True)
class ProvenanceFields:
    manifest_hash: Digest
    driver_id: str
    schema_version: str
    replay_class: str
    seed: int
    model_backend_id: str | None = None
    snapshot_digest: Digest | None = None
    verifier_version: str | None = None

    def __post_init__(self) -> None:
        if self.replay_class not in REPLAY_CLASSES:
            raise SchemaError("invalid_value", f"unknown replay class {self.replay_class!r}")

    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "manifest_hash": self.manifest_hash.to_doc(),
            "driver_id": self.driver_id,
            "schema_version": self.schema_version,
            "replay_class": self.replay_class,
            "seed": self.seed,
        }
        if self.model_backend_id is not None:
            doc["model_backend_id"] = self.model_backend_id
        if self.snapshot_digest is not None:
            doc["snapshot_digest"] = self.snapshot_digest.to_doc()
        if self.verifier_version is not None:
            doc["verifier_version"] = self.verifier_version
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "ProvenanceFields":
        return cls(
            manifest_hash=Digest.from_doc(doc["manifest_hash"]),
            driver_id=str(doc["driver_id"]),
            schema_version=str(doc["schema_version"]),
            replay_class=str(doc["replay_class"]),
            seed=int(doc["seed"]),
            model_backend_id=(
                str(doc["model_backend_id"]) if "model_backend_id" in doc else None
            ),
            snapshot_digest=(
                Digest.from_doc(doc["snapshot_digest"])
                if "snapshot_digest" in doc
                else None
            ),
            verifier_version=(
                str(doc["verifier_version"]) if "verifier_version" in doc else None
            ),
        )


@dataclass(frozen=True, slots=True)
class ActionRecord:
    """Action-level record attached to each driver call."""

    observation_hash: Digest
    parse_status: str
    invalid_action: bool
    prompt_tokens: int
    completion_tokens: int
    model_latency_ms: float
    prompt_hash: Digest | None = None
    raw_output_hash: Digest | None = None
    parsed_action_hash: Digest | None = None
    backend_engine: str | None = None
    policy_version: str | None = None

    def __post_init__(self) -> None:
        if self.parse_status not in PARSE_STATUSES:
            raise SchemaError("invalid_value", f"unknown parse status {self.parse_status!r}")
        if self.invalid_action != (self.parse_status != "parsed"):
            raise SchemaError(
                "invalid_value",
                "invalid_action must be true exactly when parse_status != parsed",
            )
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise SchemaError("invalid_value", "token counts must be >= 0")
        _require_nonneg("model_latency_ms", self.model_latency_ms)

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "parse_status": self.parse_status,
            "invalid_action": self.invalid_action,
            "observation_hash": self.observation_hash.hex,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "model_latency_ms": self.model_latency_ms,
        }
        if self.prompt_hash is not None:
            payload["prompt_hash"] = self.prompt_hash.hex
        if self.raw_output_hash is not None:
            payload["raw_output_hash"] = self.raw_output_hash.hex
        if self.parsed_action_hash is not None:
            payload["parsed_action_hash"] = self.parsed_action_hash.hex
        if self.backend_engine is not None:
            payload["backend_engine"] = self.backend_engine
        if self.policy_version is not None:
            payload["policy_version"] = self.policy_version
        return payload


# ---------------------------------------------------------------------------
# Event records
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EventRecord:
    run_id: str
    episode_id: str
    step_index: int
    trace: TraceContext
    kind: str
    sequence: int
    wall_clock_ms: float
    timing: TimingFields
    provenance: ProvenanceFields
    payload: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise SchemaError("invalid_value", f"unknown event kind {self.kind!r}")
        if self.sequence < 0 or self.step_index < 0:
            raise SchemaError("invalid_value", "sequence and step_index must be >= 0")
        _require_nonneg("wall_clock_ms", self.wall_clock_ms)

    def to_doc(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "episode_id": self.episode_id,
            "step_index": self.step_index,
            "trace": self.trace.to_doc(),
            "kind": self.kind,
            "sequence": self.sequence,
            "wall_clock_ms": self.wall_clock_ms,
            "timing": self.timing.to_doc(),
            "provenance": self.provenance.to_doc(),
            "payload": dict(self.payload),
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "EventRecord":
        return cls(
            run_id=str(doc["run_id"]),
            episode_id=str(doc["episode_id"]),
            step_index=int(doc["step_index"]),
            trace=TraceContext.from_doc(doc["trace"]),
            kind=str(doc["kind"]),
            sequence=int(doc["sequence"]),
            wall_clock_ms=float(doc["wall_clock_ms"]),
            timing=TimingFields.from_doc(doc["timing"]),
            provenance=ProvenanceFields.from_doc(doc["provenance"]),
            payload=dict(doc["payload"]),
        )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Violation:
    code: str
    field: str
    message: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    @classmethod
    def passed(cls) -> "ValidationReport":
        return cls(ok=True)

    @classmethod
    def failed(cls, violations: Iterable[Violation]) -> "ValidationReport":
        return cls(ok=False, violations=tuple(violations))


def _payload_violations(kind: str, payload: Mapping[str, Any], strict: bool) -> list[Violation]:
    violations: list[Violation] = []
    required = REQUIRED_PAYLOAD_KEYS.get(kind, ())
    for key in required:
        if key not in payload:
            violations.append(
                Violation("missing_field", f"payload.{key}", f"{kind} requires payload key {key}")
            )
    if strict:
        allowed = set(required) | set(OPTIONAL_PAYLOAD_KEYS.get(kind, ()))
        for key in payload:
            if key not in allowed:
                violations.append(
                    Violation("unknown_field", f"payload.{key}", f"{kind} does not allow key {key}")
                )
    return violations


def check_event_doc(doc: Mapping[str, Any], strict: bool = True) -> list[Violation]:
    """Structural check of a serialized event: field presence and basic shape.

    Stateful rules (ordering, boundaries) live in :class:`RunValidator`.
    """

    violations: list[Violation] = []
    for name in _REQUIRED_TOP_LEVEL:
        if name not in doc:
            violations.append(Violation("missing_field", name, f"event missing field {name}"))
    if violations:
        return violations

    kind = doc["kind"]
    if kind not in EVENT_KINDS:
        return [Violation("invalid_value", "kind", f"unknown event kind {kind!r}")]

    trace = doc["trace"]
    if not isinstance(trace, Mapping):
        violations.append(Violation("invalid_value", "trace", "trace must be a mapping"))
    else:
        for name in _REQUIRED_TRACE:
            if name not in trace:
                violations.append(
                    Violation("missing_field", f"trace.{name}", f"trace missing {name}")
                )

    timing = doc["timing"]
    if not isinstance(timing, Mapping):
        violations.append(Violation("invalid_value", "timing", "timing must be a mapping"))
    else:
        for name in _REQUIRED_TIMING:
            if name not in timing:
                violations.append(
                    Violation("missing_field", f"timing.{name}", f"timing missing {name}")
                )
        for name in (*_REQUIRED_TIMING, *_OPTIONAL_TIMING):
            value = timing.get(name)
            if value is not None and (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not math.isfinite(value)
                or value < 0
            ):
                violations.append(
                    Violation("invalid_value", f"timing.{name}", f"{name} must be >= 0")
                )

    provenance = doc["provenance"]
    if not isinstance(provenance, Mapping):
        violations.append(
            Violation("invalid_value", "provenance", "provenance must be a mapping")
        )
    else:
        for name in _REQUIRED_PROVENANCE:
            if name not in provenance:
                violations.append(
                    Violation(
                        "missing_field", f"provenance.{name}", f"provenance missing {name}"
                    )
                )
        replay_class = provenance.get("replay_class")
        if replay_class is not None and replay_class not in REPLAY_CLASSES:
            violations.append(
                Violation(
                    "invalid_value",
                    "provenance.replay_class",
                    f"unknown replay class {replay_class!r}",
                )
            )

    payload = doc["payload"]
    if not isinstance(payload, Mapping):
        violations.append(Violation("invalid_value", "payload", "payload must be a mapping"))
    else:
        violations.extend(_payload_violations(kind, payload, strict))

    sequence = doc["sequence"]
    if not isinstance(sequence, int) or isinstance(sequence, bool) or sequence < 0:
        violations.append(
            Violation("invalid_value", "sequence", "sequence must be a non-negative integer")
        )
    step_index = doc["step_index"]
    if not isinstance(step_index, int) or isinstance(step_index, bool) or step_index < 0:
        violations.append(
            Violation("invalid_value", "step_index", "step_index must be a non-negative integer")
        )

    if kind == "action_parsed" and isinstance(payload, Mapping):
        status = payload.get("parse_status")
        invalid = payload.get("invalid_action")
        if status is not None and status not in PARSE_STATUSES:
            violations.append(
                Violation("invalid_value", "payload.parse_status", f"unknown status {status!r}")
            )
        elif status is not None and invalid is not None:
            if bool(invalid) != (status != "parsed"):
                violations.append(
                    Violation(
                        "invalid_value",
                        "payload.invalid_action",
                        "invalid_action inconsistent with parse_status",
                    )
                )

    return violations


class RunValidator:
    """Per-run validation state: sequence order and boundary bookkeeping.

    One validator instance is confined to a single run; events from different
    runs may be validated concurrently with separate instances.
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self._run_id: str | None = None
        self._last_sequence: int | None = None
        self._last_clock: float | None = None
        self._started = False
        self._ended = False
        self._open_episodes: dict[str, dict[str, bool]] = {}
        self._closed_episodes: set[str] = set()
        self._terminal_episodes: set[str] = set()
        self._seen_spans: set[str] = set()
        self._trace_id: str | None = None

    def _stateful_violations(self, event: EventRecord) -> list[Violation]:
        violations: list[Violation] = []
        kind = event.kind

        if not self._started and kind != "run_start":
            return [
                Violation(
                    "boundary_mismatch", "kind", f"{kind} before run_start for this run"
                )
            ]
        if self._ended:
            return [Violation("boundary_mismatch", "kind", f"{kind} after run_end")]

        if kind == "run_start":
            if self._started:
                return [Violation("boundary_mismatch", "kind", "duplicate run_start")]
            if event.sequence != 0:
                violations.append(
                    Violation("sequence_order", "sequence", "run_start must have sequence 0")
                )
        else:
            if event.run_id != self._run_id:
                violations.append(
                    Violation(
                        "boundary_mismatch",
                        "run_id",
                        f"event run_id {event.run_id!r} does not match {self._run_id!r}",
                    )
                )
            if self._trace_id is not None and event.trace.trace_id != self._trace_id:
                violations.append(
                    Violation("boundary_mismatch", "trace.trace_id", "trace_id changed mid-run")
                )

        if self._last_sequence is not None and event.sequence <= self._last_sequence:
            violations.append(
                Violation(
                    "sequence_order",
                    "sequence",
                    f"sequence {event.sequence} not greater than {self._last_sequence}",
                )
            )
        if self._last_clock is not None and event.wall_clock_ms < self._last_clock:
            violations.append(
                Violation(
                    "sequence_order",
                    "wall_clock_ms",
                    f"clock regressed from {self._last_clock} to {event.wall_clock_ms}",
                )
            )
        if event.trace.span_id in self._seen_spans:
            violations.append(
                Violation("invalid_value", "trace.span_id", "span_id reused within run")
            )

        episode = event.episode_id
        if kind in RUN_SCOPED_KINDS or (kind == "error" and episode == ""):
            if kind in RUN_SCOPED_KINDS and episode != "":
                violations.append(
                    Violation(
                        "boundary_mismatch", "episode_id", f"{kind} must use empty episode_id"
                    )
                )
        elif kind == "episode_start":
            if episode == "":
                violations.append(
                    Violation("missing_field", "episode_id", "episode_start needs an episode_id")
                )
            elif episode in self._open_episodes or episode in self._closed_episodes:
                violations.append(
                    Violation("boundary_mismatch", "episode_id", f"episode {episode} reused")
                )
        else:
            state = self._open_episodes.get(episode)
            if state is None:
                violations.append(
                    Violation(
                        "boundary_mismatch",
                        "episode_id",
                        f"{kind} outside an open episode ({episode!r})",
                    )
                )
            else:
                if kind == "env_step_start" and state["env_step_open"]:
                    violations.append(
                        Violation("boundary_mismatch", "kind", "nested env_step_start")
                    )
                if kind == "env_step_end" and not state["env_step_open"]:
                    violations.append(
                        Violation(
                            "boundary_mismatch", "kind", "env_step_end without env_step_start"
                        )
                    )
                if kind == "model_request_start" and state["request_open"]:
                    violations.append(
                        Violation("boundary_mismatch", "kind", "nested model_request_start")
                    )
                if kind == "model_request_end" and not state["request_open"]:
                    violations.append(
                        Violation(
                            "boundary_mismatch",
                            "kind",
                            "model_request_end without model_request_start",
                        )
                    )
                if kind == "terminal_result" and episode in self._terminal_episodes:
                    violations.append(
                        Violation("boundary_mismatch", "kind", "duplicate terminal_result")
                    )
                if kind == "episode_end" and (state["env_step_open"] or state["request_open"]):
                    violations.append(
                        Violation(
                            "boundary_mismatch", "kind", "episode_end with open step or request"
                        )
                    )

        if kind == "run_end" and self._open_episodes:
            open_ids = ", ".join(sorted(self._open_episodes))
            violations.append(
                Violation("boundary_mismatch", "kind", f"run_end with open episodes: {open_ids}")
            )

        return violations

    def _advance(self, event: EventRecord) -> None:
        kind = event.kind
        if kind == "run_start":
            self._started = True
            self._run_id = event.run_id
            self._trace_id = event.trace.trace_id
        elif kind == "run_end":
            self._ended = True
        elif kind == "episode_start":
            self._open_episodes[event.episode_id] = {
                "env_step_open": False,
                "request_open": False,
            }
        elif kind == "episode_end":
            self._open_episodes.pop(event.episode_id, None)
            self._closed_episodes.add(event.episode_id)
        elif kind == "env_step_start":
            self._open_episodes[event.episode_id]["env_step_open"] = True
        elif kind == "env_step_end":
            self._open_episodes[event.episode_id]["env_step_open"] = False
        elif kind == "model_request_start":
            self._open_episodes[event.episode_id]["request_open"] = True
        elif kind == "model_request_end":
            self._open_episodes[event.episode_id]["request_open"] = False
        elif kind == "terminal_result":
            self._terminal_episodes.add(event.episode_id)
        self._last_sequence = event.sequence
        self._last_clock = event.wall_clock_ms
        self._seen_spans.add(event.trace.span_id)

    def validate(self, event: EventRecord) -> ValidationReport:
        """Validate one typed event and advance state only when it is legal."""

        violations = _payload_violations(event.kind, event.payload, self.strict)
        if event.provenance.schema_version not in SUPPORTED_SCHEMA_VERSIONS:
            violations.append(
                Violation(
                    "invalid_value",
                    "provenance.schema_version",
                    f"unsupported schema version {event.provenance.schema_version!r}",
                )
            )
        violations.extend(self._stateful_violations(event))
        if violations:
            return ValidationReport.failed(violations)
        self._advance(event)
        return ValidationReport.passed()

    def validate_doc(self, doc: Mapping[str, Any], strict: bool | None = None) -> ValidationReport:
        """Validate a serialized event document (structural check first)."""

        effective_strict = self.strict if strict is None else strict
        violations = check_event_doc(doc, strict=effective_strict)
        if violations:
            return ValidationReport.failed(violations)
        try:
            event = EventRecord.from_doc(doc)
        except (SchemaError, KeyError, TypeError, ValueError) as exc:
            return ValidationReport.failed(
                [Violation("invalid_value", "event", f"cannot decode event: {exc}")]
            )
        return self.validate(event)

    def finalize(self) -> ValidationReport:
        """Check run-level completeness after the last event."""

        violations: list[Violation] = []
        if not self._started:
            violations.append(Violation("boundary_mismatch", "run", "no run_start seen"))
        if not self._ended:
            violations.append(Violation("boundary_mismatch", "run", "no run_end seen"))
        if self._open_episodes:
            open_ids = ", ".join(sorted(self._open_episodes))
            violations.append(
                Violation("boundary_mismatch", "run", f"unclosed episodes: {open_ids}")
            )
        if violations:
            return ValidationReport.failed(violations)
        return ValidationReport.passed()


def validate_log(docs: Iterable[Mapping[str, Any]], strict: bool = True) -> ValidationReport:
    """Validate a whole serialized event stream including run completeness."""

    validator = RunValidator(strict=strict)
    failures: list[Violation] = []
    for doc in docs:
        report = validator.validate_doc(doc)
        if not report.ok:
            failures.extend(report.violations)
    final = validator.finalize()
    if not final.ok:
        failures.extend(final.violations)
    if failures:
        return ValidationReport.failed(failures)
    return ValidationReport.passed()


# ---------------------------------------------------------------------------
# Event-log files
# ---------------------------------------------------------------------------


def write_event_log(
    path: Path | str, events: Iterable[EventRecord], schema_version: str = SCHEMA_VERSION
) -> None:
    """Write events as newline-delimited canonical documents with a header line."""

    lines = [canonical_json({"schema_version": schema_version})]
    lines.extend(canonical_json(event.to_doc()) for event in events)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_event_log(path: Path | str) -> tuple[str, list[dict[str, Any]]]:
    """Read an event log; returns (schema_version, event documents in order)."""

    raw_lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not raw_lines:
        raise SchemaError("missing_field", f"empty event log: {path}")
    header = json.loads(raw_lines[0])
    if "schema_version" not in header:
        raise SchemaError("missing_field", f"event log missing schema_version header: {path}")
    docs = [json.loads(line) for line in raw_lines[1:] if line]
    return str(header["schema_version"]), docs


__all__ = [
    "ActionRecord",
    "Digest",
    "EVENT_KINDS",
    "EventRecord",
    "GatebenchError",
    "HASH_ALGORITHM",
    "OPTIONAL_PAYLOAD_KEYS",
    "PARSE_STATUSES",
    "ProvenanceFields",
    "REPLAY_CLASSES",
    "REQUIRED_PAYLOAD_KEYS",
    "RunValidator",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "SchemaError",
    "TimingFields",
    "TraceContext",
    "ValidationReport",
    "Violation",
    "canonical_hash",
    "canonical_json",
    "check_event_doc",
    "new_trace_context",
    "read_event_log",
    "validate_log",
    "write_event_log",
]
