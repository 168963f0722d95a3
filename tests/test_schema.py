from __future__ import annotations

import dataclasses
import importlib
import json
import pickle
import random
import re
import threading
from collections import Counter, OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gatebench.runner import RunSet
from gatebench.schema import (
    Digest,
    EVENT_KINDS,
    EventRecord,
    GatebenchError,
    OPTIONAL_PAYLOAD_KEYS,
    ProvenanceFields,
    REQUIRED_PAYLOAD_KEYS,
    RunValidator,
    SCHEMA_VERSION,
    SchemaError,
    TimingFields,
    TraceContext,
    Violation,
    _check_canonical,
    _decode_log_lines,
    _payload_violations,
    _scan_log_lines,
    canonical_hash,
    canonical_json,
    check_event_doc,
    decode_events,
    float_sum,
    new_trace_context,
    read_event_log,
    read_json,
    require_valid_log,
    text_hash,
    write_event_log,
    write_json_lines,
)

PROVENANCE = ProvenanceFields(
    manifest_hash=canonical_hash({"fixture": "manifest"}),
    driver_id="driver-1",
    schema_version=SCHEMA_VERSION,
    replay_class="R1",
    seed=7,
)


def make_event(kind: str, sequence: int, episode_id: str = "", **overrides) -> EventRecord:
    payloads = {
        "run_start": {"setting_label": "clean", "planned_episodes": 1},
        "run_end": {"status": "success"},
        "episode_start": {"episode_index": 0},
        "episode_end": {"status": "success", "steps": 1},
        "model_request_start": {"request_index": 0},
        "model_request_end": {"request_index": 0, "model_latency_ms": 5.0},
        "action_parsed": {
            "parse_status": "parsed",
            "invalid_action": False,
            "observation_hash": "ab" * 32,
            "prompt_tokens": 10,
            "completion_tokens": 3,
            "model_latency_ms": 5.0,
        },
        "env_step_start": {"action_kind": "click"},
        "env_step_end": {"service_time_ms": 4.0, "progress": 1},
        "tool_call": {"tool_name": "patch_apply"},
        "verifier_outcome": {"status": "success", "queue_wait_ms": 0.0, "verifier_latency_ms": 2.0},
        "retry": {"attempt": 1, "reason": "env_fault"},
        "error": {"message": "boom"},
        "terminal_result": {"status": "success"},
    }
    fields = {
        "run_id": "run-1",
        "episode_id": episode_id,
        "step_index": 0,
        "trace": new_trace_context(7, sequence),
        "kind": kind,
        "sequence": sequence,
        "wall_clock_ms": float(sequence),
        "timing": TimingFields(),
        "provenance": PROVENANCE,
        "payload": dict(payloads[kind]),
    }
    fields.update(overrides)
    return EventRecord(**fields)


def well_formed_run(episodes: int = 2, steps: int = 2) -> list[EventRecord]:
    events = [make_event("run_start", 0)]
    seq = 1
    for index in range(episodes):
        episode = f"ep-{index}"
        events.append(make_event("episode_start", seq, episode, payload={"episode_index": index}))
        seq += 1
        for _ in range(steps):
            events.append(make_event("env_step_start", seq, episode))
            seq += 1
            events.append(make_event("env_step_end", seq, episode))
            seq += 1
        events.append(make_event("terminal_result", seq, episode))
        seq += 1
        events.append(make_event("episode_end", seq, episode))
        seq += 1
    events.append(make_event("run_end", seq))
    return events


# ---------------------------------------------------------------------------
# canonical_hash
# ---------------------------------------------------------------------------


def test_canonical_hash_key_order_invariant():
    assert canonical_hash({"a": 1, "b": 2}) == canonical_hash({"b": 2, "a": 1})


def test_canonical_hash_value_sensitive():
    assert canonical_hash({"a": 1}) != canonical_hash({"a": 2})


def test_canonical_hash_pure_function():
    doc = {"nested": {"x": [1, 2.5, "s"], "y": None}, "flag": True}
    digests = {canonical_hash(doc).hex for _ in range(100)}
    assert len(digests) == 1


def test_canonical_hash_rejects_non_finite():
    with pytest.raises(SchemaError) as err:
        canonical_hash({"bad": float("nan")})
    assert err.value.code == "non_canonical_value"
    with pytest.raises(SchemaError):
        canonical_hash({"bad": float("inf")})


def test_canonical_hash_rejects_unsupported_types():
    with pytest.raises(SchemaError):
        canonical_hash({"bad": object()})


@given(st.dictionaries(st.text(), st.none() | st.booleans() | st.integers() | st.text()))
def test_canonical_hash_is_text_hash_of_canonical_json(doc):
    assert canonical_hash(doc) == text_hash(canonical_json(doc))


def test_canonical_hash_of_demo_manifest_is_pinned(micro_manifest):
    # Frozen once from the canonical serializer; guards serialization drift.
    assert micro_manifest.manifest_hash().hex == (
        "730d8e9486eda4f7ecc4bcf050268e38f892386bf3c954f4797d008a58bfecb1"
    )


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(
            st.integers(min_value=-(2**40), max_value=2**40),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.text(max_size=12),
            st.booleans(),
            st.none(),
        ),
        max_size=6,
    )
)
def test_canonical_json_round_trips_ordering(doc):
    import json

    rendered = canonical_json(doc)
    assert json.loads(rendered) == json.loads(canonical_json(dict(reversed(list(doc.items())))))


# ---------------------------------------------------------------------------
# canonical_json: equivalence with the reference check
# ---------------------------------------------------------------------------


def _reference_outcome(doc):
    """What canonical_json must do: the reference check, then json.dumps."""

    try:
        _check_canonical(doc, "$")
        return json.dumps(
            doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
        )
    except (SchemaError, TypeError, ValueError) as exc:
        return type(exc), getattr(exc, "code", None), str(exc)


def _outcome(doc):
    try:
        return canonical_json(doc)
    except (SchemaError, TypeError, ValueError) as exc:
        return type(exc), getattr(exc, "code", None), str(exc)


_str_keys = st.text(max_size=6)
# Mostly string keys, so that many documents are canonical.
_keys = st.one_of(
    _str_keys, _str_keys, _str_keys, _str_keys,
    st.integers(-3, 3), st.floats(), st.booleans(), st.none(),
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.builds(object),
    st.sets(st.integers(0, 3), max_size=2),
    st.binary(max_size=3),
)
_documents = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(_str_keys, children, max_size=4).map(OrderedDict),
    ),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_canonical_json_matches_reference_check(doc):
    assert _outcome(doc) == _reference_outcome(doc)


def test_canonical_json_rejects_non_string_key_with_path():
    with pytest.raises(SchemaError) as err:
        canonical_json({"a": {"ok": 1, 7: "x"}})
    assert err.value.code == "non_canonical_value"
    assert str(err.value) == "non_canonical_value: non-string key 7 at $.a"


def test_canonical_json_rejects_nested_nan_with_path():
    with pytest.raises(SchemaError) as err:
        canonical_json({"a": [0, {"b": float("nan")}]})
    assert err.value.code == "non_canonical_value"
    assert str(err.value) == "non_canonical_value: non-finite number at $.a[1].b"


def test_canonical_json_renders_tuple_as_list():
    assert canonical_json({"t": (1, "x", (2.5,))}) == '{"t":[1,"x",[2.5]]}'


def test_canonical_json_deep_nesting_matches_reference():
    doc: object = 1.5
    for _ in range(200):
        doc = [doc]
    assert canonical_json(doc) == json.dumps(doc, separators=(",", ":"))


def _raises_within(seconds, func, arg):
    outcome = {}

    def target():
        try:
            func(arg)
        except Exception as exc:  # RecursionError included; checked by the caller
            outcome["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"still running after {seconds} s"
    return outcome.get("error")


def test_canonical_json_self_referencing_containers_raise_promptly():
    narrow: list = []
    narrow.append(narrow)
    wide: list = []
    wide.extend([wide] * 1000)
    looped: dict = {}
    looped["x"] = {"y": looped}
    for doc in (narrow, wide, looped):
        assert isinstance(_raises_within(10.0, canonical_json, doc), RecursionError)


# ---------------------------------------------------------------------------
# trace contexts
# ---------------------------------------------------------------------------


def test_trace_context_deterministic():
    assert new_trace_context(7, 0) == new_trace_context(7, 0)


def test_trace_context_same_trace_distinct_spans():
    first = new_trace_context(7, 0)
    second = new_trace_context(7, 1)
    assert first.trace_id == second.trace_id
    assert first.span_id != second.span_id


def test_trace_context_no_collisions_over_10k_counters():
    spans = {new_trace_context(7, counter).span_id for counter in range(10_000)}
    assert len(spans) == 10_000


def test_trace_context_shape():
    ctx = new_trace_context(-12345, 42)
    assert len(ctx.trace_id) == 32
    assert len(ctx.span_id) == 16


def test_digest_validation():
    with pytest.raises(SchemaError):
        Digest(algorithm="sha256", hex="short")


# ---------------------------------------------------------------------------
# RunValidator.validate: state machine
# ---------------------------------------------------------------------------


def test_run_start_sequence_zero_ok():
    validator = RunValidator()
    assert validator.validate(make_event("run_start", 0)) == []


def test_env_step_end_without_start_is_boundary_mismatch():
    validator = RunValidator()
    assert not validator.validate(make_event("run_start", 0))
    assert not validator.validate(
        make_event("episode_start", 1, "ep-0", payload={"episode_index": 0})
    )
    violations = validator.validate(make_event("env_step_end", 2, "ep-0"))
    assert {violation.code for violation in violations} == {"boundary_mismatch"}


def test_sequence_regression_rejected():
    validator = RunValidator()
    assert not validator.validate(make_event("run_start", 0))
    assert not validator.validate(
        make_event("episode_start", 5, "ep-0", payload={"episode_index": 0})
    )
    violations = validator.validate(make_event("env_step_start", 5, "ep-0"))
    assert any(violation.code == "sequence_order" for violation in violations)


def test_event_after_run_end_rejected():
    validator = RunValidator()
    assert not validator.validate(make_event("run_start", 0))
    assert not validator.validate(make_event("run_end", 1))
    assert validator.validate(make_event("error", 2))


def test_missing_required_payload_key_rejected():
    validator = RunValidator()
    assert not validator.validate(make_event("run_start", 0))
    violations = validator.validate(make_event("episode_start", 1, "ep-0", payload={}))
    assert any(violation.code == "missing_field" for violation in violations)


def test_unknown_payload_key_rejected_in_strict_mode_only():
    event = make_event(
        "run_start", 0, payload={"setting_label": "clean", "planned_episodes": 1, "zzz": 1}
    )
    strict = RunValidator().validate(event)
    assert any(violation.code == "unknown_field" for violation in strict)


def test_unsupported_schema_version_rejected():
    bad = ProvenanceFields(
        manifest_hash=PROVENANCE.manifest_hash,
        driver_id="driver-1",
        schema_version="9.9.9",
        replay_class="R1",
        seed=7,
    )
    assert RunValidator().validate(make_event("run_start", 0, provenance=bad))


def test_well_formed_run_validates_and_finalizes():
    validator = RunValidator()
    for event in well_formed_run():
        assert not validator.validate(event)
    assert not validator.finalize()


def test_validation_deterministic():
    events = well_formed_run()
    events[4] = make_event("env_step_end", events[4].sequence, "ep-0")  # duplicate end
    outcomes = []
    for _ in range(3):
        validator = RunValidator()
        outcomes.append(tuple(not validator.validate(event) for event in events))
    assert len(set(outcomes)) == 1


def test_interleaved_episodes_validate():
    events = [make_event("run_start", 0)]
    events.append(make_event("episode_start", 1, "ep-a", payload={"episode_index": 0}))
    events.append(make_event("episode_start", 2, "ep-b", payload={"episode_index": 1}))
    events.append(make_event("env_step_start", 3, "ep-a"))
    events.append(make_event("env_step_start", 4, "ep-b"))
    events.append(make_event("env_step_end", 5, "ep-a"))
    events.append(make_event("env_step_end", 6, "ep-b"))
    events.append(make_event("terminal_result", 7, "ep-b"))
    events.append(make_event("episode_end", 8, "ep-b"))
    events.append(make_event("terminal_result", 9, "ep-a"))
    events.append(make_event("episode_end", 10, "ep-a"))
    events.append(make_event("run_end", 11))
    validator = RunValidator()
    for event in events:
        assert not validator.validate(event), event.kind
    assert not validator.finalize()


@pytest.mark.parametrize(
    "terminal, status, message",
    [
        ("success", "success", None),
        (None, "missing_terminal", None),
        ("success", 5, "episode_end status 5 is not a string"),
        ("success", "failure", "episode_end status 'failure' is not its episode's 'success'"),
        (None, "success", "episode_end status 'success' is not its episode's 'missing_terminal'"),
    ],
)
def test_episode_end_status_must_be_its_episodes_terminal_status(terminal, status, message):
    events = [make_event("run_start", 0)]
    events.append(make_event("episode_start", 1, "ep-0"))
    if terminal is None:
        events.append(make_event("error", 2, "ep-0"))
    else:
        events.append(make_event("terminal_result", 2, "ep-0", payload={"status": terminal}))
    end = make_event("episode_end", 3, "ep-0", payload={"status": status, "steps": 0})
    validator = RunValidator()
    for event in events:
        assert not validator.validate(event)
    violations = validator.validate(end)
    if message is None:
        assert violations == []
    else:
        assert violations == [Violation("invalid_value", "payload.status", message)]


@pytest.mark.parametrize(
    "replay_class, verdict, status, message",
    [
        ("R2", "success", "success", None),
        ("R2", "failure", "failure", None),
        ("R2", "success", "failure",
         "terminal_result status 'failure' is not its verifier_outcome's 'success'"),
        ("R2", None, "success", "terminal_result before its episode's verifier_outcome"),
        ("R1", "success", "failure", None),
        ("R1", None, "success", None),
    ],
)
def test_r2_terminal_status_must_be_its_verifier_outcomes(replay_class, verdict, status, message):
    provenance = dataclasses.replace(PROVENANCE, replay_class=replay_class)
    events = [
        make_event("run_start", 0, provenance=provenance),
        make_event("episode_start", 1, "ep-0", provenance=provenance),
    ]
    if verdict is not None:
        payload = {"status": verdict, "queue_wait_ms": 0.0, "verifier_latency_ms": 2.0,
                   "patch_quality": "generated", "pass_prob": 0.5}
        events.append(make_event("verifier_outcome", 2, "ep-0", provenance=provenance,
                                 payload=payload))
    terminal = make_event("terminal_result", 3, "ep-0", provenance=provenance,
                          payload={"status": status})
    validator = RunValidator()
    for event in events:
        assert not validator.validate(event)
    violations = validator.validate(terminal)
    if message is None:
        assert violations == []
    else:
        assert violations == [Violation("invalid_value", "payload.status", message)]


def test_event_whose_provenance_is_not_its_run_starts_is_invalid_log(demo_runset):
    runset, _ = demo_runset
    run = next(run for run in runset.runs if run.family == "web" and run.event_log_ref)
    events = list(runset.events_for(run))
    middle = len(events) // 2
    provenance = events[middle].provenance
    # An equal provenance that is another object passes; one relabelled R0 does not.
    events[middle] = dataclasses.replace(events[middle], provenance=dataclasses.replace(provenance))
    require_valid_log(events, run.run_id)
    relabelled = dataclasses.replace(provenance, replay_class="R0")
    events[middle] = dataclasses.replace(events[middle], provenance=relabelled)
    with pytest.raises(SchemaError) as err:
        require_valid_log(events, run.run_id)
    assert (err.value.code, err.value.message) == (
        "invalid_log",
        f"run {run.run_id}: event {events[middle].sequence}: boundary_mismatch provenance: "
        "provenance differs from run_start's",
    )


@pytest.mark.parametrize("replay_class, violations", [
    ("R2", [
        Violation("missing_field", "payload.patch_quality",
                  "an R2 verifier_outcome requires payload key patch_quality"),
        Violation("missing_field", "payload.pass_prob",
                  "an R2 verifier_outcome requires payload key pass_prob"),
    ]),
    ("R1", []),
])
def test_r2_verifier_outcome_requires_its_verdict_inputs(replay_class, violations):
    provenance = dataclasses.replace(PROVENANCE, replay_class=replay_class)
    doc = make_event("verifier_outcome", 2, "ep-0", provenance=provenance).to_doc()
    assert check_event_doc(doc) == violations
    doc["payload"].update(patch_quality="gold", pass_prob=1.0)
    assert check_event_doc(doc) == []


@pytest.mark.parametrize("key, value, valid", [
    *(("patch_quality", quality, True) for quality in ("gold", "noop", "generated")),
    ("patch_quality", "platinum", False),
    ("patch_quality", 1, False),
    ("pass_prob", 0, True),
    ("pass_prob", 0.5, True),
    ("pass_prob", 1, True),
    ("pass_prob", -0.1, False),
    ("pass_prob", 1.5, False),
    ("pass_prob", "high", False),
    ("pass_prob", True, False),
    ("pass_prob", None, False),
])
def test_r2_verdict_inputs_are_checked_by_value(key, value, valid):
    provenance = dataclasses.replace(PROVENANCE, replay_class="R2")
    doc = make_event("verifier_outcome", 2, "ep-0", provenance=provenance).to_doc()
    doc["payload"].update({"patch_quality": "gold", "pass_prob": 1.0, key: value})
    violations = check_event_doc(doc)
    if valid:
        assert violations == []
    else:
        assert [(v.code, v.field) for v in violations] == [("invalid_value", f"payload.{key}")]
    r1 = dataclasses.replace(PROVENANCE, replay_class="R1")
    doc["provenance"] = make_event("verifier_outcome", 2, "ep-0", provenance=r1).to_doc()[
        "provenance"
    ]
    assert check_event_doc(doc) == []


def _reference_payload_violations(kind, payload):
    """The payload check as first written: allowed keys built per call."""

    required = REQUIRED_PAYLOAD_KEYS.get(kind, ())
    violations = [
        Violation("missing_field", f"payload.{key}", f"{kind} requires payload key {key}")
        for key in required
        if key not in payload
    ]
    allowed = set(required) | set(OPTIONAL_PAYLOAD_KEYS.get(kind, ()))
    violations.extend(
        Violation("unknown_field", f"payload.{key}", f"{kind} does not allow key {key}")
        for key in payload
        if key not in allowed
    )
    return violations


_PAYLOAD_KEY_NAMES = sorted(
    {key for keys in (*REQUIRED_PAYLOAD_KEYS.values(), *OPTIONAL_PAYLOAD_KEYS.values())
     for key in keys} | {"zzz", ""}
)


@given(
    st.sampled_from(sorted(EVENT_KINDS) + ["not_a_kind"]),
    st.lists(st.sampled_from(_PAYLOAD_KEY_NAMES), unique=True),
)
def test_payload_violations_match_reference_in_both_modes(kind, keys):
    payload = dict.fromkeys(keys, 1)
    assert _payload_violations(kind, payload) == _reference_payload_violations(kind, payload)


def test_missing_and_unknown_payload_keys_reported_in_both_modes():
    event = make_event("run_start", 0, payload={"planned_episodes": 1, "zzz": 1, "aaa": 2})
    missing = Violation(
        "missing_field", "payload.setting_label", "run_start requires payload key setting_label"
    )
    strict = RunValidator().validate(event)
    assert strict == [
        missing,
        Violation("unknown_field", "payload.zzz", "run_start does not allow key zzz"),
        Violation("unknown_field", "payload.aaa", "run_start does not allow key aaa"),
    ]


@given(st.lists(st.sampled_from(sorted(EVENT_KINDS)), max_size=30))
@settings(max_examples=200, deadline=None)
def test_validator_never_crashes_and_accepted_runs_balance(kinds):
    validator = RunValidator()
    open_ids: list[str] = []
    starts: list[str] = []
    ends: list[str] = []
    sequence = 0
    counter = 0
    for kind in kinds:
        if kind == "episode_start":
            episode = f"ep-{counter}"
            counter += 1
        elif kind in ("run_start", "run_end") or (kind == "error" and not open_ids):
            episode = ""
        else:
            episode = open_ids[-1] if open_ids else "ep-none"
        event = make_event(kind, sequence, episode)
        sequence += 1
        if not validator.validate(event):
            if kind == "episode_start":
                open_ids.append(episode)
                starts.append(episode)
            elif kind == "episode_end":
                open_ids.remove(episode)
                ends.append(episode)
    if not validator.finalize():
        assert sorted(starts) == sorted(ends)


# ---------------------------------------------------------------------------
# Fuzz oracle: required-field deletions are always rejected
# ---------------------------------------------------------------------------


def _required_paths(doc: dict) -> list[tuple[str, ...]]:
    """Independent oracle: every required field path for this event's kind."""

    paths: list[tuple[str, ...]] = [(name,) for name in (
        "run_id", "episode_id", "step_index", "trace", "kind", "sequence",
        "wall_clock_ms", "timing", "provenance", "payload",
    )]
    paths.extend(("trace", name) for name in ("trace_id", "span_id"))
    paths.extend(("timing", name) for name in ("queue_wait_ms", "service_time_ms"))
    paths.extend(
        ("provenance", name)
        for name in ("manifest_hash", "driver_id", "schema_version", "replay_class", "seed")
    )
    paths.extend(("payload", name) for name in REQUIRED_PAYLOAD_KEYS[doc["kind"]])
    return paths


def test_fuzz_required_field_deletions_all_rejected():
    rng = random.Random(20260808)
    events = well_formed_run(episodes=3, steps=3)
    docs = [event.to_doc() for event in events]
    mutations = 0
    rejected = 0
    while mutations < 1200:
        doc = rng.choice(docs)
        path = rng.choice(_required_paths(doc))
        mutated = {key: (dict(value) if isinstance(value, dict) else value) for key, value in doc.items()}
        target = mutated
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        mutations += 1
        violations = check_event_doc(mutated)
        if any(violation.code in ("missing_field", "invalid_value") for violation in violations):
            rejected += 1
    assert mutations >= 1000
    assert rejected == mutations  # zero false accepts


def test_fuzz_random_key_deletion_never_false_accepts():
    # Deleting any key, required or optional, must never produce a record that
    # passes structural checks while missing a required field.
    rng = random.Random(99)
    events = well_formed_run(episodes=2, steps=2)
    for _ in range(500):
        doc = rng.choice(events).to_doc()
        mutated = {k: (dict(v) if isinstance(v, dict) else v) for k, v in doc.items()}
        containers = [mutated] + [
            mutated[name] for name in ("trace", "timing", "provenance", "payload")
        ]
        container = rng.choice(containers)
        if not container:
            continue
        key = rng.choice(sorted(container))
        del container[key]
        still_required = {tuple(p) for p in _required_paths(doc)}
        removed_required = any(path[-1] == key for path in still_required)
        ok = not check_event_doc(mutated)
        if removed_required:
            assert not ok


# ---------------------------------------------------------------------------
# Mutation table: one rule per row, on the document and on a read log
# ---------------------------------------------------------------------------


def _run_with_action() -> list[EventRecord]:
    """A valid run whose event at index 2 is an ``action_parsed``."""

    episode = "ep-0"
    kinds = ["episode_start", "action_parsed", "env_step_start", "env_step_end",
             "terminal_result", "episode_end"]
    events = [make_event("run_start", 0)]
    events += [make_event(kind, index, episode) for index, kind in enumerate(kinds, start=1)]
    return [*events, make_event("run_end", len(events))]


def _set(path: str, value):
    def mutate(doc: dict) -> None:
        *parents, key = path.split(".")
        for name in parents:
            doc = doc[name]
        doc[key] = value
    return mutate


def _pairs(name: str):
    def mutate(doc: dict) -> None:
        doc[name] = [list(item) for item in doc[name].items()]
    return mutate


_MUTATIONS = {
    "sequence-true": _set("sequence", True),
    "sequence-string": _set("sequence", "3"),
    "sequence-float": _set("sequence", 3.5),
    "step-index-negative": _set("step_index", -1),
    "queue-wait-string": _set("timing.queue_wait_ms", "5"),
    "queue-wait-bool": _set("timing.queue_wait_ms", True),
    "timing-list": _pairs("timing"),
    "payload-pairs": _pairs("payload"),
    "trace-string": _set("trace", "ab" * 16),
    "replay-class": _set("provenance.replay_class", "R9"),
    "unknown-kind": _set("kind", "teleport"),
    "unknown-parse-status": _set("payload.parse_status", "garbled"),
    "invalid-action-inconsistent": _set("payload.invalid_action", True),
    "unknown-payload-key": _set("payload.zzz", 1),
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_mutated_event_rejected_by_check_and_on_read(mutation, demo_runset, tmp_path):
    events = _run_with_action()
    docs = [event.to_doc() for event in events]
    require_valid_log(events, events[0].run_id)
    assert not any(map(check_event_doc, docs))
    _MUTATIONS[mutation](docs[2])
    assert check_event_doc(docs[2])

    run = demo_runset[0].runs[0]
    log = tmp_path / run.event_log_ref
    log.parent.mkdir(parents=True)
    lines = [canonical_json({"schema_version": SCHEMA_VERSION}), *map(canonical_json, docs)]
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        RunSet(runs=[run], base_dir=tmp_path).events_for(run)


def test_read_log_reports_first_violation_with_run_and_sequence(demo_runset, tmp_path):
    run = demo_runset[0].runs[0]
    log = tmp_path / run.event_log_ref
    log.parent.mkdir(parents=True)
    runset = RunSet(runs=[run], base_dir=tmp_path)
    events = _run_with_action()
    write_event_log(log, events)
    assert runset.events_for(run) == events
    for kept, where, rule in (
        (events[:4] + events[5:], "event 6",
         "boundary_mismatch kind: episode_end with open step or request"),
        (events[:-1], "end of log", "boundary_mismatch run: no run_end seen"),
    ):
        write_event_log(log, kept)
        with pytest.raises(SchemaError) as err:
            runset.events_for(run)
        assert (err.value.code, err.value.message) == (
            "invalid_log", f"run {run.run_id}: {where}: {rule}"
        )


def _break_sequence(rows: list[str]) -> str:
    rows[5] = rows[5].replace('"sequence":4,', '"sequence":"4",')
    return "line 6: invalid_document: EventRecord.sequence: TypeError: expected an integer, got '4'"


def _break_json(rows: list[str]) -> str:
    rows[3] = '{"x":,' + rows[3][6:]
    offset = sum(len(row) + 1 for row in rows[:3]) + 5
    return f"is not valid JSON: Expecting value: line 4 column 6 (char {offset})"


@pytest.mark.parametrize("tamper", [_break_sequence, _break_json], ids=["decode", "json"])
def test_failing_log_is_read_once_and_named_at_its_line(
    tamper, demo_runset, tmp_path, monkeypatch
):
    run = demo_runset[0].runs[0]
    log = tmp_path / run.event_log_ref
    log.parent.mkdir(parents=True)
    write_event_log(log, well_formed_run())
    rows = log.read_text(encoding="utf-8").split("\n")
    message = tamper(rows)
    log.write_text("\n".join(rows), encoding="utf-8")

    reads: Counter[Path] = Counter()
    read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads[self] += 1
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    with pytest.raises(SchemaError) as err:
        RunSet(runs=[run], base_dir=tmp_path).events_for(run)
    monkeypatch.undo()
    assert reads == {log: 1}
    assert err.value.code == "invalid_log"
    assert err.value.message.endswith(message)
    if tamper is _break_sequence:
        assert err.value.message == f"run {run.run_id}: {message}"


# ---------------------------------------------------------------------------
# Event-log files
# ---------------------------------------------------------------------------


def test_event_log_round_trip(tmp_path):
    events = well_formed_run()
    path = tmp_path / "run.log"
    write_event_log(path, events)
    version, decoded = read_event_log(path)
    assert version == SCHEMA_VERSION
    assert decoded == events
    require_valid_log(decoded, events[0].run_id)


def test_event_log_header_precedes_events(tmp_path):
    path = tmp_path / "run.log"
    write_event_log(path, well_formed_run())
    first_line = path.read_text(encoding="utf-8").splitlines()[0]
    assert "schema_version" in first_line


@pytest.mark.parametrize("lines", [False, True], ids=["event_log", "json_lines"])
def test_invalid_json_line_is_reported_at_its_file_line(tmp_path, lines):
    path = tmp_path / "run.log"
    write_event_log(path, well_formed_run())
    rows = path.read_text(encoding="utf-8").split("\n")
    rows[3] = '{"x":,' + rows[3][6:]
    path.write_text("\n".join(rows), encoding="utf-8")
    offset = sum(len(row) + 1 for row in rows[:3]) + 5
    with pytest.raises(SchemaError) as err:
        if lines:
            read_json(path, SchemaError, "missing_log", "invalid_log", lines=True)
        else:
            read_event_log(path)
    assert err.value.code == "invalid_log"
    assert str(err.value).endswith(
        f"is not valid JSON: Expecting value: line 4 column 6 (char {offset})"
    )


# canonical_json keeps U+2028, U+2029 and U+0085 raw inside strings; the
# readers split lines at "\n" only, so such a payload reads back unchanged.
_LINE_BREAKING_CHARACTERS = ["\u2028", "\u2029", "\u0085"]


@pytest.mark.parametrize("char", _LINE_BREAKING_CHARACTERS, ids=["u2028", "u2029", "u0085"])
def test_payload_with_unicode_line_separator_round_trips(tmp_path, char):
    events = well_formed_run()
    events[-1] = make_event(
        "run_end", events[-1].sequence, payload={"status": f"a{char}b{char}"}
    )
    path = tmp_path / "run.log"
    write_event_log(path, events)
    assert char in path.read_text(encoding="utf-8")
    expected = [json.loads(canonical_json(event.to_doc())) for event in events]
    assert read_event_log(path) == (SCHEMA_VERSION, events)
    lines = read_json(path, SchemaError, "missing_log", "invalid_log", lines=True)
    assert lines == list(enumerate([{"schema_version": SCHEMA_VERSION}, *expected], start=1))
    assert decode_events(expected) == events


@pytest.mark.parametrize("char", _LINE_BREAKING_CHARACTERS, ids=["u2028", "u2029", "u0085"])
@pytest.mark.parametrize("lines", [False, True], ids=["event_log", "json_lines"])
def test_bad_line_after_unicode_line_separator_is_reported_at_its_file_line(
    tmp_path, char, lines
):
    events = well_formed_run()
    events[1] = make_event(
        "episode_start", 1, "ep-0", payload={"episode_index": 0, "goal": char}
    )
    path = tmp_path / "run.log"
    write_event_log(path, events)
    rows = path.read_text(encoding="utf-8").split("\n")
    assert char in rows[2]
    rows[4] = '{"x":,' + rows[4][6:]
    path.write_text("\n".join(rows), encoding="utf-8")
    offset = sum(len(row) + 1 for row in rows[:4]) + 5
    with pytest.raises(SchemaError) as err:
        if lines:
            read_json(path, SchemaError, "missing_log", "invalid_log", lines=True)
        else:
            read_event_log(path)
    assert err.value.code == "invalid_log"
    assert str(err.value).endswith(
        f"is not valid JSON: Expecting value: line 5 column 6 (char {offset})"
    )


def test_empty_event_log_is_missing_field(tmp_path):
    path = tmp_path / "run.log"
    path.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read_event_log(path)
    assert err.value.code == "missing_field"


# write_event_log renders lines from typed records; each must equal the
# reference canonical_json(event.to_doc()), errors included.


def _reference_log(events) -> str:
    lines = [canonical_json({"schema_version": SCHEMA_VERSION})]
    lines.extend(canonical_json(event.to_doc()) for event in events)
    return "\n".join(lines) + "\n"


def _written_log(path, events) -> str:
    write_event_log(path, events)
    return path.read_text(encoding="utf-8")


def _text_or_error(func, *args):
    try:
        return func(*args)
    except (SchemaError, TypeError, ValueError) as exc:
        return type(exc), getattr(exc, "code", None), str(exc)


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    return tmp_path_factory.mktemp("event-logs") / "run.log"


# Quote, backslash, control, non-ASCII and astral characters next to plain ones.
_SPECIAL_CHARS = '"\\\x00\x08\x1f\x7f\x85/é€\u2028😀'
_texts = st.text(alphabet=_SPECIAL_CHARS + "az09-_ ", max_size=6)
_SPECIAL_FLOATS = (0.0, -0.0, 1e-7, 1e22, 5e-324, 0.1, 2.5)
_nonneg_floats = st.one_of(
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)
# Off the fast path: ints where floats are declared, bools where ints are.
_clock_values = st.one_of(_nonneg_floats, _nonneg_floats, st.integers(0, 10**6))
_count_values = st.one_of(st.integers(0, 2**70), st.integers(0, 50), st.booleans())
_timings = st.builds(
    TimingFields,
    queue_wait_ms=_clock_values,
    service_time_ms=_clock_values,
    model_latency_ms=st.none() | _clock_values,
    tool_latency_ms=st.none() | _clock_values,
    verifier_latency_ms=st.none() | _clock_values,
)
_traces = st.builds(
    TraceContext,
    trace_id=st.text(alphabet=_SPECIAL_CHARS + "0123456789abcdef", min_size=32, max_size=32),
    span_id=st.text(alphabet=_SPECIAL_CHARS + "0123456789abcdef", min_size=16, max_size=16),
    parent_span_id=st.none() | _texts,
)
_digests = st.builds(
    Digest, algorithm=st.just("sha256"), hex=st.text("0123456789abcdef", min_size=64, max_size=64)
)
_provenances = st.builds(
    ProvenanceFields,
    manifest_hash=_digests,
    driver_id=_texts,
    schema_version=st.sampled_from([SCHEMA_VERSION, "9.9.9"]),
    replay_class=st.sampled_from(["R0", "R1", "R2"]),
    seed=st.integers(-(2**63), 2**63 - 1),
    model_backend_id=st.none() | _texts,
    snapshot_digest=st.none() | _digests,
    verifier_version=st.none() | _texts,
)
_payload_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from(_SPECIAL_FLOATS + (-1e-7, -1e22)),
    st.floats(allow_nan=False, allow_infinity=False),
    _texts,
)
_payload_values = st.recursive(
    _payload_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_texts, children, max_size=3),
    ),
    max_leaves=10,
)
_payloads = st.one_of(
    st.dictionaries(_texts, _payload_values, max_size=4),
    st.dictionaries(_texts, _payload_values, max_size=4),
    st.dictionaries(_texts, _payload_values, max_size=4).map(OrderedDict),
    # Not canonical: the line must raise the reference's error.
    st.dictionaries(
        st.one_of(_texts, st.integers(-3, 3)),
        st.one_of(_payload_values, st.floats(), st.sets(st.integers(0, 3), max_size=2)),
        max_size=3,
    ),
)


@st.composite
def _event_lists(draw):
    run_ids = draw(st.lists(_texts, min_size=1, max_size=2))
    provenances = draw(st.lists(_provenances, min_size=1, max_size=2))
    return [
        EventRecord(
            run_id=draw(st.sampled_from(run_ids)),
            episode_id=draw(_texts),
            step_index=draw(_count_values),
            trace=draw(_traces),
            kind=draw(st.sampled_from(sorted(EVENT_KINDS))),
            sequence=draw(_count_values),
            wall_clock_ms=draw(_clock_values),
            timing=draw(_timings),
            provenance=draw(st.sampled_from(provenances)),
            payload=draw(_payloads),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]


@settings(max_examples=150, deadline=None)
@given(_event_lists())
def test_write_event_log_matches_reference_lines(log_path, events):
    assert _text_or_error(_written_log, log_path, events) == _text_or_error(_reference_log, events)


class _TaggedEvent(EventRecord):
    def to_doc(self):
        return {**super().to_doc(), "tag": "subclass"}


def test_write_event_log_matches_reference_on_edge_values(tmp_path):
    events = []
    for mask in range(16):
        present = [value if mask >> bit & 1 else None for bit, value in enumerate((1e22, 5e-324, -0.0))]
        events.append(
            make_event(
                "env_step_end",
                mask,
                'ep-"é\\\x01 ',
                trace=new_trace_context(7, mask, parent_span_id="a\"\\\x1f" if mask & 8 else None),
                wall_clock_ms=1e-7,
                timing=TimingFields(
                    queue_wait_ms=-0.0,
                    service_time_ms=1e22,
                    model_latency_ms=present[0],
                    tool_latency_ms=present[1],
                    verifier_latency_ms=present[2],
                ),
                payload={"nested": {"b": [1, (2.5, None)], "a": {"é": "\x00\"\\"}}, "z": True},
            )
        )
    # Off the fast path: int clock and timing, bool sequence, OrderedDict
    # payload, and a subclass with its own to_doc.
    events.append(make_event("run_end", 16, wall_clock_ms=16))
    events.append(make_event("run_end", 17, timing=TimingFields(queue_wait_ms=3)))
    events.append(make_event("run_end", True))
    events.append(make_event("run_end", 18, payload=OrderedDict(b=1, a=2)))
    fields = {field.name: getattr(events[0], field.name) for field in dataclasses.fields(EventRecord)}
    events.append(_TaggedEvent(**fields))
    path = tmp_path / "run.log"
    write_event_log(path, events)
    written = path.read_text(encoding="utf-8")
    assert written == _reference_log(events)
    assert '"timing":{"model_latency_ms":1e+22,"queue_wait_ms":-0.0,"service_time_ms":1e+22' in written
    assert '"tag":"subclass"' in written.splitlines()[-1]


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"a": float("nan")}, "non-finite number at $.payload.a"),
        ({"a": [0, {"b": float("inf")}]}, "non-finite number at $.payload.a[1].b"),
        ({7: "x"}, "non-string key 7 at $.payload"),
        ({"a": {"ok": 1, 7: "x"}}, "non-string key 7 at $.payload.a"),
        ({"a": {1, 2}}, "unsupported type set at $.payload.a"),
    ],
)
def test_write_event_log_payload_errors_match_reference(tmp_path, payload, message):
    event = make_event("run_end", 0, payload=payload)
    with pytest.raises(SchemaError) as reference:
        canonical_json(event.to_doc())
    with pytest.raises(SchemaError) as err:
        write_event_log(tmp_path / "run.log", [make_event("run_start", 0), event])
    assert (err.value.code, str(err.value)) == (reference.value.code, str(reference.value))
    assert str(err.value) == f"non_canonical_value: {message}"


# ---------------------------------------------------------------------------
# The in-place line scan of read_event_log against the reference reader
# ---------------------------------------------------------------------------


def _log_rows(replay_class: str) -> list[str]:
    provenance = dataclasses.replace(PROVENANCE, replay_class=replay_class)
    events = [
        dataclasses.replace(event, provenance=provenance) for event in well_formed_run(1, 1)
    ]
    header = canonical_json({"schema_version": SCHEMA_VERSION})
    return [header, *(canonical_json(event.to_doc()) for event in events)]


def _read_outcome(read, *args):
    """(version, events, kept lines) of a read, or the typed error's class, code and message."""

    try:
        version, events = read(*args)
    except GatebenchError as exc:
        return type(exc), exc.code, exc.message
    return version, list(events), events.lines


_NON_FINITE = ("NaN", "Infinity", "-Infinity")


@st.composite
def _edited_logs(draw) -> str:
    """A small R0 or R1 log's text with up to four line edits: blank lines (a
    blank header too), whitespace around a line, two documents on one line,
    a line cut in two (inside a string or between tokens), a non-finite
    number, raw U+2028 inside a string or between tokens, spaces after colons."""

    rows = _log_rows(draw(st.sampled_from(["R0", "R1"])))
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from([
            "blank", "leading", "trailing", "join", "cut", "non_finite",
            "u2028_in_string", "u2028_between", "space_after_colon",
        ]))
        index = draw(st.integers(0, len(rows) - 1))
        row = rows[index]
        if edit == "blank":
            rows.insert(index, "")
        elif edit == "leading":
            rows[index] = draw(st.sampled_from([" ", "\t", "\r"])) + row
        elif edit == "trailing":
            rows[index] = row + draw(st.sampled_from([" ", "\t", "\r", " \r"]))
        elif edit == "join" and index + 1 < len(rows):
            rows[index:index + 2] = [row + draw(st.sampled_from(["", " "])) + rows[index + 1]]
        elif edit == "cut" and len(row) > 1:
            at = draw(st.integers(1, len(row) - 1))
            rows[index:index + 1] = [row[:at], row[at:]]
        elif edit == "non_finite":
            constant = draw(st.sampled_from(_NON_FINITE))
            rows[index] = re.sub(r":-?\d+\.\d+", ":" + constant, row, count=1)
        elif edit == "u2028_in_string":
            rows[index] = row.replace('"run-1"', '"run-\u2028-1"', 1)
        elif edit == "u2028_between":
            rows[index] = row.replace(",", ",\u2028", 1)
        elif edit == "space_after_colon":
            rows[index] = row.replace('":', '": ')
    return "\n".join(rows) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=400, deadline=None)
@given(_edited_logs())
def test_read_event_log_matches_the_reference_reader(log_path, text):
    log_path.write_text(text, encoding="utf-8")
    read = log_path.read_text(encoding="utf-8")  # as the reader reads it: "\r" ends a line
    assert _read_outcome(read_event_log, log_path) == _read_outcome(
        _decode_log_lines, read, log_path
    )


@pytest.mark.parametrize(
    "edit, scanned",
    [
        (lambda rows: rows, True),
        (lambda rows: [*rows[:2], "", *rows[2:]], True),
        (lambda rows: [rows[0], rows[1].replace('":', '": '), *rows[2:]], True),
        (lambda rows: ["", *rows[1:]], False),
        (lambda rows: [rows[0], " " + rows[1], *rows[2:]], False),
        (lambda rows: [rows[0], rows[1] + "\r", *rows[2:]], False),
        (lambda rows: [rows[0], rows[1] + rows[2], *rows[3:]], False),
        (lambda rows: [rows[0], rows[1][:9], rows[1][9:], *rows[2:]], False),
        (lambda rows: [rows[0], rows[1].replace(":0.0", ":NaN", 1), *rows[2:]], False),
    ],
    ids=[
        "canonical", "blank-line", "space-after-colon", "blank-header", "leading-space",
        "carriage-return", "two-documents", "cut-line", "nan",
    ],
)
def test_scan_reads_clean_lines_and_leaves_the_rest_to_the_reference(edit, scanned, log_path):
    rows = edit(_log_rows("R1"))
    text = "\n".join(rows) + "\n"
    if scanned:
        assert _read_outcome(_scan_log_lines, text, log_path) == _read_outcome(
            _decode_log_lines, text, log_path
        )
    else:
        assert _scan_log_lines(text, log_path) is None


def test_read_event_log_keeps_the_event_lines_of_r1_logs_only(log_path):
    for replay_class, kept in (("R1", True), ("R0", False)):
        rows = _log_rows(replay_class)
        log_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        _, events = read_event_log(log_path)
        assert events.lines == (rows[1:] if kept else None)


def test_write_json_lines_renders_every_line_before_it_opens_the_file(tmp_path):
    path = tmp_path / "lines.jsonl"
    events = [make_event("run_start", 0), make_event("run_end", 1)]
    write_json_lines(path, events)
    assert path.read_text(encoding="utf-8") == "".join(
        canonical_json(event.to_doc()) + "\n" for event in events
    )
    write_json_lines(path, [])
    assert path.read_text(encoding="utf-8") == "\n"
    path.write_text("kept", encoding="utf-8")
    bad = make_event("run_end", 1, payload={"a": float("nan")})
    with pytest.raises(SchemaError):
        write_json_lines(path, [events[0], bad], {"schema_version": SCHEMA_VERSION})
    assert path.read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("distinct", [False, True], ids=["shared", "equal-copies"])
def test_write_event_log_renders_each_runs_provenance(tmp_path, distinct):
    other = ProvenanceFields(
        manifest_hash=canonical_hash({"fixture": "other"}),
        driver_id="driver-2",
        schema_version=SCHEMA_VERSION,
        replay_class="R2",
        seed=8,
        snapshot_digest=canonical_hash({"fixture": "snapshot"}),
    )
    # Run id and provenance each change on their own, then both at once.
    segments = [("run-a", PROVENANCE), ("run-b", PROVENANCE), ("run-b", other), ("run-a", PROVENANCE)]
    events = []
    for run_id, provenance in segments:
        for event in well_formed_run(episodes=1, steps=1):
            if distinct:
                run_id, provenance = "".join(run_id), dataclasses.replace(provenance)
            events.append(dataclasses.replace(event, run_id=run_id, provenance=provenance))
    if distinct:
        assert events[0].provenance == events[1].provenance
        assert events[0].provenance is not events[1].provenance
    path = tmp_path / "run.log"
    write_event_log(path, events)
    assert path.read_text(encoding="utf-8") == _reference_log(events)


def test_decode_events_equals_per_doc_decoding():
    other = ProvenanceFields(
        manifest_hash=canonical_hash({"fixture": "other"}),
        driver_id="driver-2",
        schema_version=SCHEMA_VERSION,
        replay_class="R2",
        seed=8,
        snapshot_digest=canonical_hash({"fixture": "snapshot"}),
    )
    events = well_formed_run()
    events[3:5] = [dataclasses.replace(event, provenance=other) for event in events[3:5]]
    docs = [event.to_doc() for event in events]
    decoded = decode_events(docs)
    assert decoded == [EventRecord.from_doc(doc) for doc in docs] == events
    # One decoded provenance is shared by each stretch of equal documents.
    assert decoded[0].provenance is decoded[2].provenance
    assert decoded[3].provenance is decoded[4].provenance == other
    assert decoded[5].provenance == PROVENANCE


@pytest.mark.parametrize("seed, later", [(31, 31.0), (1, True)], ids=["float", "true"])
def test_decode_events_shares_a_provenance_only_of_the_same_types(seed, later):
    # 31.0 == 31 and True == 1, yet neither decodes as an integer seed.
    provenance = dataclasses.replace(PROVENANCE, seed=seed)
    docs = [dataclasses.replace(e, provenance=provenance).to_doc() for e in well_formed_run()]
    docs[3]["provenance"]["seed"] = later
    assert docs[3]["provenance"] == docs[2]["provenance"]
    message = f"ProvenanceFields.seed: TypeError: expected an integer, got {later!r}"
    for decode in (EventRecord.from_doc, lambda doc: decode_events([*docs[:3], doc])):
        with pytest.raises(SchemaError) as err:
            decode(docs[3])
        assert (err.value.code, err.value.message) == ("invalid_document", message)


def test_decode_events_rejects_provenance_that_turns_invalid():
    docs = [event.to_doc() for event in well_formed_run()]
    docs[5]["provenance"]["replay_class"] = "R9"
    with pytest.raises(SchemaError) as err:
        decode_events(docs)
    assert err.value.code == "invalid_value"
    assert decode_events([]) == []


def test_decode_events_types_malformed_documents_like_from_doc():
    docs = [event.to_doc() for event in well_formed_run()]
    del docs[2]["provenance"]
    docs[4] = ["not", "an", "event"]
    for doc, message in (
        (docs[2], "EventRecord.provenance: missing required key"),
        (docs[4], "EventRecord: expected an object, got list"),
    ):
        for decode in (EventRecord.from_doc, lambda doc: decode_events([docs[0], doc])):
            with pytest.raises(SchemaError) as err:
                decode(doc)
            assert (err.value.code, err.value.message) == ("invalid_document", message)


@pytest.mark.parametrize(
    "cls, doc, code, message",
    [
        (Digest, {"algorithm": "sha256"}, "invalid_document", "Digest.hex: missing required key"),
        (Digest, "sha256", "invalid_document", "Digest: expected an object, got str"),
        (TimingFields, {"queue_wait_ms": "soon", "service_time_ms": 1.0}, "invalid_document",
         "TimingFields.queue_wait_ms: TypeError: expected a number, got 'soon'"),
        (TimingFields, {"queue_wait_ms": 10**400, "service_time_ms": 1.0}, "invalid_document",
         "TimingFields.queue_wait_ms: OverflowError: int too large to convert to float"),
        (TimingFields, {"queue_wait_ms": 1.0, "service_time_ms": -1.0}, "invalid_value",
         "service_time_ms must be finite and >= 0, got -1.0"),
        (TraceContext, {"trace_id": "ab", "span_id": "cd" * 8}, "invalid_trace",
         "trace_id must be 32 hex chars"),
        (ProvenanceFields, {**PROVENANCE.to_doc(), "manifest_hash": {"algorithm": "sha256", "hex": "AB"}},
         "invalid_digest", "sha256 hex must be 64 chars, got 2"),
    ],
    ids=[
        "missing-key", "not-object", "coercion", "overflow", "post-init", "trace-check",
        "nested-check",
    ],
)
def test_codec_errors_are_typed_and_record_checks_keep_theirs(cls, doc, code, message):
    with pytest.raises(SchemaError) as err:
        cls.from_doc(doc)
    assert (err.value.code, err.value.message) == (code, message)


def test_record_to_doc_returns_fresh_containers():
    event = well_formed_run()[1]
    first, second = event.to_doc(), event.to_doc()
    assert first == second and first["payload"] is not event.payload
    first["payload"]["extra"] = 1
    first["timing"]["queue_wait_ms"] = 9.0
    assert "extra" not in event.payload and event.to_doc() == second


def test_float_sum_adds_left_to_right_from_zero():
    # A compensated sum (Python >= 3.12 ``sum``, or ``math.fsum``) gives 1.0.
    assert float_sum([1e16, 1.0, -1e16]) == 0.0
    assert float_sum(iter([0.1, 0.2, 0.3])) == (0.0 + 0.1 + 0.2) + 0.3
    assert float_sum([]) == 0.0 and isinstance(float_sum([]), float)


# ---------------------------------------------------------------------------
# typed errors
# ---------------------------------------------------------------------------


_ERROR_CLASSES = (
    ("schema", "SchemaError"),
    ("manifest", "ManifestError"),
    ("drivers", "DriverError"),
    ("simenv", "EnvError"),
    ("runner", "RunnerError"),
    ("gate", "GateError"),
    ("replay", "ReplayError"),
    ("report", "ReportError"),
)


@pytest.mark.parametrize("module, name", _ERROR_CLASSES, ids=[name for _, name in _ERROR_CLASSES])
def test_typed_error_survives_pickle(module, name):
    cls = getattr(importlib.import_module(f"gatebench.{module}"), name)
    assert (cls.__module__, cls.__name__) == (f"gatebench.{module}", name)
    error = cls("invalid_plan", "x: with a colon")
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is cls
    assert clone.code == error.code == "invalid_plan"
    assert str(clone) == str(error) == "invalid_plan: x: with a colon"
