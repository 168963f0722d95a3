from __future__ import annotations

import importlib
import json
import pickle
import random
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from gatebench.schema import (
    Digest,
    EVENT_KINDS,
    EventRecord,
    ProvenanceFields,
    REQUIRED_PAYLOAD_KEYS,
    RunValidator,
    SCHEMA_VERSION,
    SchemaError,
    TimingFields,
    _check_canonical,
    canonical_hash,
    canonical_json,
    check_event_doc,
    new_trace_context,
    read_event_log,
    validate_log,
    write_event_log,
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
    report = validator.validate(make_event("run_start", 0))
    assert report.ok


def test_env_step_end_without_start_is_boundary_mismatch():
    validator = RunValidator()
    assert validator.validate(make_event("run_start", 0)).ok
    assert validator.validate(
        make_event("episode_start", 1, "ep-0", payload={"episode_index": 0})
    ).ok
    report = validator.validate(make_event("env_step_end", 2, "ep-0"))
    assert not report.ok
    assert {violation.code for violation in report.violations} == {"boundary_mismatch"}


def test_sequence_regression_rejected():
    validator = RunValidator()
    assert validator.validate(make_event("run_start", 0)).ok
    assert validator.validate(
        make_event("episode_start", 5, "ep-0", payload={"episode_index": 0})
    ).ok
    report = validator.validate(make_event("env_step_start", 5, "ep-0"))
    assert not report.ok
    assert any(violation.code == "sequence_order" for violation in report.violations)


def test_event_after_run_end_rejected():
    validator = RunValidator()
    assert validator.validate(make_event("run_start", 0)).ok
    assert validator.validate(make_event("run_end", 1)).ok
    report = validator.validate(make_event("error", 2))
    assert not report.ok


def test_missing_required_payload_key_rejected():
    validator = RunValidator()
    assert validator.validate(make_event("run_start", 0)).ok
    report = validator.validate(make_event("episode_start", 1, "ep-0", payload={}))
    assert not report.ok
    assert any(violation.code == "missing_field" for violation in report.violations)


def test_unknown_payload_key_rejected_in_strict_mode_only():
    event = make_event(
        "run_start", 0, payload={"setting_label": "clean", "planned_episodes": 1, "zzz": 1}
    )
    strict = RunValidator(strict=True).validate(event)
    assert not strict.ok
    assert any(violation.code == "unknown_field" for violation in strict.violations)
    permissive = RunValidator(strict=False).validate(event)
    assert permissive.ok


def test_unsupported_schema_version_rejected():
    bad = ProvenanceFields(
        manifest_hash=PROVENANCE.manifest_hash,
        driver_id="driver-1",
        schema_version="9.9.9",
        replay_class="R1",
        seed=7,
    )
    report = RunValidator().validate(make_event("run_start", 0, provenance=bad))
    assert not report.ok


def test_well_formed_run_validates_and_finalizes():
    validator = RunValidator()
    for event in well_formed_run():
        assert validator.validate(event).ok
    assert validator.finalize().ok


def test_validation_deterministic():
    events = well_formed_run()
    events[4] = make_event("env_step_end", events[4].sequence, "ep-0")  # duplicate end
    outcomes = []
    for _ in range(3):
        validator = RunValidator()
        outcomes.append(tuple(validator.validate(event).ok for event in events))
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
        assert validator.validate(event).ok, event.kind
    assert validator.finalize().ok


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
        if validator.validate(event).ok:
            if kind == "episode_start":
                open_ids.append(episode)
                starts.append(episode)
            elif kind == "episode_end":
                open_ids.remove(episode)
                ends.append(episode)
    if validator.finalize().ok:
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
# Event-log files
# ---------------------------------------------------------------------------


def test_event_log_round_trip(tmp_path):
    events = well_formed_run()
    path = tmp_path / "run.log"
    write_event_log(path, events)
    version, docs = read_event_log(path)
    assert version == SCHEMA_VERSION
    assert [doc["kind"] for doc in docs] == [event.kind for event in events]
    assert validate_log(docs).ok


def test_event_log_header_precedes_events(tmp_path):
    path = tmp_path / "run.log"
    write_event_log(path, well_formed_run())
    first_line = path.read_text(encoding="utf-8").splitlines()[0]
    assert "schema_version" in first_line


def test_action_record_invariant_enforced():
    from gatebench.schema import ActionRecord

    with pytest.raises(SchemaError):
        ActionRecord(
            observation_hash=canonical_hash({"o": 1}),
            parse_status="invalid",
            invalid_action=False,
            prompt_tokens=1,
            completion_tokens=1,
            model_latency_ms=1.0,
        )


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
