"""Frozen records: start-up cost, and parity with stock frozen dataclasses.

Every class ``records.record`` builds is compared with a twin made by the
stock ``@dataclass(frozen=True, slots=True)`` from the same fields and the
same methods, on records decoded from the golden demo and study artifacts
and on records the library derives from them. On the same records,
``Record.to_doc`` is compared with the compiled encoder it replaced.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path
from typing import Any, Literal, get_args, get_origin

import pytest

from gatebench.drivers import NOOP_ACTION, SampleMeta, hook_a_filter
from gatebench.gate import GateReport, load_decisions
from gatebench.manifest import FAMILIES, ManifestStore, verify_binding
from gatebench.replay import ReplayResult, load_bundle
from gatebench.report import (
    ClaimEvidence,
    ClaimMatrix,
    InvalidActionReport,
    LatencyBreakdown,
    load_study_report,
    summarize_run,
)
from gatebench.runner import RunRecord, RunSet, _PlanContext, load_plan, load_runset
from gatebench.schema import Record, RunValidator, _is_record, _stored_fields, canonical_json
from gatebench.simenv import StepOutcome, setting_for_label
from gatebench.study import HOOK_B, PROFILE, StudyConfig

MODULES = ("schema", "drivers", "manifest", "runner", "simenv", "gate", "replay", "report", "study")

# Counts every method ``dataclasses`` generates while ``gatebench.cli`` imports:
# through ``_create_fn`` up to Python 3.12, through ``_FuncBuilder.add_fn`` from 3.13.
_COUNT_GENERATED = """
import dataclasses
calls = []
if hasattr(dataclasses, "_create_fn"):
    create = dataclasses._create_fn
    dataclasses._create_fn = lambda *a, **k: calls.append(a[0]) or create(*a, **k)
else:
    add = dataclasses._FuncBuilder.add_fn
    dataclasses._FuncBuilder.add_fn = lambda self, *a, **k: calls.append(a[0]) or add(self, *a, **k)
import gatebench.cli
print(len(calls))
"""


def test_cli_import_generates_methods_only_for_mutable_dataclasses():
    # RunSet, TelemetryWindow, EnvState, Ticket, VerifierQueue and study._Sample
    # each get __init__, __repr__ and __eq__; no frozen record gets any.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    result = subprocess.run(
        [sys.executable, "-c", _COUNT_GENERATED], capture_output=True, text=True, env=env,
        check=True,
    )
    assert int(result.stdout) == 18


def _record_classes() -> list[type]:
    classes = []
    for name in MODULES:
        module = importlib.import_module(f"gatebench.{name}")
        classes += [
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
            and "_record_fields" in value.__dict__
        ]
    return classes


def _walk(value, found: dict[type, list]) -> None:
    """Collect the records in ``value`` and in everything it holds, a few per class."""

    if isinstance(value, (list, tuple)):
        for item in value:
            _walk(item, found)
    elif isinstance(value, dict):
        for item in value.values():
            _walk(item, found)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        kept = found.setdefault(type(value), [])
        if "_record_fields" in type(value).__dict__ and len(kept) >= 3:
            return
        kept.append(value)
        for item in dataclasses.fields(value):
            _walk(getattr(value, item.name), found)


@pytest.fixture(scope="module")
def instances(golden_tree):
    """Records decoded from the golden artifacts and derived from them, by class."""

    def read(*parts):
        return json.loads(golden_tree.joinpath(*parts).read_text(encoding="utf-8"))

    store = ManifestStore(golden_tree / "root")
    release = store.load_root()
    plan = load_plan(golden_tree / "root" / "demo_plan.json")
    runset = load_runset(golden_tree / "all" / "runs")
    run = next(r for r in runset.runs if r.terminal is not None and r.freeze is not None)
    events = runset.events_for(run)
    replay_lines = golden_tree.joinpath("replay", "replay_results.jsonl").read_text()
    found: dict[type, list] = {}
    _walk([
        plan, release, store.load("code-001"), FAMILIES, runset.runs,
        load_decisions(golden_tree / "all" / "gate" / "gate_decisions.jsonl"),
        GateReport.from_doc(read("all", "gate", "gate_report.json")),
        load_bundle(next(golden_tree.joinpath("replay").glob("bundle_*.json"))),
        [ReplayResult.from_doc(json.loads(line)) for line in replay_lines.splitlines()],
        [LatencyBreakdown.from_doc(doc)
         for doc in read("all", "report", "latency_tables.json").values()],
        InvalidActionReport.from_doc(read("all", "report", "invalid_actions.json")),
        ClaimMatrix.from_doc(read("all", "report", "claim_matrix.json")),
        load_study_report(golden_tree / "study" / "decision_study.json"),
        events,
        verify_binding(run, release),
        summarize_run(events, run),
        ClaimEvidence(),
        StudyConfig(), HOOK_B, PROFILE,
        RunValidator().validate(events[1]),  # no run_start: its violations
        setting_for_label(run.setting_label),
        NOOP_ACTION, SampleMeta(), hook_a_filter(SampleMeta(has_terminal_outcome=False)),
        StepOutcome(events[0].timing, True, False, run.terminal),
        _PlanContext(
            plan, {"code-001": (manifest := store.load("code-001"), manifest.manifest_hash()),
                   "ghost": None}, None,
        ),
    ], found)
    return found


def _twin(cls: type) -> type:
    """``cls`` rebuilt by the stock ``dataclass(frozen=True, slots=True)``."""

    generated = {
        "__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
        "__getstate__", "__setstate__", "__slots__", "__dict__", "__weakref__",
        "__match_args__", "__dataclass_fields__", "__dataclass_params__",
        "_record_fields", "_record_values",
    }
    names = {item.name for item in dataclasses.fields(cls)}
    namespace = {
        key: value for key, value in vars(cls).items() if key not in generated | names
    }
    namespace["__qualname__"] = cls.__qualname__
    namespace["__annotations__"] = {item.name: item.type for item in dataclasses.fields(cls)}
    for item in dataclasses.fields(cls):
        if item.default is not dataclasses.MISSING:
            namespace[item.name] = dataclasses.field(default=item.default, metadata=item.metadata)
        elif item.default_factory is not dataclasses.MISSING:
            namespace[item.name] = dataclasses.field(
                default_factory=item.default_factory, metadata=item.metadata
            )
    return dataclasses.dataclass(frozen=True, slots=True)(
        type(cls.__name__, cls.__bases__, namespace)
    )


def _outcome(factory, *args, **kwargs):
    """What calling ``factory`` gives: the repr of its result, or its error."""

    try:
        return "ok", repr(factory(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001  (the error itself is compared)
        return type(exc).__name__, str(exc), getattr(exc, "code", None)


def _raised(action) -> tuple[type, str]:
    with pytest.raises(Exception) as err:
        action()
    return err.type, str(err.value)


_BAD_VALUES = (None, -1, 0, "", "bogus", 1.5)


def test_every_frozen_class_is_a_record(instances):
    classes = _record_classes()
    assert len(classes) == 39
    assert sorted(c.__qualname__ for c in classes if c not in instances) == []


def test_records_match_stock_frozen_dataclasses(instances):
    typed_errors = 0
    for cls in _record_classes():
        twin = _twin(cls)
        assert cls.__match_args__ == twin.__match_args__
        assert cls.__slots__ == twin.__slots__
        assert [f.name for f in dataclasses.fields(cls)] == [
            f.name for f in dataclasses.fields(twin)
        ]
        assert _outcome(cls) == _outcome(twin)  # missing arguments, if any are required
        for record in instances[cls]:
            args = [getattr(record, name) for name in cls.__match_args__]
            same = twin(*args)
            assert repr(record) == repr(same)
            assert not hasattr(record, "__dict__")

            assert (record == cls(*args)) is (same == twin(*args)) is True
            assert (record != cls(*args)) is (same != twin(*args)) is False
            assert (record == same) is (same == record) is False
            assert (record != same) is True
            assert _outcome(hash, record) == _outcome(hash, same)

            first = cls.__match_args__[0]
            assert _raised(lambda: setattr(record, first, 1)) == _raised(
                lambda: setattr(same, first, 1)
            )
            assert _raised(lambda: delattr(record, first)) == _raised(
                lambda: delattr(same, first)
            )
            # The stock class means to raise this too, but its __setattr__ calls
            # super() with the class it replaced for __slots__: a TypeError.
            assert _raised(lambda: setattr(record, "extra", 1)) == (
                dataclasses.FrozenInstanceError, "cannot assign to field 'extra'"
            )

            # The twin is not importable, so its deep copy stands in for a pickle
            # round trip. A copy equals the original unless a field's value does
            # not compare by value.
            for copied, twin_copied in (
                (pickle.loads(pickle.dumps(record)), copy.deepcopy(same)),
                (copy.copy(record), copy.copy(same)),
                (copy.deepcopy(record), copy.deepcopy(same)),
                (dataclasses.replace(record), dataclasses.replace(same)),
            ):
                assert type(copied) is cls
                assert (copied == record) is (twin_copied == same)
                assert (repr(copied) == repr(record)) is (repr(twin_copied) == repr(same))
            changed = {first: getattr(record, first)}
            assert repr(dataclasses.replace(record, **changed)) == repr(
                dataclasses.replace(same, **changed)
            )

            assert _outcome(cls, *args, unexpected=1) == _outcome(twin, *args, unexpected=1)
            assert _outcome(cls, *args, 1) == _outcome(twin, *args, 1)
            for index in range(len(args)):
                for bad in _BAD_VALUES:
                    changed_args = [*args[:index], bad, *args[index + 1:]]
                    outcome = _outcome(cls, *changed_args)
                    assert outcome == _outcome(twin, *changed_args)
                    typed_errors += outcome[-1] is not None
    assert typed_errors > 100  # __post_init__ checks raised with their codes


# ---------------------------------------------------------------------------
# The compiled encoder that was ``Record.to_doc`` before it became a walk over
# the fields, kept as the reference.
# ---------------------------------------------------------------------------

_REFERENCE_ENCODERS: dict[type, Any] = {}


def _reference_expr(tp, value, env, depth=0):
    origin, args = get_origin(tp), get_args(tp)
    if tp in (str, int, float, bool) or origin is Literal:
        return value
    if _is_record(tp):
        name = f"_encode_{len(env)}"
        env[name] = _reference_encoder(tp)
        return f"{name}({value})"
    if origin is list or (origin is tuple and args[1:] == (...,)):
        item = _reference_expr(args[0], f"i{depth}", env, depth + 1)
        if item == f"i{depth}":
            return f"list({value})"
        return f"[{item} for i{depth} in {value}]"
    if origin is dict and args[0] is str:
        item = "" if args[1] is Any else _reference_expr(args[1], f"v{depth}", env, depth + 1)
        if item in ("", f"v{depth}"):
            return f"dict({value})"
        return f"{{k{depth}: {item} for k{depth}, v{depth} in {value}.items()}}"
    raise TypeError(f"no record codec for annotation {tp!r}")


def _reference_encoder(cls):
    encoder = _REFERENCE_ENCODERS.get(cls)
    if encoder is None:
        env: dict[str, Any] = {}
        always: list[str] = []
        lines = ["def to_doc(self):", ""]
        for item, key, tp, optional in _stored_fields(cls):
            if item.metadata.get("omit_empty") or optional:
                test = "" if item.metadata.get("omit_empty") else " is not None"
                lines.append(f"    if (value := self.{item.name}){test}:")
                lines.append(f"        doc[{key!r}] = {_reference_expr(tp, 'value', env)}")
            else:
                always.append(f"{key!r}: {_reference_expr(tp, 'self.' + item.name, env)}")
        lines[1] = f"    doc = {{{', '.join(always)}}}"
        lines.append("    return doc")
        exec("\n".join(lines), env)
        encoder = _REFERENCE_ENCODERS[cls] = env["to_doc"]
    return encoder


def _sample(tp, instances):
    """A value of annotation ``tp`` that is neither None nor empty."""

    origin, args = get_origin(tp), get_args(tp)
    if _is_record(tp):
        return instances[tp][0]
    if origin is Literal:
        return args[0]
    if origin in (list, tuple):
        return origin([_sample(args[0], instances)])
    if origin is dict:
        return {"k": 1 if args[1] is Any else _sample(args[1], instances)}
    return {str: "x", int: 1, float: 2.5, bool: True}[tp]


def _variants(cls, instances):
    """The instances of ``cls``, then one with every optional and ``omit_empty``
    field set, and one with each of them None or empty."""

    records = instances[cls]
    given: dict[str, Any] = {}
    empty: dict[str, Any] = {}
    for item, _, tp, optional in _stored_fields(cls):
        if optional or item.metadata.get("omit_empty"):
            values = [value for record in records if (value := getattr(record, item.name))]
            given[item.name] = values[0] if values else _sample(tp, instances)
            empty[item.name] = None if optional else (get_origin(tp) or tp)()
    return [*records, dataclasses.replace(records[0], **given),
            dataclasses.replace(records[0], **empty)]


def _clear(tp, value) -> None:
    """Empty every container of ``value``, the document form of a ``tp``, that
    the encoder builds; the values of a ``dict[str, Any]`` are the record's own."""

    origin, args = get_origin(tp), get_args(tp)
    if _is_record(tp):
        for _, key, field_tp, _ in _stored_fields(tp):
            if key in value:
                _clear(field_tp, value[key])
        value.clear()
    elif origin in (list, tuple):
        for item in value:
            _clear(args[0], item)
        value.clear()
    elif origin is dict:
        for item in value.values():
            _clear(args[1], item)
        value.clear()


def test_to_doc_matches_the_compiled_encoder_it_replaced(instances):
    records = {**instances, RunSet: [RunSet(list(instances[RunRecord]))]}  # the fixture has none
    classes = [cls for cls in records if issubclass(cls, Record)]
    assert len(classes) == 29
    for cls in classes:
        for record in _variants(cls, records):
            expected = _reference_encoder(cls)(record)
            before = repr(record)
            doc = record.to_doc()
            assert doc == expected
            assert canonical_json(doc) == canonical_json(expected)
            _clear(cls, doc)
            assert doc == {}
            assert repr(record) == before
            assert record.to_doc() == expected
