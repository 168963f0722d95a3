"""Frozen records: start-up cost, and parity with stock frozen dataclasses.

Every class ``records.record`` builds is compared with a twin made by the
stock ``@dataclass(frozen=True, slots=True)`` from the same fields and the
same methods, on records decoded from the golden demo and study artifacts
and on records the library derives from them.
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
from gatebench.runner import _PlanContext, load_plan, load_runset
from gatebench.schema import RunValidator
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
