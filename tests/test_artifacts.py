"""The artifact writer: ``schema.write_json`` and the verbs' files it writes."""

from __future__ import annotations

import dataclasses
import functools
import tracemalloc
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from gatebench import schema
from gatebench.demo import build_demo_plan, build_demo_release
from gatebench.manifest import ManifestStore
from gatebench.records import record
from gatebench.runner import RunSet, run_plan, save_runset
from gatebench.schema import (
    Record,
    SchemaError,
    canonical_json,
    doc_field,
    render_record,
    write_json,
)


@record
class _Item(Record):
    name: str
    score: float
    note: str | None = None
    tags: tuple[str, ...] = doc_field(default=(), omit_empty=True)
    payload: dict[str, Any] = doc_field(default_factory=dict, omit_empty=True)


@record
class _Document(Record):
    items: tuple[_Item, ...]
    title: str = doc_field(default="", key="a_title")
    more: list[_Item] = doc_field(default_factory=list, omit_empty=True)
    spare: tuple[_Item, ...] | None = None
    count: int = 0


@record
class _Sparse(Record):
    # No field is always written: the renderer leaves it to the reference path.
    note: str | None = None
    tags: tuple[str, ...] = doc_field(default=(), omit_empty=True)


_texts = st.text(max_size=6)  # any code point but surrogates: non-ASCII included
_items = st.builds(
    _Item,
    name=_texts,
    score=st.floats(allow_nan=False, allow_infinity=False),
    note=st.none() | _texts,
    tags=st.lists(_texts, max_size=2).map(tuple),
    payload=st.dictionaries(_texts, st.none() | st.booleans() | st.integers() | _texts, max_size=2),
)
_item_lists = st.lists(_items, max_size=3)  # empty lists and single items included
_documents = st.builds(
    _Document,
    items=_item_lists.map(tuple),
    title=_texts,
    more=_item_lists,
    spare=st.none() | _item_lists.map(tuple),
    count=st.integers(),
)


def _reference(content: Any) -> str:
    return canonical_json(content.to_doc() if isinstance(content, Record) else content) + "\n"


@settings(max_examples=100, deadline=None)
@given(_documents)
def test_write_json_bytes_equal_reference(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("writer") / "doc.json"
    write_json(path, document)
    assert path.read_bytes() == _reference(document).encode("utf-8")


def test_write_json_writes_plain_documents_and_lone_records(tmp_path):
    cases = [
        {"b": [1, 2.5, None], "a": {"é": " "}},
        _Item("x", 1.0),
        _Document(items=()),
        _Document(items=(_Item("é", -0.0, note=""),), title="\x00", spare=()),
        _Sparse(),
        _Sparse(note="n", tags=("a", "b")),
    ]
    for index, content in enumerate(cases):
        path = tmp_path / f"{index}.json"
        write_json(path, content)
        assert path.read_text(encoding="utf-8") == _reference(content)


def test_write_json_bytes_of_verb_records(demo_runset, tmp_path):
    runset, _ = demo_runset
    plan = build_demo_plan()
    for name, content in (("runset.json", runset), ("plan.json", plan)):
        write_json(tmp_path / name, content)
        assert (tmp_path / name).read_bytes() == _reference(content).encode("utf-8")


class _OwnDoc(_Item):
    __slots__ = ()

    def to_doc(self):
        return {**super().to_doc(), "tag": "own"}


def test_write_json_keeps_a_class_own_to_doc(tmp_path):
    content = _OwnDoc("x", 1.0)
    write_json(tmp_path / "own.json", content)
    assert (tmp_path / "own.json").read_text(encoding="utf-8") == _reference(content)


def test_renderer_sees_through_a_wrapped_to_doc_and_a_rebound_canonical_json(monkeypatch):
    # What a tracer does: wrap to_doc with functools.wraps, here before the
    # class is first rendered, and rebind schema.canonical_json, here after.
    @record
    class _Traced(Record):
        name: str
        payload: dict[str, Any]

    calls = []
    original = _Traced.to_doc

    @functools.wraps(original)
    def to_doc(self):
        calls.append("to_doc")
        return original(self)

    def traced_json(content):
        calls.append("canonical_json")
        return canonical_json(content)

    monkeypatch.setattr(_Traced, "to_doc", to_doc)
    item = _Traced("x", {"b": [1, 2.5], "a": None})
    expected = canonical_json(original(item))
    assert render_record(item) == expected
    monkeypatch.setattr(schema, "canonical_json", traced_json)
    assert render_record(item) == expected
    assert calls == ["canonical_json"]  # the payload's; the record went through its renderer


@pytest.mark.parametrize(
    "bad, message",
    [
        (_Item("c", float("nan")), "non-finite number at $.items[2].score"),
        (_Item("c", 0.0, payload={7: "x"}), "non-string key 7 at $.items[2].payload"),
        (_Item("c", 0.0, payload={"a": {1, 2}}), "unsupported type set at $.items[2].payload.a"),
    ],
    ids=["nan", "non-str-key", "set"],
)
@pytest.mark.parametrize("existing", [None, b"old bytes\n"], ids=["absent", "present"])
def test_write_json_error_is_the_reference_error(tmp_path, bad, message, existing):
    document = _Document(items=(_Item("a", 1.0), _Item("b", 2.0), bad, _Item("d", 3.0)))
    with pytest.raises(SchemaError) as reference:
        canonical_json(document.to_doc())
    path = tmp_path / "doc.json"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(SchemaError) as err:
        write_json(path, document)
    assert type(err.value) is type(reference.value)
    assert (err.value.code, str(err.value)) == (reference.value.code, str(reference.value))
    assert str(err.value) == f"non_canonical_value: {message}"
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing


def test_save_runset_error_names_the_run_and_keeps_the_file(demo_runset, tmp_path):
    runset, _ = demo_runset
    runs = list(runset.runs)
    runs[3] = dataclasses.replace(runs[3], horizon_ms=float("inf"))
    save_runset(runset, tmp_path)
    before = (tmp_path / "runset.json").read_bytes()
    with pytest.raises(SchemaError) as err:
        save_runset(RunSet(runs=runs), tmp_path)
    assert str(err.value) == "non_canonical_value: non-finite number at $.runs[3].horizon_ms"
    assert (tmp_path / "runset.json").read_bytes() == before


def test_save_runset_peak_memory_is_bounded(tmp_path):
    # The demo plan at 20 repetitions: 360 runs, a runset.json of about 550 KiB.
    store = ManifestStore(tmp_path / "root")
    build_demo_release(store)
    plan = build_demo_plan()
    plan = dataclasses.replace(
        plan,
        entries=tuple(dataclasses.replace(e, repetitions=20) for e in plan.entries),
        concurrency=1,
    )
    runset = run_plan(plan, store)
    assert len(runset.runs) == 360
    save_runset(runset, tmp_path / "warm")  # compiles the codec outside the measurement
    tracemalloc.start()
    try:
        path = save_runset(runset, tmp_path / "runs")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 512 * 1024
    assert peak < 1024 * 1024
