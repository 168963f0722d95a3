"""Outside-in tracer: wraps gatebench's public functions in spans.

The tracer never edits the package. It replaces each target function or
method with a wrapper in every ``gatebench.*`` module namespace that holds
the original object (``from .schema import canonical_json`` copies the
binding into each importing module, so patching ``schema`` alone would miss
most calls), and restores the originals on ``uninstall``.

Spans are kept in memory as small lists ``[name, start, end, parent, note]``
and aggregated per pass. Each thread has its own span stack, so the worker
threads of ``run_plan`` nest correctly; a span that opens on an empty worker
stack is parented to the innermost span open on the thread that installed the
tracer (``run_plan`` itself, which is blocked waiting for its pool).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator


def _file_bytes(path: Any) -> int:
    return os.path.getsize(path)


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module`` is relative to ``gatebench``; ``attr``
    is a function name or ``Class.method``. ``note`` turns (args, kwargs,
    result) into the value stored with the span."""

    module: str
    attr: str
    note: Callable[[tuple, dict, Any], Any] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _arg(args: tuple, kwargs: dict, index: int, key: str) -> Any:
    return args[index] if len(args) > index else kwargs[key]


TARGETS: tuple[Target, ...] = (
    Target("schema", "canonical_json", lambda a, k, r: len(r.encode("utf-8"))),
    Target("schema", "canonical_hash"),
    Target("schema", "new_trace_context"),
    Target("schema", "EventRecord.to_doc"),
    Target("schema", "EventRecord.from_doc"),
    Target("schema", "RunValidator.validate"),
    Target("schema", "write_event_log", lambda a, k, r: _file_bytes(_arg(a, k, 0, "path"))),
    Target(
        "schema",
        "read_event_log",
        lambda a, k, r: (_file_bytes(_arg(a, k, 0, "path")), str(_arg(a, k, 0, "path"))),
    ),
    Target("runner", "EventBuilder.emit"),
    Target("runner", "RunSet.events_for"),
    Target("runner", "execute_run"),
    Target("runner", "run_plan"),
    Target("runner", "save_runset", lambda a, k, r: _file_bytes(r)),
    Target("runner", "load_runset"),
    Target("simenv", "env_step"),
    Target("simenv", "VerifierQueue.submit"),
    Target("simenv", "VerifierQueue.depth_at"),
    Target("drivers", "synthetic_llm_call"),
    Target("drivers", "hook_a_filter"),
    Target("drivers", "hook_b_adjust"),
    Target("study", "simulate_controller_run"),
    Target("manifest", "resolve_manifest"),
    Target("manifest", "TaskManifest.manifest_hash"),
    Target("manifest", "freeze_run"),
    Target("manifest", "verify_binding"),
    Target(
        "gate",
        "decide_runset",
        lambda a, k, r: (sum(1 for d in r if d.verdict == "admitted"), len(r)),
    ),
    Target("gate", "admit"),
    Target("gate", "save_gate_outputs"),
    Target("replay", "build_bundle"),
    Target("replay", "replay_run"),
    Target("replay", "save_bundle", lambda a, k, r: _file_bytes(_arg(a, k, 1, "path"))),
    Target("report", "latency_decomposition"),
    Target("report", "invalid_action_rate"),
    Target("report", "claim_matrix"),
    Target("report", "decision_study"),
    Target("report", "save_report_outputs"),
)

BYTE_NOTES = (
    "schema.canonical_json",
    "schema.write_event_log",
    "runner.save_runset",
    "replay.save_bundle",
)


def covered_length(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""

    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _root(span: list[Any]) -> list[Any]:
    while span[3] is not None:
        span = span[3]
    return span


class Tracer:
    def __init__(self) -> None:
        self.targets = TARGETS
        self.spans: list[list[Any]] = []
        self._last_spans: list[list[Any]] = []
        self._local = threading.local()
        self._home_stack: list[list[Any]] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[list[Any]]) -> list[Any] | None:
        if stack:
            return stack[-1]
        try:
            return self._home_stack[-1]
        except IndexError:
            return None

    def _wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        name, note, spans = target.name, target.note, self
        perf_counter = time.perf_counter

        # The same steps as root(), inlined: a context manager per call would
        # add to the tracing overhead on the hottest functions.
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = spans._stack()
            span = [name, 0.0, 0.0, spans._parent(stack), None]
            spans.spans.append(span)
            stack.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself, around a call into a verb."""

        stack = self._stack()
        span = [name, 0.0, 0.0, self._parent(stack), None]
        self.spans.append(span)
        stack.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        import gatebench.cli  # noqa: F401  (imports every module the verbs use)

        self._local = threading.local()
        self._local.stack = self._home_stack = []
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "gatebench" or name.startswith("gatebench."))
        ]
        for target in self.targets:
            home = sys.modules[f"gatebench.{target.module}"]
            if "." in target.attr:
                class_name, method = target.attr.split(".")
                cls = getattr(home, class_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self._wrap(target, raw.__func__))
                else:
                    wrapped = self._wrap(target, raw)
                self._restore.append((cls, method, raw))
                setattr(cls, method, wrapped)
                continue
            original = getattr(home, target.attr)
            wrapped = self._wrap(target, original)
            for module in modules:
                for key in [key for key, value in vars(module).items() if value is original]:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- aggregation ---------------------------------------------------------

    def take_pass(self) -> dict[str, float]:
        """Aggregate and clear the spans recorded since the last call.

        Returns ``<span>.calls``, ``<span>.self_s`` and ``<span>.bytes`` for
        every target (zero when it was not called) and root span. Self time is
        the span's duration minus the part of it covered by its child spans
        (children on worker threads may overlap, so the union is subtracted).
        Also returns
        ``schema.reads_per_log`` (log reads per distinct log read within each
        root span, that is within each verb), ``gate.admitted_ratio`` and
        ``drivers.hooks.self_s`` (hook A plus hook B).
        """

        spans, self.spans = self.spans, []
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        stats: dict[str, float] = defaultdict(float)
        for target in self.targets:
            stats[f"{target.name}.calls"] = stats[f"{target.name}.self_s"] = 0.0
            if target.note is not None:
                stats[f"{target.name}.bytes"] = 0.0
        logs_read: set[tuple[int, str]] = set()
        admitted = indexed = 0
        for span in spans:
            name, start, end, _, note = span
            kids = children.get(id(span))
            covered = covered_length(start, end, kids) if kids else 0.0
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += (end - start) - covered
            if note is None:  # not a noted target, or the call raised
                continue
            if name in BYTE_NOTES:
                stats[f"{name}.bytes"] += note
            elif name == "schema.read_event_log":
                stats[f"{name}.bytes"] += note[0]
                logs_read.add((id(_root(span)), note[1]))
            elif name == "gate.decide_runset":
                admitted += note[0]
                indexed += note[1]
        self._last_spans = spans
        reads = stats["schema.read_event_log.calls"]
        stats["schema.reads_per_log"] = reads / len(logs_read) if logs_read else 0.0
        stats["gate.admitted_ratio"] = admitted / indexed if indexed else 0.0
        stats["drivers.hooks.self_s"] = (
            stats["drivers.hook_a_filter.self_s"] + stats["drivers.hook_b_adjust.self_s"]
        )
        return dict(stats)

    def write_spans(self, path: Path) -> None:
        """Write the spans of the last aggregated pass as JSON lines."""

        spans = self._last_spans
        index = {id(span): i for i, span in enumerate(spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, _) in enumerate(spans):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": index.get(id(parent)) if parent is not None else None,
                        }
                    )
                    + "\n"
                )
