"""Typed event vocabulary, trace contexts, canonical hashing, and record validation.

Every other layer of the harness builds on this module: events emitted by the
runner, manifests and freeze records, and the evidence gate all serialize
through the canonical form defined here, and every stored record derives from
:class:`Record`, whose one codec is compiled from its dataclass fields. From
the same fields, :func:`render_record` compiles the one renderer that turns a
record into its canonical text, for event-log lines and artifact files alike,
with ``canonical_json(record.to_doc())`` as its reference and fallback. Event
logs are newline-delimited documents, one event per line, preceded by a
schema-version header line.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import reprlib
from _json import encode_basestring, make_encoder
from dataclasses import MISSING, field, fields
from math import isfinite
from pathlib import Path
from types import UnionType
from typing import (
    Any,
    Callable,
    Final,
    Iterable,
    Iterator,
    Literal,
    Mapping,
    NamedTuple,
    NoReturn,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from .records import record

SCHEMA_VERSION: Final = "1.0.0"
SUPPORTED_SCHEMA_VERSIONS: Final[frozenset[str]] = frozenset({SCHEMA_VERSION})

HASH_ALGORITHM: Final = "sha256"
_TRACE_ID_HEX_LEN: Final = 32
_SPAN_ID_HEX_LEN: Final = 16


class EventKind(NamedTuple):
    """One event kind's contract: where it sits in a run, its payload keys, its span.

    ``scope`` is ``"run"`` (the run envelope, with an empty episode id),
    ``"opens_episode"`` (under a new episode id), ``"episode"`` (inside an
    open episode) or ``"episode_or_run"`` (run-level when its episode id is
    empty). The payload is closed: each ``required`` key must be present, and
    any key outside ``required`` and ``optional`` is rejected. ``span`` is the
    episode span that ``{span}_start`` opens and ``{span}_end`` closes.
    """

    scope: str
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    span: str | None = None


KINDS: Final[dict[str, EventKind]] = {
    "run_start": EventKind(
        "run", ("setting_label", "planned_episodes"), ("driver_type", "variant", "backend")
    ),
    "run_end": EventKind("run", ("status",), ("successes", "episodes_completed")),
    "episode_start": EventKind("opens_episode", ("episode_index",), ("goal",)),
    "episode_end": EventKind("episode", ("status", "steps"), ("wall_ms",)),
    "model_request_start": EventKind("episode", ("request_index",), span="model_request"),
    "model_request_end": EventKind(
        "episode", ("request_index", "model_latency_ms"), ("backend_engine",), "model_request"
    ),
    "action_parsed": EventKind(
        "episode",
        ("parse_status", "invalid_action", "observation_hash", "prompt_tokens",
         "completion_tokens", "model_latency_ms"),
        ("prompt_hash", "raw_output_hash", "parsed_action_hash", "backend_engine",
         "policy_version"),
    ),
    "env_step_start": EventKind("episode", ("action_kind",), span="env_step"),
    "env_step_end": EventKind("episode", ("service_time_ms", "progress"), ("fault",), "env_step"),
    "tool_call": EventKind("episode", ("tool_name",), ("detail",)),
    "verifier_outcome": EventKind(
        "episode",
        ("status", "queue_wait_ms", "verifier_latency_ms"),
        ("evaluator_id", "detail", "ticket_id", "pass_prob", "patch_quality"),
    ),
    "retry": EventKind("episode", ("attempt", "reason"), ("scope",)),
    "error": EventKind("episode_or_run", ("message",), ("scope",)),
    "terminal_result": EventKind(
        "episode", ("status",), ("evaluator_id", "detail", "drop_reason", "sample_retry_count")
    ),
}

EVENT_KINDS: Final[frozenset[str]] = frozenset(KINDS)
REQUIRED_PAYLOAD_KEYS: Final[dict[str, tuple[str, ...]]] = {
    kind: row.required for kind, row in KINDS.items()
}
OPTIONAL_PAYLOAD_KEYS: Final[dict[str, tuple[str, ...]]] = {
    kind: row.optional for kind, row in KINDS.items()
}

PARSE_STATUSES: Final[frozenset[str]] = frozenset({"parsed", "invalid", "empty"})

# A code episode's patch: one of the two verifier controls, or a generated one.
PATCH_QUALITIES: Final[frozenset[str]] = frozenset({"gold", "noop", "generated"})

REPLAY_CLASSES: Final[frozenset[str]] = frozenset({"R0", "R1", "R2"})


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


class LogLineError(SchemaError):
    """``invalid_log`` for an event-log line that does not decode to an event.

    :func:`read_event_log` raises it with the message ``line N: <code>:
    <message>``; ``RunSet.events_for`` prefixes the run it read.
    """


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"non-finite number {name}")


# The one decoder of every reader: it refuses NaN, Infinity and -Infinity,
# which the canonical writer never emits.
_DECODER: Final = json.JSONDecoder(parse_constant=_reject_constant)


def read_json(
    path: Path | str,
    error: type[GatebenchError],
    missing_code: str,
    invalid_code: str,
    lines: bool = False,
) -> Any:
    """Read a JSON input file, or with ``lines`` one document per non-empty line.

    A file that cannot be read raises ``error(missing_code)``; one that is not
    UTF-8 or not valid JSON (``NaN`` and ``Infinity`` are not) raises
    ``error(invalid_code)``. With ``lines`` the result is the list of (line
    number, document) of :func:`_json_lines`, which names a bad line by its
    place in the file.
    """

    try:
        text = Path(path).read_text(encoding="utf-8")
        if not lines:
            return _DECODER.decode(text)
    except OSError as exc:
        raise error(missing_code, f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, a non-finite number, UnicodeDecodeError
        raise error(invalid_code, f"{path} is not valid JSON: {exc}") from exc
    return list(_json_lines(text, path, error, invalid_code))


def _json_lines(
    text: str,
    path: Path | str,
    error: type[GatebenchError],
    invalid_code: str,
    header: bool = False,
) -> Iterator[tuple[int, Any]]:
    """Each non-empty line of ``text`` as (its line number, its document), in order.

    With ``header``, line 1 is a document even when it is blank. Lines end at
    a line feed only, as the writers end them; the canonical form keeps
    U+2028, U+2029 and U+0085 raw inside strings, where ``str.splitlines``
    would break a line. The reader keeps each line's number and start offset,
    so a line that is not JSON raises ``error(invalid_code)`` with the
    decoder's message placed in the file (``Expecting value: line 4 column 6
    (char 1480)``), as ``json.loads`` of the whole text would place it. A
    non-finite number is named with its line (``non-finite number NaN: line 7``).
    """

    start = 0
    for number, line in enumerate(text.split("\n"), start=1):
        if line or (header and number == 1):
            try:
                doc = _DECODER.decode(line)
            except json.JSONDecodeError as exc:
                where = f"{exc.msg}: line {number} column {exc.colno} (char {start + exc.pos})"
                raise error(invalid_code, f"{path} is not valid JSON: {where}") from exc
            except ValueError as exc:  # a non-finite number
                where = f"{exc}: line {number}"
                raise error(invalid_code, f"{path} is not valid JSON: {where}") from exc
            yield number, doc
        start += len(line) + 1


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
                raise SchemaError("non_canonical_value", f"non-string key {key!r} at {path}")
            _check_canonical(item, f"{path}.{key}")
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _check_canonical(item, f"{path}[{index}]")
        return
    raise SchemaError("non_canonical_value", f"unsupported type {type(value).__name__} at {path}")


# Containers nested deeper than this skip the fast scan and go to the
# reference check, which also rejects self-referencing containers.
_SCAN_MAX_DEPTH: Final = 64
_SCAN_SCALARS: Final[frozenset[type]] = frozenset({str, int, bool, type(None)})

# The C encoder core ``json.dumps(content, sort_keys=True, separators=(",", ":"),
# ensure_ascii=False, allow_nan=False, check_circular=False)`` builds on every
# call, built once. It keeps no circular-reference markers: every document it
# encodes has passed the scan or the reference check, and neither accepts a
# container that refers to itself.
_ENCODE: Final = make_encoder(
    None, json.JSONEncoder().default, encode_basestring, None, ":", ",", True, False, False
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
    return "".join(_ENCODE(content, 0))


def float_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right, starting from 0.0.

    This is what ``sum`` does on Python 3.11 and earlier. From 3.12 ``sum``
    compensates float rounding, which changes the last digits of the means
    written into artifacts; every float sum that reaches an artifact goes
    through here so the bytes are the same on every version.
    """

    total = 0.0
    for value in values:
        total += value
    return total


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------

def doc_field(
    *,
    key: str | None = None,
    required: bool = False,
    omit_empty: bool = False,
    stored: bool = True,
    missing: Callable[[], Any] | None = None,
    decode: Callable[[Any], Any] | None = None,
    **kwargs: Any,
) -> Any:
    """``dataclasses.field`` plus the codec's per-field exceptions to its rule.

    ``key``: the document key when it is not the field name. ``required``:
    the key must be present on decode although the field has a default.
    ``omit_empty``: not written when falsy. ``stored=False``: never written
    nor read; such fields follow every stored one and decode to their
    default. ``missing``: factory for an absent key of a field without a
    default. ``decode``: converter used instead of the annotation's.
    """

    metadata = {"key": key, "required": required, "omit_empty": omit_empty,
                "stored": stored, "missing": missing, "decode": decode}
    return field(metadata=metadata, **kwargs)


@functools.cache  # read by a class's encoder, decoder and renderer, and by its holders' renderers
def _stored_fields(cls: type) -> list[tuple[Any, str, Any, bool]]:
    """(field, document key, annotation without ``| None``, optional) per stored field."""

    hints = get_type_hints(cls)
    stored: list[tuple[Any, str, Any, bool]] = []
    unstored: str | None = None
    for item in fields(cls):
        if not item.metadata.get("stored", True):
            unstored = item.name
            continue
        if item.init and unstored is not None:
            raise TypeError(f"{cls.__name__}.{item.name} follows unstored field {unstored}")
        tp = hints[item.name]
        members = get_args(tp)
        optional = get_origin(tp) in (Union, UnionType) and type(None) in members
        if optional:
            (tp,) = [member for member in members if member is not type(None)]
        stored.append((item, item.metadata.get("key") or item.name, tp, optional))
    return stored


def _is_record(tp: Any) -> bool:
    return isinstance(tp, type) and issubclass(tp, Record)


def _encode_expr(tp: Any, value: str, env: dict[str, Any], depth: int = 0) -> str:
    """Source of the document form of ``value``, an expression of type ``tp``."""

    origin, args = get_origin(tp), get_args(tp)
    if tp in (str, int, float, bool) or origin is Literal:
        return value
    if _is_record(tp):
        name = f"_encode_{len(env)}"
        env[name] = _encoder(tp)
        return f"{name}({value})"
    if origin is list or (origin is tuple and args[1:] == (...,)):
        item = _encode_expr(args[0], f"i{depth}", env, depth + 1)
        if item == f"i{depth}":
            return f"list({value})"
        return f"[{item} for i{depth} in {value}]"
    if origin is dict and args[0] is str:
        item = "" if args[1] is Any else _encode_expr(args[1], f"v{depth}", env, depth + 1)
        if item in ("", f"v{depth}"):
            return f"dict({value})"
        return f"{{k{depth}: {item} for k{depth}, v{depth} in {value}.items()}}"
    raise TypeError(f"no record codec for annotation {tp!r}")


def _decode_expr(tp: Any, value: str, env: dict[str, Any], depth: int = 0) -> str:
    """Source of ``value``, a document value, checked against ``tp``; names go in ``env``."""

    origin, args = get_origin(tp), get_args(tp)
    if tp is float:
        env["_float"] = _float
        return f"(x{depth} if type(x{depth} := {value}) is float else _float(x{depth}))"
    if tp in (str, int, bool) or origin is Literal:
        exact = tp if origin is not Literal else type(args[0])
        env["_mismatch"] = _mismatch
        return (
            f"(x{depth} if type(x{depth} := {value}) is {exact.__name__}"
            f" else _mismatch({exact.__name__}, x{depth}))"
        )
    if _is_record(tp):
        name = f"_decode_{len(env)}"
        env[name] = _decoder(tp)
        return f"{name}({value})"
    if origin is list or (origin is tuple and args[1:] == (...,)):
        env["_exact"] = _exact
        item = _decode_expr(args[0], f"i{depth}", env, depth + 1)
        return f"{origin.__name__}([{item} for i{depth} in _exact(list, {value})])"
    if origin is dict and args[0] is str:
        env["_exact"] = _exact
        if args[1] is Any:
            return f"dict(_exact(dict, {value}))"
        item = _decode_expr(args[1], f"v{depth}", env, depth + 1)
        return f"{{k{depth}: {item} for k{depth}, v{depth} in _exact(dict, {value}).items()}}"
    raise TypeError(f"no record codec for annotation {tp!r}")


# What each exact type is called in a decoder's type error.
_JSON_NAMES: Final[dict[type, str]] = {
    str: "a string", int: "an integer", float: "a number", bool: "true or false",
    dict: "an object", list: "an array",
}


def _mismatch(expected: type, value: Any) -> NoReturn:
    """Raise the type error of a document value not of the ``expected`` JSON type.

    The value is shown by ``reprlib.repr``, which shortens long ones.
    """

    raise TypeError(f"expected {_JSON_NAMES[expected]}, got {reprlib.repr(value)}")


def _float(value: Any) -> float:
    """A ``float`` field's document value: a JSON number, an integer converted."""

    if type(value) is not int:
        _mismatch(float, value)
    return float(value)


def _exact(expected: type, value: Any) -> Any:
    """A container field's document value: only a JSON array (``list``) or object (``dict``)."""

    if type(value) is not expected:
        _mismatch(expected, value)
    return value


def _compile(cls: type, name: str, source: str, env: dict[str, Any]) -> Callable[..., Any]:
    exec(source, env)
    function = env[name]
    function.__qualname__ = f"{cls.__qualname__}.{name}"
    return function


_ENCODERS: dict[Any, Callable[[Any], dict[str, Any]]] = {}
_DECODERS: dict[Any, Callable[..., Any]] = {}


def _encoder(cls: type) -> Callable[[Any], dict[str, Any]]:
    """The compiled ``to_doc`` of ``cls``, built from its fields on first use.

    For ``TraceContext`` it reads::

        def to_doc(self):
            doc = {'trace_id': self.trace_id, 'span_id': self.span_id}
            if (value := self.parent_span_id) is not None:
                doc['parent_span_id'] = value
            return doc
    """

    encoder = _ENCODERS.get(cls)
    if encoder is None:
        env: dict[str, Any] = {}
        always: list[str] = []
        lines = ["def to_doc(self):", ""]
        for item, key, tp, optional in _stored_fields(cls):
            if item.metadata.get("omit_empty") or optional:
                test = "" if item.metadata.get("omit_empty") else " is not None"
                lines.append(f"    if (value := self.{item.name}){test}:")
                lines.append(f"        doc[{key!r}] = {_encode_expr(tp, 'value', env)}")
            else:
                always.append(f"{key!r}: {_encode_expr(tp, 'self.' + item.name, env)}")
        lines[1] = f"    doc = {{{', '.join(always)}}}"
        lines.append("    return doc")
        encoder = _ENCODERS[cls] = _compile(cls, "to_doc", "\n".join(lines), env)
    return encoder


def _decoder(cls: type, given: tuple[str, ...] = ()) -> Callable[..., Any]:
    """The compiled decoder of ``cls``, built from its fields on first use.

    It takes the document, then the already decoded value of each field
    named in ``given``, in order. For ``TraceContext`` it reads::

        def from_doc(doc):
            if type(doc) is not dict and not isinstance(doc, Mapping):
                _not_object(cls, doc)
            key = None
            try:
                key = 'trace_id'
                a0 = (x0 if type(x0 := doc[key]) is str else _mismatch(str, x0))
                key = 'span_id'
                a1 = (x0 if type(x0 := doc[key]) is str else _mismatch(str, x0))
                key = 'parent_span_id'
                a2 = (x0 if type(x0 := doc[key]) is str else _mismatch(str, x0)) if key in doc else None
            except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
                _invalid(cls, key, doc, exc)
            return cls(a0, a1, a2)
    """

    cache_key = (cls, given) if given else cls
    decoder = _DECODERS.get(cache_key)
    if decoder is None:
        env: dict[str, Any] = {
            "cls": cls, "Mapping": Mapping, "_not_object": _not_object, "_invalid": _invalid
        }
        params, args, lines = ["doc"], [], []
        for index, (item, key, tp, _) in enumerate(_stored_fields(cls)):
            if not item.init:
                continue  # written, never read: the constructor sets it
            arg = f"a{index}"
            args.append(arg)
            if item.name in given:
                params.append(arg)
                continue
            meta = item.metadata
            if meta.get("decode") is not None:
                env[f"_hook_{index}"] = meta["decode"]
                value = f"_hook_{index}(doc[key])"
            else:
                value = _decode_expr(tp, "doc[key]", env)
            factory = meta.get("missing")
            if factory is None and item.default_factory is not MISSING:
                factory = item.default_factory
            if meta.get("required") or (factory is None and item.default is MISSING):
                lines += [f"        key = {key!r}", f"        {arg} = {value}"]
                continue
            if factory is not None:
                env[f"_factory_{index}"] = factory
                absent = f"_factory_{index}()"
            elif item.default is None:
                absent = "None"
            else:
                env[f"_default_{index}"] = item.default
                absent = f"_default_{index}"
            lines += [
                f"        key = {key!r}", f"        {arg} = {value} if key in doc else {absent}"
            ]
        source = "\n".join([
            f"def from_doc({', '.join(params)}):",
            "    if type(doc) is not dict and not isinstance(doc, Mapping):",
            "        _not_object(cls, doc)",
            "    key = None",
            "    try:",
            *(lines or ["        pass"]),
            "    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:",
            "        _invalid(cls, key, doc, exc)",
            f"    return cls({', '.join(args)})",
        ])
        decoder = _DECODERS[cache_key] = _compile(cls, "from_doc", source, env)
    return decoder


# The end of the message of a decoder error for an absent key.
_MISSING_KEY: Final = "missing required key"


def _not_object(cls: type, doc: Any) -> None:
    raise SchemaError(
        "invalid_document", f"{cls.__name__}: expected an object, got {type(doc).__name__}"
    )


def _invalid(cls: type, key: str, doc: Mapping[str, Any], exc: Exception) -> None:
    if isinstance(exc, KeyError) and key not in doc:
        raise SchemaError("invalid_document", f"{cls.__name__}.{key}: {_MISSING_KEY}") from exc
    raise SchemaError(
        "invalid_document", f"{cls.__name__}.{key}: {type(exc).__name__}: {exc}"
    ) from exc


def _to_doc(self: Any) -> dict[str, Any]:
    """The record as a fresh document: see :class:`Record`."""

    return (_ENCODERS.get(type(self)) or _encoder(type(self)))(self)


def _from_doc(cls: Any, doc: Mapping[str, Any]) -> Any:
    """Decode ``doc`` and call the constructor: see :class:`Record`."""

    return (_DECODERS.get(cls) or _decoder(cls))(doc)


class Record:
    """Base of every stored record: one codec driven by ``dataclasses.fields``.

    ``to_doc`` writes every field under its name: a ``X | None`` field only
    when it is not None, every other field always, in fresh containers
    (tuples as lists, nested records as their documents). ``from_doc`` reads
    the keys back, each value of exactly the JSON type its annotation
    declares (``str``, ``int`` and ``bool`` as themselves, so ``true`` is
    not an integer; ``float`` from any number, an integer converted; tuples
    and lists only from arrays, item by item; ``dict[str, T]`` only from
    objects, ``dict[str, Any]`` as a shallow copy; nested records by their
    class's codec), and calls the constructor positionally, so every
    ``__post_init__`` check runs. An absent key of a defaulted field decodes
    to the default; any other absent key, a value of another type (a
    ``TypeError``) or a document that is not an object raises
    ``SchemaError("invalid_document")`` naming the class and key.
    :func:`doc_field` declares the exceptions to this rule.

    The codec of each class is compiled from its fields on first use, not
    at import, into the plain ``to_doc``/``from_doc`` a person would write,
    as ``records.record`` compiles ``__init__``.
    """

    __slots__ = ()

    to_doc = _to_doc
    from_doc = classmethod(_from_doc)


@record
class Digest(Record):
    """A content digest: algorithm label plus fixed-length lowercase hex."""

    algorithm: str
    hex: str

    def __post_init__(self) -> None:
        if self.algorithm == HASH_ALGORITHM and len(self.hex) != 64:
            raise SchemaError("invalid_digest", f"sha256 hex must be 64 chars, got {len(self.hex)}")
        if self.hex != self.hex.lower():
            raise SchemaError("invalid_digest", "digest hex must be lowercase")


def text_hash(rendered: str) -> Digest:
    """The digest of text already in canonical form.

    ``canonical_hash(doc)`` is ``text_hash(canonical_json(doc))``; a caller
    that renders one document and hashes several documents built around it
    (as the synthetic driver does with an observation) renders it once and
    hashes each result here.
    """

    return Digest(HASH_ALGORITHM, hashlib.sha256(rendered.encode("utf-8")).hexdigest())


def canonical_hash(content: Any) -> Digest:
    """Hash an ordered key/value document in canonical form.

    The digest is invariant under key reordering and changes whenever any
    value changes.
    """

    return text_hash(canonical_json(content))


# ---------------------------------------------------------------------------
# Trace context
# ---------------------------------------------------------------------------


@record
class TraceContext(Record):
    """Trace/span identity for one event; trace_id is constant per run."""

    trace_id: str
    span_id: str
    parent_span_id: str | None = None

    def __post_init__(self) -> None:
        if len(self.trace_id) != _TRACE_ID_HEX_LEN:
            raise SchemaError("invalid_trace", "trace_id must be 32 hex chars")
        if len(self.span_id) != _SPAN_ID_HEX_LEN:
            raise SchemaError("invalid_trace", "span_id must be 16 hex chars")


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
    return TraceContext(_trace_id(run_seed), span_id, parent_span_id)


# ---------------------------------------------------------------------------
# Field groups
# ---------------------------------------------------------------------------


def _require_nonneg(name: str, value: float | None) -> None:
    if value is None:
        return
    if not math.isfinite(value) or value < 0:
        raise SchemaError("invalid_value", f"{name} must be finite and >= 0, got {value}")


@record
class TimingFields(Record):
    """Queue wait, service time and the optional latencies of one event."""

    queue_wait_ms: float = doc_field(default=0.0, required=True)
    service_time_ms: float = doc_field(default=0.0, required=True)
    model_latency_ms: float | None = None
    tool_latency_ms: float | None = None
    verifier_latency_ms: float | None = None

    def __post_init__(self) -> None:
        _require_nonneg("queue_wait_ms", self.queue_wait_ms)
        _require_nonneg("service_time_ms", self.service_time_ms)
        _require_nonneg("model_latency_ms", self.model_latency_ms)
        _require_nonneg("tool_latency_ms", self.tool_latency_ms)
        _require_nonneg("verifier_latency_ms", self.verifier_latency_ms)


@record
class ProvenanceFields(Record):
    """Where an event comes from: manifest, driver, schema, replay class and seed."""

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


# ---------------------------------------------------------------------------
# Event records
# ---------------------------------------------------------------------------


@record
class EventRecord(Record):
    """One event-log line."""

    run_id: str
    episode_id: str
    step_index: int
    trace: TraceContext
    kind: str
    sequence: int
    wall_clock_ms: float
    timing: TimingFields
    provenance: ProvenanceFields
    payload: dict[str, Any] = doc_field(default_factory=dict, required=True)

    # The inherited codec, bound on the class itself so that it can be
    # wrapped per class (perfbench traces EventRecord.to_doc and from_doc).
    to_doc = _to_doc
    from_doc = classmethod(_from_doc)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SchemaError("invalid_value", f"unknown event kind {self.kind!r}")
        if self.sequence < 0 or self.step_index < 0:
            raise SchemaError("invalid_value", "sequence and step_index must be >= 0")
        _require_nonneg("wall_clock_ms", self.wall_clock_ms)


def _event_decoder() -> Callable[[Any], EventRecord]:
    """``EventRecord.from_doc`` for the event documents of one log, taken in order.

    Every event of a run carries the same provenance, so it is decoded once
    and the frozen record is shared while each document's provenance equals
    the one before with every value of the same type. ``==`` alone would
    share it for a seed of ``31.0`` or ``true`` after ``31`` or ``1``, which
    ``from_doc`` rejects. Only numbers compare equal across JSON types, and
    a provenance's numbers sit at its top level (its digests hold strings),
    so the types of its top-level values settle it. Any other document is
    decoded whole, so every result and every error is that of ``from_doc``.
    """

    decode, decode_shared = _decoder(EventRecord), _decoder(EventRecord, ("provenance",))
    last_doc: Any = None
    last_types: tuple[type, ...] = ()
    provenance: ProvenanceFields | None = None

    def decode_event(doc: Any) -> EventRecord:
        nonlocal last_doc, last_types, provenance
        if type(doc) is not dict or "provenance" not in doc:
            return decode(doc)  # a document it cannot share, or an error to raise
        provenance_doc = doc["provenance"]
        if (
            provenance is not None
            and provenance_doc == last_doc
            and tuple(map(type, provenance_doc.values())) == last_types
        ):
            return decode_shared(doc, provenance)
        event = decode(doc)
        provenance, last_doc = event.provenance, provenance_doc
        last_types = tuple(map(type, provenance_doc.values()))
        return event

    return decode_event


def decode_events(docs: Iterable[Any]) -> list[EventRecord]:
    """Decode a log's event documents, equal to ``EventRecord.from_doc`` on each."""

    return list(map(_event_decoder(), docs))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@record
class Violation:
    """One validation failure: its code, the field at fault and a message."""

    code: str
    field: str
    message: str


# The columns of KINDS that every event reads, as plain dicts: a field of a
# NamedTuple costs more to read per event. Per kind: (required, allowed) payload
# keys; scope; and for a span's start or end kind, (span, whether it opens it).
_PAYLOAD_KEYS: Final[dict[str, tuple[tuple[str, ...], frozenset[str]]]] = {
    kind: (row.required, frozenset(row.required + row.optional)) for kind, row in KINDS.items()
}
_SCOPES: Final[dict[str, str]] = {kind: row.scope for kind, row in KINDS.items()}
_SPAN_EDGES: Final[dict[str, tuple[str, bool]]] = {
    kind: (row.span, kind == f"{row.span}_start") for kind, row in KINDS.items() if row.span
}
_NO_PAYLOAD_KEYS: Final = ((), frozenset())  # an unknown kind's, built once


def _payload_violations(kind: str, payload: Mapping[str, Any]) -> list[Violation]:
    violations: list[Violation] = []
    required, allowed = _PAYLOAD_KEYS.get(kind, _NO_PAYLOAD_KEYS)
    for key in required:
        if key not in payload:
            violations.append(
                Violation("missing_field", f"payload.{key}", f"{kind} requires payload key {key}")
            )
    for key in payload:
        if key not in allowed:
            violations.append(
                Violation("unknown_field", f"payload.{key}", f"{kind} does not allow key {key}")
            )
    return violations


# The verdict inputs of an R2 verifier_outcome: key, value test, what the value must be.
_R2_VERDICT_INPUTS: Final = (
    ("patch_quality", lambda value: type(value) is str and value in PATCH_QUALITIES,
     "a known patch quality"),
    ("pass_prob", lambda value: type(value) in (int, float) and 0 <= value <= 1,
     "a number in [0, 1]"),
)


def _event_violations(event: EventRecord) -> list[Violation]:
    """The rules a decoded event meets on its own, wherever it sits in a run.

    Its payload keys, for ``action_parsed`` a known ``parse_status`` with an
    ``invalid_action`` that is true exactly when it is not ``parsed``, for a
    ``verifier_outcome`` in an R2 run a ``patch_quality`` in ``PATCH_QUALITIES``
    and a ``pass_prob`` in [0, 1], and a supported schema version. Each
    field's type and range are the decoder's and the records' checks.
    """

    payload = event.payload
    violations = _payload_violations(event.kind, payload)
    if event.kind == "action_parsed" and "parse_status" in payload:
        status = payload["parse_status"]
        if type(status) is not str or status not in PARSE_STATUSES:
            violations.append(
                Violation("invalid_value", "payload.parse_status", f"unknown status {status!r}")
            )
        elif "invalid_action" in payload and payload["invalid_action"] is not (status != "parsed"):
            violations.append(
                Violation(
                    "invalid_value",
                    "payload.invalid_action",
                    "invalid_action inconsistent with parse_status",
                )
            )
    if event.kind == "verifier_outcome" and event.provenance.replay_class == "R2":
        # R2 replay recomputes the verdict from these, and controls are known by quality.
        for key, valid, expected in _R2_VERDICT_INPUTS:
            if key not in payload:
                message = f"an R2 verifier_outcome requires payload key {key}"
                violations.append(Violation("missing_field", f"payload.{key}", message))
            elif not valid(payload[key]):
                message = f"{key} {payload[key]!r} is not {expected}"
                violations.append(Violation("invalid_value", f"payload.{key}", message))
    if event.provenance.schema_version not in SUPPORTED_SCHEMA_VERSIONS:
        violations.append(
            Violation(
                "invalid_value",
                "provenance.schema_version",
                f"unsupported schema version {event.provenance.schema_version!r}",
            )
        )
    return violations


def check_event_doc(doc: Mapping[str, Any]) -> list[Violation]:
    """The violations of one serialized event taken alone; empty when it has none.

    The document is decoded by ``EventRecord.from_doc``, and a decoder error
    is its one violation: ``missing_field`` for an absent key,
    ``invalid_value`` for any other. Stateful rules (ordering, boundaries)
    live in :class:`RunValidator`.
    """

    try:
        event = EventRecord.from_doc(doc)
    except SchemaError as exc:
        code = "missing_field" if exc.message.endswith(_MISSING_KEY) else "invalid_value"
        return [Violation(code, "event", str(exc))]
    return _event_violations(event)


def _flag(violations: list[Violation], code: str, field: str, message: str) -> None:
    """Append one violation; a plain call, so a passing event pays nothing for it."""

    violations.append(Violation(code, field, message))


class RunValidator:
    """Per-run validation state: sequence order and boundary bookkeeping.

    Every event after ``run_start`` must carry its run id, trace id and
    provenance. Across events it also checks each ``episode_end`` status against its
    episode's ``terminal_result`` and, in an R2 run, each ``terminal_result``
    status against its episode's last ``verifier_outcome``.

    One validator instance is confined to a single run; events from different
    runs may be validated concurrently with separate instances.
    """

    def __init__(self) -> None:
        self._run_id: str | None = None
        self._last_sequence: int | None = None
        self._last_clock: float | None = None
        self._started = False
        self._ended = False
        self._open_episodes: dict[str, set[str]] = {}  # episode id -> its open spans
        self._closed_episodes: set[str] = set()
        self._terminal_statuses: dict[str, Any] = {}  # episode id -> its terminal status
        self._verdicts: dict[str, Any] = {}  # episode id -> its last verifier_outcome status
        self._seen_spans: set[str] = set()
        self._trace_id: str | None = None
        self._provenance: ProvenanceFields | None = None

    def _stateful_violations(self, event: EventRecord) -> list[Violation]:
        violations: list[Violation] = []
        kind = event.kind

        if not self._started and kind != "run_start":
            return [
                Violation("boundary_mismatch", "kind", f"{kind} before run_start for this run")
            ]
        if self._ended:
            return [Violation("boundary_mismatch", "kind", f"{kind} after run_end")]

        if kind == "run_start":
            if self._started:
                return [Violation("boundary_mismatch", "kind", "duplicate run_start")]
            if event.sequence != 0:
                _flag(violations, "sequence_order", "sequence", "run_start must have sequence 0")
        else:
            if event.run_id != self._run_id:
                _flag(violations, "boundary_mismatch", "run_id",
                      f"event run_id {event.run_id!r} does not match {self._run_id!r}")
            if self._trace_id is not None and event.trace.trace_id != self._trace_id:
                _flag(violations, "boundary_mismatch", "trace.trace_id", "trace_id changed mid-run")
            # An honest run shares one provenance record, so identity settles it.
            if event.provenance is not self._provenance and event.provenance != self._provenance:
                _flag(violations, "boundary_mismatch", "provenance",
                      "provenance differs from run_start's")

        if self._last_sequence is not None and event.sequence <= self._last_sequence:
            _flag(violations, "sequence_order", "sequence",
                  f"sequence {event.sequence} not greater than {self._last_sequence}")
        if self._last_clock is not None and event.wall_clock_ms < self._last_clock:
            _flag(violations, "sequence_order", "wall_clock_ms",
                  f"clock regressed from {self._last_clock} to {event.wall_clock_ms}")
        if event.trace.span_id in self._seen_spans:
            _flag(violations, "invalid_value", "trace.span_id", "span_id reused within run")

        episode = event.episode_id
        scope = _SCOPES[kind]
        if scope == "run" or (scope == "episode_or_run" and episode == ""):
            if episode != "":
                _flag(violations, "boundary_mismatch", "episode_id",
                      f"{kind} must use empty episode_id")
        elif scope == "opens_episode":
            if episode == "":
                _flag(violations, "missing_field", "episode_id",
                      f"{kind} needs an episode_id")
            elif episode in self._open_episodes or episode in self._closed_episodes:
                _flag(violations, "boundary_mismatch", "episode_id", f"episode {episode} reused")
        else:
            open_spans = self._open_episodes.get(episode)
            if open_spans is None:
                _flag(violations, "boundary_mismatch", "episode_id",
                      f"{kind} outside an open episode ({episode!r})")
            else:
                edge = _SPAN_EDGES.get(kind)
                if edge is not None:
                    span, opens = edge
                    if opens and span in open_spans:
                        _flag(violations, "boundary_mismatch", "kind", f"nested {kind}")
                    elif not opens and span not in open_spans:
                        _flag(violations, "boundary_mismatch", "kind",
                              f"{kind} without {span}_start")
                if kind == "terminal_result" and episode in self._terminal_statuses:
                    _flag(violations, "boundary_mismatch", "kind", "duplicate terminal_result")
                if (
                    kind == "terminal_result"
                    and event.provenance.replay_class == "R2"
                    and "status" in event.payload
                ):
                    # An R2 episode's verdict is its verifier's, which R2 replay recomputes.
                    status = event.payload["status"]
                    verdict = self._verdicts.get(episode)
                    if verdict is None:
                        _flag(violations, "invalid_value", "payload.status",
                              "terminal_result before its episode's verifier_outcome")
                    elif status != verdict:
                        _flag(violations, "invalid_value", "payload.status",
                              f"terminal_result status {status!r} is not its "
                              f"verifier_outcome's {verdict!r}")
                if kind == "episode_end" and open_spans:
                    _flag(violations, "boundary_mismatch", "kind",
                          "episode_end with open step or request")
                if kind == "episode_end" and "status" in event.payload:
                    status = event.payload["status"]
                    expected = self._terminal_statuses.get(episode, "missing_terminal")
                    if type(status) is not str:
                        _flag(violations, "invalid_value", "payload.status",
                              f"episode_end status {status!r} is not a string")
                    elif status != expected:
                        _flag(violations, "invalid_value", "payload.status",
                              f"episode_end status {status!r} is not its episode's {expected!r}")

        if kind == "run_end" and self._open_episodes:
            open_ids = ", ".join(sorted(self._open_episodes))
            _flag(violations, "boundary_mismatch", "kind",
                  f"run_end with open episodes: {open_ids}")

        return violations

    def _advance(self, event: EventRecord) -> None:
        kind = event.kind
        edge = _SPAN_EDGES.get(kind)
        if edge is not None:
            span, opens = edge
            open_spans = self._open_episodes[event.episode_id]
            if opens:
                open_spans.add(span)
            else:
                open_spans.discard(span)
        elif kind == "run_start":
            self._started = True
            self._run_id = event.run_id
            self._trace_id = event.trace.trace_id
            self._provenance = event.provenance
        elif kind == "run_end":
            self._ended = True
        elif kind == "episode_start":
            self._open_episodes[event.episode_id] = set()
        elif kind == "episode_end":
            self._open_episodes.pop(event.episode_id, None)
            self._closed_episodes.add(event.episode_id)
        elif kind == "terminal_result":
            self._terminal_statuses[event.episode_id] = event.payload.get("status")
        elif kind == "verifier_outcome":
            self._verdicts[event.episode_id] = event.payload["status"]
        self._last_sequence = event.sequence
        self._last_clock = event.wall_clock_ms
        self._seen_spans.add(event.trace.span_id)

    def validate(self, event: EventRecord) -> list[Violation]:
        """Validate one typed event and advance state only when it is legal.

        Returns the event's violations, empty when it passes.
        """

        violations = _event_violations(event)
        violations.extend(self._stateful_violations(event))
        if not violations:
            self._advance(event)
        return violations

    def finalize(self) -> list[Violation]:
        """Check run-level completeness after the last event; empty when complete."""

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
        return violations


def require_valid_log(events: Iterable[EventRecord], run_id: str) -> None:
    """Raise ``SchemaError("invalid_log")`` at the first rule a run's decoded log breaks.

    The events go through one :class:`RunValidator` and its ``finalize``.
    The message names the run, the event's sequence (``end of log`` for a
    run that is not complete), and the rule's code, field and message.
    """

    validator = RunValidator()
    for event in events:
        violations = validator.validate(event)
        if violations:
            where = f"event {event.sequence}"
            break
    else:
        violations, where = validator.finalize(), "end of log"
    if violations:
        first = violations[0]
        raise SchemaError(
            "invalid_log", f"run {run_id}: {where}: {first.code} {first.field}: {first.message}"
        )


# ---------------------------------------------------------------------------
# Record text
# ---------------------------------------------------------------------------

_JSON_BOOLS: Final = ("false", "true")  # a bool field's text, indexed by the bool
_RENDERERS: dict[type, Callable[..., str]] = {}


def _reference_only(record: Any, array: Any = None) -> NoReturn:
    """The renderer of a class it does not compile: raises, so the reference runs."""

    raise TypeError


def _item_texts(render: Callable[[Any], str], cls: type, values: Any) -> list[str]:
    """Each item's text; a ``TypeError`` unless ``values`` is a list or tuple of ``cls``."""

    if type(values) not in (list, tuple) or any(type(value) is not cls for value in values):
        raise TypeError
    return list(map(render, values))


def _array(render: Callable[[Any], str], cls: type, values: Any) -> str:
    return "[" + ",".join(_item_texts(render, cls, values)) + "]"


def _text_expr(tp: Any, value: str, env: dict[str, Any]) -> tuple[str, str]:
    """(check, text): source of a test that ``value``, a local of type ``tp``,
    renders here (empty when every value does), and of its text."""

    origin, args = get_origin(tp), get_args(tp)
    if origin is Literal and len({type(arg) for arg in args}) == 1:
        tp = type(args[0])
    if tp is str:
        return f"type({value}) is str", f"encode_basestring({value})"
    if tp is int or tp is float:
        finite = f" and isfinite({value})" if tp is float else ""
        return f"type({value}) is {tp.__name__}{finite}", f"{value}!r"
    if tp is bool:
        return f"type({value}) is bool", f"_JSON_BOOLS[{value}]"
    index = len(env)
    if _is_record(tp) or (origin in (list, tuple) and _is_record(args[0])):
        item = tp if _is_record(tp) else args[0]
        env[f"_class_{index}"], env[f"_render_{index}"] = item, _renderer(item)
        if item is tp:
            return f"type({value}) is _class_{index}", f"_render_{index}({value})"
        return "", f"array(_render_{index}, _class_{index}, {value})"
    doc = _encode_expr(tp, value, env)
    if doc in (f"dict({value})", f"list({value})"):  # the copy renders as the value itself
        test = "is dict" if doc[0] == "d" else "in (list, tuple)"
        return f"type({value}) {test}", f"canonical_json({value})"
    return "", f"canonical_json({doc})"


def _fstring(parts: Iterable[tuple[str, str]]) -> str:
    """Source of an f-string of (literal text, replacement expression) pairs."""

    text = "".join(
        literal.replace("{", "{{").replace("}", "}}") + (f"{{{expr}}}" if expr else "")
        for literal, expr in parts
    )
    return "f" + repr(text)


def _renderer(cls: type) -> Callable[..., str]:
    """The compiled ``render(self, array=_array)`` of ``cls``, built on first use.

    It renders the stored fields in key order as one f-string, after one
    check of their types; a field ``to_doc`` omits is a piece that is empty or
    carries its comma. A required nested record that is frozen and holds more
    than strings keeps its last object's text, by identity: every event of a
    run shares its provenance and most share a timing, while keeping an
    all-string trace context costs more than rendering it. The code runs on
    this module's globals, so ``canonical_json`` is looked up at each call::

        def render(self, array=_array):
            v0 = self.parent_span_id
            v1 = self.span_id
            v2 = self.trace_id
            if not ((v0 is None or type(v0) is str) and type(v1) is str and type(v2) is str):
                raise TypeError
            p0 = '' if v0 is None else f'"parent_span_id":{encode_basestring(v0)},'
            return f'{{{p0}"span_id":{encode_basestring(v1)},"trace_id":{encode_basestring(v2)}}}'
    """

    render = _RENDERERS.get(cls)
    if render is not None:
        return render
    to_doc = cls.to_doc
    while hasattr(to_doc, "__wrapped__"):  # a wrapper made by functools.wraps
        to_doc = to_doc.__wrapped__
    stored = sorted(_stored_fields(cls), key=lambda entry: entry[1])
    tests = [
        "not {}" if item.metadata.get("omit_empty") else "{} is None" if optional else ""
        for item, _, _, optional in stored
    ]
    if to_doc is not _to_doc or "" not in tests:  # its own to_doc, or no field always written
        render = _RENDERERS[cls] = _reference_only
        return render
    env: dict[str, Any] = {}
    first = tests.index("")
    reads, checks, body, parts, kept = [], [], [], [], []
    for index, ((item, key, tp, _), test) in enumerate(zip(stored, tests)):
        value, label = f"v{index}", encode_basestring(key) + ":"
        reads.append(f"{value} = self.{item.name}")
        check, text = _text_expr(tp, value, env)
        if test:
            checks += [f"({test.format(value)} or {check})"] if check else []
            piece = [("," + label, text)] if index > first else [(label, text), (",", "")]
            body.append(f"p{index} = '' if {test.format(value)} else {_fstring(piece)}")
            parts.append(("", f"p{index}"))
            continue
        checks += [check] if check else []
        if (  # frozen (its __setattr__ raises) and holding more than strings
            _is_record(tp) and tp.__setattr__ is not object.__setattr__
            and any(hint is not str for _, _, hint, _ in _stored_fields(tp))
        ):
            kept.append(f"last_{index}")
            body += [
                f"if (cached := last_{index})[0] is not {value}:",
                f"    last_{index} = cached = ({value}, {text})",
                f"t{index} = cached[1]",
            ]
            text = f"t{index}"
        parts.append(("," * (index > first) + label, text))
    source = "\n".join([
        f"def _make({', '.join(env)}):",
        f"    {' = '.join(kept)} = (None, None)" if kept else "",
        "    def render(self, array=_array):",
        f"        nonlocal {', '.join(kept)}" if kept else "",
        *(f"        {line}" for line in reads),
        f"        if not ({' and '.join(checks) or 'True'}):",
        "            raise TypeError",
        *(f"        {line}" for line in body),
        f"        return {_fstring([('{', ''), *parts, ('}', '')])}",
        "    return render",
    ])
    namespace: dict[str, Any] = {}
    exec(source, globals(), namespace)
    render = _RENDERERS[cls] = namespace["_make"](**env)
    render.__qualname__ = f"{cls.__qualname__}.render"
    return render


def render_record(record: Record, array: Callable[..., str] = _array) -> str:
    """``canonical_json(record.to_doc())``: the one way a record becomes text.

    Its class's renderer writes it without building the document: scalars
    and ``Literal`` by exact type, nested records by their own renderers, a
    list or tuple of records item by item through ``array``, and any other
    field (a payload dict, a tuple of scalars) through ``canonical_json``. A
    value of another type, a value ``canonical_json`` rejects, or a class with
    its own ``to_doc`` or with no field that is always written takes
    ``canonical_json(record.to_doc())``, so the text and any error (with its
    ``$.payload…`` path) are the reference's.
    """

    try:
        return (_RENDERERS.get(type(record)) or _renderer(type(record)))(record, array)
    except Exception:  # whatever it is, the reference renders the record or raises it
        return canonical_json(record.to_doc())


# ---------------------------------------------------------------------------
# Artifact files
# ---------------------------------------------------------------------------


def write_json(path: Path | str, content: Any) -> None:
    """Write ``canonical_json(doc) + "\\n"`` to ``path``: the one artifact writer.

    ``doc`` is ``content.to_doc()`` for a :class:`Record`, rendered by
    :func:`render_record`, and ``content`` otherwise. Each item of a list of
    records stays its own string, so no string holds the whole file. Content
    that cannot be rendered raises before the file is opened, with the error
    of ``canonical_json(content.to_doc())``, and leaves ``path`` as it was.
    """

    lists: list[list[str]] = []

    def keep(render: Callable[[Any], str], cls: type, values: Any) -> str:
        # NULs around its number stand for the array: canonical text escapes NUL.
        lists.append(_item_texts(render, cls, values))
        return f"\x00{len(lists) - 1}\x00"

    text = render_record(content, keep) if isinstance(content, Record) else canonical_json(content)
    head, *pieces = text.split("\x00")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(head)
        for number, tail in zip(pieces[::2], pieces[1::2]):
            handle.write("[")
            for index, item in enumerate(lists[int(number)]):
                handle.write("," + item if index else item)
            handle.write("]" + tail)
        handle.write("\n")


def write_json_lines(
    path: Path | str, records: Iterable[Record], header: Mapping[str, Any] | None = None
) -> None:
    """The one JSON-lines writer: ``canonical_json(header)`` when given, then
    each record's :func:`render_record`, one per line. All are rendered before
    the file is opened, so a record that does not render leaves it as it was."""

    lines = [] if header is None else [canonical_json(header)]
    lines += map(render_record, records)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
        handle.write("\n")


# ---------------------------------------------------------------------------
# Event-log files
# ---------------------------------------------------------------------------


def write_event_log(
    path: Path | str, events: Iterable[EventRecord], schema_version: str = SCHEMA_VERSION
) -> None:
    """Write events as newline-delimited canonical documents after a header
    line holding ``schema_version``, by :func:`write_json_lines`."""

    write_json_lines(path, events, {"schema_version": schema_version})


class EventLog(list):
    """A log's decoded events, in order, as :func:`read_event_log` returns them.

    ``lines`` holds the text of each event line as it was read when the
    log's replay class (its first event's) is R1, whose bundles carry the
    log's lines, and is ``None`` otherwise.
    """

    __slots__ = ("lines",)

    def __init__(self, events: Iterable[EventRecord] = ()) -> None:
        super().__init__(events)
        self.lines: list[str] | None = None


def _log_version(header: Any, path: Path | str) -> str:
    """The schema version of an event log's decoded header line."""

    if not isinstance(header, dict) or "schema_version" not in header:
        raise SchemaError("missing_field", f"event log missing schema_version header: {path}")
    version = header["schema_version"]
    if type(version) is not str or version not in SUPPORTED_SCHEMA_VERSIONS:
        raise LogLineError(
            "invalid_log", f"line 1: invalid_value: unsupported schema version {version!r}"
        )
    return version


def _line_error(number: int, exc: GatebenchError) -> LogLineError:
    return LogLineError("invalid_log", f"line {number}: {exc.code}: {exc.message}")


def _keeps_lines(events: list[EventRecord]) -> bool:
    return events[0].provenance.replay_class == "R1"


def _decode_log_lines(text: str, path: Path | str) -> tuple[str, EventLog]:
    """The reference parse of an event log's text: :func:`_json_lines`, each
    event document decoded as it is reached (see :func:`decode_events`)."""

    lines = _json_lines(text, path, SchemaError, "invalid_log", header=True)
    version = _log_version(next(lines)[1], path)
    decode = _event_decoder()
    events = EventLog()
    for number, doc in lines:
        try:
            events.append(decode(doc))
        except GatebenchError as exc:
            raise _line_error(number, exc) from exc
    if events and _keeps_lines(events):
        events.lines = [line for line in text.split("\n")[1:] if line]
    return version, events


def _scan_log_lines(text: str, path: Path | str) -> tuple[str, EventLog] | None:
    """:func:`_decode_log_lines` of ``text`` without splitting it, or ``None``.

    Each line is parsed in place by the decoder's ``scan_once`` at the
    line's offset, then decoded, one line at a time. That is the
    reference's result whenever every line is blank or one document that
    starts at its first character and ends at its line feed, line 1 not
    blank. At the first line that is not (a blank header, leading
    whitespace, a value that ends before or after the line feed, a scan
    error, a non-finite number) it returns ``None``, and the caller parses
    the whole text by the reference, its errors included. A decode error
    before that line is the reference's already, since both parse the
    lines before it alike.
    """

    scan, find, size = _DECODER.scan_once, text.find, len(text)
    decode = _event_decoder()
    events = EventLog()
    lines: list[str] | None = None
    version: str | None = None
    number = pos = 0
    while pos < size:
        number += 1
        end_of_line = find("\n", pos)
        if end_of_line < 0:
            end_of_line = size
        if end_of_line == pos and version is not None:
            pos += 1  # a blank line after the header holds no document
            continue
        try:
            doc, end = scan(text, pos)
        except (StopIteration, ValueError, RecursionError):  # no value, a bad one, NaN, too deep
            return None
        if end != end_of_line:
            return None
        if version is None:
            version = _log_version(doc, path)
        else:
            try:
                events.append(decode(doc))
            except GatebenchError as exc:
                raise _line_error(number, exc) from exc
            if lines is not None:
                lines.append(text[pos:end])
            elif len(events) == 1 and _keeps_lines(events):
                lines = events.lines = [text[pos:end]]
        pos = end_of_line + 1
    return None if version is None else (version, events)


def read_event_log(path: Path | str) -> tuple[str, EventLog]:
    """Read and decode an event log: (its header's schema version, its events in order).

    One read of the file, parsed and decoded one line at a time as it is
    reached, line 1 being the header, in place by :func:`_scan_log_lines`.
    A text with a line the scan does not take is parsed again, whole, by the
    reference :func:`_decode_log_lines` (:func:`_json_lines` and
    ``EventRecord.from_doc``), so every result and error is the reference's.
    A file that cannot be read
    raises its ``OSError``. A line that is not JSON, or a file that is not
    UTF-8, raises ``invalid_log`` with the position in the file; an empty
    file or a header without ``schema_version`` raises ``missing_field``. A
    header whose version is not a string in ``SUPPORTED_SCHEMA_VERSIONS``, or
    a line whose document does not decode to an event, raises
    :class:`LogLineError`, whose message is ``line N: <code>: <message>``
    (the decoder's code and message for an event line). The events of an R1
    log keep their lines' text (:class:`EventLog`).
    """

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError("invalid_log", f"{path} is not valid JSON: {exc}") from exc
    if not text:
        raise SchemaError("missing_field", f"empty event log: {path}")
    return _scan_log_lines(text, path) or _decode_log_lines(text, path)


__all__ = [
    "Digest",
    "EVENT_KINDS",
    "EventKind",
    "EventLog",
    "EventRecord",
    "GatebenchError",
    "HASH_ALGORITHM",
    "KINDS",
    "LogLineError",
    "OPTIONAL_PAYLOAD_KEYS",
    "PARSE_STATUSES",
    "PATCH_QUALITIES",
    "ProvenanceFields",
    "REPLAY_CLASSES",
    "Record",
    "REQUIRED_PAYLOAD_KEYS",
    "RunValidator",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "SchemaError",
    "TimingFields",
    "TraceContext",
    "Violation",
    "canonical_hash",
    "canonical_json",
    "check_event_doc",
    "decode_events",
    "doc_field",
    "float_sum",
    "new_trace_context",
    "read_event_log",
    "read_json",
    "render_record",
    "require_valid_log",
    "text_hash",
    "write_event_log",
    "write_json",
    "write_json_lines",
]
