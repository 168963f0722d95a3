"""Frozen records: ``@dataclass(frozen=True, slots=True)`` without per-class code.

Every module of the harness declares its immutable values with :func:`record`.
``dataclasses`` compiles up to six methods for each frozen class at import;
``record`` compiles none there. It runs ``dataclass`` only for what
``dataclasses.fields``, ``dataclasses.replace``, ``__match_args__``,
``__slots__`` and the record codec of ``schema.Record`` read, and gives every
class the same small set of functions, which work from the class's tuple of
field names. Each class's ``__init__`` is compiled from its fields on its
first construction, as ``Record`` compiles ``to_doc``/``from_doc`` on first
use.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter
from reprlib import recursive_repr
from typing import Any, Callable, TypeVar

_T = TypeVar("_T", bound=type)

# Default of a parameter whose field has a default factory.
_FACTORY = object()


def record(cls: _T) -> _T:
    """Make ``cls`` a frozen, slotted dataclass, as ``dataclass(frozen=True, slots=True)``.

    The result behaves as the stock decorator's: the same ``__init__``
    signature, argument errors and ``__post_init__`` call; ``repr``; ``==``
    and ``hash`` over the field values as a tuple; ``FrozenInstanceError`` on
    setting or deleting an attribute; and pickling and copying through
    ``__getstate__``/``__setstate__``. A method the class body defines itself
    is kept. Every field must be a plain positional field: in ``__init__``,
    ``repr``, comparison and hash, and not keyword-only. The differences:
    ``__dataclass_params__`` describes the inner ``dataclass`` call (not
    frozen, no generated methods); until the first construction ``__init__``
    is a stub taking ``(*args, **kwargs)``; and setting an attribute that is
    not a field raises ``FrozenInstanceError``, where the stock slotted class
    fails with a ``TypeError`` from ``super()``.
    """

    body = cls.__dict__.keys() & _METHODS.keys()
    cls = dataclass(cls, init=False, repr=False, eq=False, slots=True)
    defaulted: str | None = None
    for item in fields(cls):
        if not (item.init and item.repr and item.compare) or item.hash is not None or item.kw_only:
            raise TypeError(f"{cls.__name__}.{item.name}: a record field must be a plain field")
        if item.default is not MISSING or item.default_factory is not MISSING:
            defaulted = item.name
        elif defaulted is not None:
            raise TypeError(f"non-default argument {item.name!r} follows default argument")
    names = tuple(item.name for item in fields(cls))
    cls._record_fields = names
    # The field values as a tuple: attrgetter returns one for two or more names.
    cls._record_values = (
        attrgetter(*names) if len(names) > 1
        else lambda self: tuple(getattr(self, name) for name in names)
    )
    for name, method in _METHODS.items():
        if name not in body:
            setattr(cls, name, method)
    return cls


def _compile_init(cls: type) -> Callable[..., None]:
    """The ``__init__`` that ``dataclasses`` writes for a frozen class ``cls``.

    For ``schema.TraceContext`` it reads::

        def __init__(self, trace_id, span_id, parent_span_id=_default_2):
            _set(self, 'trace_id', trace_id)
            _set(self, 'span_id', span_id)
            _set(self, 'parent_span_id', parent_span_id)
            self.__post_init__()
    """

    env: dict[str, Any] = {"_set": object.__setattr__, "_FACTORY": _FACTORY}
    params, lines = ["self"], []
    for index, item in enumerate(fields(cls)):
        name, value = item.name, item.name
        if item.default_factory is not MISSING:
            env[f"_factory_{index}"] = item.default_factory
            params.append(f"{name}=_FACTORY")
            value = f"_factory_{index}() if {name} is _FACTORY else {name}"
        elif item.default is not MISSING:
            env[f"_default_{index}"] = item.default
            params.append(f"{name}=_default_{index}")
        else:
            params.append(name)
        lines.append(f"    _set(self, {name!r}, {value})")
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    exec("\n".join([f"def __init__({', '.join(params)}):", *(lines or ["    pass"])]), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _lazy_init(self: Any, *args: Any, **kwargs: Any) -> None:
    # First construction of this class: compile its __init__, install it, run it.
    cls = type(self)
    init = _compile_init(cls)
    cls.__init__ = init
    init(self, *args, **kwargs)


@recursive_repr()
def _repr(self: Any) -> str:
    cls = type(self)
    items = zip(cls._record_fields, cls._record_values(self))
    return f"{cls.__qualname__}({', '.join(f'{name}={value!r}' for name, value in items)})"


def _eq(self: Any, other: Any) -> Any:
    if other.__class__ is self.__class__:
        values = self.__class__._record_values
        return values(self) == values(other)
    return NotImplemented


def _hash(self: Any) -> int:
    return hash(type(self)._record_values(self))


def _setattr(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _getstate(self: Any) -> list[Any]:
    return list(type(self)._record_values(self))


def _setstate(self: Any, state: list[Any]) -> None:
    for name, value in zip(type(self)._record_fields, state):
        object.__setattr__(self, name, value)


_METHODS: dict[str, Callable[..., Any]] = {
    "__init__": _lazy_init,
    "__repr__": _repr,
    "__eq__": _eq,
    "__hash__": _hash,
    "__setattr__": _setattr,
    "__delattr__": _delattr,
    "__getstate__": _getstate,
    "__setstate__": _setstate,
}
