"""The JSON form of every config dataclass, read and written in one place.

A config class inherits `Record` and gets `to_dict` and `from_dict`, both
driven by its dataclass fields and their type hints. Keys mirror the field
names, and a key left out takes the field's default. Values are checked
against the hints, strictly:

- an int field takes an int (never a bool or a float), a float field a
  finite int or float (never NaN or ±Infinity, which Python's json reads),
  a bool field only a bool;
- a `tuple[T, ...]` field takes a list of T;
- a union such as `X | None` takes either form; a union of Records is
  chosen by the `"kind"` tag that each member names in its `KIND`.

An unknown key or a wrong-typed value raises ConfigurationError naming the
dotted path of the key, such as `accup.augment.knots`. Range checks stay in
each class's `__post_init__`. `read_json_object` reads the object a config
file or a sidecar holds.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import MISSING, fields
from numbers import Integral, Real
from typing import ClassVar

from .errors import ConfigurationError, FormatError, TsadaptError


class Record:
    """Base class of the config dataclasses: one typed JSON codec for all."""

    # the "kind" tag written for, and required of, members of a tagged union
    KIND: ClassVar[str | None] = None

    def to_dict(self) -> dict:
        """Every field by name; tuples become lists, nested Records dicts."""
        d = {} if self.KIND is None else {"kind": self.KIND}
        d.update((f.name, _encode(getattr(self, f.name))) for f in fields(self))
        return d

    @classmethod
    def from_dict(cls, d, path: str = ""):
        """Build an instance from its JSON form, checking every value; `path`
        is the dotted key the object sits under, for error messages."""
        return _decode_record(cls, d, path)


def read_json_object(path, error: type[TsadaptError] = FormatError) -> dict:
    """The JSON object held by the file at path; malformed JSON, or JSON
    that is not an object, raises `error` naming the file."""
    with open(path) as f:
        try:
            d = json.load(f)
        except ValueError as err:
            raise error(f"{path}: malformed JSON: {err}") from None
    if not isinstance(d, dict):
        raise error(f"{path}: expected a JSON object, got {type(d).__name__}")
    return d


def is_count(value) -> bool:
    """True for an integer that is not a bool: what a count field takes when
    a config is built in Python, where the JSON reader's checks do not run."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _encode(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _decode_record(cls, d, path: str):
    if not isinstance(d, dict):
        raise ConfigurationError(f"{path or cls.__name__}: expected an object, got {d!r}")
    d = dict(d)
    if cls.KIND is not None and d.pop("kind", cls.KIND) != cls.KIND:
        raise ConfigurationError(f"{_join(path, 'kind')}: expected {cls.KIND!r}")
    names = [f.name for f in fields(cls)]
    unknown = [_join(path, k) for k in d if k not in names]
    if unknown:
        raise ConfigurationError(f"unknown key(s): {', '.join(sorted(unknown))}")
    missing = [_join(path, f.name) for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigurationError(f"missing key(s): {', '.join(missing)}")
    hints = typing.get_type_hints(cls)
    kw = {k: _decode(hints[k], v, _join(path, k)) for k, v in d.items()}
    try:
        return cls(**kw)
    except TsadaptError as err:
        if not path:
            raise
        raise type(err)(f"{path}: {err}") from err


def _decode(tp, value, path: str):
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return _decode_union(tp, value, path)
    if typing.get_origin(tp) is tuple:
        if isinstance(value, (list, tuple)):
            item = typing.get_args(tp)[0]
            return tuple(_decode(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    elif isinstance(tp, type) and issubclass(tp, Record):
        return _decode_record(tp, value, path)
    elif isinstance(value, bool):
        if tp is bool:
            return value
    elif tp is int:
        if isinstance(value, Integral):
            return int(value)
    elif tp is float:
        if isinstance(value, Real) and math.isfinite(value):
            return float(value)
    elif isinstance(value, tp):  # str, dict, None
        return value
    raise ConfigurationError(f"{path}: expected {_name(tp)}, got {value!r}")


def _decode_union(tp, value, path: str):
    arms = typing.get_args(tp)
    tagged = {a.KIND: a for a in arms if isinstance(a, type) and issubclass(a, Record) and a.KIND}
    if tagged and isinstance(value, dict):
        kind = value.get("kind")
        if not isinstance(kind, str) or kind not in tagged:
            raise ConfigurationError(
                f"{_join(path, 'kind')}: expected one of {', '.join(tagged)}, got {kind!r}"
            )
        return _decode_record(tagged[kind], value, path)
    for arm in arms:
        try:
            return _decode(arm, value, path)
        except ConfigurationError:
            pass
    raise ConfigurationError(f"{path}: expected {_name(tp)}, got {value!r}")


def _name(tp) -> str:
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        return f"a list of {_name(args[0])}"
    if args:  # a union
        return " or ".join(_name(a) for a in args)
    if issubclass(tp, (Record, dict)):
        return "an object"
    if tp is float:
        return "finite float"
    return "null" if tp is type(None) else tp.__name__
