"""Typed loading of JSON objects into frozen dataclasses.

`from_dict` reads a dataclass's fields and their annotations and builds an
instance from a parsed JSON object.  The type rules:

    int, str, bool, dict   the value must be of that type; a bool is not an
                           int, so `true` never passes for a count
    float                  an int or a float (kept as given), not a bool,
                           not an infinity and not an int too large for
                           a float
    Enum                   one of the enum's values
    X | None               null, or a value of X
    tuple[X, Y]            a list of exactly that many items, each typed
    tuple[X, ...]          a list of any length, each item of X
    dict[str, X]           an object whose every value is of X
    dataclass              a nested object, loaded by the same rules

Unknown keys and missing required fields are rejected.  A missing optional
field takes the value of `base` when one is given, else the field's
default; a nested object is laid over the matching part of `base` (or of
the field's default), so `{"timing": {"tRCD": 20}}` changes one timing and
keeps the rest.  A field may name its own parser as
`field(metadata={"parse": fn})`, called as `fn(value, path)`.

A field's range is declared once, on the field, as inclusive bounds beside
its type: `field(default=8, metadata={"min": 1})`, with `"max"` likewise.
`check_bounds` enforces every such bound on a built instance and on the
dataclasses nested in it; a bound applies to each item of a tuple, and
None skips it.  A NaN lies outside every bound, so a bounded float field
rejects it.  Only rules that read more than one field, or that are not
ranges, are written out by hand, in the schemas' `validate` methods.

Every error is a ValueError naming the field's path, such as
`config.hardware.gddr.timing.tRCD must be int, not 1.5` or
`config.hardware.num_sms must be >= 1, not 0`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from enum import Enum


def reject_unknown(obj, allowed, where: str):
    """Fail unless obj is a JSON object whose keys all lie in `allowed`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, not {obj!r}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValueError(f"unknown field(s) in {where}: {sorted(unknown)}")


def strip_version(obj, where: str, version: int) -> dict:
    """obj without its optional schema_version, which must equal `version`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, not {obj!r}")
    got = obj.get("schema_version", version)
    if got != version or isinstance(got, bool):
        raise ValueError(f"unsupported {where} schema_version {got!r}")
    return {k: v for k, v in obj.items() if k != "schema_version"}


@functools.cache
def _typed_fields(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in dataclasses.fields(cls))


def _default(f: dataclasses.Field):
    # a dataclass-typed field has a default factory or no default
    return (None if f.default_factory is dataclasses.MISSING
            else f.default_factory())


def from_dict(cls, obj, where: str, base=None):
    """An instance of dataclass `cls` built from obj (see the module doc)."""
    typed = _typed_fields(cls)
    reject_unknown(obj, [f.name for f, _ in typed], where)
    kw = {}
    for f, tp in typed:
        path = f"{where}.{f.name}"
        if f.name in obj:
            value = obj[f.name]
            if "parse" in f.metadata:
                kw[f.name] = f.metadata["parse"](value, path)
            elif dataclasses.is_dataclass(tp):
                sub = getattr(base, f.name) if base is not None else _default(f)
                kw[f.name] = from_dict(tp, value, path, sub)
            else:
                kw[f.name] = _convert(tp, value, path)
        elif base is not None:
            kw[f.name] = getattr(base, f.name)
        elif (f.default is dataclasses.MISSING
              and f.default_factory is dataclasses.MISSING):
            raise ValueError(f"{path} is required")
    return cls(**kw)


@functools.cache
def _bounded_fields(cls) -> tuple:
    """(name, min, max, is_tuple, nested) for each field of cls that declares
    a bound or holds dataclasses; check_bounds visits no other field."""
    out = []
    for f, tp in _typed_fields(cls):
        nested = any(map(dataclasses.is_dataclass, typing.get_args(tp) or (tp,)))
        lo, hi = f.metadata.get("min"), f.metadata.get("max")
        if nested or lo is not None or hi is not None:
            out.append((f.name, lo, hi, typing.get_origin(tp) is tuple, nested))
    return tuple(out)


def check_bounds(obj, where: str):
    """Fail unless every `min`/`max` bound declared in the field metadata of
    dataclass instance obj, and of the dataclasses nested in it, holds."""
    for name, lo, hi, is_tuple, nested in _bounded_fields(type(obj)):
        value = getattr(obj, name)
        for i, item in enumerate(value) if is_tuple else ((None, value),):
            if item is None:
                continue
            if nested:
                check_bounds(item, _path(where, name, i))
            elif lo is not None and not item >= lo:
                raise ValueError(
                    f"{_path(where, name, i)} must be >= {lo}, not {item!r}")
            elif hi is not None and not item <= hi:
                raise ValueError(
                    f"{_path(where, name, i)} must be <= {hi}, not {item!r}")


def _path(where: str, name: str, index: int | None) -> str:
    return f"{where}.{name}" if index is None else f"{where}.{name}[{index}]"


def _type_name(tp) -> str:
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(_type_name(a) for a in typing.get_args(tp))
    if origin is tuple:
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            return f"a list of {_type_name(args[0])}"
        return f"a list [{', '.join(_type_name(a) for a in args)}]"
    if tp is type(None):
        return "null"
    if isinstance(tp, type) and issubclass(tp, Enum):
        return f"one of {[m.value for m in tp]}"
    return tp.__name__


def _convert(tp, value, where: str):
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, where)
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        for arm in typing.get_args(tp):
            if arm is type(None):
                if value is None:
                    return None
                continue
            try:
                return _convert(arm, value, where)
            except ValueError:
                pass
    elif origin is tuple:
        args = typing.get_args(tp)
        if isinstance(value, (list, tuple)):
            if args[-1] is Ellipsis:
                args = (args[0],) * len(value)
            if len(args) == len(value):
                return tuple(_convert(t, v, f"{where}[{i}]")
                             for i, (t, v) in enumerate(zip(args, value)))
    elif origin is dict:
        if isinstance(value, dict):
            item = typing.get_args(tp)[1]
            return {k: _convert(item, v, f"{where}.{k}")
                    for k, v in value.items()}
    elif issubclass(tp, Enum):  # generic aliases are handled above
        if value in [m.value for m in tp]:
            return tp(value)
    elif tp is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            # json.load reads a bare Infinity token, and an integer of any
            # size, which math.isinf cannot convert; a NaN is left to the
            # bounds, which it fails
            try:
                finite = not math.isinf(value)
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(f"{where} must be finite, not {value!r}")
            return value
    elif isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
        return value
    raise ValueError(f"{where} must be {_type_name(tp)}, not {value!r}")
