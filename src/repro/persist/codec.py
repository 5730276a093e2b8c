"""The durable tier's dataclass codec: the dataclass definitions are the layout.

``encode(tp, value)`` / ``decode(tp, payload)`` compile an annotation once
into a pair of closures: dataclass <-> dict of its ``init`` fields (an
undeclared key, or a missing field without a default, is refused);
``tuple`` / ``list`` / ``Sequence`` <-> list; ``set`` / ``frozenset`` <->
*sorted* list, so the bytes are deterministic; ``dict[str, T]``; ``T | None``.
Scalars pass through, and a container of scalars is one C call.  A payload
of another shape raises ``ValueError`` / ``TypeError``.
"""

from __future__ import annotations

import types
import typing
from collections.abc import Sequence
from dataclasses import MISSING, fields, is_dataclass
from functools import lru_cache
from typing import Any, Callable

_LEAVES = frozenset({str, int, float, bool, type(None), object, Any})
#: container origin -> (value to payload, payload to value)
_CONTAINERS: dict[Any, tuple[Callable, Callable]] = {
    list: (list, list),
    Sequence: (list, list),
    tuple: (list, tuple),
    set: (sorted, set),
    frozenset: (sorted, frozenset),
}


def encode(tp: Any, value: Any) -> Any:
    """``value``, of annotated type ``tp``, as plain JSON types."""
    return _compile(tp)[0](value)


def decode(tp: Any, payload: Any) -> Any:
    """The inverse of :func:`encode`."""
    return _compile(tp)[1](payload)


def _same(value: Any) -> Any:
    return value


def _over_values(convert: Callable) -> Callable:
    return lambda mapping: dict(zip(mapping, map(convert, mapping.values())))


@lru_cache(maxsize=None)
def _compile(tp: Any) -> tuple[Callable, Callable]:
    if tp in _LEAVES:
        return _same, _same
    if is_dataclass(tp):
        return _compile_dataclass(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and args[1:] == (type(None),):
        enc, dec = _compile(args[0])
        return (lambda v: None if v is None else enc(v)), (lambda p: None if p is None else dec(p))
    if origin is dict and args[0] is str:
        enc, dec = _compile(args[1])
        return (dict, dict) if enc is _same else (_over_values(enc), _over_values(dec))
    # tuple[T, ...] and tuple[T, T] are both "of T".
    if origin in _CONTAINERS and len(members := set(args) - {Ellipsis}) == 1:
        (enc, dec), (flatten, build) = _compile(members.pop()), _CONTAINERS[origin]
        if enc is _same:
            return flatten, build
        return (lambda v: flatten(map(enc, v))), (lambda p: build(map(dec, p)))
    raise TypeError(f"no durable encoding for {tp!r}")


def _compile_dataclass(tp: type) -> tuple[Callable, Callable]:
    hints = typing.get_type_hints(tp)
    specs = [spec for spec in fields(tp) if spec.init]
    codecs = {spec.name: _compile(hints[spec.name]) for spec in specs}
    required = {s.name for s in specs if s.default is MISSING and s.default_factory is MISSING}

    def enc(value: Any) -> dict[str, Any]:
        return {name: codec[0](getattr(value, name)) for name, codec in codecs.items()}

    def dec(payload: Any) -> Any:
        if not isinstance(payload, dict):
            raise ValueError(f"{tp.__name__}: expected an object, got {type(payload).__name__}")
        unknown, missing = payload.keys() - codecs.keys(), required - payload.keys()
        if unknown or missing:
            raise ValueError(f"{tp.__name__}: unknown {sorted(unknown)}, missing {sorted(missing)}")
        return tp(**{name: codecs[name][1](item) for name, item in payload.items()})

    return enc, dec
