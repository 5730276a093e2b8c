"""Normalized candidate-value pools shared across the surfacing stages.

``sample_bindings``, ``enumerate_bindings`` and ``naive_bindings`` all used
to run the same ``str(value)`` normalization (and blank filtering) once per
*template*; for a form with a dozen informative templates that re-walked
every candidate list a dozen times.  A :class:`ValuePool` runs the pass once
per form and hands out the same tuples to every template.
"""

from __future__ import annotations

from typing import Mapping, Sequence


class ValuePool:
    """A per-form normalized view over ``value_sets``.

    The pool is a read-through cache: lookups normalize lazily and memoize
    per input name.  Wrapping an existing pool is a no-op (:meth:`wrap`),
    so public APIs keep accepting plain mappings while internal call
    chains share one pool per form.
    """

    __slots__ = ("_raw", "_normalized", "_nonblank")

    def __init__(self, value_sets: Mapping[str, Sequence[str]]) -> None:
        self._raw = value_sets
        self._normalized: dict[str, tuple[str, ...]] = {}
        self._nonblank: dict[str, tuple[str, ...]] = {}

    @classmethod
    def wrap(cls, value_sets: "Mapping[str, Sequence[str]] | ValuePool") -> "ValuePool":
        if isinstance(value_sets, ValuePool):
            return value_sets
        return cls(value_sets)

    # -- normalized views ------------------------------------------------------

    def normalized(self, name: str) -> tuple[str, ...]:
        """``str(value)`` for every candidate value of ``name``, in order."""
        cached = self._normalized.get(name)
        if cached is None:
            cached = tuple(str(value) for value in self._raw.get(name, ()))
            self._normalized[name] = cached
        return cached

    def nonblank(self, name: str) -> tuple[str, ...]:
        """:meth:`normalized`, minus values that are empty once stripped."""
        cached = self._nonblank.get(name)
        if cached is None:
            values = self.normalized(name)
            stripped = tuple(value for value in values if value.strip())
            cached = values if len(stripped) == len(values) else stripped
            self._nonblank[name] = cached
        return cached
