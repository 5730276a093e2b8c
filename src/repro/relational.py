"""The one table behind each deep-web site, and the predicates its form
compiles to.

A site is one HTML form over one backend table (§3 of the paper).  This
module holds a typed :class:`TableSchema` that validates rows, the
conjunctive predicates a submission compiles to (select menus become
:class:`Eq`, min/max pairs :class:`Range`, zip boxes :class:`Prefix`, search
boxes :class:`Contains`, several inputs :class:`And`), and an immutable
:class:`Table` whose :meth:`Table.page` answers one results page.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.util.text import tokenize

Row = dict[str, Any]


class SchemaError(ValueError):
    """A schema definition or a row violates the schema, or a column is unknown."""


class DataType(enum.Enum):
    """What deep-web forms expose: free text, categorical strings (select
    menus), numbers (ranges), ISO dates and zip codes (strings, to keep
    leading zeros)."""

    TEXT = "text"
    CATEGORY = "category"
    INTEGER = "integer"
    FLOAT = "float"
    DATE = "date"
    ZIPCODE = "zipcode"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INTEGER, DataType.FLOAT)


#: Python types a column accepts; every other data type holds strings.
_PYTHON_TYPES = {DataType.INTEGER: int, DataType.FLOAT: (int, float)}


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    dtype: DataType

    def validate_value(self, value: Any) -> None:
        """Raise :class:`SchemaError` if ``value`` is not valid for this column."""
        if value is None:
            return
        if isinstance(value, bool):
            raise SchemaError(f"column {self.name!r} does not accept booleans")
        if not isinstance(value, _PYTHON_TYPES.get(self.dtype, str)):
            raise SchemaError(
                f"column {self.name!r} expects {self.dtype.value}, got {type(value).__name__}"
            )


@dataclass
class TableSchema:
    """An ordered collection of columns with a designated primary key."""

    name: str
    columns: list[Column] = field(default_factory=list)
    primary_key: str = "id"

    def __post_init__(self) -> None:
        self._by_name = {column.name: column for column in self.columns}
        if len(self._by_name) != len(self.columns):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        if self.columns and self.primary_key not in self._by_name:
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )

    def column(self, name: str) -> Column:
        """Look up a column by name, raising :class:`SchemaError` if absent."""
        column = self._by_name.get(name)
        if column is None:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return column

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def validate_row(self, row: Mapping[str, Any]) -> None:
        """Every key must be a known column and every value must match its
        column type.  Missing columns are NULL, except the primary key."""
        if row.get(self.primary_key) is None:
            raise SchemaError(f"row is missing primary key {self.primary_key!r}")
        for key, value in row.items():
            self.column(key).validate_value(value)


# Memoized token sets for Contains scans.  Column values repeat heavily
# across rows and queries, and every search-box submission re-scans the
# table, so tokenizing each value once is the biggest win in query
# execution.  The cache is cleared wholesale when it outgrows its cap.
_TOKEN_SET_CACHE: dict[str, frozenset[str]] = {}
_TOKEN_SET_CACHE_MAX = 65536


def _token_set(value: str) -> frozenset[str]:
    tokens = _TOKEN_SET_CACHE.get(value)
    if tokens is None:
        if len(_TOKEN_SET_CACHE) >= _TOKEN_SET_CACHE_MAX:
            _TOKEN_SET_CACHE.clear()
        tokens = frozenset(tokenize(value))
        _TOKEN_SET_CACHE[value] = tokens
    return tokens


def _fold(value: Any) -> Any:
    """The case-insensitive form of a string value; other values as they are."""
    return value.strip().lower() if isinstance(value, str) else value


class Predicate:
    """A row filter: every subclass has ``matches(row) -> bool``."""


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Matches every row; the predicate of an empty form submission."""

    def matches(self, row: Mapping[str, Any]) -> bool:
        return True


@dataclass(frozen=True)
class Eq(Predicate):
    """Column equality.  String comparisons are case-insensitive, matching
    how real form backends treat select-menu values."""

    column: str
    value: Any

    def __post_init__(self) -> None:
        folded = _fold(self.value) if isinstance(self.value, str) else None
        object.__setattr__(self, "_value_folded", folded)

    def matches(self, row: Mapping[str, Any]) -> bool:
        actual = row.get(self.column)
        if actual is None:
            return False
        if isinstance(actual, str) and self._value_folded is not None:
            return actual.strip().lower() == self._value_folded
        return actual == self.value


@dataclass(frozen=True)
class Range(Predicate):
    """Inclusive numeric range; either bound may be None (open-ended).  An
    inverted range (low > high) matches nothing: the paper's "invalid range"
    from independently chosen min/max values."""

    column: str
    low: float | None = None
    high: float | None = None

    def matches(self, row: Mapping[str, Any]) -> bool:
        value = row.get(self.column)
        if value is None or isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True


@dataclass(frozen=True)
class Prefix(Predicate):
    """Case-insensitive string prefix: a zip-code input matches its 3-digit
    region, as locator backends return results "near" the submitted zip."""

    column: str
    prefix: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "_prefix_folded", self.prefix.strip().lower())

    def matches(self, row: Mapping[str, Any]) -> bool:
        value = row.get(self.column)
        if value is None:
            return False
        return str(value).strip().lower().startswith(self._prefix_folded)


@dataclass(frozen=True)
class Contains(Predicate):
    """Keyword containment over one or more text columns: every keyword must
    appear, as a whole token, in some listed column -- a site search box."""

    columns_searched: tuple[str, ...]
    keywords: tuple[str, ...]

    def __init__(self, columns_searched: Iterable[str], keywords: str) -> None:
        object.__setattr__(self, "columns_searched", tuple(columns_searched))
        object.__setattr__(self, "keywords", tuple(tokenize(keywords)))

    def matches(self, row: Mapping[str, Any]) -> bool:
        if not self.keywords:
            return True
        if len(self.keywords) == 1:
            # Most submissions carry one keyword: no per-row working set.
            keyword = self.keywords[0]
            for column in self.columns_searched:
                value = row.get(column)
                if value is not None and keyword in _token_set(str(value)):
                    return True
            return False
        # Subtracting per column exits early once every keyword is found.
        remaining = set(self.keywords)
        for column in self.columns_searched:
            value = row.get(column)
            if value is None:
                continue
            remaining -= _token_set(str(value))
            if not remaining:
                return True
        return not remaining


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of predicates; nested conjunctions flatten and
    :class:`TruePredicate` parts drop out."""

    parts: tuple[Predicate, ...] = ()

    def __init__(self, parts: Sequence[Predicate]) -> None:
        flattened: list[Predicate] = []
        for part in parts:
            if isinstance(part, And):
                flattened.extend(part.parts)
            elif not isinstance(part, TruePredicate):
                flattened.append(part)
        object.__setattr__(self, "parts", tuple(flattened))
        # Evaluation order for the row scan: cheap, selective predicates
        # first (a conjunction is order-independent, so this only affects
        # speed).  The public ``parts`` tuple keeps the authored order.
        cost = {Eq: 0, Range: 1, Prefix: 2}
        scan_order = sorted(flattened, key=lambda part: cost.get(type(part), 9))
        object.__setattr__(self, "_scan_order", tuple(scan_order))

    def matches(self, row: Mapping[str, Any]) -> bool:
        for part in self._scan_order:
            if not part.matches(row):
                return False
        return True


def _sort_key(value: Any) -> tuple[int, Any]:
    """Sort key tolerant of None and mixed types (None sorts first)."""
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (1, value)
    return (2, str(value).lower())


class Table:
    """Validated rows in insertion order, a primary-key map, and every
    results-page order computed once, at construction.

    Pages sort ascending by ``order_by``; ties keep insertion order.  Each
    ``indexed`` column maps a case-folded value to its rows already in page
    order, so an :class:`Eq` on it (a select menu) sorts nothing.  Inside an
    index list, ties keep the order of a ``set`` of their primary keys, as
    the index always listed them: served pages depend on it.  Rows are
    shared, not copied: treat them as read-only.
    """

    def __init__(
        self,
        schema: TableSchema,
        rows: Iterable[Mapping[str, Any]],
        indexed: Iterable[str],
        order_by: str,
    ) -> None:
        self.schema = schema
        self.name = schema.name
        self.order_by = order_by
        by_key: dict[Any, Row] = {}
        for source in rows:
            row = dict(source)
            schema.validate_row(row)
            key = row[schema.primary_key]
            if key in by_key:
                raise SchemaError(f"duplicate primary key {key!r} in table {self.name!r}")
            by_key[key] = row
        self._by_key = by_key
        self.rows: tuple[Row, ...] = tuple(by_key.values())
        schema.column(self.order_by)
        self._ordered = self._sorted(self.rows)
        self._indexes: dict[str, dict[Any, list[Row]]] = {}
        for column in indexed:
            schema.column(column)
            keys_by_value: dict[Any, set[Any]] = {}
            for key, row in by_key.items():
                keys_by_value.setdefault(_fold(row.get(column)), set()).add(key)
            self._indexes[column] = {
                value: self._sorted(by_key[key] for key in keys)
                for value, keys in keys_by_value.items()
            }

    def _sorted(self, rows: Iterable[Row]) -> list[Row]:
        order = self.order_by
        return sorted(rows, key=lambda row: _sort_key(row.get(order)))

    def get(self, primary_key: Any) -> Row | None:
        """The row with ``primary_key``, or None."""
        return self._by_key.get(primary_key)

    def primary_keys(self) -> list[Any]:
        """Every primary key, in insertion order."""
        return list(self._by_key)

    def distinct_values(self, column: str) -> list[Any]:
        """Distinct non-null values of a column, in insertion order."""
        self.schema.column(column)
        values = (row.get(column) for row in self.rows)
        return list(dict.fromkeys(value for value in values if value is not None))

    def column_statistics(self, column: str) -> dict[str, Any]:
        """Count, distinct count and, for numbers, min / max / mean."""
        values = [row.get(column) for row in self.rows if row.get(column) is not None]
        stats: dict[str, Any] = {"count": len(values), "distinct": len(set(map(_fold, values)))}
        numeric = [v for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if numeric:
            stats["min"] = min(numeric)
            stats["max"] = max(numeric)
            stats["mean"] = sum(numeric) / len(numeric)
        return stats

    def page(self, predicate: Predicate, offset: int, limit: int) -> tuple[list[Row], int]:
        """``(rows, total)``: the ``limit`` matching rows from ``offset >= 0`` on,
        in page order, and how many match.  An :class:`Eq` on an indexed
        column (alone or the first in an :class:`And`) reads its index list
        and filters it by the rest; other predicates filter the sorted rows."""
        matched = self._matching(predicate)
        return matched[offset : offset + limit], len(matched)

    def _matching(self, predicate: Predicate) -> list[Row]:
        if isinstance(predicate, TruePredicate):
            return self._ordered
        parts = predicate.parts if isinstance(predicate, And) else (predicate,)
        for part in parts:
            if isinstance(part, Eq) and part.column in self._indexes:
                rows = self._indexes[part.column].get(_fold(part.value), [])
                rest = [other for other in parts if other is not part]
                if not rest:
                    return rows
                check = (rest[0] if len(rest) == 1 else And(rest)).matches
                return [row for row in rows if check(row)]
        matches = predicate.matches
        return [row for row in self._ordered if matches(row)]
