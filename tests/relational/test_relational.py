"""Tests for the site table: schema validation, predicates, and result pages."""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datagen.domains import domain, domain_names
from repro.relational import (
    And,
    Column,
    Contains,
    DataType,
    Eq,
    Prefix,
    Range,
    SchemaError,
    Table,
    TableSchema,
    TruePredicate,
    _fold,
    _sort_key,
)
from repro.util.rng import SeededRng
from repro.util.text import tokenize
from repro.webspace.sitegen import build_deep_site

ROW = {
    "id": 7,
    "make": "Toyota",
    "model": "Camry",
    "price": 8500,
    "year": 2003,
    "zipcode": "02139",
    "title": "2003 Toyota Camry sedan",
    "description": "clean title excellent condition located in Austin",
}


class TestPredicates:
    def test_true_predicate_matches_everything(self):
        assert TruePredicate().matches(ROW)
        assert TruePredicate().matches({})

    def test_eq_folds_case_and_space_for_strings(self):
        assert Eq("make", "toyota").matches(ROW)
        assert Eq("make", " TOYOTA ").matches(ROW)
        assert not Eq("make", "Honda").matches(ROW)

    def test_eq_on_numbers_and_missing_columns(self):
        assert Eq("price", 8500).matches(ROW)
        assert not Eq("price", 8501).matches(ROW)
        assert not Eq("color", "red").matches(ROW)

    def test_range_bounds_are_inclusive_and_open_ended(self):
        assert Range("price", low=8500, high=8500).matches(ROW)
        assert Range("price", high=10000).matches(ROW)
        assert not Range("price", high=1000).matches(ROW)
        assert Range("price", low=5000).matches(ROW)
        assert not Range("price", low=9000).matches(ROW)

    def test_inverted_range_matches_nothing(self):
        assert not Range("price", low=9000, high=1000).matches(ROW)

    def test_range_needs_a_number(self):
        assert not Range("make", low=0, high=10).matches(ROW)
        assert not Range("mileage", low=0, high=10**6).matches(ROW)

    def test_prefix_is_case_insensitive_and_misses_missing_columns(self):
        assert Prefix("zipcode", "021").matches(ROW)
        assert Prefix("make", "toy").matches(ROW)
        assert not Prefix("zipcode", "100").matches(ROW)
        assert not Prefix("city", "aus").matches(ROW)

    def test_contains_single_keyword(self):
        assert Contains(["description"], "austin").matches(ROW)
        assert Contains(["make"], "TOYOTA").matches(ROW)
        assert not Contains(["description"], "dallas").matches(ROW)

    def test_contains_needs_every_keyword_in_some_column(self):
        assert Contains(["title", "description"], "toyota austin").matches(ROW)
        assert not Contains(["title", "description"], "toyota dallas").matches(ROW)
        assert not Contains(["title"], "toyota austin").matches(ROW)

    def test_contains_without_keywords_matches_everything(self):
        assert Contains(["title"], "").matches(ROW)

    def test_and_needs_every_part(self):
        assert And([Eq("make", "Toyota"), Range("price", low=8000, high=9000)]).matches(ROW)
        assert not And([Eq("make", "Toyota"), Eq("model", "Civic")]).matches(ROW)
        assert And([]).matches(ROW)

    def test_and_flattens_nested_ands_and_drops_true_parts(self):
        inner = Eq("make", "Toyota")
        nested = And([And([inner]), TruePredicate(), Contains(["title"], "sedan")])
        assert len(nested.parts) == 2
        assert nested.parts[0] is inner

    def test_and_scans_equalities_first_but_keeps_authored_parts(self):
        parts = [Contains(["title"], "sedan"), Range("price", low=1), Eq("make", "Toyota")]
        predicate = And(parts)
        assert predicate.parts == tuple(parts)
        assert [type(part) for part in predicate._scan_order] == [Eq, Range, Contains]

    @given(
        value=st.integers(min_value=-1000, max_value=1000),
        low=st.integers(min_value=-1000, max_value=1000),
        high=st.integers(min_value=-1000, max_value=1000),
    )
    def test_range_matches_iff_value_within(self, value, low, high):
        assert Range("x", low=low, high=high).matches({"x": value}) == (low <= value <= high)


def make_schema() -> TableSchema:
    return TableSchema(
        name="cars",
        columns=[
            Column("id", DataType.INTEGER),
            Column("title", DataType.TEXT),
            Column("make", DataType.CATEGORY),
            Column("price", DataType.INTEGER),
            Column("zipcode", DataType.ZIPCODE),
        ],
    )


CARS = [
    {"id": 1, "title": "red camry", "make": "Toyota", "price": 5000},
    {"id": 2, "title": "blue civic", "make": "Honda", "price": 7000},
    {"id": 3, "title": "silver prius", "make": "Toyota", "price": 9000},
    {"id": 4, "title": "old focus", "make": "Ford", "price": 3000},
    {"id": 5, "title": "Blue Civic", "make": "honda", "price": None},
]


def make_table() -> Table:
    return Table(make_schema(), CARS, ["make"], "title")


class TestSchema:
    def test_numeric_data_types(self):
        assert DataType.INTEGER.is_numeric and DataType.FLOAT.is_numeric
        assert not DataType.TEXT.is_numeric and not DataType.ZIPCODE.is_numeric

    def test_column_accepts_its_types_and_null(self):
        Column("price", DataType.INTEGER).validate_value(100)
        Column("title", DataType.TEXT).validate_value("hello")
        Column("zip", DataType.ZIPCODE).validate_value("02139")
        Column("score", DataType.FLOAT).validate_value(1.5)
        Column("score", DataType.FLOAT).validate_value(2)
        Column("price", DataType.INTEGER).validate_value(None)

    @pytest.mark.parametrize(
        "dtype, value",
        [(DataType.INTEGER, "100"), (DataType.TEXT, 5), (DataType.INTEGER, True)],
    )
    def test_column_rejects_other_types_and_booleans(self, dtype, value):
        with pytest.raises(SchemaError):
            Column("c", dtype).validate_value(value)

    def test_duplicate_columns_and_a_missing_primary_key_are_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(name="t", columns=[Column("id", DataType.INTEGER), Column("id", DataType.TEXT)])
        with pytest.raises(SchemaError):
            TableSchema(name="t", columns=[Column("a", DataType.TEXT)], primary_key="id")

    def test_column_lookup(self):
        schema = make_schema()
        assert schema.column("make").dtype is DataType.CATEGORY
        assert "mileage" not in schema.column_names
        assert schema.column_names[:3] == ["id", "title", "make"]
        with pytest.raises(SchemaError):
            schema.column("nonexistent")

    @pytest.mark.parametrize(
        "row",
        [{"title": "no key"}, {"id": None}, {"id": 1, "mileage": 5}, {"id": 1, "price": "cheap"}],
    )
    def test_rows_are_validated(self, row):
        with pytest.raises(SchemaError):
            make_schema().validate_row(row)
        with pytest.raises(SchemaError):
            Table(make_schema(), [row], (), "id")

    def test_partial_rows_are_valid(self):
        make_schema().validate_row({"id": 1, "title": "ok"})

    def test_duplicate_primary_keys_are_rejected(self):
        with pytest.raises(SchemaError):
            Table(make_schema(), [{"id": 1}, {"id": 1}], (), "id")

    def test_unknown_index_or_order_column_is_rejected(self):
        with pytest.raises(SchemaError):
            Table(make_schema(), CARS, ["color"], "title")
        with pytest.raises(SchemaError):
            Table(make_schema(), CARS, (), "color")


class TestTable:
    def test_rows_and_keys_keep_insertion_order(self):
        table = make_table()
        assert [row["id"] for row in table.rows] == table.primary_keys() == [1, 2, 3, 4, 5]
        assert table.get(2)["make"] == "Honda"
        assert table.get(99) is None

    def test_distinct_values_keep_insertion_order(self):
        assert make_table().distinct_values("make") == ["Toyota", "Honda", "Ford", "honda"]
        with pytest.raises(SchemaError):
            make_table().distinct_values("color")

    def test_column_statistics(self):
        price = make_table().column_statistics("price")
        assert (price["count"], price["distinct"], price["min"], price["max"]) == (4, 4, 3000, 9000)
        assert price["mean"] == pytest.approx(6000)
        make = make_table().column_statistics("make")
        assert (make["count"], make["distinct"]) == (5, 3)
        assert "min" not in make

    def test_page_orders_by_title_with_ties_in_insertion_order(self):
        rows, total = make_table().page(TruePredicate(), 0, 10)
        assert total == 5
        assert [row["id"] for row in rows] == [2, 5, 4, 1, 3]

    def test_page_slices_and_counts(self):
        table = make_table()
        rows, total = table.page(Range("price", low=4000), 1, 1)
        assert (total, [row["id"] for row in rows]) == (3, [1])
        assert table.page(TruePredicate(), 50, 10) == ([], 5)

    def test_an_indexed_eq_reads_its_folded_index_list(self):
        table = make_table()
        rows, total = table.page(Eq("make", " HONDA"), 0, 10)
        assert total == 2 and {row["id"] for row in rows} == {2, 5}
        rows, total = table.page(And([Eq("make", "toyota"), Range("price", low=6000)]), 0, 10)
        assert (total, [row["id"] for row in rows]) == (1, [3])
        assert table.page(Eq("make", "Kia"), 0, 10) == ([], 0)

    def test_none_sorts_first(self):
        rows, _ = Table(make_schema(), CARS, (), "price").page(TruePredicate(), 0, 1)
        assert rows[0]["id"] == 5

    def test_contains_page_keeps_title_order(self):
        rows, total = make_table().page(Contains(["title"], "civic"), 0, 10)
        assert (total, [row["id"] for row in rows]) == (2, [2, 5])

    def test_indexed_and_unindexed_eq_pages_agree(self):
        indexed, plain = make_table(), Table(make_schema(), CARS, (), "title")
        for make in ("Toyota", "honda", "FORD", "Kia"):
            rows, total = indexed.page(Eq("make", make), 0, 10)
            plain_rows, plain_total = plain.page(Eq("make", make), 0, 10)
            assert total == plain_total
            assert {row["id"] for row in rows} == {row["id"] for row in plain_rows}

    @given(
        prices=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=50, unique=True),
        low=st.integers(min_value=0, max_value=10**6),
        high=st.integers(min_value=0, max_value=10**6),
    )
    def test_range_page_equals_filter(self, prices, low, high):
        schema = TableSchema(
            name="t", columns=[Column("id", DataType.INTEGER), Column("price", DataType.INTEGER)]
        )
        table = Table(schema, ({"id": i, "price": p} for i, p in enumerate(prices)), (), "price")
        rows, total = table.page(Range("price", low=low, high=high), 0, len(prices))
        expected = sorted(p for p in prices if low <= p <= high)
        assert total == len(expected)
        assert [row["price"] for row in rows] == expected


# -- pages of built sites against a naive reference ----------------------------


@lru_cache(maxsize=None)
def _site(domain_name: str):
    return build_deep_site(
        domain(domain_name), f"{domain_name}.relational.test", 150, SeededRng(f"rel-{domain_name}")
    )


def _reference(table: Table, predicate) -> list[dict]:
    """``sorted(filter(all rows), key=title)``.  When the page comes from an
    index list, ties on the title take the order of a ``set`` of that index
    value's primary keys instead of insertion order (see :class:`Table`)."""
    matched = [row for row in table.rows if predicate.matches(row)]
    parts = predicate.parts if isinstance(predicate, And) else (predicate,)
    indexed = next(
        (p for p in parts if isinstance(p, Eq) and p.column in table._indexes), None
    )
    tie = {}
    if indexed is not None:
        keys = set()
        for row in table.rows:
            if _fold(row.get(indexed.column)) == _fold(indexed.value):
                keys.add(row["id"])
        tie = {key: position for position, key in enumerate(keys)}
    return sorted(
        matched, key=lambda row: (_sort_key(row.get(table.order_by)), tie.get(row["id"], 0))
    )


class TestPagesMatchANaiveReference:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(domain_name=st.sampled_from(sorted(domain_names())), data=st.data())
    def test_page_equals_sorted_filter_slice(self, domain_name, data):
        site = _site(domain_name)
        table, form = site.table, site.forms[0]
        selects = [spec for spec in form.inputs if spec.role == "select"]
        others = [spec for spec in form.inputs if spec.role != "select"]
        params = {}
        if selects and data.draw(st.booleans(), label="indexed Eq first"):
            spec = data.draw(st.sampled_from(selects))
            params[spec.name] = data.draw(st.sampled_from(list(spec.options)))
        for spec in data.draw(st.lists(st.sampled_from(others), max_size=3, unique_by=id)):
            if spec.options:
                params[spec.name] = data.draw(st.sampled_from(list(spec.options)))
            else:
                row = table.rows[data.draw(st.integers(0, len(table.rows) - 1))]
                text = str(row.get(spec.column or "description", ""))
                params[spec.name] = data.draw(st.sampled_from([text, *tokenize(text), "zzqx"]))
        predicate = site.compile_predicate(form, params)
        expected = _reference(table, predicate)
        per_page = form.results_per_page
        middle = (len(expected) // per_page // 2) * per_page
        for offset in {0, middle}:
            rows, total = table.page(predicate, offset, per_page)
            assert total == len(expected)
            assert rows == expected[offset : offset + per_page]


def _ids(rows) -> set:
    return {row["id"] for row in rows}


def _in_title_order(table: Table, rows) -> bool:
    keys = [_sort_key(row.get(table.order_by)) for row in rows]
    return keys == sorted(keys)


def _select_bindings(site):
    """Every (input, option) pair of the site's select menus."""
    form = site.forms[0]
    return [
        (spec, option)
        for spec in form.inputs
        if spec.role == "select"
        for option in spec.options
    ]


@pytest.mark.parametrize("domain_name", sorted(domain_names()))
class TestBuiltSiteTables:
    def test_empty_submission_pages_every_row_in_title_order(self, domain_name):
        table = _site(domain_name).table
        rows, total = table.page(TruePredicate(), 0, len(table.rows))
        assert total == len(table.rows)
        assert rows == sorted(table.rows, key=lambda row: _sort_key(row.get(table.order_by)))

    def test_every_select_option_pages_exactly_its_rows(self, domain_name):
        site = _site(domain_name)
        table, form = site.table, site.forms[0]
        for spec, option in _select_bindings(site):
            predicate = site.compile_predicate(form, {spec.name: option})
            rows, total = table.page(predicate, 0, len(table.rows))
            expected = [row for row in table.rows if predicate.matches(row)]
            assert total == len(expected) > 0
            assert _ids(rows) == _ids(expected)
            assert _in_title_order(table, rows)

    def test_select_eq_with_a_keyword_filters_its_index_list(self, domain_name):
        site = _site(domain_name)
        table, form = site.table, site.forms[0]
        keyword = tokenize(str(table.rows[0][table.order_by]))[0]
        search = Contains(form.search_columns, keyword)
        for spec, option in _select_bindings(site):
            predicate = And([Eq(spec.column, option), search])
            rows, total = table.page(predicate, 0, len(table.rows))
            expected = [row for row in table.rows if predicate.matches(row)]
            assert total == len(expected)
            assert _ids(rows) == _ids(expected)
            assert _in_title_order(table, rows)

    def test_index_lists_partition_the_rows(self, domain_name):
        table = _site(domain_name).table
        assert set(table._indexes) == set(domain(domain_name).select_inputs)
        for column, lists in table._indexes.items():
            listed = [row["id"] for rows in lists.values() for row in rows]
            assert sorted(listed) == sorted(table.primary_keys())
            for value, rows in lists.items():
                assert all(_fold(row.get(column)) == value for row in rows)
                assert _in_title_order(table, rows)

    def test_consecutive_pages_cover_the_matches_once(self, domain_name):
        site = _site(domain_name)
        table, form = site.table, site.forms[0]
        spec, option = _select_bindings(site)[0]
        per_page = form.results_per_page
        for predicate in (TruePredicate(), site.compile_predicate(form, {spec.name: option})):
            everything, total = table.page(predicate, 0, len(table.rows))
            walked, offset = [], 0
            while True:
                rows, page_total = table.page(predicate, offset, per_page)
                assert page_total == total
                if not rows:
                    break
                assert len(rows) <= per_page
                walked.extend(rows)
                offset += per_page
            assert walked == everything
            assert len(walked) == total

    def test_select_options_are_the_distinct_values(self, domain_name):
        site = _site(domain_name)
        table = site.table
        for spec in site.forms[0].inputs:
            if spec.role != "select":
                continue
            values = table.distinct_values(spec.column)
            first_seen = list(dict.fromkeys(
                row[spec.column] for row in table.rows if row.get(spec.column) is not None
            ))
            assert values == first_seen
            assert spec.options == tuple(sorted(str(value) for value in values))

    def test_ground_truth_is_the_primary_keys(self, domain_name):
        site = _site(domain_name)
        table = site.table
        assert table.primary_keys() == [row["id"] for row in table.rows]
        assert site.ground_truth_ids() == set(table.primary_keys())
        assert site.size() == len(table.rows) == 150
        assert all(table.get(row["id"]) is row for row in table.rows)
