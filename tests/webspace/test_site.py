"""Tests for deep-web sites: form rendering, submission handling, pagination."""

from __future__ import annotations

import pytest

from repro.datagen.domains import domain
from repro.htmlparse import extract_forms, extract_links, extract_text
from repro.relational import And, Contains, Eq, Range, TruePredicate
from repro.util.rng import SeededRng
from repro.webspace.sitegen import build_deep_site
from repro.webspace.url import Url


class TestHomepage:
    def test_homepage_contains_form(self, car_site):
        page = car_site.handle(car_site.homepage_url())
        assert page.ok
        forms = extract_forms(page.html)
        assert len(forms) == 1
        assert forms[0].method == "get"

    def test_homepage_without_browse_links_hides_content(self, car_site):
        page = car_site.handle(car_site.homepage_url())
        links = extract_links(page.html, car_site.homepage_url())
        assert all("/item" not in link for link in links)

    def test_browse_links_expose_some_records(self):
        site = build_deep_site(
            domain("books"), "books.test", 30, SeededRng(1), browse_link_count=3
        )
        page = site.handle(site.homepage_url())
        links = extract_links(page.html, site.homepage_url())
        assert sum("/item" in link for link in links) == 3

    def test_site_size_and_ground_truth(self, car_site):
        assert car_site.size() == 60
        assert len(car_site.ground_truth_ids()) == 60


class TestResultsPage:
    def _form(self, site):
        page = site.handle(site.homepage_url())
        return extract_forms(page.html)[0], site.forms[0]

    def test_select_submission_filters_results(self, car_site):
        parsed, template = self._form(car_site)
        make_input = next(spec for spec in template.inputs if spec.column == "make")
        value = make_input.options[0]
        url = Url.build(car_site.host, template.action_path, {make_input.name: value})
        page = car_site.handle(url)
        assert page.ok
        expected = sum(Eq("make", value).matches(row) for row in car_site.table.rows)
        assert f"{expected} result" in extract_text(page.html)

    def test_no_results_page(self, car_site):
        template = car_site.forms[0]
        search_input = next(spec for spec in template.inputs if spec.role == "search_box")
        url = Url.build(car_site.host, template.action_path, {search_input.name: "zzqx"})
        page = car_site.handle(url)
        assert page.ok
        assert "No results found" in page.html

    def test_empty_submission_returns_everything(self, car_site):
        template = car_site.forms[0]
        url = Url.build(car_site.host, template.action_path, {})
        page = car_site.handle(url)
        assert f"{car_site.size()} results found" in extract_text(page.html)

    def test_pagination_links_cover_all_records(self, car_site):
        template = car_site.forms[0]
        url = Url.build(car_site.host, template.action_path, {})
        seen: set[str] = set()
        for _ in range(20):
            page = car_site.handle(url)
            links = extract_links(page.html, url)
            seen.update(link for link in links if "/item" in link)
            next_links = [link for link in links if "page=" in link]
            if not next_links:
                break
            url = Url.parse(next_links[0])
        assert len(seen) == car_site.size()

    def test_invalid_page_number_defaults_to_first(self, car_site):
        template = car_site.forms[0]
        url = Url.build(car_site.host, template.action_path, {"page": "abc"})
        assert car_site.handle(url).ok

    def test_unknown_params_are_ignored(self, car_site):
        template = car_site.forms[0]
        url = Url.build(car_site.host, template.action_path, {"bogus_param": "1"})
        page = car_site.handle(url)
        assert f"{car_site.size()} results found" in extract_text(page.html)


class TestDetailPage:
    def test_detail_page_renders_record(self, car_site):
        page = car_site.handle(car_site.detail_url(1))
        assert page.ok
        record = car_site.table.get(1)
        assert record["make"] in page.html

    def test_missing_record_is_404(self, car_site):
        assert car_site.handle(car_site.detail_url(99999)).status == 404

    def test_missing_id_is_404(self, car_site):
        assert car_site.handle(Url.build(car_site.host, "/item", {})).status == 404


class TestRequestRouting:
    def test_unknown_path_is_404(self, car_site):
        assert car_site.handle(Url.build(car_site.host, "/nowhere", {})).status == 404

    def test_wrong_host_is_404(self, car_site):
        assert car_site.handle(Url.build("other.example.com", "/", {})).status == 404

    def test_post_form_rejects_get(self):
        site = build_deep_site(domain("jobs"), "jobs.test", 20, SeededRng(2), method="post")
        template = site.forms[0]
        url = Url.build(site.host, template.action_path, {})
        assert site.handle(url).status == 405


class TestPredicateCompilation:
    def test_empty_params_give_true_predicate(self, car_site):
        template = car_site.forms[0]
        predicate = car_site.compile_predicate(template, {})
        assert isinstance(predicate, TruePredicate)

    def test_search_box_becomes_contains(self, car_site):
        template = car_site.forms[0]
        search_input = next(spec for spec in template.inputs if spec.role == "search_box")
        predicate = car_site.compile_predicate(template, {search_input.name: "toyota"})
        assert isinstance(predicate, And) or isinstance(predicate, Contains)

    def test_range_pair_becomes_single_range(self, car_site):
        template = car_site.forms[0]
        min_input = next(spec for spec in template.inputs if spec.role == "range_min" and spec.column == "price")
        max_input = next(spec for spec in template.inputs if spec.role == "range_max" and spec.column == "price")
        predicate = car_site.compile_predicate(
            template, {min_input.name: "1000", max_input.name: "30000"}
        )
        # A lone min/max pair compiles to the Range itself (single-part
        # conjunctions are unwrapped); with other inputs it nests in an And.
        parts = predicate.parts if isinstance(predicate, And) else (predicate,)
        ranges = [part for part in parts if isinstance(part, Range)]
        assert len(ranges) == 1
        assert ranges[0].low == 1000 and ranges[0].high == 30000

    def test_numeric_select_values_are_coerced(self):
        site = build_deep_site(domain("real_estate"), "re.test", 30, SeededRng(3))
        template = site.forms[0]
        bedrooms = next(spec for spec in template.inputs if spec.column == "bedrooms")
        predicate = site.compile_predicate(template, {bedrooms.name: bedrooms.options[0]})
        matched, total = site.table.page(predicate, 0, 30)
        assert total == len(matched) > 0
        assert all(row["bedrooms"] == int(bedrooms.options[0]) for row in matched)

    def test_non_numeric_value_on_numeric_column_matches_nothing(self, car_site):
        template = car_site.forms[0]
        min_input = next(spec for spec in template.inputs if spec.role == "range_min")
        predicate = car_site.compile_predicate(template, {min_input.name: "cheap"})
        assert isinstance(predicate, TruePredicate), "unparseable range value is dropped"

    def test_blank_values_ignored(self, car_site):
        template = car_site.forms[0]
        predicate = car_site.compile_predicate(template, {"make": "   "})
        assert isinstance(predicate, TruePredicate)
