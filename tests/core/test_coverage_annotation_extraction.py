"""Tests for coverage estimation, page annotations and record extraction."""

from __future__ import annotations

import pytest

from repro.core.annotation import PageAnnotation, annotation_for_bindings
from repro.core.coverage import CoverageEstimator, coverage_curve
from repro.core.extraction import extract_result_records
from repro.webspace.page import WebPage
from repro.webspace.url import Url
from repro.webtables.corpus import TableCorpus


class TestCoverageEstimator:
    def _record_sets(self, car_site, car_prober, car_form, column_index: int = 0):
        select = car_form.select_inputs[column_index]
        sets = []
        for option in select.options:
            result = car_prober.probe(car_form, {select.name: option})
            sets.append(result.signature.record_ids)
        return sets

    def test_distinct_records_union(self):
        estimator = CoverageEstimator()
        sets = [frozenset({"a", "b"}), frozenset({"b", "c"})]
        assert estimator.distinct_records(sets) == {"a", "b", "c"}

    def test_high_coverage_via_make_enumeration(self, car_site, car_prober, car_form):
        estimator = CoverageEstimator()
        sets = self._record_sets(car_site, car_prober, car_form)
        report = estimator.report(car_site, sets)
        assert report.true_total == car_site.size()
        # Each result page lists at most one page of results, so enumeration
        # over one select covers most (not necessarily all) of the site.
        assert report.records_surfaced >= 0.85 * car_site.size()
        assert report.true_coverage >= 0.85
        assert report.lower_bound > 0.7
        assert "more than" in report.statement()

    def test_partial_coverage(self, car_site, car_prober, car_form):
        estimator = CoverageEstimator()
        sets = self._record_sets(car_site, car_prober, car_form)[:3]
        report = estimator.report(car_site, sets)
        assert 0 < report.records_surfaced < car_site.size()
        assert report.true_coverage < 1.0
        assert report.lower_bound <= report.true_coverage + 0.15

    def test_capture_recapture_brackets_truth(self, car_site, car_prober, car_form):
        # Two *overlapping* capture occasions: one enumerates makes, the other
        # colors.  Both see most of the site, so recaptures are plentiful and
        # the Chapman estimate lands near the true size.
        estimator = CoverageEstimator()
        by_make = self._record_sets(car_site, car_prober, car_form, column_index=0)
        by_color = self._record_sets(car_site, car_prober, car_form, column_index=1)
        estimate = estimator.capture_recapture(by_make, by_color)
        assert estimate.recaptured > 0
        assert estimate.estimate == pytest.approx(car_site.size(), rel=0.35)

    def test_empty_surfacing_report(self, car_site):
        report = CoverageEstimator().report(car_site, [])
        assert report.records_surfaced == 0
        assert report.estimated_total is None
        assert report.lower_bound == pytest.approx(0.0, abs=0.1)

    def test_coverage_curve_monotone(self, car_site, car_prober, car_form):
        sets = self._record_sets(car_site, car_prober, car_form)
        points = coverage_curve(car_site, sets, step=2)
        coverages = [point.true_coverage for point in points]
        assert coverages == sorted(coverages)
        assert points[-1].urls_fetched == len(sets)


class TestAnnotations:
    def test_annotation_from_bindings(self):
        annotation = annotation_for_bindings({"make": "Honda", "zip": "02139", "empty": " "}, domain="used_cars")
        assert annotation.as_dict["make"] == "Honda"
        assert annotation.as_dict["domain"] == "used_cars"
        assert "empty" not in annotation.as_dict

    def test_empty_annotation(self):
        annotation = PageAnnotation()
        assert annotation.as_dict == {}

class TestExtraction:
    def test_extract_result_records_from_site_page(self, car_site, car_web, car_form):
        make_input = car_form.select_inputs[0]
        url = car_form.submission_url({make_input.name: make_input.options[0]})
        page = car_web.fetch(url)
        records = extract_result_records(page.html)
        assert records
        for record in records:
            assert record.title
            assert record.record_id
            assert record.fields.get("make", "").lower() == make_input.options[0].lower()

    def test_detail_page_harvests_its_record(self, car_site, car_web):
        page = car_web.fetch(car_site.detail_url(5))
        corpus = TableCorpus()
        assert corpus.add_page(page) == 1
        table = corpus.tables[0]
        record = dict(zip(table.attributes, table.values[0]))
        truth = car_site.table.get(5)
        assert table.source_kind == "detail_page"
        assert record["make"] == truth["make"]
        assert int(record["price"]) == truth["price"]

    def test_page_without_a_table_harvests_nothing(self):
        html = "<html><body><p>nothing here</p></body></html>"
        assert TableCorpus().add_page(WebPage(url="http://cars.test/", html=html)) == 0

    def test_extraction_accuracy_against_ground_truth(self, car_site, car_web, car_form):
        make_input = car_form.select_inputs[0]
        url = car_form.submission_url({make_input.name: make_input.options[0]})
        page = car_web.fetch(url)
        records = extract_result_records(page.html)
        titles = {str(row["title"]).strip().lower() for row in car_site.table.rows}
        found = sum(1 for record in records if record.title.strip().lower() in titles)
        assert found / len(records) > 0.9

    def test_wrapper_induction_without_result_class(self):
        html = (
            "<html><body>"
            '<div class="row"><h3><a href="/item?id=1">First</a></h3><p>price: 5</p></div>'
            '<div class="row"><h3><a href="/item?id=2">Second</a></h3><p>price: 7</p></div>'
            "</body></html>"
        ).replace('class="row"', 'class="listing"')
        records = extract_result_records(html)
        assert len(records) == 2
        assert {record.title for record in records} == {"First", "Second"}

    def test_a_detail_href_that_is_not_a_url_names_no_record(self):
        html = (
            '<div class="result"><a href="http://[x/item?id=1">Bad</a><p>price: 5</p></div>'
            '<div class="result"><a href="/item?id=2">Good</a><p>price: 7</p></div>'
        )
        records = extract_result_records(html)
        assert [(record.title, record.record_id) for record in records] == [
            ("Bad", ""),
            ("Good", "2"),
        ]
        assert records[0].detail_url == "http://[x/item?id=1"
