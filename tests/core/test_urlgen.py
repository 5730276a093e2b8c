"""Tests for URL generation, range awareness and the indexability criterion."""

from __future__ import annotations

import pytest

from repro.core.correlations import CorrelationDetector, RangePair
from repro.core.templates import QueryTemplate
from repro.core.urlgen import GeneratedUrl, IndexabilityCriterion, UrlGenerator


class TestIndexabilityCriterion:
    def test_band_bounds_are_inclusive(self):
        criterion = IndexabilityCriterion(min_results=1, max_results=50)
        assert [criterion.classify(n) for n in (0, 1, 50, 51)] == [
            "too_few", "indexable", "indexable", "too_many"
        ]

    def test_classify(self):
        criterion = IndexabilityCriterion(min_results=2, max_results=10)
        assert criterion.classify(0) == "too_few"
        assert criterion.classify(5) == "indexable"
        assert criterion.classify(100) == "too_many"


class TestRangeAwareEnumeration:
    PAIR = RangePair(
        property_name="price",
        min_input="min_price",
        max_input="max_price",
        options=tuple(str(value) for value in range(1000, 11000, 1000)),  # 10 values
    )

    def test_naive_enumeration_is_quadratic(self):
        generator = UrlGenerator(max_urls_per_template=1000)
        template = QueryTemplate(("min_price", "max_price"))
        values = {"min_price": list(self.PAIR.options), "max_price": list(self.PAIR.options)}
        naive = generator.naive_bindings(template, values)
        assert len(naive) == 100

    def test_range_aware_enumeration_is_linear(self):
        generator = UrlGenerator(max_urls_per_template=1000, range_aware=True)
        template = QueryTemplate(("min_price", "max_price"))
        values = {"min_price": list(self.PAIR.options), "max_price": list(self.PAIR.options)}
        bindings = generator.enumerate_bindings(template, values, [self.PAIR])
        assert len(bindings) == 9  # consecutive bucket pairs
        for binding in bindings:
            assert float(binding["min_price"]) <= float(binding["max_price"])

    def test_range_awareness_avoids_inverted_ranges(self):
        generator = UrlGenerator(range_aware=True)
        template = QueryTemplate(("min_price", "max_price"))
        values = {"min_price": list(self.PAIR.options), "max_price": list(self.PAIR.options)}
        naive = generator.naive_bindings(template, values, limit=1000)
        inverted = [b for b in naive if float(b["min_price"]) > float(b["max_price"])]
        assert inverted, "the naive baseline does generate invalid ranges"
        aware = generator.enumerate_bindings(template, values, [self.PAIR])
        assert all(float(b["min_price"]) <= float(b["max_price"]) for b in aware)

    def test_range_awareness_can_be_disabled(self):
        generator = UrlGenerator(range_aware=False, max_urls_per_template=1000)
        template = QueryTemplate(("min_price", "max_price"))
        values = {"min_price": list(self.PAIR.options), "max_price": list(self.PAIR.options)}
        bindings = generator.enumerate_bindings(template, values, [self.PAIR])
        assert len(bindings) == 100

    def test_range_dimension_combines_with_other_inputs(self):
        generator = UrlGenerator(max_urls_per_template=1000)
        template = QueryTemplate(("make", "min_price", "max_price"))
        values = {
            "make": ["Toyota", "Honda"],
            "min_price": list(self.PAIR.options),
            "max_price": list(self.PAIR.options),
        }
        bindings = generator.enumerate_bindings(template, values, [self.PAIR])
        assert len(bindings) == 2 * 9

    def test_non_numeric_options_give_no_buckets(self):
        pair = RangePair("size", "min_size", "max_size", options=("small", "large"))
        generator = UrlGenerator()
        bindings = generator.enumerate_bindings(
            QueryTemplate(("min_size", "max_size")),
            {"min_size": ["small", "large"], "max_size": ["small", "large"]},
            [pair],
        )
        # Falls back to independent enumeration of the two selects.
        assert len(bindings) == 4

    def test_max_values_per_input_cap(self):
        generator = UrlGenerator(max_values_per_input=3, max_urls_per_template=1000)
        bindings = generator.enumerate_bindings(
            QueryTemplate(("make",)), {"make": [str(i) for i in range(50)]}, []
        )
        assert len(bindings) == 3


class TestMaterializeAndFilter:
    def test_materialize_deduplicates(self, car_form):
        generator = UrlGenerator()
        template = QueryTemplate(("make",))
        bindings = [{"make": "Toyota"}, {"make": "Toyota"}, {"make": "Honda"}]
        urls = generator.materialize(car_form, template, bindings)
        assert len(urls) == 2

    def test_generate_for_templates_counts(self, car_form):
        make_input = car_form.select_inputs[0]
        generator = UrlGenerator(max_urls_per_form=500)
        urls, stats = generator.generate_for_templates(
            car_form,
            [QueryTemplate((make_input.name,))],
            {make_input.name: list(make_input.options)},
        )
        assert len(urls) == len(make_input.options)
        assert stats.candidates == len(make_input.options)
        assert stats.after_dedup == len(urls)

    def test_max_urls_per_form_cap(self, car_form):
        make_input = car_form.select_inputs[0]
        color_input = car_form.select_inputs[1]
        generator = UrlGenerator(max_urls_per_form=5)
        urls, _stats = generator.generate_for_templates(
            car_form,
            [QueryTemplate((make_input.name,)), QueryTemplate((color_input.name,))],
            {
                make_input.name: list(make_input.options),
                color_input.name: list(color_input.options),
            },
        )
        assert len(urls) == 5

    def test_filter_indexable_drops_empty_pages(self, car_form, car_prober):
        make_input = car_form.select_inputs[0]
        generator = UrlGenerator(criterion=IndexabilityCriterion(min_results=1, max_results=1000))
        candidates = generator.materialize(
            car_form,
            QueryTemplate((make_input.name,)),
            [{make_input.name: option} for option in make_input.options]
            + [{make_input.name: "Lada"}],  # not in the data: empty results
        )
        kept = generator.filter_indexable(car_form, candidates, car_prober)
        assert len(kept) < len(candidates)
        assert all(candidate.result_count >= 1 for candidate in kept)

    def test_filter_indexable_drops_too_broad_pages(self, car_form, car_prober):
        generator = UrlGenerator(criterion=IndexabilityCriterion(min_results=1, max_results=5))
        candidates = [
            GeneratedUrl(url=car_form.submission_url({}), bindings={}, template=QueryTemplate(())),
        ]
        stats_holder = generator.filter_indexable(car_form, candidates, car_prober)
        assert stats_holder == []  # the empty submission lists every record -> too many

    def test_filter_records_coverage_stats(self, car_form, car_prober):
        make_input = car_form.select_inputs[0]
        generator = UrlGenerator()
        candidates = generator.materialize(
            car_form,
            QueryTemplate((make_input.name,)),
            [{make_input.name: option} for option in make_input.options],
        )
        from repro.core.urlgen import UrlGenerationStats

        stats = UrlGenerationStats()
        kept = generator.filter_indexable(car_form, candidates, car_prober, stats)
        assert stats.kept == len(kept)
        assert stats.records_covered > 0
        assert stats.probes_issued == len(candidates)


class TestGeneratedCarFormEndToEnd:
    def test_detected_ranges_reduce_urls_without_losing_coverage(self, car_form, car_prober, car_site):
        """The paper's 120-vs-10 example, measured on a generated form."""
        detector = CorrelationDetector()
        pairs = detector.detect_ranges(car_form)
        price_pair = next(pair for pair in pairs if pair.property_name == "price")
        values = {
            price_pair.min_input: list(price_pair.options),
            price_pair.max_input: list(price_pair.options),
        }
        template = QueryTemplate((price_pair.min_input, price_pair.max_input))

        aware = UrlGenerator(range_aware=True, max_urls_per_template=1000)
        naive = UrlGenerator(range_aware=False, max_urls_per_template=1000)
        aware_bindings = aware.enumerate_bindings(template, values, pairs)
        naive_bindings = naive.enumerate_bindings(template, values, pairs)
        assert len(naive_bindings) >= 10 * len(aware_bindings) / 2

        def coverage(bindings):
            covered = set()
            for binding in bindings:
                covered |= car_prober.probe(car_form, binding).signature.record_ids
            return covered

        assert coverage(aware_bindings) == coverage(naive_bindings)
