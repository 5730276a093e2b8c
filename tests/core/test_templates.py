"""Tests for query templates and the informative-template search."""

from __future__ import annotations

import pytest

from repro.core.templates import QueryTemplate, TemplateSelector
from repro.util.rng import SeededRng


def selector(prober, **overrides) -> TemplateSelector:
    defaults = dict(
        informativeness_threshold=0.2,
        max_dimensions=2,
        probes_per_template=8,
        max_templates=20,
        rng=SeededRng("test-templates"),
    )
    defaults.update(overrides)
    return TemplateSelector(prober, **defaults)


class TestQueryTemplate:
    def test_inputs_are_sorted_and_deduplicated_identity(self):
        assert QueryTemplate(("b", "a")) == QueryTemplate(("a", "b"))
        assert str(QueryTemplate(("b", "a"))) == "a+b"

    def test_extend(self):
        extended = QueryTemplate(("a",)).extend("b")
        assert extended.binding_inputs == ("a", "b")
        with pytest.raises(ValueError):
            extended.extend("a")


class TestSampleBindings:
    def test_full_product_when_small(self, car_form, car_prober):
        sel = selector(car_prober)
        template = QueryTemplate(("make",))
        bindings = sel.sample_bindings(template, {"make": ["Toyota", "Honda"]})
        assert bindings == [{"make": "Toyota"}, {"make": "Honda"}]

    def test_sampled_when_product_is_large(self, car_prober):
        sel = selector(car_prober, probes_per_template=5)
        template = QueryTemplate(("a", "b"))
        values = {"a": [str(i) for i in range(10)], "b": [str(i) for i in range(10)]}
        bindings = sel.sample_bindings(template, values)
        assert len(bindings) == 5
        assert len({tuple(sorted(binding.items())) for binding in bindings}) == 5

    def test_empty_value_set_gives_no_bindings(self, car_prober):
        sel = selector(car_prober)
        assert sel.sample_bindings(QueryTemplate(("a", "b")), {"a": ["1"], "b": []}) == []

    def test_sampling_is_deterministic(self, car_prober):
        values = {"a": [str(i) for i in range(20)], "b": [str(i) for i in range(20)]}
        first = selector(car_prober).sample_bindings(QueryTemplate(("a", "b")), values)
        second = selector(car_prober).sample_bindings(QueryTemplate(("a", "b")), values)
        assert first == second


class TestEvaluation:
    def test_select_input_is_informative(self, car_form, car_prober):
        sel = selector(car_prober)
        make_input = car_form.select_inputs[0]
        evaluation = sel.evaluate(
            car_form, QueryTemplate((make_input.name,)), {make_input.name: list(make_input.options)}
        )
        assert evaluation.informative
        assert evaluation.informativeness > 0.5
        assert evaluation.distinct_records > 0

    def test_nonsense_values_are_uninformative(self, car_form, car_prober):
        sel = selector(car_prober)
        search_box = next(spec for spec in car_form.text_inputs)
        evaluation = sel.evaluate(
            car_form,
            QueryTemplate((search_box.name,)),
            {search_box.name: ["zzqx", "qqqqq", "xyzzy42"]},
        )
        assert not evaluation.informative
        assert evaluation.distinct_records == 0


class TestLatticeSearch:
    def test_selects_informative_templates_and_extends(self, car_form, car_prober):
        make_input = car_form.select_inputs[0]
        color_input = car_form.select_inputs[1]
        value_sets = {
            make_input.name: list(make_input.options),
            color_input.name: list(color_input.options),
        }
        evaluations = selector(car_prober).select_templates(car_form, value_sets)
        templates = {str(evaluation.template) for evaluation in evaluations}
        assert make_input.name in templates
        assert color_input.name in templates
        assert any("+" in name for name in templates), "an informative 2-d template should be found"

    def test_uninformative_inputs_are_not_extended(self, car_form, car_prober):
        search_box = next(spec for spec in car_form.text_inputs)
        make_input = car_form.select_inputs[0]
        value_sets = {
            search_box.name: ["zzqx"],  # never returns results
            make_input.name: list(make_input.options),
        }
        evaluations = selector(car_prober).select_templates(car_form, value_sets)
        for evaluation in evaluations:
            assert search_box.name not in evaluation.template.binding_inputs

    def test_max_dimensions_respected(self, car_form, car_prober):
        value_sets = {
            spec.name: list(spec.options) for spec in car_form.select_inputs[:3]
        }
        evaluations = selector(car_prober, max_dimensions=1).select_templates(car_form, value_sets)
        assert all(len(evaluation.template.binding_inputs) == 1 for evaluation in evaluations)

    def test_max_templates_cap(self, car_form, car_prober):
        value_sets = {spec.name: list(spec.options) for spec in car_form.select_inputs}
        evaluations = selector(car_prober, max_templates=2).select_templates(car_form, value_sets)
        assert len(evaluations) <= 2

    def test_no_values_no_templates(self, car_form, car_prober):
        assert selector(car_prober).select_templates(car_form, {}) == []


class TestIndexBasedSamplingRegression:
    """The deterministic index-based sampler (which replaced rejection
    sampling) must stay seed-stable and fill near-full spaces exactly."""

    def test_near_full_space_yields_exact_count_without_spinning(self, car_prober):
        # Product of 11 barely exceeds the limit of 10 -- the old rejection
        # loop could burn limit*10 attempts here; index sampling always
        # produces exactly `limit` distinct bindings.
        sel = selector(car_prober, probes_per_template=10)
        values = {"a": [str(i) for i in range(11)]}
        bindings = sel.sample_bindings(QueryTemplate(("a",)), values)
        assert len(bindings) == 10
        assert len({binding["a"] for binding in bindings}) == 10

    def test_sample_is_deterministic_across_selectors(self, car_prober):
        values = {
            "a": [str(i) for i in range(25)],
            "b": [str(i) for i in range(25)],
        }
        template = QueryTemplate(("a", "b"))
        first = selector(car_prober).sample_bindings(template, values)
        second = selector(car_prober).sample_bindings(template, values)
        assert first == second
        assert len(first) == 8
        assert len({tuple(sorted(binding.items())) for binding in first}) == 8

    def test_sample_depends_on_template_and_seed(self, car_prober):
        values = {
            "a": [str(i) for i in range(25)],
            "b": [str(i) for i in range(25)],
        }
        base = selector(car_prober).sample_bindings(QueryTemplate(("a", "b")), values)
        reseeded = selector(car_prober, rng=SeededRng("other-seed")).sample_bindings(
            QueryTemplate(("a", "b")), values
        )
        assert base != reseeded

    def test_bindings_follow_product_order(self, car_prober):
        # Sampled positions are sorted, so bindings appear in the same
        # order the full Cartesian product would enumerate them.
        sel = selector(car_prober, probes_per_template=5)
        values = {"a": [str(i) for i in range(30)]}
        bindings = sel.sample_bindings(QueryTemplate(("a",)), values)
        positions = [int(binding["a"]) for binding in bindings]
        assert positions == sorted(positions)

    def test_mixed_radix_decode_on_multi_input_near_full_space(self, car_prober):
        # 3 x 4 = 12 positions, limit 10: every sampled position must decode
        # to a distinct, valid (a, b) pair -- a decode bug (wrong digit
        # order, off-by-one radix) would collide pairs or index out of range.
        sel = selector(car_prober, probes_per_template=10)
        values = {"a": ["0", "1", "2"], "b": ["0", "1", "2", "3"]}
        bindings = sel.sample_bindings(QueryTemplate(("a", "b")), values)
        assert len(bindings) == 10
        pairs = {(binding["a"], binding["b"]) for binding in bindings}
        assert len(pairs) == 10
        assert all(a in values["a"] and b in values["b"] for a, b in pairs)

    def test_total_equal_to_limit_takes_the_full_product_path(self, car_prober):
        # Exactly at the boundary the sampler must enumerate, not sample:
        # the full product in deterministic enumeration order.
        sel = selector(car_prober, probes_per_template=6)
        values = {"a": ["x", "y"], "b": ["1", "2", "3"]}
        bindings = sel.sample_bindings(QueryTemplate(("a", "b")), values)
        assert bindings == [
            {"a": "x", "b": "1"},
            {"a": "x", "b": "2"},
            {"a": "x", "b": "3"},
            {"a": "y", "b": "1"},
            {"a": "y", "b": "2"},
            {"a": "y", "b": "3"},
        ]

    def test_whitespace_only_value_set_gives_no_bindings(self, car_prober):
        sel = selector(car_prober)
        values = {"a": ["1", "2"], "b": ["  ", "\t", ""]}
        assert sel.sample_bindings(QueryTemplate(("a", "b")), values) == []

    def test_blank_values_are_excluded_from_the_product(self, car_prober):
        # Blanks shrink the radix for their input instead of producing
        # bindings with empty submissions.
        sel = selector(car_prober)
        values = {"a": ["", "1", "  ", "2"], "b": ["x"]}
        bindings = sel.sample_bindings(QueryTemplate(("a", "b")), values)
        assert bindings == [{"a": "1", "b": "x"}, {"a": "2", "b": "x"}]
