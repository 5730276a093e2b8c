"""Property-based tests on surfacing invariants.

These hold for any generated site, not just the fixtures: submission URLs are
canonical and deterministic, range-aware enumeration never produces inverted
ranges, the indexability filter never keeps an empty page, and a form
submission is a conjunction (the assumption the prober infers from).
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.correlations import CorrelationDetector
from repro.core.form_model import discover_forms
from repro.core.informativeness import SignatureCache
from repro.core.probe import FormProber
from repro.core.templates import QueryTemplate
from repro.core.urlgen import IndexabilityCriterion, UrlGenerator
from repro.datagen.domains import domain, domain_names
from repro.util.rng import SeededRng
from repro.util.text import tokenize
from repro.webspace.sitegen import build_deep_site
from repro.webspace.web import Web

_SITE_CACHE: dict[tuple[str, int], tuple] = {}


def _site_and_form(domain_name: str, seed: int):
    """Build (and cache) a small site plus its discovered form."""
    key = (domain_name, seed)
    if key not in _SITE_CACHE:
        site = build_deep_site(
            domain(domain_name), f"{domain_name}{seed}.prop.test", 40, SeededRng(f"prop-{key}")
        )
        web = Web()
        web.register(site)
        form = discover_forms(web.fetch(site.homepage_url()))[0]
        _SITE_CACHE[key] = (web, site, form)
    return _SITE_CACHE[key]


domain_strategy = st.sampled_from(sorted(domain_names()))
seed_strategy = st.integers(min_value=0, max_value=3)


class TestSubmissionUrlProperties:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(domain_name=domain_strategy, seed=seed_strategy, data=st.data())
    def test_submission_urls_are_canonical_and_on_host(self, domain_name, seed, data):
        _web, site, form = _site_and_form(domain_name, seed)
        bindable = [spec for spec in form.bindable_inputs]
        chosen = data.draw(st.lists(st.sampled_from(bindable), max_size=3, unique_by=lambda s: s.name))
        bindings = {}
        for spec in chosen:
            if spec.options:
                bindings[spec.name] = data.draw(st.sampled_from(list(spec.options)))
            else:
                bindings[spec.name] = data.draw(st.text(alphabet="abc123 ", max_size=8))
        url = form.submission_url(bindings)
        again = form.submission_url(dict(reversed(list(bindings.items()))))
        assert url.host == site.host
        assert url.path == form.action_path
        assert str(url) == str(again), "binding order must not change the URL"

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(domain_name=domain_strategy, seed=seed_strategy)
    def test_every_submission_is_handled_by_the_site(self, domain_name, seed):
        web, _site, form = _site_and_form(domain_name, seed)
        spec = form.bindable_inputs[0]
        value = spec.options[0] if spec.options else "anything"
        page = web.fetch(form.submission_url({spec.name: value}))
        assert page.status in (200, 405)


class TestEnumerationProperties:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(domain_name=domain_strategy, seed=seed_strategy)
    def test_range_aware_enumeration_has_no_inverted_ranges(self, domain_name, seed):
        _web, _site, form = _site_and_form(domain_name, seed)
        pairs = CorrelationDetector().detect_ranges(form)
        if not pairs:
            return
        generator = UrlGenerator(range_aware=True, max_urls_per_template=300)
        for pair in pairs:
            template = QueryTemplate((pair.min_input, pair.max_input))
            values = {
                pair.min_input: list(pair.options),
                pair.max_input: list(pair.options),
            }
            for binding in generator.enumerate_bindings(template, values, pairs):
                low = float(binding[pair.min_input])
                high = float(binding[pair.max_input])
                assert low <= high

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(domain_name=st.sampled_from(["used_cars", "books", "government"]), seed=seed_strategy)
    def test_indexability_filter_never_keeps_empty_or_oversized_pages(self, domain_name, seed):
        web, _site, form = _site_and_form(domain_name, seed)
        prober = FormProber(web)
        criterion = IndexabilityCriterion(min_results=1, max_results=25)
        generator = UrlGenerator(criterion=criterion, max_urls_per_template=40)
        select = form.select_inputs[0] if form.select_inputs else None
        if select is None:
            return
        template = QueryTemplate((select.name,))
        candidates = generator.materialize(
            form, template, [{select.name: option} for option in select.options[:10]]
        )
        kept = generator.filter_indexable(form, candidates, prober)
        for candidate in kept:
            assert 1 <= candidate.result_count <= 25


class TestConjunctiveWorld:
    """The prober skips a fetch when a sub-binding is known to be empty.
    That is sound only if adding a binding never adds results; this states
    it of the generated world, with every page really fetched."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(domain_name=domain_strategy, seed=seed_strategy, data=st.data())
    def test_adding_a_binding_never_adds_results(self, domain_name, seed, data):
        web, site, form = _site_and_form(domain_name, seed)
        # Values that occur in the data (so pages are not all empty), plus misses.
        vocabulary = sorted(
            {
                text
                for row in site.table.rows[:15]
                for value in row.values()
                for text in (str(value), *tokenize(str(value)))
            }
        ) + ["zzqx", ""]
        chosen = data.draw(
            st.lists(
                st.sampled_from(form.bindable_inputs),
                min_size=2,
                max_size=3,
                unique_by=lambda spec: spec.name,
            )
        )
        bindings = {
            spec.name: data.draw(st.sampled_from(list(spec.options) or vocabulary))
            for spec in chosen
        }
        signatures = SignatureCache()

        def count(subset) -> int:
            page = web.fetch(form.submission_url(dict(subset)))
            assert page.ok
            return signatures.signature(page.html).result_count

        full = count(bindings.items())
        for size in range(1, len(bindings)):
            for subset in combinations(bindings.items(), size):
                assert full <= count(subset), (bindings, subset)
