"""Monotone-emptiness inference in the prober.

A submission is a conjunction of its bindings, so a binding whose
sub-binding is known to be empty is empty too and is not fetched.  These
tests pin what counts as evidence, how an inferred result is accounted,
and how the assumption switches itself off on a form that breaks it.
"""

from __future__ import annotations

import pytest

from repro.core.form_model import discover_forms
from repro.core.probe import FormProber
from repro.resilience.faults import KIND_ERROR, FaultDecision, FaultyWeb, ScriptedFaults
from repro.webspace.loadmeter import AGENT_SURFACER
from repro.webspace.web import Web

NONSENSE = "zzqx"


def _search_box(form) -> str:
    return next(
        spec.name
        for spec in form.text_inputs
        if spec.name in ("q", "query", "keywords", "search", "kw")
    )


def _surfacer_load(web, site) -> int:
    return web.load_meter.total(host=site.host, agent=AGENT_SURFACER)


class TestInference:
    def test_superset_of_an_empty_binding_is_inferred_without_a_fetch(
        self, car_form, car_web, car_site
    ):
        prober = FormProber(car_web)
        box, select = _search_box(car_form), car_form.select_inputs[0]
        empty = prober.probe(car_form, {box: NONSENSE})
        assert empty.ok and not empty.has_results and not empty.inferred
        load = _surfacer_load(car_web, car_site)

        bindings = {box: NONSENSE, select.name: select.options[0]}
        result = prober.probe(car_form, bindings)

        assert result.inferred and result.ok and not result.has_results
        assert _surfacer_load(car_web, car_site) == load
        assert prober.misses == 1
        # It is the page a fetch would have returned, under its own URL.
        url = car_form.submission_url(bindings)
        real = car_web.fetch(url)
        assert (result.url, result.page) == (url, real)
        assert result.signature == prober.signature_cache.signature(real.html)
        # Its own counter: neither a hit nor a miss; afterwards it is a memo hit.
        stats = prober.stats()
        assert (stats["hits"], stats["misses"], stats["inferred"]) == (0, 1, 1)
        assert prober.probe(car_form, bindings) is result
        assert prober.stats()["hits"] == 1
        assert prober.stats()["non_monotone_forms"] == 0

    def test_prepared_probes_infer_too_and_inferred_results_are_evidence(
        self, car_form, car_web, car_site
    ):
        prober = FormProber(car_web)
        box = _search_box(car_form)
        first, second = car_form.select_inputs[0], car_form.select_inputs[1]
        prober.probe(car_form, {box: NONSENSE})
        pair = {box: NONSENSE, first.name: first.options[0]}
        assert prober.probe(car_form, pair, car_form.submission_url(pair)).inferred
        triple = {**pair, second.name: second.options[0]}
        assert prober.probe(car_form, triple).inferred
        assert prober.misses == 1

    def test_nothing_is_inferred_from_non_empty_or_unrelated_bindings(
        self, car_form, car_web, car_site
    ):
        prober = FormProber(car_web)
        box = _search_box(car_form)
        first, second = car_form.select_inputs[0], car_form.select_inputs[1]
        prober.probe(car_form, {box: NONSENSE})
        assert prober.probe(car_form, {first.name: first.options[0]}).has_results
        # Not a superset of the empty binding; its one sub-binding has results.
        result = prober.probe(
            car_form, {first.name: first.options[0], second.name: second.options[0]}
        )
        assert not result.inferred
        assert prober.misses == 3
        assert prober.inferred == 0

    def test_a_degraded_sub_binding_is_never_evidence(self, car_form, car_web, car_site):
        """A 503 stand-in page counts zero results but proves nothing."""
        failing = FaultyWeb(
            car_web, ScriptedFaults({car_site.host: [FaultDecision(kind=KIND_ERROR)]})
        )
        prober = FormProber(failing)
        select = car_form.select_inputs[0]
        degraded = prober.probe(car_form, {select.name: select.options[0]})
        assert not degraded.ok and degraded.result_count == 0

        other = car_form.select_inputs[1]
        result = prober.probe(
            car_form, {select.name: select.options[0], other.name: other.options[0]}
        )
        assert result.ok and not result.inferred
        assert prober.misses == 2 and prober.inferred == 0

    def test_an_error_page_is_never_evidence(self, car_web, car_site):
        """A memoized non-ok page (404/405) counts zero results as well."""
        page = car_web.fetch(car_site.homepage_url())
        form = discover_forms(page, host="nowhere.test.example.com")[0]
        prober = FormProber(car_web)
        select = form.select_inputs[0]
        missing = prober.probe(form, {select.name: select.options[0]})
        assert not missing.ok and missing.result_count == 0
        result = prober.probe(form, {select.name: select.options[0], _search_box(form): "x"})
        assert not result.inferred


class TestSelfCheck:
    @pytest.fixture
    def or_world(self, car_site, or_site_of):
        site = or_site_of(car_site)
        web = Web()
        web.register(site)
        form = discover_forms(web.fetch(site.homepage_url()), host=site.host)[0]
        return web, site, form

    def test_a_form_that_ors_its_inputs_is_flagged_and_never_inferred_again(self, or_world):
        web, site, form = or_world
        prober = FormProber(web)
        box = _search_box(form)
        first, second = form.select_inputs[0], form.select_inputs[1]
        one = prober.probe(form, {first.name: first.options[0]})
        assert prober.conjunctive(form)
        # A real fetch returning more than its sub-binding did breaks the assumption.
        both = prober.probe(form, {first.name: first.options[0], second.name: second.options[0]})
        assert both.result_count > one.result_count
        assert not prober.conjunctive(form)
        assert prober.stats()["non_monotone_forms"] == 1

        prober.probe(form, {box: NONSENSE})
        load = _surfacer_load(web, site)
        result = prober.probe(form, {box: NONSENSE, first.name: first.options[0]})
        assert not result.inferred and result.has_results
        assert _surfacer_load(web, site) == load + 1
        assert prober.inferred == 0

    def test_flagging_forgets_what_was_inferred_for_that_form(self, or_world):
        web, _site, form = or_world
        prober = FormProber(web)
        box = _search_box(form)
        first, second = form.select_inputs[0], form.select_inputs[1]
        prober.probe(form, {box: NONSENSE})
        wrong = {box: NONSENSE, first.name: first.options[0]}
        assert prober.probe(form, wrong).inferred  # wrong on this site, not yet known
        prober.probe(form, {first.name: first.options[0]})
        prober.probe(form, {first.name: first.options[0], second.name: second.options[0]})
        assert not prober.conjunctive(form)
        refetched = prober.probe(form, wrong)
        assert not refetched.inferred and refetched.has_results

    def test_confirming_an_inferred_result_fetches_it_and_checks_the_assumption(
        self, car_form, car_web, or_world
    ):
        prober = FormProber(car_web)
        box, select = _search_box(car_form), car_form.select_inputs[0]
        bindings = {box: NONSENSE, select.name: select.options[0]}
        prober.probe(car_form, {box: NONSENSE})
        inferred = prober.probe(car_form, bindings)
        confirmed = prober.confirm(car_form, bindings, inferred)
        assert not confirmed.inferred and confirmed.page == inferred.page
        assert prober.probe(car_form, bindings) is confirmed
        assert prober.misses == 2 and prober.conjunctive(car_form)

        web, _site, form = or_world
        prober = FormProber(web)
        prober.probe(form, {box: NONSENSE})
        inferred = prober.probe(form, bindings)
        assert inferred.inferred
        assert prober.confirm(form, bindings, inferred).has_results
        assert not prober.conjunctive(form)
