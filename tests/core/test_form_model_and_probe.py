"""Tests for form discovery, submission URLs and the form prober."""

from __future__ import annotations

from repro.core.form_model import discover_forms
from repro.core.probe import FormProber
from repro.webspace.loadmeter import AGENT_SURFACER


class TestDiscoverForms:
    def test_discovers_one_form(self, car_site, car_web):
        page = car_web.fetch(car_site.homepage_url())
        forms = discover_forms(page)
        assert len(forms) == 1
        assert forms[0].host == car_site.host
        assert forms[0].is_get

    def test_input_partitioning(self, car_form):
        text_names = {spec.name for spec in car_form.text_inputs}
        select_names = {spec.name for spec in car_form.select_inputs}
        assert text_names and select_names
        assert not text_names & select_names

    def test_identity_is_host_plus_action(self, car_form, car_site):
        assert car_form.identity == f"{car_site.host}{car_form.action_path}"


class TestSubmissionUrl:
    def test_bindings_become_params(self, car_form, car_site):
        select = car_form.select_inputs[0]
        url = car_form.submission_url({select.name: select.options[0]})
        assert url.host == car_site.host
        assert url.path == car_form.action_path
        assert url.param(select.name) == select.options[0]

    def test_empty_bindings_dropped(self, car_form):
        url = car_form.submission_url({"make": "  ", "q": ""})
        assert url.param("make") is None
        assert url.param("q") is None

    def test_identical_bindings_give_identical_urls(self, car_form):
        select = car_form.select_inputs[0]
        bindings = {select.name: select.options[0]}
        assert str(car_form.submission_url(bindings)) == str(car_form.submission_url(dict(bindings)))


class TestFormProber:
    def test_probe_returns_signature(self, car_form, car_prober):
        select = car_form.select_inputs[0]
        result = car_prober.probe(car_form, {select.name: select.options[0]})
        assert result.ok
        assert result.result_count > 0
        assert result.signature.record_ids

    def test_probe_cache_avoids_repeat_fetches(self, car_form, car_web, car_site):
        prober = FormProber(car_web)
        select = car_form.select_inputs[0]
        bindings = {select.name: select.options[0]}
        prober.probe(car_form, bindings)
        load_after_first = car_web.load_meter.total(host=car_site.host, agent=AGENT_SURFACER)
        prober.probe(car_form, bindings)
        assert car_web.load_meter.total(host=car_site.host, agent=AGENT_SURFACER) == load_after_first
        assert prober.misses == 1

    def test_nonsense_probe_has_no_results(self, car_form, car_prober):
        search_box = next(
            spec for spec in car_form.text_inputs if spec.name in ("q", "query", "keywords", "search", "kw")
        )
        result = car_prober.probe(car_form, {search_box.name: "zzqx"})
        assert result.ok
        assert not result.has_results

    def test_probe_uses_surfacer_agent(self, car_form, car_web, car_site):
        prober = FormProber(car_web)
        prober.probe(car_form, {})
        assert car_web.load_meter.total(host=car_site.host, agent=AGENT_SURFACER) >= 1
