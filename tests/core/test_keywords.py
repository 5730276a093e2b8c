"""Tests for iterative-probing keyword selection."""

from __future__ import annotations

from repro.core.keywords import IterativeProber
from repro.core.probe import FormProber
from repro.search.engine import SearchEngine


def search_box_name(form) -> str:
    hints = {"q", "query", "keywords", "search", "kw"}
    return next(spec.name for spec in form.text_inputs if spec.name in hints)


class TestSeedKeywords:
    def test_seeds_from_homepage_when_index_empty(self, car_form, car_prober, car_web, car_site):
        homepage = car_web.fetch(car_site.homepage_url())
        prober = IterativeProber(car_prober, engine=None, seed_count=6)
        seeds = prober.seed_keywords(car_form, homepage.html)
        # Page-text seeds are capped at seed_count; select-option tokens may
        # double that at most.
        assert 0 < len(seeds) <= 12
        assert all(len(seed) > 2 for seed in seeds)

    def test_seeds_prefer_indexed_site_pages(self, car_form, car_prober, car_web, car_site):
        engine = SearchEngine()
        engine.add_page(car_web.fetch(car_site.detail_url(1)))
        engine.add_page(car_web.fetch(car_site.detail_url(2)))
        prober = IterativeProber(car_prober, engine=engine, seed_count=8)
        seeds = prober.seed_keywords(car_form)
        record = car_site.table.get(1)
        record_tokens = set(str(record["description"]).lower().split()) | {record["make"].lower()}
        assert set(seeds) & record_tokens, "seeds should reflect indexed site content"

    def test_select_options_seed_even_without_page_text(self, car_form, car_prober):
        # With no indexed pages and no form-page text, the select-menu option
        # values still bootstrap probing (makes, colors, body styles).
        prober = IterativeProber(car_prober, engine=None)
        seeds = prober.seed_keywords(car_form, form_page_html="")
        assert seeds
        option_tokens = {
            token.lower()
            for spec in car_form.select_inputs
            for option in spec.options
            for token in option.split()
        }
        assert set(seeds) <= option_tokens


class TestSelectKeywords:
    def test_selected_keywords_retrieve_results(self, car_form, car_prober, car_web, car_site):
        homepage = car_web.fetch(car_site.homepage_url())
        prober = IterativeProber(car_prober, max_keywords=8, max_rounds=2)
        selection = prober.select_keywords(car_form, search_box_name(car_form), homepage.html)
        assert selection.keywords, "iterative probing should find at least one keyword"
        assert selection.records_covered > 0
        assert selection.probes_issued >= len(selection.keywords)
        for keyword in selection.keywords:
            result = car_prober.probe(car_form, {search_box_name(car_form): keyword})
            assert result.has_results

    def test_selection_is_diverse(self, car_form, car_prober, car_web, car_site):
        homepage = car_web.fetch(car_site.homepage_url())
        prober = IterativeProber(car_prober, max_keywords=10, max_rounds=2)
        selection = prober.select_keywords(car_form, search_box_name(car_form), homepage.html)
        # Each keyword must have contributed at least one new record, so the
        # total coverage is at least the number of keywords.
        assert selection.records_covered >= len(selection.keywords)

    def test_max_keywords_respected(self, car_form, car_prober, car_web, car_site):
        homepage = car_web.fetch(car_site.homepage_url())
        prober = IterativeProber(car_prober, max_keywords=3, max_rounds=2)
        selection = prober.select_keywords(car_form, search_box_name(car_form), homepage.html)
        assert len(selection.keywords) <= 3

    def test_rounds_bounded(self, car_form, car_prober, car_web, car_site):
        homepage = car_web.fetch(car_site.homepage_url())
        prober = IterativeProber(car_prober, max_rounds=1)
        selection = prober.select_keywords(car_form, search_box_name(car_form), homepage.html)
        assert selection.rounds <= 1

    def test_candidate_extraction_skips_stopwords_and_numbers(self, car_form, car_prober):
        select = car_form.select_inputs[0]
        result = car_prober.probe(car_form, {select.name: select.options[0]})
        candidates = IterativeProber(car_prober).extract_candidates(result, limit=20)
        assert candidates
        assert all(not candidate.isdigit() and len(candidate) > 2 for candidate in candidates)
