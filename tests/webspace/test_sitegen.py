"""Tests for whole-web generation."""

from __future__ import annotations

import pickle
import threading
import time

import pytest

from repro.datagen.domains import domain, domain_names
from repro.htmlparse import extract_forms
from repro.util.rng import SeededRng
from repro.webspace import sitegen
from repro.webspace.sitegen import (
    WebConfig,
    build_deep_site,
    build_form,
    build_database,
    generate_deep_sites,
    generate_web,
)


class TestBuildDatabase:
    def test_database_has_requested_rows(self):
        database = build_database(domain("books"), 35, SeededRng(1))
        assert database.total_rows() == 35

    def test_select_columns_are_indexed(self):
        database = build_database(domain("used_cars"), 20, SeededRng(1))
        # Index presence is observable through correct equality answers.
        table = database.table("listings")
        make = table.distinct_values("make")[0]
        from repro.relational.predicate import Eq

        assert all(row["make"] == make for row in table.scan(Eq("make", make)))


class TestBuildForm:
    def test_form_covers_domain_inputs(self):
        spec = domain("used_cars")
        database = build_database(spec, 40, SeededRng(2))
        form = build_form(spec, database, SeededRng(3))
        roles = {input_spec.role for input_spec in form.inputs}
        assert {"search_box", "select", "typed_text", "range_min", "range_max"} <= roles

    def test_range_inputs_share_options(self):
        spec = domain("used_cars")
        database = build_database(spec, 40, SeededRng(2))
        form = build_form(spec, database, SeededRng(3), range_value_count=10)
        price_inputs = [spec_ for spec_ in form.inputs if spec_.column == "price"]
        assert len(price_inputs) == 2
        assert price_inputs[0].options == price_inputs[1].options
        assert 2 <= len(price_inputs[0].options) <= 10

    def test_select_options_come_from_data(self):
        spec = domain("books")
        database = build_database(spec, 40, SeededRng(4))
        form = build_form(spec, database, SeededRng(5))
        genre_input = next(spec_ for spec_ in form.inputs if spec_.column == "genre")
        table_values = {str(value) for value in database.table("books").distinct_values("genre")}
        assert set(genre_input.options) == table_values

    def test_form_renders_and_parses_back(self):
        site = build_deep_site(domain("jobs"), "jobs.gen.test", 25, SeededRng(6))
        page = site.handle(site.homepage_url())
        parsed = extract_forms(page.html)[0]
        rendered_names = {spec.name for spec in parsed.inputs if spec.is_bindable}
        template_names = {spec.name for spec in site.forms[0].inputs}
        assert rendered_names == template_names


class TestGenerateWeb:
    def test_site_count_matches_config(self):
        config = WebConfig(total_deep_sites=9, surface_site_count=2, seed=1)
        web = generate_web(config)
        assert len(web.deep_sites()) == 9
        assert len(web.surface_sites()) == 2

    def test_generation_is_deterministic(self):
        config = WebConfig(total_deep_sites=6, surface_site_count=1, seed=12)
        first = generate_web(config)
        second = generate_web(config)
        assert [site.host for site in first.sites()] == [site.host for site in second.sites()]
        assert first.total_deep_records() == second.total_deep_records()

    def test_sizes_respect_bounds(self):
        config = WebConfig(total_deep_sites=15, min_records=30, max_records=100, seed=3)
        sites = generate_deep_sites(config, SeededRng(3))
        assert all(30 <= site.size() <= 100 for site in sites)

    def test_post_form_fraction_zero_and_one(self):
        none_post = generate_deep_sites(
            WebConfig(total_deep_sites=8, post_form_fraction=0.0, seed=4), SeededRng(4)
        )
        assert all(site.forms[0].method == "get" for site in none_post)
        all_post = generate_deep_sites(
            WebConfig(total_deep_sites=8, post_form_fraction=1.0, seed=4), SeededRng(4)
        )
        assert all(site.forms[0].method == "post" for site in all_post)

    def test_domain_restriction(self):
        config = WebConfig(total_deep_sites=6, domains=("government",), seed=5)
        sites = generate_deep_sites(config, SeededRng(5))
        assert {site.domain_name for site in sites} == {"government"}

    def test_unique_hosts(self):
        web = generate_web(WebConfig(total_deep_sites=20, seed=6))
        hosts = [site.host for site in web.sites()]
        assert len(hosts) == len(set(hosts))

    def test_effective_weights_cover_all_domains(self):
        config = WebConfig()
        assert len(config.effective_weights()) == len(domain_names())

    def test_unknown_scale_domains_still_build(self):
        # A config listing a subset of domains with explicit weights.
        config = WebConfig(
            total_deep_sites=4, domains=("books", "jobs"), domain_weights=(1.0, 3.0), seed=8
        )
        sites = generate_deep_sites(config, SeededRng(8))
        assert {site.domain_name for site in sites} <= {"books", "jobs"}


def backend(site):
    """What a site's first fetch builds, and what its homepage renders."""
    return site.database.all_rows(), site.forms, site.handle(site.homepage_url()).html


@pytest.fixture
def database_builds(monkeypatch):
    """Every ``build_database`` call, recorded as it returns."""
    built = []
    build_database = sitegen.build_database

    def counted(*args):
        time.sleep(0.005)  # widen the window for two threads to race a build
        built.append(build_database(*args))
        return built[-1]

    monkeypatch.setattr(sitegen, "build_database", counted)
    return built


class TestBuiltOnFirstUse:
    CONFIG = WebConfig(total_deep_sites=6, surface_site_count=1, max_records=80, seed=31)

    def test_generating_a_web_builds_no_database(self, database_builds):
        web = generate_web(self.CONFIG)
        assert len(web.deep_sites()) == 6
        assert database_builds == []

    def test_counting_records_builds_no_database(self, database_builds):
        web = generate_web(self.CONFIG)
        total = web.total_deep_records()
        assert database_builds == []
        assert total == sum(site.database.total_rows() for site in web.deep_sites())
        assert len(database_builds) == len(web.deep_sites())

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_build_order_changes_no_row_form_or_homepage(self, order):
        forward = generate_web(self.CONFIG).deep_sites()
        other = generate_web(self.CONFIG).deep_sites()
        touched = (
            other[::-1] if order == "reversed" else SeededRng(order).shuffle(other)
        )
        assert [site.host for site in touched] != [site.host for site in forward]
        expected = {site.host: backend(site) for site in forward}
        assert {site.host: backend(site) for site in touched} == expected

    def test_concurrent_first_reads_share_one_build(self, database_builds):
        site = generate_web(self.CONFIG).deep_sites()[0]
        start = threading.Barrier(8, timeout=10)
        seen = [None] * 8

        def first_touch(index: int) -> None:
            start.wait()
            if index % 2:  # half the threads read the forms first
                forms = site.forms
                database = site.database
            else:
                database = site.database
                forms = site.forms
            seen[index] = (forms, database)

        threads = [threading.Thread(target=first_touch, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert len(database_builds) == 1
        forms, database = seen[0]
        assert database is database_builds[0]
        assert all(pair[0] is forms and pair[1] is database for pair in seen)

    @pytest.mark.parametrize("touched", [False, True])
    def test_a_site_pickles_before_and_after_its_build(self, touched):
        site = generate_web(self.CONFIG).deep_sites()[1]
        if touched:
            backend(site)
        copy = pickle.loads(pickle.dumps(site))
        assert backend(copy) == backend(site)
