"""Shared fixtures for the test suite.

Expensive artefacts (generated webs, crawled + surfaced worlds) are
session-scoped; tests must treat them as read-only.  Small per-test sites are
function-scoped and cheap to build.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import build_query_log, build_world, surface_world
from repro.core.form_model import discover_forms
from repro.core.probe import FormProber
from repro.datagen.domains import domain
from repro.relational import And
from repro.search.engine import SearchEngine
from repro.util.rng import SeededRng
from repro.webspace.site import DeepWebSite
from repro.webspace.sitegen import WebConfig, build_deep_site, generate_web
from repro.webspace.web import Web


@pytest.fixture
def rng() -> SeededRng:
    return SeededRng(42)


def _single_site_web(site) -> Web:
    web = Web()
    web.register(site)
    return web


@pytest.fixture
def car_site():
    """A 60-record used-car site (GET form, ranges, typed inputs, search box)."""
    return build_deep_site(
        domain("used_cars"), "cars.test.example.com", 60, SeededRng("cars-fixture")
    )


@pytest.fixture
def car_web(car_site) -> Web:
    return _single_site_web(car_site)


@pytest.fixture
def car_form(car_site, car_web):
    """The discovered SurfacingForm of the car site."""
    page = car_web.fetch(car_site.homepage_url())
    forms = discover_forms(page, host=car_site.host)
    assert forms, "car site must expose a form"
    return forms[0]


@pytest.fixture
def car_prober(car_web) -> FormProber:
    return FormProber(car_web)


@pytest.fixture
def gov_site():
    """A small government-portal site (tail-domain content)."""
    return build_deep_site(
        domain("government"), "gov.test.example.com", 40, SeededRng("gov-fixture")
    )


@pytest.fixture
def media_site():
    """A media-catalog site exercising the database-selection pattern."""
    return build_deep_site(
        domain("media_catalog"), "media.test.example.com", 80, SeededRng("media-fixture")
    )


class Or:
    """A disjunction: no site form compiles one, so it lives here."""

    def __init__(self, parts):
        self.parts = tuple(parts)

    def matches(self, row):
        return any(part.matches(row) for part in self.parts)


class OrSite(DeepWebSite):
    """A site whose form ORs its inputs: adding a binding adds results."""

    def compile_predicate(self, form, params):
        predicate = super().compile_predicate(form, params)
        return Or(predicate.parts) if isinstance(predicate, And) else predicate


@pytest.fixture
def or_site_of():
    """``or_site_of(site)``: the same site, its form ORing its inputs (what
    the prober's conjunctive-form assumption must notice by itself).  It is
    built from the site's own generation inputs, so its rows and form are
    equal to the site's."""

    def build(site: DeepWebSite) -> OrSite:
        return OrSite(site.host, site.title, *site._inputs, description=site.description)

    return build


@pytest.fixture
def store_site():
    """A store-locator site: typed zip/city inputs, no search box."""
    return build_deep_site(
        domain("store_locator"), "stores.test.example.com", 50, SeededRng("store-fixture")
    )


@pytest.fixture(scope="session")
def small_web() -> Web:
    """A session-scoped generated web (treat as read-only)."""
    return generate_web(
        WebConfig(total_deep_sites=8, surface_site_count=1, max_records=120, seed=5)
    )


@pytest.fixture(scope="session")
def crawled_world():
    """A tiny world with the baseline surface crawl done (read-only)."""
    return build_world("tiny")


@pytest.fixture(scope="session")
def surfaced_world():
    """A tiny world that has been crawled, surfaced and given a query log.

    Session-scoped because surfacing is the most expensive setup step; tests
    must not mutate it.
    """
    world = build_world("tiny")
    surface_world(world)
    build_query_log(world)
    return world


@pytest.fixture
def empty_engine() -> SearchEngine:
    return SearchEngine()
