"""Surfacing economy: pages the prober can prove empty are not fetched, and
not fetching them changes nothing that is chosen, kept or indexed.

The oracle is the naive path: the same pipeline driven by a prober that
always fetches (:class:`AlwaysFetchProber`).  Everything the run produces
must be equal; only the load on the sites may differ, and only downward.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest

from repro import DeepWebService, SurfacingConfig, SurfacingPipeline
from repro.core.form_model import discover_forms
from repro.core.probe import FormProber
from repro.pipeline.observer import MetricsObserver, PipelineObserver
from repro.search.engine import SearchEngine
from repro.search.inverted_index import InvertedIndex, rank_accumulator
from repro.serve.loadgen import WorkloadGenerator
from repro.util.rng import SeededRng
from repro.util.text import tokenize
from repro.webspace.loadmeter import AGENT_SURFACER
from repro.webspace.page import WebPage
from repro.webspace.sitegen import WebConfig, generate_web
from repro.webspace.web import Web


class AlwaysFetchProber(FormProber):
    """The reference: every probe-cache miss is a fetch, nothing is inferred
    and no form is taken to be conjunctive."""

    def conjunctive(self, form):
        return False

    def _resolve(self, form, binding_key, bindings, url):
        self.probe_cache.misses += 1
        if url is None:
            url = form.submission_url(bindings)
        return self._probe_url(form, binding_key, url)


class Decisions(PipelineObserver):
    """What URL generation decided, per form: every candidate (the
    database-selection ones spell out the per-category keywords) with the
    result count the filter saw, and which were kept."""

    def __init__(self) -> None:
        self.by_form: dict[str, object] = {}

    def on_stage_end(self, stage_name, ctx, elapsed) -> None:
        if stage_name == "generate-urls":
            self.by_form[ctx.form.identity] = (
                [(candidate.key, candidate.result_count) for candidate in ctx.candidates],
                [candidate.key for candidate in ctx.kept],
                vars(ctx.generation_stats).copy(),
            )


def surface(web: Web, config: SurfacingConfig, prober_class=FormProber) -> dict[str, object]:
    """Surface every deep site of ``web``; what the run produced, and its cost."""
    decisions, metrics = Decisions(), MetricsObserver()
    pipeline = SurfacingPipeline(web, SearchEngine(), config, observers=[decisions, metrics])
    pipeline.context.prober = prober_class(
        web, signature_cache=pipeline.engine.signature_cache
    )
    results = pipeline.surface_many(web.deep_sites())
    return {
        "produced": {
            "documents": sorted(
                (doc.url, doc.title, doc.text, doc.source, sorted(doc.annotations.items()))
                for doc in pipeline.engine.documents()
            ),
            "sites": [
                (
                    result.host,
                    result.urls_generated,
                    result.urls_indexed,
                    result.records_covered,
                    [
                        [str(template) for template in form_result.templates_selected]
                        for form_result in result.form_results
                    ],
                )
                for result in results
            ],
            "decisions": decisions.by_form,
        },
        "fetches": web.load_meter.total(agent=AGENT_SURFACER),
        "loads": [(result.probes_issued, result.analysis_load) for result in results],
        "results": results,
        "metrics": metrics,
        "pipeline": pipeline,
    }


def small_web(seed: int, sites: int = 6) -> Web:
    return generate_web(
        WebConfig(total_deep_sites=sites, surface_site_count=1, max_records=120, seed=seed)
    )


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_inference_changes_the_load_and_nothing_else(seed):
    config = SurfacingConfig(max_urls_per_form=200)
    naive = surface(small_web(seed), config, AlwaysFetchProber)
    real = surface(small_web(seed), config)
    assert real["produced"] == naive["produced"]
    assert real["produced"]["documents"], "the world must surface something"
    assert real["fetches"] < naive["fetches"]
    for (probes, load), (naive_probes, naive_load) in zip(real["loads"], naive["loads"]):
        assert probes <= naive_probes and load <= naive_load
    cache = real["pipeline"].prober.probe_cache
    assert cache.inferred > 0 and not cache.non_monotone
    assert naive["pipeline"].prober.probe_cache.inferred == 0


def test_indexed_pages_are_always_pages_the_site_served():
    """``min_results_per_page=0`` keeps empty pages, the one way an inferred
    result reaches the indexing stage: it is fetched before it is indexed."""
    config = SurfacingConfig(max_urls_per_form=200, min_results_per_page=0)
    web = small_web(3, sites=4)
    served: dict[str, str] = {}
    fetch = web.fetch

    def recording_fetch(url, agent=AGENT_SURFACER):
        page = fetch(url, agent=agent)
        served[str(url)] = page.html
        return page

    web.fetch = recording_fetch
    run = surface(web, config)
    documents = list(run["pipeline"].engine.documents())
    assert run["pipeline"].prober.probe_cache.inferred > 0
    assert {doc.url for doc in documents} <= set(served)
    assert sum("No results found" in served[doc.url] for doc in documents) > 0
    reference = SearchEngine()
    for doc in documents:
        reference.add_page(WebPage(url=doc.url, html=served[doc.url]), source=doc.source)
    assert [(doc.url, doc.title, doc.text) for doc in documents] == [
        (doc.url, doc.title, doc.text) for doc in reference.documents()
    ]
    naive = surface(small_web(3, sites=4), config, AlwaysFetchProber)
    assert run["produced"] == naive["produced"]


def test_a_form_that_ors_its_inputs_runs_as_if_nothing_were_ever_inferred(car_site, or_site_of):
    """The assumption disables itself: the first two-input page returns more
    than its sub-bindings did, the form is flagged before anything was
    inferred for it, and the run is the always-fetch run."""
    config = SurfacingConfig(max_urls_per_form=200)

    def world() -> Web:
        web = Web()
        web.register(or_site_of(car_site))
        return web

    real = surface(world(), config)
    naive = surface(world(), config, AlwaysFetchProber)
    cache = real["pipeline"].prober.probe_cache
    form = discover_forms(world().fetch(car_site.homepage_url()), host=car_site.host)[0]
    assert cache.non_monotone == {form.identity}
    assert cache.inferred == 0
    assert real["produced"] == naive["produced"]
    assert real["loads"] == naive["loads"]
    lines = DeepWebService(real["pipeline"]).report().lines()
    assert any("1 non-monotone forms (never inferred)" in line for line in lines)


@pytest.mark.parametrize("field", ["max_keywords", "keyword_rounds"])
@pytest.mark.parametrize("site_fixture", ["car_site", "media_site"])
def test_a_zero_keyword_budget_probes_no_keyword(request, site_fixture, field):
    """``max_keywords=0`` used to probe every seed and round and then select
    nothing, and still emitted 3 keywords per database-selection category;
    either zero now costs no keyword probe and emits no keyword URL -- for a
    plain search box (cars) and for a database-selection pair (media)."""
    site = request.getfixturevalue(site_fixture)

    def run(config: SurfacingConfig) -> dict[str, object]:
        web = Web()
        web.register(site)
        return surface(web, config)

    def keyword_urls(outcome: dict[str, object]) -> list[str]:
        (form_result,) = outcome["results"][0].form_results
        form = discover_forms(site.handle(site.homepage_url()), host=site.host)[0]
        keyword_inputs = {spec.name for spec in form.text_inputs} - set(form_result.typed_inputs)
        assert keyword_inputs, "the site must have a search box"
        ((candidates, _kept, _stats),) = outcome["produced"]["decisions"].values()
        return [
            key
            for key, _count in candidates
            if any(f"{name}=" in key for name in keyword_inputs)
        ]

    zero, default = run(SurfacingConfig(**{field: 0})), run(SurfacingConfig())
    assert keyword_urls(default), "with a budget the search box is used"
    assert keyword_urls(zero) == []
    assert zero["metrics"].as_dict()["stage_fetches"]["candidate-values"] == 0
    assert zero["fetches"] < default["fetches"]


# -- the ratchet ---------------------------------------------------------------

#: Surfacer fetches per stage for ``RATCHET_WEB`` -- exact, seeded counts.  A
#: change that moves one of these changed the load the system puts on form
#: sites: lower it here with the measurement in CHANGES.md, or find the leak.
RATCHET_WEB = WebConfig(total_deep_sites=4, surface_site_count=1, max_records=120, seed=24)
RATCHET_STAGE_FETCHES = {
    "discover-forms": 4,
    "classify-inputs": 42,
    "detect-correlations": 0,
    "candidate-values": 56,
    "select-templates": 310,
    "generate-urls": 516,
    "index-pages": 0,
}
RATCHET_URLS_INDEXED = 417


@pytest.mark.smoke
def test_fetch_ledger_ratchet():
    service = (
        DeepWebService.build()
        .web(RATCHET_WEB)
        .surfacing(SurfacingConfig(max_urls_per_form=200))
        .create()
    )
    results = service.surface()
    report = service.report()
    ledger = report.stage_metrics["stage_fetches"]
    total = service.web.load_meter.total(agent=AGENT_SURFACER)
    # CI greps this line out of a ``-s`` run into the job summary.
    print(f"\nfetch ledger: {ledger} = {total} fetches / {report.urls_indexed} indexed URLs")
    assert sum(ledger.values()) == total == sum(result.analysis_load for result in results)
    assert report.analysis_load == total
    assert (ledger, report.urls_indexed) == (RATCHET_STAGE_FETCHES, RATCHET_URLS_INDEXED)


def _surface_in_order(order: str) -> tuple[list[str], dict[str, tuple]]:
    """Surface the ratchet world's sites in ``order``: the hosts in the
    order run, and per host its documents and its result (timing zeroed)."""
    service = (
        DeepWebService.build()
        .web(RATCHET_WEB)
        .surfacing(SurfacingConfig(max_urls_per_form=200))
        .create()
    )
    sites = service.web.deep_sites()
    ordered = {
        "forward": sites,
        "reversed": sites[::-1],
        "shuffled": SeededRng("site order").shuffle(sites),
    }[order]
    results = service.surface(ordered)
    by_host = {
        result.host: (
            [
                (doc.url, doc.title, doc.text, sorted(doc.annotations.items()))
                for doc in service.engine.documents()
                if doc.host == result.host
            ],
            replace(result, elapsed_seconds=0.0),
        )
        for result in results
    }
    return [site.host for site in ordered], by_host


def test_each_site_surfaces_the_same_in_any_site_order():
    """No state shared across sites (probe cache, signature cache, keyword
    population, the index) changes what a site surfaces: sites are
    independent work."""
    forward_hosts, forward = _surface_in_order("forward")
    assert all(documents for documents, _ in forward.values())
    orders = [forward_hosts]
    for order in ("reversed", "shuffled"):
        hosts, by_host = _surface_in_order(order)
        assert hosts not in orders
        orders.append(hosts)
        assert by_host == forward


def test_top_k_scoring_on_the_keyword_population():
    """Top-k scoring on ``RATCHET_WEB``'s index equals the full sort cut to
    ``limit`` and computes exact scores only for documents that can rank."""
    service = (
        DeepWebService.build()
        .web(RATCHET_WEB)
        .surfacing(SurfacingConfig(max_urls_per_form=200))
        .create()
    )
    service.surface()
    index = service.engine.backend.index
    queries = [tokenize(query.text) for query in WorkloadGenerator(service.web).population()]
    exact = matched = 0
    for tokens in queries:
        idf_by_term = {term: index.idf(term) for term in tokens}
        full: dict[int, float] = {}
        top: dict[int, float] = {}
        index.accumulate(tokens, idf_by_term, index.average_length(), full)
        index.accumulate(tokens, idf_by_term, index.average_length(), top, limit=10)
        assert index.score(tokens, limit=10) == rank_accumulator(full)[:10]
        exact += len(top)
        matched += len(full)
    # CI greps this line out of a ``-s`` run into the job summary.
    print(
        f"\ntop-k scoring: {len(queries)} queries, "
        f"exact scores for {exact} of {matched} matched documents"
    )
    assert exact < matched


def test_per_source_top_k_on_the_keyword_population():
    """Per-source top-10 on ``RATCHET_WEB``'s index after a table harvest
    (so surfaced and webtable documents share it) equals the
    grouped rank of every match, and the MaxScore pass inside each source
    computes exact scores only for documents that can rank in it."""
    service = (
        DeepWebService.build()
        .web(RATCHET_WEB)
        .surfacing(SurfacingConfig(max_urls_per_form=200))
        .create()
    )
    service.surface()
    service.harvest_tables()
    backend = service.engine.backend
    index = backend.index
    group = backend._sources.__getitem__
    assert set(backend.stats().by_source) == {"surfaced", "webtable"}
    exact = [0]
    accumulate_top = index._accumulate_top

    def counting(tokens, entries, limit, accumulator, *rest):
        accumulate_top(tokens, entries, limit, accumulator, *rest)
        exact[0] += len(accumulator)

    index._accumulate_top = counting
    queries = [tokenize(query.text) for query in WorkloadGenerator(service.web).population()]
    matched = 0
    for tokens in queries:
        idf_by_term = {term: index.idf(term) for term in tokens}
        full: dict[int, float] = {}
        index.accumulate(tokens, idf_by_term, index.average_length(), full)
        assert index.score(tokens, limit=10, group=group) == rank_accumulator(full, 10, group)
        matched += len(full)
    # CI greps this line out of a ``-s`` run into the job summary.
    print(
        f"\nper-source top-k: {len(queries)} queries, "
        f"exact scores for {exact[0]} of {matched} matched documents"
    )
    assert exact[0] < matched


def test_top_k_after_writes_recomputes_fewer_impacts_than_the_stale_postings():
    """``RATCHET_WEB``'s last fifth re-added one document at a time, with
    eight population queries after each write: every top-10 answer equals a
    fresh index's full sort cut to 10, and the impacts recomputed -- maps
    rebuilt plus candidates rescored -- are fewer than the postings of the
    stale queried terms, which rebuilding every one of them would cost."""
    service = (
        DeepWebService.build()
        .web(RATCHET_WEB)
        .surfacing(SurfacingConfig(max_urls_per_form=200))
        .create()
    )
    service.surface()
    streams = service.engine.backend.index.document_terms()
    doc_ids = sorted(streams)
    held_out_from = len(doc_ids) - len(doc_ids) // 5
    population = [tokenize(query.text) for query in WorkloadGenerator(service.web).population()]
    index = InvertedIndex()
    for doc_id in doc_ids[:held_out_from]:
        index.add_document(doc_id, streams[doc_id])
    impact_map = index._impact_map
    recomputed = [0]

    def counting(postings, idf, average_length):
        impacts = impact_map(postings, idf, average_length)
        recomputed[0] += len(impacts)
        return impacts

    index._impact_map = counting
    writes = doc_ids[held_out_from:]
    # Each term's document frequency in ``index``, from the streams it was fed.
    df = Counter(term for doc_id in doc_ids[:held_out_from] for term in set(streams[doc_id]))
    queries = rebuilt = stale = 0
    for write, doc_id in enumerate(writes):
        index.add_document(doc_id, streams[doc_id])
        df.update(set(streams[doc_id]))
        fresh = InvertedIndex()
        for fresh_id in doc_ids[: held_out_from + write + 1]:
            fresh.add_document(fresh_id, streams[fresh_id])
        built = dict(index._impact_cache)
        queried: set[str] = set()
        for tokens in (population[(8 * write + j) % len(population)] for j in range(8)):
            assert index.score(tokens, limit=10) == fresh.score(tokens)[:10]
            queried.update(term for term in tokens if df[term])
            queries += 1
        # An entry that is not the one held before the queries was rebuilt.
        rebuilt += sum(
            len(entry[1]) for term, entry in index._impact_cache.items()
            if built.get(term) is not entry
        )
        stale += sum(df[term] for term in queried)
    rescored = recomputed[0] - rebuilt
    # CI greps this line out of a ``-s`` run into the job summary.
    print(
        f"\ntop-k after writes: {len(writes)} writes, {queries} queries, impacts recomputed "
        f"{rebuilt} maps + {rescored} rescored of {stale} stale postings"
    )
    assert rebuilt + rescored < stale


# -- the absolute pin ----------------------------------------------------------

#: sha256 of what surfacing ``RATCHET_WEB`` indexes and of every probe
#: signature it computed.  The other tests here compare two paths of one
#: build, so a page-analysis change that moves a byte of the index on both
#: passes them; this pin does not.  A change that means to move the index
#: re-records both digests and says why in CHANGES.md.
PINNED_DOCUMENTS_SHA256 = "24f8407aaaebd6100082e1c3f02c6be81ac9baf6c42cf741c35df84c99a2e264"
PINNED_SIGNATURES_SHA256 = "2903c33ffdad365f545ef9f8d1a173c602bb21f48fee487c9d1cb48cbd6f734e"


def _sha256(value: object) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def test_surfaced_index_and_probe_signatures_are_pinned():
    run = surface(generate_web(RATCHET_WEB), SurfacingConfig(max_urls_per_form=200))
    signatures = sorted(
        (result.signature.content_hash, result.signature.result_count,
         sorted(result.signature.record_ids))
        for result in run["pipeline"].prober._cache.values()
    )
    assert len(run["produced"]["documents"]) == RATCHET_URLS_INDEXED
    assert _sha256(run["produced"]["documents"]) == PINNED_DOCUMENTS_SHA256
    assert _sha256(signatures) == PINNED_SIGNATURES_SHA256
