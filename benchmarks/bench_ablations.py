"""Ablations over the design choices of the surfacing pipeline.

Not a paper table: these sweeps justify the default parameter choices of the
surfacing pipeline on the simulator.

* informativeness threshold for query templates -- too strict drops useful
  templates (coverage falls), too lax admits redundant ones (URLs rise);
* indexability upper bound (max results per surfaced page) -- tighter bounds
  trade more pages for sparser, more index-friendly pages;
* iterative-probing keyword budget -- more keywords raise search-box coverage
  with diminishing returns.
"""

from __future__ import annotations

from repro import SurfacingConfig, SurfacingPipeline
from repro.datagen.domains import domain
from repro.pipeline import default_stages
from repro.search.engine import SearchEngine
from repro.util.rng import SeededRng
from repro.webspace.sitegen import build_deep_site
from repro.webspace.web import Web

from conftest import print_table


def _surface(domain_name: str, host: str, records: int, config: SurfacingConfig):
    site = build_deep_site(domain(domain_name), host, records, SeededRng(f"ablate-{host}"))
    web = Web()
    web.register(site)
    result = SurfacingPipeline(web, SearchEngine(), config).surface_site(site)
    return result, site


def test_informativeness_threshold_ablation(benchmark):
    thresholds = [0.05, 0.2, 0.6]

    def sweep():
        rows = []
        for threshold in thresholds:
            config = SurfacingConfig(
                informativeness_threshold=threshold, max_urls_per_form=300
            )
            result, site = _surface("used_cars", f"cars-thr{int(threshold * 100)}.ablate", 150, config)
            rows.append(
                (
                    threshold,
                    len(result.form_results[0].templates_selected),
                    result.urls_generated,
                    round(result.records_covered / site.size(), 3),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Ablation: informativeness threshold",
        rows,
        header=("threshold", "templates", "urls generated", "coverage"),
    )
    coverages = {threshold: coverage for threshold, _t, _u, coverage in rows}
    # A permissive or default threshold must not lose coverage relative to a
    # very strict one.
    assert coverages[0.2] >= coverages[0.6] - 0.05
    templates = {threshold: count for threshold, count, _u, _c in rows}
    assert templates[0.05] >= templates[0.6]


def test_indexability_bound_ablation(benchmark):
    bounds = [15, 60, 10**9]

    def sweep():
        rows = []
        for bound in bounds:
            config = SurfacingConfig(max_results_per_page=bound, max_urls_per_form=400)
            result, site = _surface("books", f"books-bound{min(bound, 999)}.ablate", 200, config)
            record_sets = result.record_sets
            listed = sum(len(record_set) for record_set in record_sets)
            rows.append(
                (
                    bound,
                    result.urls_indexed,
                    round(result.records_covered / site.size(), 3),
                    round(listed / max(1, len(record_sets)), 1),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Ablation: indexability upper bound (max results per page)",
        rows,
        header=("bound", "pages kept", "coverage", "avg results/page"),
    )
    by_bound = {bound: (pages, coverage, average) for bound, pages, coverage, average in rows}
    # Tighter bounds never produce denser pages.
    assert by_bound[15][2] <= by_bound[10**9][2]
    # Every configuration keeps its pages within the configured bound.
    assert by_bound[15][2] <= 15


def test_keyword_budget_ablation(benchmark):
    budgets = [2, 6, 15]

    def sweep():
        rows = []
        for budget in budgets:
            config = SurfacingConfig(max_keywords=budget, max_urls_per_form=300)
            result, site = _surface("jobs", f"jobs-kw{budget}.ablate", 150, config)
            rows.append((budget, result.urls_generated, round(result.records_covered / site.size(), 3)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Ablation: iterative-probing keyword budget",
        rows,
        header=("max keywords", "urls generated", "coverage"),
    )
    coverages = [coverage for _budget, _urls, coverage in rows]
    # Coverage on a form with rich select/range inputs is already high with a
    # tiny keyword budget; the sweep checks that growing the budget does not
    # hurt and that the pipeline stays near-complete throughout.
    assert coverages[-1] >= coverages[0] - 0.05
    assert min(coverages) > 0.85


def test_stage_ablation(benchmark):
    """Whole-stage ablations: the pipeline built with ``stages=`` lacking one.

    Dropping correlation detection leaves min/max inputs uncorrelated, so
    the informativeness filter discards most of their templates and the
    site loses coverage; dropping candidate values starves template
    selection entirely; dropping the indexing stage leaves the index
    untouched while the rest of the pipeline still runs.
    """

    def run(ablate: str | None):
        site = build_deep_site(
            domain("used_cars"), "cars.stage-ablate", 150, SeededRng("stage-ablate")
        )
        web = Web()
        web.register(site)
        stages = [stage for stage in default_stages() if stage.name != ablate]
        pipeline = SurfacingPipeline(
            web, SearchEngine(), SurfacingConfig(max_urls_per_form=400), stages=stages
        )
        return pipeline.surface_site(site), site

    def describe(label, result, site):
        return (
            label,
            f"{result.urls_generated} / {result.urls_indexed}",
            round(result.records_covered / site.size(), 3),
        )

    full, site = benchmark.pedantic(run, args=(None,), rounds=1, iterations=1)
    no_correlations, _ = run("detect-correlations")
    no_values, _ = run("candidate-values")
    no_indexing, _ = run("index-pages")

    rows = [
        describe("full pipeline", full, site),
        describe("without detect-correlations", no_correlations, site),
        describe("without candidate-values", no_values, site),
        describe("without index-pages", no_indexing, site),
    ]
    print_table(
        "Ablation: whole stages (stages= without one)",
        rows,
        header=("configuration", "urls generated / indexed", "coverage"),
    )

    assert no_correlations.records_covered < full.records_covered
    assert no_values.urls_generated == 0
    assert no_indexing.urls_indexed == 0
    assert no_indexing.urls_generated == full.urls_generated
