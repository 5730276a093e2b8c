"""Reference normalizers for the persist tier's byte-identity pins.

Two services produced "the same output" when these projections of their
surfacing results and of their engine's documents compare equal.
"""

from __future__ import annotations


def normalized_results(results) -> list[tuple]:
    out = []
    for result in results:
        out.append(
            (
                result.host,
                result.domain,
                result.forms_found,
                result.forms_surfaced,
                result.post_forms_skipped,
                result.urls_generated,
                result.urls_indexed,
                result.probes_issued,
                result.analysis_load,
                result.records_covered,
                tuple(tuple(sorted(record_set)) for record_set in result.record_sets),
                None
                if result.coverage is None
                else (
                    result.coverage.true_coverage,
                    result.coverage.lower_bound,
                    result.coverage.upper_bound,
                ),
            )
        )
    return out


def fault_accounting(service) -> tuple[list[tuple], list[str]]:
    """Per-site fault counters, and the per-site report rows that print them."""
    return (
        [(r.host, r.fetch_errors, r.fetch_retries, r.degraded) for r in service.results],
        [line for line in service.report().lines() if line.startswith("  ")],
    )


def normalized_index(engine) -> list[tuple]:
    return [
        (doc.doc_id, doc.url, doc.host, doc.title, doc.text, doc.source,
         tuple(sorted(doc.annotations.items())))
        for doc in engine.documents()
    ]
