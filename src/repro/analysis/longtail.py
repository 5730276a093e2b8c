"""Deep-web impact analysis and the long-tail result (experiment E1).

The production system's headline numbers were: the top 10,000 forms (by the
number of search queries they impacted) accounted for only 50% of deep-web
results, and the top 100,000 forms for only 85% -- i.e. impact is spread
over a very long tail of forms, and it falls disproportionately on rare
(tail) queries because head queries are already covered by SEO'd surface
sites.  This module measures the same quantities on the simulated web.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.search.engine import SearchEngine
from repro.search.querylog import KIND_HEAD, KIND_TAIL, QueryLog
from repro.util.stats import cumulative_share


@dataclass
class FormImpact:
    """Impact attribution for one form site."""

    host: str
    impacted_queries: int = 0
    impacted_volume: int = 0


@dataclass
class ImpactReport:
    """Deep-web impact over one query log."""

    total_queries: int = 0
    total_volume: int = 0
    queries_with_deep_result: int = 0
    volume_with_deep_result: int = 0
    head_queries: int = 0
    head_with_deep_result: int = 0
    tail_queries: int = 0
    tail_with_deep_result: int = 0
    form_impacts: dict[str, FormImpact] = field(default_factory=dict)

    @property
    def deep_result_rate(self) -> float:
        if self.total_queries == 0:
            return 0.0
        return self.queries_with_deep_result / self.total_queries

    @property
    def head_impact_rate(self) -> float:
        if self.head_queries == 0:
            return 0.0
        return self.head_with_deep_result / self.head_queries

    @property
    def tail_impact_rate(self) -> float:
        if self.tail_queries == 0:
            return 0.0
        return self.tail_with_deep_result / self.tail_queries

    def impacts_by_rank(self) -> list[FormImpact]:
        """Form impacts ordered by the number of impacted queries (desc)."""
        return sorted(
            self.form_impacts.values(),
            key=lambda impact: (-impact.impacted_queries, impact.host),
        )

    def share_of_top_forms(self, top: int) -> float:
        """Share of all deep-web results contributed by the top ``top`` forms."""
        ordered = [impact.impacted_queries for impact in self.impacts_by_rank()]
        total = sum(ordered)
        if total == 0:
            return 0.0
        return sum(ordered[:top]) / total


def deep_web_impact(
    engine: SearchEngine,
    log: QueryLog,
    k: int = 10,
    deep_sources: Sequence[str] = ("surfaced",),
) -> ImpactReport:
    """Measure which queries have a deep-web (surfaced) page in their top-k.

    A query is *impacted* when at least one of its top-k results is a
    surfaced page; the impact is attributed to the host of the highest-ranked
    such page (one form site per query, matching how the production analysis
    counted forms).
    """
    report = ImpactReport(total_queries=len(log), total_volume=log.total_volume)
    deep_source_set = set(deep_sources)
    for query in log:
        results = engine.search(query.text, k=k)
        deep_hit = next((result for result in results if result.source in deep_source_set), None)
        is_head = query.kind == KIND_HEAD
        if is_head:
            report.head_queries += 1
        elif query.kind == KIND_TAIL:
            report.tail_queries += 1
        if deep_hit is None:
            continue
        report.queries_with_deep_result += 1
        report.volume_with_deep_result += query.frequency
        if is_head:
            report.head_with_deep_result += 1
        elif query.kind == KIND_TAIL:
            report.tail_with_deep_result += 1
        impact = report.form_impacts.setdefault(deep_hit.host, FormImpact(host=deep_hit.host))
        impact.impacted_queries += 1
        impact.impacted_volume += query.frequency
    return report


def cumulative_impact_curve(report: ImpactReport) -> list[float]:
    """Cumulative share of deep-web results vs. form rank (rank 1 first)."""
    counts = [impact.impacted_queries for impact in report.impacts_by_rank()]
    return cumulative_share(counts)


def forms_needed_for_share(report: ImpactReport, share: float) -> int:
    """How many top forms are needed to cover ``share`` of deep-web results.

    This is the scaled-down analogue of the paper's "top 10,000 forms cover
    50%" observation.
    """
    curve = cumulative_impact_curve(report)
    for index, value in enumerate(curve, start=1):
        if value >= share:
            return index
    return len(curve)


@dataclass(frozen=True)
class HeadTailSplit:
    """Impact rates on head vs. tail queries (the paper's qualitative claim)."""

    head_rate: float
    tail_rate: float


def head_tail_split(report: ImpactReport) -> HeadTailSplit:
    return HeadTailSplit(head_rate=report.head_impact_rate, tail_rate=report.tail_impact_rate)
