"""Coverage estimation for surfaced content (Section 5.2).

The paper calls for statements of the form "with probability M%, more than
N% of the site's content has been exposed", and notes that existing greedy
surfacing algorithms provide no such guarantee.  This module provides:

* exact coverage against ground truth (possible in the simulator, where the
  site's database is known) -- used to validate the estimators;
* a capture-recapture estimate of the site's total record count from two
  independent probe samples, from which estimated coverage follows;
* a sampling-based probabilistic lower bound on coverage using the Wilson
  interval (sample random known records and check whether each appears on a
  surfaced page).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.util.rng import SeededRng
from repro.util.stats import (
    CaptureRecaptureEstimate,
    chapman_estimate,
    wilson_interval,
)
from repro.webspace.site import DeepWebSite


@dataclass
class CoverageReport:
    """Coverage of one site's content by a set of surfaced records."""

    host: str
    records_surfaced: int
    true_total: int | None = None
    estimated_total: float | None = None
    estimate: CaptureRecaptureEstimate | None = None
    lower_bound: float | None = None
    upper_bound: float | None = None
    confidence: float = 0.95

    @property
    def true_coverage(self) -> float | None:
        if self.true_total is None or self.true_total == 0:
            return None
        return min(1.0, self.records_surfaced / self.true_total)

    @property
    def estimated_coverage(self) -> float | None:
        if self.estimated_total is None or self.estimated_total <= 0:
            return None
        return min(1.0, self.records_surfaced / self.estimated_total)

    def statement(self) -> str:
        """The paper's "with probability M%, more than N% exposed" statement."""
        if self.lower_bound is None:
            return f"{self.host}: coverage unknown"
        return (
            f"{self.host}: with probability {self.confidence:.0%}, more than "
            f"{self.lower_bound:.0%} of the site's content has been exposed"
        )


class CoverageEstimator:
    """Estimates how much of a site's content a surfacing run exposed."""

    def __init__(self, rng: SeededRng | None = None) -> None:
        self.rng = rng or SeededRng("coverage")

    # -- record bookkeeping -----------------------------------------------------

    @staticmethod
    def distinct_records(record_id_sets: Iterable[frozenset[str]]) -> set[str]:
        """Union of the record-id sets observed across surfaced pages."""
        covered: set[str] = set()
        for ids in record_id_sets:
            covered |= ids
        return covered

    # -- capture-recapture --------------------------------------------------------

    def capture_recapture(
        self,
        first_sample: Sequence[frozenset[str]],
        second_sample: Sequence[frozenset[str]],
    ) -> CaptureRecaptureEstimate:
        """Estimate the total record population from two probe samples.

        Each sample is the list of record-id sets seen by an independent
        batch of probes (e.g. odd vs. even surfaced URLs).  Chapman's
        estimator is used so zero recaptures do not blow up.
        """
        first = self.distinct_records(first_sample)
        second = self.distinct_records(second_sample)
        recaptured = len(first & second)
        return chapman_estimate(len(first), len(second), recaptured)

    # -- probabilistic lower bound -------------------------------------------------

    def sampled_lower_bound(
        self,
        site: DeepWebSite,
        covered_records: set[str],
        sample_size: int = 50,
        confidence_z: float = 1.96,
    ) -> tuple[float, float]:
        """(lower, upper) bound on coverage from a random ground-truth sample.

        Samples records uniformly from the site's database and checks whether
        each is covered, then applies the Wilson interval.  In a production
        setting the sample would come from random-walk probes rather than the
        backend, but the statistical statement is identical.
        """
        all_ids = [
            f"{site.host}#{record_id}" for record_id in sorted(site.ground_truth_ids(), key=str)
        ]
        if not all_ids:
            return (0.0, 1.0)
        sample = self.rng.child(site.host).sample(all_ids, min(sample_size, len(all_ids)))
        successes = sum(1 for record_id in sample if record_id in covered_records)
        return wilson_interval(successes, len(sample), z=confidence_z)

    # -- full report -----------------------------------------------------------------

    def report(
        self,
        site: DeepWebSite,
        surfaced_record_sets: Sequence[frozenset[str]],
        sample_size: int = 50,
    ) -> CoverageReport:
        """Build a coverage report for one site after surfacing."""
        covered = self.distinct_records(surfaced_record_sets)
        report = CoverageReport(
            host=site.host,
            records_surfaced=len(covered),
            true_total=site.size(),
        )
        if len(surfaced_record_sets) >= 2:
            half = len(surfaced_record_sets) // 2
            estimate = self.capture_recapture(
                surfaced_record_sets[:half], surfaced_record_sets[half:]
            )
            report.estimate = estimate
            report.estimated_total = estimate.estimate
        lower, upper = self.sampled_lower_bound(site, covered, sample_size=sample_size)
        report.lower_bound = lower
        report.upper_bound = upper
        return report


@dataclass
class CoverageCurvePoint:
    """One point of a coverage-vs-budget curve (experiment E7)."""

    urls_fetched: int
    records_covered: int
    true_coverage: float
    estimated_coverage: float | None = None


def coverage_curve(
    site: DeepWebSite,
    record_sets_in_order: Sequence[frozenset[str]],
    step: int = 5,
) -> list[CoverageCurvePoint]:
    """Coverage as a function of the number of surfaced URLs (in fetch order)."""
    points: list[CoverageCurvePoint] = []
    covered: set[str] = set()
    total = max(1, site.size())
    estimator = CoverageEstimator()
    for index, record_ids in enumerate(record_sets_in_order, start=1):
        covered |= record_ids
        if index % step == 0 or index == len(record_sets_in_order):
            estimated = None
            if index >= 2:
                half = index // 2
                estimate = estimator.capture_recapture(
                    record_sets_in_order[:half], record_sets_in_order[half:index]
                )
                if estimate.estimate > 0:
                    estimated = min(1.0, len(covered) / estimate.estimate)
            points.append(
                CoverageCurvePoint(
                    urls_fetched=index,
                    records_covered=len(covered),
                    true_coverage=len(covered) / total,
                    estimated_coverage=estimated,
                )
            )
    return points
