"""Observer hooks for the surfacing pipeline.

Benchmarks and the service facade used to re-derive every metric from the
result objects after the fact; the observer protocol lets them watch the
pipeline as it runs instead.  ``SurfacingPipeline`` emits:

* ``on_site_start(site, index, total)`` / ``on_site_end(site, result,
  index, total)`` around each site (with deterministic 0-based ``index``
  out of ``total`` for progress reporting);
* ``on_stage_start(stage_name, ctx)`` / ``on_stage_end(stage_name, ctx,
  elapsed)`` around each stage execution (form-scoped stages fire once per
  form).

Observers must not mutate the context.  :class:`MetricsObserver` counts
stage runs, their cumulative timings and the fetches each stage cost its
sites (what no result object records); :class:`ProgressObserver` prints a
deterministic progress line per site.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING

from repro.webspace.loadmeter import AGENT_SURFACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.surfacer import SiteSurfacingResult
    from repro.pipeline.context import PipelineContext
    from repro.webspace.site import DeepWebSite


class PipelineObserver:
    """Base observer; every hook is a no-op.  Subclass and override."""

    def on_site_start(self, site: "DeepWebSite", index: int, total: int) -> None:
        """Called before a site is surfaced (``index`` of ``total``)."""

    def on_site_end(
        self, site: "DeepWebSite", result: "SiteSurfacingResult", index: int, total: int
    ) -> None:
        """Called after a site has been surfaced."""

    def on_stage_start(self, stage_name: str, ctx: "PipelineContext") -> None:
        """Called before a stage runs."""

    def on_stage_end(self, stage_name: str, ctx: "PipelineContext", elapsed: float) -> None:
        """Called after a stage ran; ``elapsed`` is wall-clock seconds."""


@dataclass
class StageTotals:
    """Everything a :class:`MetricsObserver` holds, keyed by stage name."""

    stage_runs: Counter[str] = field(default_factory=Counter)
    stage_seconds: Counter[str] = field(default_factory=Counter)
    #: Surfacer-agent fetches the site received while the stage ran: the
    #: per-stage split of ``SiteSurfacingResult.analysis_load``.
    stage_fetches: Counter[str] = field(default_factory=Counter)


class MetricsObserver(PipelineObserver):
    """Counts stage executions and accumulates their timings and fetches.

    Site totals (forms, URLs, probes, seconds) are not kept here: the
    :class:`~repro.core.surfacer.SiteSurfacingResult` list is their one
    owner, and it survives a snapshot/restore that no observer watches.
    """

    def __init__(self) -> None:
        self.totals = StageTotals()
        self._load_before = 0

    def reset(self) -> None:
        """Zero the counters (when the results they belong to are replaced)."""
        self.totals = StageTotals()

    @staticmethod
    def _site_load(ctx: "PipelineContext") -> int:
        return ctx.web.load_meter.total(host=ctx.site.host, agent=AGENT_SURFACER)

    def on_stage_start(self, stage_name, ctx) -> None:
        self._load_before = self._site_load(ctx)

    def on_stage_end(self, stage_name, ctx, elapsed) -> None:
        totals = self.totals
        totals.stage_runs[stage_name] += 1
        totals.stage_seconds[stage_name] += elapsed
        totals.stage_fetches[stage_name] += self._site_load(ctx) - self._load_before

    def as_dict(self) -> dict[str, object]:
        """Every counter as a plain dict."""
        return {name: dict(counter) for name, counter in vars(self.totals).items()}


class ProgressObserver(PipelineObserver):
    """Prints one deterministic line per site (content carries no timing,
    so seeded runs produce identical output)."""

    def __init__(self, stream: IO[str] | None = None) -> None:
        # ``sys.stdout`` is resolved at print time so redirection/capture
        # set up after construction still applies.
        self.stream = stream

    def _print(self, line: str) -> None:
        print(line, file=self.stream if self.stream is not None else sys.stdout)

    def on_site_start(self, site, index, total) -> None:
        self._print(f"[{index + 1}/{total}] surfacing {site.host} ...")

    def on_site_end(self, site, result, index, total) -> None:
        self._print(
            f"[{index + 1}/{total}] surfaced {site.host}: "
            f"forms={result.forms_surfaced}/{result.forms_found} "
            f"urls={result.urls_indexed} records={result.records_covered}"
        )
