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
stage runs and their cumulative timings (what no result object records);
:class:`ProgressObserver` prints a deterministic progress line per site.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import IO, TYPE_CHECKING

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


class MetricsObserver(PipelineObserver):
    """Counts stage executions and accumulates their timings.

    Site totals (forms, URLs, probes, seconds) are not kept here: the
    :class:`~repro.core.surfacer.SiteSurfacingResult` list is their one
    owner, and it survives a snapshot/restore that no observer watches.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero the counters (when the results they belong to are replaced)."""
        self.stage_runs: Counter[str] = Counter()
        self.stage_seconds: Counter[str] = Counter()

    def on_stage_end(self, stage_name, ctx, elapsed) -> None:
        self.stage_runs[stage_name] += 1
        self.stage_seconds[stage_name] += elapsed

    def as_dict(self) -> dict[str, object]:
        """Both counters as plain dicts."""
        return {
            "stage_runs": dict(self.stage_runs),
            "stage_seconds": dict(self.stage_seconds),
        }


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
