"""The seam that decides how a set of sites flows through a pipeline.

The facade hands every ``surface()`` / ``surface_many()`` call to one
:class:`SurfacingScheduler`.  The default runs the sites serially through
:meth:`SurfacingPipeline.surface_many`;
:class:`~repro.persist.journal.ResumableSurfacingScheduler` overrides
:meth:`SurfacingScheduler.run` to checkpoint every completed site.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.surfacer import SiteSurfacingResult
from repro.pipeline.pipeline import SurfacingPipeline
from repro.webspace.site import DeepWebSite


class SurfacingScheduler:
    """Serial scheduler: one site after another, live observer events,
    direct engine writes."""

    def run(
        self,
        pipeline: SurfacingPipeline,
        sites: Iterable[DeepWebSite],
        start_index: int = 0,
        total: int | None = None,
    ) -> list[SiteSurfacingResult]:
        """Surface the sites in order.

        ``start_index``/``total`` keep observer progress global when the
        caller is itself accumulating across several ``run`` calls.
        """
        return pipeline.surface_many(sites, start_index=start_index, total=total)
