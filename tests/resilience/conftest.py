"""Fixtures for the chaos/resilience suite.

Service builds here are *deterministic twins*: calling the factory twice
yields two services with byte-identical stores (same seeded generation,
same crawl/surface/harvest), which is what lets tests build one with a
fault plan and compare it against the other without snapshot plumbing.
"""

from __future__ import annotations

import pytest

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig
from repro.resilience import BreakerRegistry, FaultPlan, RetryPolicy
from repro.webspace.sitegen import WebConfig


def build_chaos_service(
    faults: FaultPlan | None = None,
    policy: RetryPolicy | None = None,
    breakers: BreakerRegistry | None = None,
) -> DeepWebService:
    """Build one twin; a faulted one through the builder's ``.faults()``
    (and ``.resilience()`` when a policy or registry is given).

    ``faults`` must arrive paused (``enabled=False``), so the crawl,
    surfacing, harvest and vertical registration stay fault-free and the
    twin's store is byte-identical to the clean one; injection starts
    when set-up is done.
    """
    builder = (
        DeepWebService.build()
        .web(WebConfig(total_deep_sites=4, surface_site_count=1, max_records=50, seed=7))
        .surfacing(SurfacingConfig(max_urls_per_form=40))
    )
    if faults is not None:
        assert not faults.enabled, "pass a paused plan: set-up must stay fault-free"
        builder = builder.faults(faults)
    if policy is not None or breakers is not None:
        builder = builder.resilience(policy, breakers)
    service = builder.create()
    service.crawl(max_pages=40)
    service.surface()
    service.harvest_tables()
    service.vertical  # register live hosts (clean, un-faulted fetches)
    if faults is not None:
        faults.enabled = True
    return service


@pytest.fixture(scope="module")
def chaos_factory():
    return build_chaos_service


@pytest.fixture(scope="module")
def clean_service():
    """A module-scoped fault-free twin; tests must treat it as read-only
    apart from executing plans (which only appends stats)."""
    return build_chaos_service()
