"""Two services in one process share nothing ambient.

Every module-level ``dict`` / ``list`` / ``set`` in ``repro`` is measured
before and after two services surface, search, plan and serve; none may
grow except the size-capped memos of pure functions named below, whose
entries depend on the key alone, so sharing them changes no answer.
"""

from __future__ import annotations

import importlib
import pkgutil

import repro
from repro.api import DeepWebService, SurfacingConfig, WebConfig
from repro.serve.loadgen import WorkloadGenerator

#: Bounded memos of pure functions (each clears or stops filling at a cap).
ALLOWED = {
    ("repro.webspace.url", "_PARSE_CACHE"),
    ("repro.relational", "_TOKEN_SET_CACHE"),
    ("repro.webspace.html", "_BANNER_CACHE"),
}


def module_containers() -> dict[tuple[str, str], int]:
    """``(module, name) -> len`` for every module-level container in ``repro``."""
    sizes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if not name.startswith("__") and isinstance(value, (dict, list, set)):
                sizes[(info.name, name)] = len(value)
    return sizes


def use_a_service(seed: int) -> None:
    service = (
        DeepWebService.build()
        .web(WebConfig(total_deep_sites=2, surface_site_count=1, max_records=30, seed=seed))
        .surfacing(SurfacingConfig(max_urls_per_form=30))
        .create()
    )
    service.crawl(max_pages=30)
    service.surface()
    assert service.report().urls_indexed > 0
    service.query("records listings", k=5, min_per_source=3, include_webtables=False)
    service.query("city:portland records", k=5, live=True)
    with service.frontend as frontend:
        stream = WorkloadGenerator(service.web, seed=seed).stream(20, k=5)
        frontend.serve_workload(stream, default_k=5)


def test_no_module_level_state_grows_across_two_services():
    before = module_containers()
    use_a_service(seed=3)
    use_a_service(seed=4)
    grown = {
        key: (before.get(key, 0), size)
        for key, size in module_containers().items()
        if size != before.get(key, 0) and key not in ALLOWED
    }
    assert grown == {}, f"module-level state grew: {grown}"
