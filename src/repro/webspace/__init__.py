"""The simulated web.

A :class:`~repro.webspace.web.Web` holds deep-web sites
(:class:`~repro.webspace.site.DeepWebSite` -- one HTML form over one
backend table) and surface-web sites
(:class:`~repro.webspace.surface_site.SurfaceSite` -- heavily interlinked
static pages for popular head topics).  Everything is fetched through
``Web.fetch`` which meters per-site load, so the paper's load arguments
(surfacing's off-line load vs. virtual integration's query-time load) can be
measured.
"""

from repro.webspace.url import Url
from repro.webspace.page import WebPage
from repro.webspace.loadmeter import LoadMeter
from repro.webspace.site import DeepWebSite, FormInputSpec, FormTemplate
from repro.webspace.surface_site import SurfaceSite
from repro.webspace.web import Web
from repro.webspace.sitegen import WebConfig, generate_web

__all__ = [
    "Url",
    "WebPage",
    "LoadMeter",
    "FormInputSpec",
    "FormTemplate",
    "DeepWebSite",
    "SurfaceSite",
    "Web",
    "WebConfig",
    "generate_web",
]
