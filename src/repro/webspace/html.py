"""HTML rendering helpers for the simulated sites.

The markup is intentionally plain (tables, divs, anchors) but well-formed, so
that the :mod:`repro.htmlparse` substrate -- and therefore the surfacing and
extraction code -- has realistic structure to work against.
"""

from __future__ import annotations

from html import escape
from typing import Iterable, Mapping


def render_page(title: str, body: str, language: str = "en") -> str:
    """A complete HTML document."""
    return (
        f'<html lang="{escape(language)}"><head><title>{escape(title)}</title></head>'
        f"<body>{body}</body></html>"
    )


def heading(text: str, level: int = 1) -> str:
    level = min(max(level, 1), 6)
    return f"<h{level}>{escape(text)}</h{level}>"


def paragraph(text: str) -> str:
    return f"<p>{escape(text)}</p>"


def link(url: str, text: str) -> str:
    return f'<a href="{escape(url, quote=True)}">{escape(text)}</a>'


def unordered_list(items: Iterable[str]) -> str:
    rendered = "".join(f"<li>{item}</li>" for item in items)
    return f"<ul>{rendered}</ul>"


def definition_table(record: Mapping[str, object], css_class: str = "record") -> str:
    """A two-column attribute/value table for a detail page."""
    rows = "".join(
        f"<tr><th>{escape(str(key))}</th><td>{escape(str(value))}</td></tr>"
        for key, value in record.items()
        if value is not None
    )
    return f'<table class="{escape(css_class)}">{rows}</table>'


def result_item(detail_url: str, title: str, summary: str) -> str:
    """One result entry on a form-results page."""
    return (
        '<div class="result">'
        f"<h3>{link(detail_url, title)}</h3>"
        f"<p>{escape(summary)}</p>"
        "</div>"
    )


_BANNER_CACHE: dict[int, str] = {}


def result_count_banner(total: int) -> str:
    """The "N results found" banner the probing code keys off."""
    banner = _BANNER_CACHE.get(total)
    if banner is None:
        noun = "result" if total == 1 else "results"
        banner = f'<p class="result-count">{total} {noun} found</p>'
        if len(_BANNER_CACHE) < 10000:
            _BANNER_CACHE[total] = banner
    return banner


def no_results_banner() -> str:
    return '<p class="result-count">No results found</p>'
