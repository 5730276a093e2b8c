"""Hyperlink extraction, with relative-link resolution against the page URL."""

from __future__ import annotations

from typing import Iterable

from repro.htmlparse.dom import DomNode, parse_html
from repro.webspace.url import Url


def keep_href(href: str) -> bool:
    """Whether an anchor target is a real hyperlink (not a fragment/script)."""
    return bool(href) and not href.startswith("#") and not href.lower().startswith("javascript:")


def raw_hrefs(root: DomNode) -> list[str]:
    """Anchor targets in document order, stripped but unresolved.

    Fragment-only and javascript links are dropped; duplicates are kept
    (de-duplication happens on the *resolved* strings in
    :func:`resolve_links`, exactly as before the split).
    """
    hrefs: list[str] = []
    for anchor in root.find_all("a"):
        href = anchor.attr("href").strip()
        if keep_href(href):
            hrefs.append(href)
    return hrefs


def resolve_links(hrefs: Iterable[str], page_url: str | Url | None = None) -> list[str]:
    """Resolve raw hrefs to absolute URL strings, de-duplicated in order.

    Relative links (``/item?id=3``) are resolved against ``page_url``'s
    host and dropped when no base is available; an href :meth:`Url.parse`
    rejects is dropped too, so one hostile link cannot end a crawl.
    """
    base: Url | None = None
    if page_url is not None:
        base = page_url if isinstance(page_url, Url) else Url.parse(str(page_url))
    seen: dict[str, None] = {}
    for href in hrefs:
        resolved = _resolve(href, base)
        if resolved is not None and resolved not in seen:
            seen[resolved] = None
    return list(seen.keys())


def extract_links(html_or_dom: str | DomNode, page_url: str | Url | None = None) -> list[str]:
    """All anchor targets on a page, resolved to absolute URL strings.

    Relative links (``/item?id=3``) are resolved against ``page_url``'s host;
    fragment-only and javascript links are dropped.  Duplicates are removed
    while preserving first-seen order.
    """
    root = parse_html(html_or_dom) if isinstance(html_or_dom, str) else html_or_dom
    return resolve_links(raw_hrefs(root), page_url)


def _resolve(href: str, base: Url | None) -> str | None:
    if "://" in href:
        text = href
    elif base is None:
        return None
    elif href.startswith("/"):
        text = f"http://{base.host}{href}"
    else:
        # Relative path without a leading slash: resolve against the base directory.
        text = f"http://{base.host}{base.path.rsplit('/', 1)[0]}/{href}"
    try:
        return str(Url.parse(text))
    except ValueError:  # not a URL at all (``http://[x/``): not a link
        return None
