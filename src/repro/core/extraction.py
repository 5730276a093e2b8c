"""Extraction of structured records from surfaced pages (Section 5.1).

The paper poses the challenge of recovering relational data from pages that
are *known* to be generated by deep-web forms.
:func:`extract_result_records` recovers one record per result entry on a
results page by exploiting the repeated entry structure (a heading link
plus an attribute summary), i.e. lightweight wrapper induction over the
page's repeated DOM pattern.  It works purely from the HTML.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.htmlparse.dom import DomNode, parse_html
from repro.webspace.url import Url

_SUMMARY_FIELD_RE = re.compile(r"\s*([\w ]+):\s*(.+?)\s*$")


@dataclass
class ExtractedRecord:
    """One record recovered from a surfaced page."""

    title: str = ""
    detail_url: str = ""
    record_id: str = ""
    fields: dict[str, str] = field(default_factory=dict)


def _record_id_from_url(url_text: str) -> str:
    if not url_text:
        return ""
    try:
        url = Url.parse(url_text)
    except ValueError:  # a malformed detail href (``http://[x/...``) names no record
        return ""
    return url.param("id") or ""


def _parse_summary(summary: str) -> dict[str, str]:
    """Parse "make: Honda | price: 4500" style summaries into fields."""
    fields: dict[str, str] = {}
    for chunk in summary.split("|"):
        match = _SUMMARY_FIELD_RE.match(chunk)
        if match:
            key = match.group(1).strip().lower().replace(" ", "_")
            fields[key] = match.group(2).strip()
    return fields


def _result_nodes(root: DomNode) -> list[DomNode]:
    """Find the repeated result-entry nodes on a page.

    Primary signal: elements whose class contains "result".  Fallback:
    the most common (tag, class) signature among divs that contain both a
    heading and a link -- a small dose of wrapper induction for pages that do
    not use the convention.
    """
    explicit = [
        node
        for node in root.walk()
        if node.tag in ("div", "li") and "result" in node.attr("class", "")
    ]
    if explicit:
        return explicit
    candidates: dict[tuple[str, str], list[DomNode]] = {}
    for node in root.walk():
        if node.tag not in ("div", "li"):
            continue
        has_link = node.find_first("a") is not None
        has_heading = any(node.find_first(f"h{level}") is not None for level in range(1, 5))
        if has_link and has_heading:
            key = (node.tag, node.attr("class", ""))
            candidates.setdefault(key, []).append(node)
    if not candidates:
        return []
    best = max(candidates.values(), key=len)
    return best if len(best) >= 2 else []


def extract_result_records(html_or_dom: str | DomNode) -> list[ExtractedRecord]:
    """Extract one record per result entry on a surfaced results page."""
    root = parse_html(html_or_dom) if isinstance(html_or_dom, str) else html_or_dom
    records: list[ExtractedRecord] = []
    for node in _result_nodes(root):
        anchor = node.find_first("a")
        title = anchor.text() if anchor is not None else node.text()[:80]
        detail_url = anchor.attr("href") if anchor is not None else ""
        summary_fields: dict[str, str] = {}
        for paragraph in node.find_all("p"):
            summary_fields.update(_parse_summary(paragraph.text()))
        records.append(
            ExtractedRecord(
                title=title.strip(),
                detail_url=detail_url,
                record_id=_record_id_from_url(detail_url),
                fields=summary_fields,
            )
        )
    return records
