"""Semantic annotations for surfaced pages (Section 5.1).

When a deep-web page is surfaced, the structure of the underlying data is
lost -- the page is indexed as plain text.  The paper argues the inputs that
were filled in to generate the page are themselves valuable annotations
("this page lists used-car records with make=Honda"), and that an
IR index able to exploit such annotations avoids false matches like the
Honda Civic page returned for a Ford Focus query.

The annotation model here is deliberately simple: a bag of key/value pairs
derived from the form bindings (plus the site's domain), which the search
engine indexes as additional tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


@dataclass(frozen=True)
class PageAnnotation:
    """Structured hints attached to one surfaced page."""

    domain: str = ""
    bindings: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    @property
    def as_dict(self) -> dict[str, str]:
        annotations = {key: value for key, value in self.bindings}
        if self.domain:
            annotations["domain"] = self.domain
        return annotations


def annotation_for_bindings(
    bindings: Mapping[str, str], domain: str = ""
) -> PageAnnotation:
    """Build a :class:`PageAnnotation` from the bindings used to surface a page."""
    pairs = tuple(sorted((str(key), str(value)) for key, value in bindings.items() if str(value).strip()))
    return PageAnnotation(domain=domain, bindings=pairs)
