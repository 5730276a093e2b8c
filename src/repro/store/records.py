"""The unified document model of the content store.

The paper's closing argument is that surfacing, virtual integration and
structured-data efforts (WebTables/ACSDb) are complementary routes to the
same goal: getting deep-web content into *one* searchable index.  The
store mirrors that: every content layer -- the crawler, the surfacing
pipeline, the virtual-integration registry and the table corpus -- writes
the same :class:`IngestRecord` shape, tagged with a ``source`` so
experiments can attribute results, and every record becomes a
:class:`Document` once a backend has assigned it a doc id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

#: Canonical source tags.  The first three predate the store (crawled
#: surface pages, crawled deep-web pages, surfaced form submissions); the
#: last two are the virtual-integration and WebTables write paths that now
#: land in the same store.
SOURCE_SURFACE = "surface"
SOURCE_DEEP_CRAWLED = "deep-crawled"
SOURCE_SURFACED = "surfaced"
SOURCE_VERTICAL = "vertical-source"
SOURCE_WEBTABLE = "webtable"

#: Sources that expose deep-web content.
DEEP_WEB_SOURCES = (SOURCE_SURFACED, SOURCE_DEEP_CRAWLED)


@dataclass
class Document:
    """One stored (indexed) page, as returned by every backend read."""

    doc_id: int
    url: str
    host: str
    title: str
    text: str
    source: str
    annotations: dict[str, str] = field(default_factory=dict)


@dataclass
class IngestRecord:
    """One write-path unit: a fully prepared document awaiting storage.

    ``tokens`` is the exact token stream to index (annotation tokens, when
    a producer wants them searchable, are already folded in); ``text`` is
    the displayable body kept for snippets and term-frequency estimation.
    """

    url: str
    host: str
    title: str
    text: str
    tokens: Sequence[str]
    source: str = SOURCE_SURFACE
    annotations: dict[str, str] = field(default_factory=dict)

    def as_document(self, doc_id: int) -> Document:
        """Materialize the stored view once a backend assigned ``doc_id``."""
        return Document(
            doc_id=doc_id,
            url=self.url,
            host=self.host,
            title=self.title,
            text=self.text,
            source=self.source,
            annotations=dict(self.annotations),
        )
