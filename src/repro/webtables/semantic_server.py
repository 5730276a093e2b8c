"""The semantic server facade (Section 6).

Bundles the corpus, the ACSDb statistics and the four services behind one
object, and provides the convenience constructor that builds everything from
a simulated web (crawling detail pages and form pages for raw material).
"""

from __future__ import annotations

from repro.webspace.web import Web
from repro.webtables.acsdb import AcsDb
from repro.webtables.corpus import HarvestState, TableCorpus, harvest_web
from repro.webtables.services import (
    AutocompleteService,
    PropertyService,
    ScoredName,
    SynonymService,
    ValuesService,
)


class SemanticServer:
    """One facade over the four semantic services."""

    def __init__(self, corpus: TableCorpus) -> None:
        self.corpus = corpus
        self.acsdb = AcsDb.from_corpus(corpus)
        self.synonym_service = SynonymService(self.acsdb)
        self.values_service = ValuesService(corpus)
        self.property_service = PropertyService(corpus, self.acsdb)
        self.autocomplete_service = AutocompleteService(self.acsdb)

    # -- service entry points --------------------------------------------------

    def synonyms(self, attribute: str, limit: int = 10) -> list[ScoredName]:
        """Names often used as synonyms of ``attribute``."""
        return self.synonym_service.synonyms(attribute, limit=limit)

    def values(self, attribute: str, limit: int | None = None) -> list[str]:
        """Observed values for ``attribute``'s column."""
        return self.values_service.values(attribute, limit=limit)

    def properties(self, entity_value: str, limit: int = 10) -> list[ScoredName]:
        """Attributes plausibly associated with an entity."""
        return self.property_service.properties(entity_value, limit=limit)

    def autocomplete(self, attributes: list[str], limit: int = 10) -> list[ScoredName]:
        """Schema auto-complete suggestions for a partial attribute list."""
        return self.autocomplete_service.suggest(attributes, limit=limit)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_web(cls, web: Web, detail_pages_per_site: int = 15) -> "SemanticServer":
        """Build a semantic server by sampling the simulated web.

        For every deep-web site the corpus takes in the homepage form and a
        sample of detail pages (attribute/value tables), the same walk the
        facade's ``harvest_tables`` makes.  This mirrors how the production
        corpus was assembled from crawled pages and forms.
        """
        corpus = TableCorpus()
        harvest_web(web, corpus, HarvestState(), detail_pages_per_site)
        return cls(corpus)
