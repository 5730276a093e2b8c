"""The semantic services built over the aggregated corpus (Section 6).

Four services, matching the paper's list:

* :class:`SynonymService` -- given an attribute name, return names often
  used as synonyms (schema-matching helper);
* :class:`ValuesService` -- given an attribute name, return values for its
  column (useful for automatically filling forms during surfacing);
* :class:`PropertyService` -- given an entity, return properties (attributes)
  plausibly associated with it (information extraction / query expansion);
* :class:`AutocompleteService` -- given a few attributes, return other
  attributes database designers use with them (schema auto-complete).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.webtables.acsdb import AcsDb
from repro.webtables.corpus import TableCorpus, normalize_attribute


@dataclass(frozen=True)
class ScoredName:
    """A ranked suggestion returned by the services."""

    name: str
    score: float


class SynonymService:
    """Attribute-synonym suggestions from context similarity.

    Two attributes are likely synonyms when they share co-occurrence context
    (they appear alongside the same other attributes) but rarely appear in
    the same schema themselves.
    """

    def __init__(self, acsdb: AcsDb, min_frequency: int = 2) -> None:
        self.acsdb = acsdb
        self.min_frequency = min_frequency

    def synonyms(self, attribute: str, limit: int = 10) -> list[ScoredName]:
        attribute = normalize_attribute(attribute)
        base_frequency = self.acsdb.frequency(attribute)
        if base_frequency == 0:
            return []
        suggestions: list[ScoredName] = []
        for candidate in self.acsdb.attributes():
            if candidate == attribute:
                continue
            if self.acsdb.frequency(candidate) < self.min_frequency:
                continue
            context = self.acsdb.context_similarity(attribute, candidate)
            if context <= 0.0:
                continue
            # Penalize candidates that frequently co-occur with the attribute:
            # real synonyms rarely appear together in one schema.
            cooccurrence_rate = self.acsdb.cooccurrence(attribute, candidate) / base_frequency
            score = context * (1.0 - min(1.0, cooccurrence_rate))
            if score > 0.0:
                suggestions.append(ScoredName(name=candidate, score=score))
        suggestions.sort(key=lambda item: (-item.score, item.name))
        return suggestions[:limit]


class ValuesService:
    """Values observed for an attribute's column across the corpus."""

    def __init__(self, corpus: TableCorpus) -> None:
        self.corpus = corpus

    def values(self, attribute: str, limit: int | None = None) -> list[str]:
        values = self.corpus.attribute_values(attribute)
        return values if limit is None else values[:limit]


class PropertyService:
    """Properties plausibly associated with an entity value.

    The entity (e.g. ``"Toyota"``) is first resolved to the attributes whose
    columns contain it (``make``); the service then returns the attributes
    that co-occur with those, ranked by conditional probability.
    """

    def __init__(self, corpus: TableCorpus, acsdb: AcsDb) -> None:
        self.corpus = corpus
        self.acsdb = acsdb

    def attributes_containing(self, entity_value: str) -> list[str]:
        """Attributes whose observed values include the entity value."""
        needle = entity_value.strip().lower()
        hits = []
        for attribute in self.corpus.attributes():
            values = {value.strip().lower() for value in self.corpus.attribute_values(attribute)}
            if needle in values:
                hits.append(attribute)
        return hits

    def properties(self, entity_value: str, limit: int = 10) -> list[ScoredName]:
        anchors = self.attributes_containing(entity_value)
        if not anchors:
            return []
        scores: dict[str, float] = {}
        for anchor in anchors:
            for candidate in self.acsdb.attributes():
                if candidate in anchors:
                    continue
                probability = self.acsdb.conditional_probability(candidate, given=anchor)
                if probability > 0:
                    scores[candidate] = max(scores.get(candidate, 0.0), probability)
        ranked = [ScoredName(name=name, score=score) for name, score in scores.items()]
        ranked.sort(key=lambda item: (-item.score, item.name))
        return ranked[:limit]


class AutocompleteService:
    """Schema auto-complete: suggest attributes to add to a partial schema."""

    def __init__(self, acsdb: AcsDb) -> None:
        self.acsdb = acsdb

    def suggest(self, attributes: Iterable[str], limit: int = 10) -> list[ScoredName]:
        given = [normalize_attribute(name) for name in attributes]
        given_set = set(given)
        if not given_set:
            return []
        suggestions: list[ScoredName] = []
        for candidate in self.acsdb.attributes():
            if candidate in given_set:
                continue
            # Average conditional probability across the given attributes;
            # attributes never seen with any of them score zero.
            probabilities = [
                self.acsdb.conditional_probability(candidate, given=anchor) for anchor in given
            ]
            score = sum(probabilities) / len(probabilities)
            if score > 0.0:
                suggestions.append(ScoredName(name=candidate, score=score))
        suggestions.sort(key=lambda item: (-item.score, item.name))
        return suggestions[:limit]


def precision_at_k(
    suggestions: Sequence[ScoredName], relevant: Iterable[str], k: int
) -> float:
    """Precision@k of a ranked suggestion list against a relevant set."""
    if k <= 0:
        return 0.0
    relevant_set = {normalize_attribute(name) for name in relevant}
    top = [suggestion.name for suggestion in suggestions[:k]]
    if not top:
        return 0.0
    hits = sum(1 for name in top if normalize_attribute(name) in relevant_set)
    return hits / min(k, len(top))
