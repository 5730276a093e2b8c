"""Attribute co-occurrence statistics (the ACSDb of the WebTables project).

The attribute correlation-statistics database counts, over all schemata in
the corpus, how often each attribute appears and how often each pair of
attributes co-occurs.  Every semantic service is a different read of these
statistics.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, Sequence

from repro.webtables.corpus import TableCorpus, normalize_attribute


class AcsDb:
    """Attribute and attribute-pair frequency statistics over schemata."""

    def __init__(self, schemata: Iterable[Sequence[str]]) -> None:
        self.schema_count = 0
        self.attribute_counts: Counter = Counter()
        self.pair_counts: dict[str, Counter] = defaultdict(Counter)
        for schema in schemata:
            attributes = sorted({normalize_attribute(name) for name in schema if name})
            if not attributes:
                continue
            self.schema_count += 1
            for attribute in attributes:
                self.attribute_counts[attribute] += 1
            for index, left in enumerate(attributes):
                for right in attributes[index + 1 :]:
                    self.pair_counts[left][right] += 1
                    self.pair_counts[right][left] += 1

    @classmethod
    def from_corpus(cls, corpus: TableCorpus) -> "AcsDb":
        return cls(corpus.schemata())

    # -- frequencies -------------------------------------------------------------

    def attributes(self) -> list[str]:
        return sorted(self.attribute_counts.keys())

    def frequency(self, attribute: str) -> int:
        """Number of schemata containing the attribute."""
        return self.attribute_counts.get(normalize_attribute(attribute), 0)

    def cooccurrence(self, left: str, right: str) -> int:
        """Number of schemata containing both attributes."""
        return self.pair_counts.get(normalize_attribute(left), Counter()).get(
            normalize_attribute(right), 0
        )

    def conditional_probability(self, attribute: str, given: str) -> float:
        """P(attribute in schema | given in schema)."""
        given_count = self.frequency(given)
        if given_count == 0:
            return 0.0
        return self.cooccurrence(attribute, given) / given_count

    # -- context vectors ------------------------------------------------------------

    def context_vector(self, attribute: str) -> dict[str, float]:
        """The attribute's co-occurrence profile, normalized to probabilities."""
        attribute = normalize_attribute(attribute)
        count = self.attribute_counts.get(attribute, 0)
        if count == 0:
            return {}
        return {
            other: co_count / count
            for other, co_count in self.pair_counts.get(attribute, Counter()).items()
        }

    def context_similarity(self, left: str, right: str) -> float:
        """Cosine similarity of two attributes' co-occurrence contexts.

        The context excludes the two attributes themselves so that synonyms
        (which rarely co-occur with each other but share neighbours) score
        high.
        """
        left_norm, right_norm = normalize_attribute(left), normalize_attribute(right)
        left_vector = {
            key: value for key, value in self.context_vector(left_norm).items() if key != right_norm
        }
        right_vector = {
            key: value for key, value in self.context_vector(right_norm).items() if key != left_norm
        }
        if not left_vector or not right_vector:
            return 0.0
        dot = sum(left_vector[key] * right_vector.get(key, 0.0) for key in left_vector)
        left_len = sum(value * value for value in left_vector.values()) ** 0.5
        right_len = sum(value * value for value in right_vector.values()) ** 0.5
        if left_len == 0 or right_len == 0:
            return 0.0
        return dot / (left_len * right_len)
