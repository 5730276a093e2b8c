"""Text processing helpers shared by the search engine, the probing code and
the semantic services."""

from __future__ import annotations

import re
from typing import Iterable

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# A deliberately small stopword list: enough to keep probing keywords and
# index postings meaningful without pretending to be a full IR stack.
STOPWORDS = frozenset(
    """
    a an and are as at be but by for from has have in is it its of on or that
    the this to was were will with you your we our us they their not no all
    any can more other new used per about into over under
    """.split()
)


def normalize(text: str) -> str:
    """Lower-case and collapse whitespace."""
    return " ".join(text.lower().split())


def tokenize(text: str, drop_stopwords: bool = False) -> list[str]:
    """Split text into lower-case alphanumeric tokens.

    ``drop_stopwords`` removes common English function words; keep them when
    indexing (BM25 handles them fine) and drop them when selecting probe
    keywords or comparing attribute names.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if drop_stopwords:
        tokens = [token for token in tokens if token not in STOPWORDS]
    return tokens


def jaccard(left: Iterable[str], right: Iterable[str]) -> float:
    """Jaccard similarity of two token collections (0.0 when both empty)."""
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 0.0
    union = left_set | right_set
    return len(left_set & right_set) / len(union)


def name_tokens(identifier: str) -> list[str]:
    """Tokenize a form-input or column identifier.

    Splits on underscores, dashes and camelCase so that ``minPrice``,
    ``min_price`` and ``min-price`` all yield ``["min", "price"]``.
    """
    spaced = re.sub(r"([a-z0-9])([A-Z])", r"\1 \2", identifier)
    spaced = re.sub(r"[_\-.]+", " ", spaced)
    return tokenize(spaced)


def edit_distance(left: str, right: str) -> int:
    """Levenshtein distance; used for fuzzy attribute-name matching."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    previous = list(range(len(right) + 1))
    for i, left_char in enumerate(left, start=1):
        current = [i]
        for j, right_char in enumerate(right, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            substitute_cost = previous[j - 1] + (left_char != right_char)
            current.append(min(insert_cost, delete_cost, substitute_cost))
        previous = current
    return previous[-1]


def string_similarity(left: str, right: str) -> float:
    """Normalized similarity in [0, 1] based on edit distance."""
    left_norm, right_norm = normalize(left), normalize(right)
    if not left_norm and not right_norm:
        return 1.0
    longest = max(len(left_norm), len(right_norm))
    if longest == 0:
        return 1.0
    return 1.0 - edit_distance(left_norm, right_norm) / longest
