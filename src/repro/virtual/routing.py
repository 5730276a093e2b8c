"""Query routing: which form sources are relevant to a keyword query?

The paper's argument against web-scale virtual integration is that routing
keyword queries to the right handful of forms requires per-form models of
"all possible search-engine queries with results in the underlying content",
and that imprecise models either miss answers or overload sites.  Routing
here uses the practical signals a routing layer realistically has: the
mediated-schema keywords of the form's domain, the form's select-option
values, and the site's own description text -- but *not* the site's full
content, which is exactly why fortuitous queries get missed.

Each registered source keeps its vocabulary; the query planner scores
sources with :func:`routing_score` and keeps those at or above
:data:`MIN_ROUTING_SCORE`.
"""

from __future__ import annotations

from typing import Sequence

from repro.util.text import tokenize
from repro.virtual.matching import FormMapping
from repro.virtual.mediated_schema import schema_for_domain

#: Least fraction of a query's tokens a source's vocabulary must cover for
#: the source to be routed (inclusive).
MIN_ROUTING_SCORE = 0.15


def routing_vocabulary(mapping: FormMapping, description: str) -> frozenset[str]:
    """Schema keywords, attribute names and sample values of the form's
    domain, its select-option values and the site description."""
    vocabulary: set[str] = set()
    schema = schema_for_domain(mapping.domain)
    vocabulary.update(schema.keywords)
    for attribute in schema.attributes:
        vocabulary.update(tokenize(attribute.name.replace("_", " ")))
        for value in attribute.sample_values:
            vocabulary.update(tokenize(str(value)))
    for input_spec in mapping.form.select_inputs:
        for option in input_spec.options:
            vocabulary.update(tokenize(str(option)))
    vocabulary.update(tokenize(description, drop_stopwords=True))
    return frozenset(vocabulary)


def routing_score(tokens: Sequence[str], vocabulary: frozenset[str]) -> float:
    """Fraction of the query's (stopword-free) tokens the vocabulary covers."""
    if not tokens:
        return 0.0
    return sum(1 for token in tokens if token in vocabulary) / len(tokens)
