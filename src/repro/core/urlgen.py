"""URL generation and the indexability criterion (Sections 3.2 and 5.2).

Given the informative templates, the candidate values and the detected
correlations, this module enumerates the actual form-submission URLs that
will be fetched and inserted into the search index.  Two concerns from the
paper are implemented here:

* **Range awareness** -- when a template touches a detected min/max pair,
  consecutive bucket pairs are emitted instead of the full cross product of
  bound values (10 URLs instead of up to 120 for a 10x10 pair), and invalid
  (inverted) ranges are never generated.
* **Indexability** -- surfaced pages should be good index candidates:
  neither empty nor overly broad.  URL filtering probes each candidate and
  keeps those whose result count lies inside the configured band, preferring
  schemes that minimize pages while maximizing record coverage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.correlations import RangePair
from repro.core.form_model import SurfacingForm
from repro.core.probe import FormProber
from repro.core.templates import QueryTemplate
from repro.core.valuepool import ValuePool
from repro.webspace.url import Url


@dataclass(frozen=True)
class IndexabilityCriterion:
    """Bounds on how many results a surfaced page should list."""

    min_results: int = 1
    max_results: int = 200

    def classify(self, result_count: int) -> str:
        if result_count < self.min_results:
            return "too_few"
        if result_count > self.max_results:
            return "too_many"
        return "indexable"


@dataclass
class GeneratedUrl:
    """One candidate surfacing URL."""

    url: Url
    bindings: dict[str, str]
    template: QueryTemplate
    result_count: int | None = None
    records: frozenset[str] = frozenset()

    @property
    def key(self) -> str:
        return str(self.url)


@dataclass
class UrlGenerationStats:
    """Bookkeeping for one form's URL generation."""

    candidates: int = 0
    after_dedup: int = 0
    kept: int = 0
    rejected_empty: int = 0
    rejected_too_many: int = 0
    probes_issued: int = 0
    records_covered: int = 0


class UrlGenerator:
    """Enumerates, de-duplicates and filters surfacing URLs."""

    def __init__(
        self,
        criterion: IndexabilityCriterion | None = None,
        max_values_per_input: int = 25,
        max_urls_per_template: int = 200,
        max_urls_per_form: int = 500,
        range_aware: bool = True,
    ) -> None:
        self.criterion = criterion or IndexabilityCriterion()
        self.max_values_per_input = max_values_per_input
        self.max_urls_per_template = max_urls_per_template
        self.max_urls_per_form = max_urls_per_form
        self.range_aware = range_aware
        # (pair, options tuple) -> bucket assignments; numeric parsing of
        # range options is template-independent, so one parse per form.
        self._bucket_cache: dict[tuple[RangePair, tuple[str, ...]], list[dict[str, str]]] = {}

    # -- binding enumeration ------------------------------------------------------

    def enumerate_bindings(
        self,
        template: QueryTemplate,
        value_sets: "Mapping[str, Sequence[str]] | ValuePool",
        range_pairs: Sequence[RangePair] = (),
    ) -> list[dict[str, str]]:
        """All value assignments for a template, applying range awareness.

        Each detected range pair whose min *and* max inputs are bound by the
        template becomes a single dimension enumerating consecutive bucket
        pairs; all other inputs enumerate their candidate values
        independently.  Dimensions are tuples of ``(name, value)`` pairs, so
        each combination becomes one ``dict()`` construction instead of a
        chain of per-dimension dict merges.
        """
        pool = ValuePool.wrap(value_sets)
        bound = set(template.binding_inputs)
        dimensions: list[tuple[tuple[tuple[str, str], ...], ...]] = []
        consumed: set[str] = set()

        if self.range_aware:
            for pair in range_pairs:
                if pair.min_input in bound or pair.max_input in bound:
                    buckets = self._range_buckets(pair, pool)
                    if buckets:
                        dimensions.append(tuple(tuple(bucket.items()) for bucket in buckets))
                        consumed.update((pair.min_input, pair.max_input))

        for name in template.binding_inputs:
            if name in consumed:
                continue
            values = pool.normalized(name)[: self.max_values_per_input]
            if not values:
                return []
            dimensions.append(tuple(((name, value),) for value in values))

        combos = itertools.islice(itertools.product(*dimensions), self.max_urls_per_template)
        return [dict(itertools.chain.from_iterable(combo)) for combo in combos]

    def naive_bindings(
        self,
        template: QueryTemplate,
        value_sets: "Mapping[str, Sequence[str]] | ValuePool",
        limit: int | None = None,
    ) -> list[dict[str, str]]:
        """Correlation-oblivious enumeration (the baseline of experiment E3).

        Every bound input -- including both ends of a range pair -- is
        enumerated independently, so invalid (inverted) ranges are generated
        alongside the valid ones.
        """
        limit = limit if limit is not None else self.max_urls_per_template
        pool = ValuePool.wrap(value_sets)
        value_lists = []
        for name in template.binding_inputs:
            values = pool.normalized(name)[: self.max_values_per_input]
            if not values:
                return []
            value_lists.append(tuple((name, value) for value in values))
        combos = itertools.islice(itertools.product(*value_lists), limit)
        return [dict(combo) for combo in combos]

    def _range_buckets(
        self, pair: RangePair, value_sets: "Mapping[str, Sequence[str]] | ValuePool"
    ) -> list[dict[str, str]]:
        """Consecutive (min, max) bucket assignments for a range pair.

        Memoized per ``(pair, options)``: the numeric re-parse used to run
        once per *template* touching the pair, now once per form.
        """
        pool = ValuePool.wrap(value_sets)
        options: tuple[str, ...]
        if pair.options:
            options = tuple(str(value) for value in pair.options)
        else:
            options = pool.normalized(pair.min_input)
        cache_key = (pair, options)
        cached = self._bucket_cache.get(cache_key)
        if cached is not None:
            return cached
        numeric: list[tuple[float, str]] = []
        for option in options:
            cleaned = option.replace(",", "").replace("$", "").strip()
            try:
                numeric.append((float(cleaned), option))
            except ValueError:
                continue
        numeric.sort()
        buckets: list[dict[str, str]] = []
        if len(numeric) >= 2:
            for (low_value, low_text), (high_value, high_text) in zip(numeric, numeric[1:]):
                if low_value > high_value:
                    continue
                buckets.append({pair.min_input: low_text, pair.max_input: high_text})
        self._bucket_cache[cache_key] = buckets
        return buckets

    # -- URL materialization -------------------------------------------------------

    def materialize(
        self,
        form: SurfacingForm,
        template: QueryTemplate,
        bindings: Iterable[Mapping[str, str]],
        prober: FormProber | None = None,
    ) -> list[GeneratedUrl]:
        """Turn bindings into de-duplicated :class:`GeneratedUrl` objects.

        When a ``prober`` is supplied, bindings already probed during
        template search reuse the memoized submission URL (its string is
        cached) instead of re-building and re-rendering it.
        """
        probe_cache = prober.probe_cache if prober is not None else None
        seen: set[str] = set()
        urls: list[GeneratedUrl] = []
        for binding in bindings:
            url = None
            if probe_cache is not None:
                memoized = probe_cache.peek(form, binding)
                if memoized is not None:
                    url = memoized.url
            if url is None:
                url = form.submission_url(binding)
            key = str(url)
            if key in seen:
                continue
            seen.add(key)
            urls.append(GeneratedUrl(url=url, bindings=dict(binding), template=template))
        return urls

    def generate_for_templates(
        self,
        form: SurfacingForm,
        templates: Sequence[QueryTemplate],
        value_sets: "Mapping[str, Sequence[str]] | ValuePool",
        range_pairs: Sequence[RangePair] = (),
        prober: FormProber | None = None,
    ) -> tuple[list[GeneratedUrl], UrlGenerationStats]:
        """Enumerate URLs for all templates, de-duplicating across templates."""
        pool = ValuePool.wrap(value_sets)
        stats = UrlGenerationStats()
        seen: set[str] = set()
        generated: list[GeneratedUrl] = []
        for template in templates:
            bindings = self.enumerate_bindings(template, pool, range_pairs)
            stats.candidates += len(bindings)
            for candidate in self.materialize(form, template, bindings, prober=prober):
                if candidate.key in seen:
                    continue
                seen.add(candidate.key)
                generated.append(candidate)
                if len(generated) >= self.max_urls_per_form:
                    stats.after_dedup = len(generated)
                    return generated, stats
        stats.after_dedup = len(generated)
        return generated, stats

    # -- indexability filtering -------------------------------------------------------

    def filter_indexable(
        self,
        form: SurfacingForm,
        candidates: Sequence[GeneratedUrl],
        prober: FormProber,
        stats: UrlGenerationStats | None = None,
    ) -> list[GeneratedUrl]:
        """Probe candidates and keep those meeting the indexability criterion.

        Every candidate still counts as an issued probe (the stat is part of
        the compared pipeline output), but candidates whose bindings were
        already probed -- during template search or an earlier template's
        enumeration -- resolve from the binding-keyed :class:`ProbeCache`
        without re-materializing the submission URL.
        """
        stats = stats if stats is not None else UrlGenerationStats()
        kept: list[GeneratedUrl] = []
        covered: set[str] = set()
        for candidate in candidates:
            result = self.prober_probe(prober, form, candidate)
            stats.probes_issued += 1
            candidate.result_count = result_count = result.result_count
            candidate.records = result.signature.record_ids
            verdict = self.criterion.classify(result_count)
            if verdict == "too_few":
                stats.rejected_empty += 1
                continue
            if verdict == "too_many":
                stats.rejected_too_many += 1
                continue
            kept.append(candidate)
            covered |= candidate.records
        stats.kept = len(kept)
        stats.records_covered = len(covered)
        return kept

    @staticmethod
    def prober_probe(prober: FormProber, form: SurfacingForm, candidate: GeneratedUrl):
        # The candidate's URL was materialized from these exact bindings, so
        # the prober can skip rebuilding it on a cache miss.
        return prober.probe_prepared(form, candidate.bindings, candidate.url)
