"""Form probing: submit candidate bindings and summarize the result page.

All off-line analysis traffic (probing and surfacing) goes through the
:class:`FormProber`, which uses the ``surfacer`` agent so that per-site
analysis load is measurable and the paper's "light load" claim can be
checked.

Probing is also the system's dominant repeated cost: template selection
probes bindings during the lattice search, the indexability filter
re-probes overlapping bindings for the same form, and the indexing stage
asks for every kept URL once more.  Three things bound the fetches:

* the :class:`ProbeCache` memoizes results on ``(form identity, frozen
  binding)``, so a repeated probe never re-builds (or re-renders) the
  submission URL at all -- this is the cross-stage memo, and why the
  indexing stage fetches nothing;
* a submission is a conjunction of its bindings, so adding a binding can
  never add results: a binding whose cached sub-binding came back empty is
  *inferred* empty without a fetch (:attr:`ProbeResult.inferred`).  Every
  real fetch checks the assumption against the cached sub-bindings; a form
  that breaks it is marked non-monotone and is never inferred on again;
* the URL-keyed result cache (one level below) collapses *distinct*
  bindings that materialize to the same URL: at most one fetch per unique
  URL.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from repro.core.form_model import SurfacingForm
from repro.core.informativeness import PageSignature, SignatureCache
from repro.webspace.loadmeter import AGENT_SURFACER
from repro.webspace.page import WebPage, service_unavailable
from repro.webspace.url import Url
from repro.webspace.web import FetchError, Web

BindingKey = tuple[str, frozenset[tuple[str, str]]]


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one probe submission."""

    url: Url
    page: WebPage
    signature: PageSignature
    #: No fetch was made: a sub-binding's empty page stands in for this one.
    inferred: bool = False

    @property
    def ok(self) -> bool:
        return self.page.ok

    @property
    def result_count(self) -> int:
        return self.signature.result_count

    @property
    def has_results(self) -> bool:
        return self.page.ok and self.signature.result_count > 0


class ProbeCache:
    """Binding-keyed probe memo shared across the surfacing stages.

    Keys are ``(form.identity, frozenset(bindings.items()))``: a repeated
    probe of the same bindings (template search, then the indexability
    filter, then indexing) returns the earlier :class:`ProbeResult`
    without re-building the submission URL or re-rendering its string.
    Degraded results (synthetic 503 pages) are never stored, mirroring
    the URL-level cache: a later identical probe may succeed.

    A lookup ends one of three ways, each with its own counter: ``hits``
    (memoized), ``inferred`` (proved empty from a memoized sub-binding, no
    fetch) and ``misses`` (fetched).  They feed ``DeepWebService.report()``
    and the benchmark's ``core.probe_cache_hit_ratio`` counter.
    """

    __slots__ = ("_entries", "hits", "misses", "inferred", "non_monotone")

    def __init__(self) -> None:
        self._entries: dict[BindingKey, ProbeResult] = {}
        self.hits = 0
        self.misses = 0
        self.inferred = 0
        #: Identities of forms seen returning more results for a binding
        #: than for one of its sub-bindings; nothing is inferred for them.
        self.non_monotone: set[str] = set()

    @staticmethod
    def key(form: SurfacingForm, bindings: Mapping[str, str]) -> BindingKey:
        return (form.identity, frozenset(bindings.items()))

    def get(self, key: BindingKey) -> "ProbeResult | None":
        """The memoized result, counted as a hit; a ``None`` is counted by
        whoever resolves it (``inferred`` or ``misses``)."""
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
        return cached

    def peek(self, form: SurfacingForm, bindings: Mapping[str, str]) -> "ProbeResult | None":
        """A counter-neutral lookup (pruning heuristics that will probe
        anyway on a miss must not double-count)."""
        return self._entries.get(self.key(form, bindings))

    def put(self, key: BindingKey, result: ProbeResult) -> None:
        self._entries[key] = result

    def tightest_sub_binding(self, key: BindingKey) -> "ProbeResult | None":
        """The memoized ``ok`` result with the fewest results among the
        proper, non-empty sub-bindings of ``key`` -- an upper bound on what
        ``key`` itself can return from a conjunctive form.  ``None`` when
        nothing is memoized or the form is known not to be conjunctive.
        Degraded pages are never memoized, so never evidence."""
        identity, pairs = key
        if len(pairs) < 2 or identity in self.non_monotone:
            return None
        entries = self._entries
        tightest = None
        for size in range(1, len(pairs)):
            for subset in combinations(pairs, size):
                cached = entries.get((identity, frozenset(subset)))
                if cached is None or not cached.ok:
                    continue
                if tightest is None or cached.result_count < tightest.result_count:
                    tightest = cached
                    if cached.result_count == 0:
                        return cached
        return tightest

    def mark_non_monotone(self, form_identity: str) -> None:
        """Stop inferring for a form and forget what was inferred for it."""
        self.non_monotone.add(form_identity)
        suspect = [
            key
            for key, result in self._entries.items()
            if result.inferred and key[0] == form_identity
        ]
        for key in suspect:
            del self._entries[key]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "inferred": self.inferred,
            "non_monotone_forms": len(self.non_monotone),
            "hit_rate": round(self.hit_rate, 4),
        }


class FormProber:
    """Submits form bindings and caches the signatures of the result pages."""

    def __init__(
        self,
        web: Web,
        agent: str = AGENT_SURFACER,
        signature_cache: SignatureCache | None = None,
    ) -> None:
        self.web = web
        self.agent = agent
        self._cache: dict[str, ProbeResult] = {}
        #: The content-keyed analysis cache; a pipeline passes its engine's,
        #: so a probed page is not parsed again when it is indexed.
        self.signature_cache = signature_cache or SignatureCache()
        self.probe_count = 0
        self.probe_cache = ProbeCache()

    def probe(self, form: SurfacingForm, bindings: Mapping[str, str]) -> ProbeResult:
        """Submit ``bindings`` to ``form`` and return the probe result.

        Identical submissions are served from the binding-keyed
        :class:`ProbeCache` (repeated informativeness tests and the
        cross-stage re-probes never inflate site load); bindings with a
        sub-binding already known to be empty are inferred empty; distinct
        bindings that materialize to the same URL collapse in the URL-keyed
        cache below it.
        """
        binding_key = (form.identity, frozenset(bindings.items()))
        memoized = self.probe_cache.get(binding_key)
        if memoized is not None:
            return memoized
        return self._resolve(form, binding_key, bindings, None)

    def probe_prepared(
        self,
        form: SurfacingForm,
        bindings: Mapping[str, str],
        url: Url,
    ) -> ProbeResult:
        """:meth:`probe` for a caller that already materialized the URL
        from these exact bindings (the indexability filter re-probes
        :class:`~repro.core.urlgen.GeneratedUrl` candidates, whose URL was
        built once during enumeration)."""
        binding_key = (form.identity, frozenset(bindings.items()))
        memoized = self.probe_cache.get(binding_key)
        if memoized is not None:
            return memoized
        return self._resolve(form, binding_key, bindings, url)

    def conjunctive(self, form: SurfacingForm) -> bool:
        """Whether adding a binding to ``form`` is still assumed never to
        add results (no fetch has shown otherwise)."""
        return form.identity not in self.probe_cache.non_monotone

    def confirm(
        self, form: SurfacingForm, bindings: Mapping[str, str], inferred: ProbeResult
    ) -> ProbeResult:
        """Fetch what ``inferred`` stands in for (only a page the site served
        is ever indexed); the real result replaces it in the memo."""
        self.probe_cache.misses += 1
        result = self._probe_url(form, self.probe_cache.key(form, bindings), inferred.url)
        if result.has_results:
            self.probe_cache.mark_non_monotone(form.identity)
        return result

    def _resolve(
        self,
        form: SurfacingForm,
        binding_key: BindingKey,
        bindings: Mapping[str, str],
        url: Url | None,
    ) -> ProbeResult:
        """A :class:`ProbeCache` miss: infer the page or fetch it."""
        cache = self.probe_cache
        bound = cache.tightest_sub_binding(binding_key)
        if url is None:
            url = form.submission_url(bindings)
        if bound is not None and bound.result_count == 0:
            cache.inferred += 1
            result = ProbeResult(
                url=url,
                page=WebPage(url=str(url), html=bound.page.html),
                signature=bound.signature,
                inferred=True,
            )
            cache.put(binding_key, result)
            return result
        cache.misses += 1
        result = self._probe_url(form, binding_key, url)
        if bound is not None and result.ok and result.result_count > bound.result_count:
            cache.mark_non_monotone(form.identity)
        return result

    def _probe_url(self, form: SurfacingForm, binding_key: BindingKey, url: Url) -> ProbeResult:
        key = str(url)
        result = self._cache.get(key)
        if result is None:
            try:
                page = self.web.fetch(url, agent=self.agent)
            except FetchError as exc:
                # Degrade to a synthetic 503 page so every downstream consumer
                # (informativeness tests, template selection, indexability
                # filters) sees an ordinary non-ok probe.  Deliberately NOT
                # cached: a later identical probe may succeed.
                self.probe_count += 1
                page = service_unavailable(str(url), str(exc))
                return ProbeResult(
                    url=url, page=page, signature=self.signature_cache.signature(page.html)
                )
            self.probe_count += 1
            result = ProbeResult(
                url=url, page=page, signature=self.signature_cache.signature(page.html)
            )
            self._cache[key] = result
        self.probe_cache.put(binding_key, result)
        return result
