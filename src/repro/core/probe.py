"""Form probing: submit candidate bindings and summarize the result page.

All off-line analysis traffic (probing and surfacing) goes through the
:class:`FormProber`, which uses the ``surfacer`` agent so that per-site
analysis load is measurable and the paper's "light load" claim can be
checked.

Probing is also the system's dominant repeated cost: template selection
probes bindings during the lattice search, the indexability filter
re-probes overlapping bindings for the same form, and the indexing stage
probes every kept URL a third time.  Two cache levels collapse that:

* the :class:`ProbeCache` memoizes results on ``(form identity, frozen
  binding)``, so a repeated probe never re-builds (or re-renders) the
  submission URL at all -- this is the cross-stage memo;
* the URL-keyed result cache (one level below) collapses *distinct*
  bindings that materialize to the same URL, and is what guarantees the
  fetch count stays "one per unique URL".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.form_model import SurfacingForm
from repro.core.informativeness import PageSignature, SignatureCache
from repro.webspace.loadmeter import AGENT_SURFACER
from repro.webspace.page import WebPage, service_unavailable
from repro.webspace.url import Url
from repro.webspace.web import FetchError, Web


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one probe submission."""

    url: Url
    page: WebPage
    signature: PageSignature

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

    ``hits``/``misses`` feed ``DeepWebService.report()`` and the
    benchmark's ``core.probe_cache_hit_ratio`` counter.
    """

    __slots__ = ("_entries", "hits", "misses")

    def __init__(self) -> None:
        self._entries: dict[tuple[str, frozenset[tuple[str, str]]], ProbeResult] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(
        form: SurfacingForm, bindings: Mapping[str, str]
    ) -> tuple[str, frozenset[tuple[str, str]]]:
        return (form.identity, frozenset(bindings.items()))

    def get(self, key: tuple[str, frozenset[tuple[str, str]]]) -> "ProbeResult | None":
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
        else:
            self.misses += 1
        return cached

    def peek(self, form: SurfacingForm, bindings: Mapping[str, str]) -> "ProbeResult | None":
        """A counter-neutral lookup (pruning heuristics that will probe
        anyway on a miss must not double-count)."""
        return self._entries.get(self.key(form, bindings))

    def put(self, key: tuple[str, frozenset[tuple[str, str]]], result: ProbeResult) -> None:
        self._entries[key] = result

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


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
        self.signature_cache = (  # ``is None``: an empty cache is falsy
            signature_cache if signature_cache is not None else SignatureCache()
        )
        self.probe_count = 0
        self.probe_cache = ProbeCache()

    def probe(self, form: SurfacingForm, bindings: Mapping[str, str]) -> ProbeResult:
        """Submit ``bindings`` to ``form`` and return the probe result.

        Identical submissions are served from the binding-keyed
        :class:`ProbeCache` (repeated informativeness tests and the
        cross-stage re-probes never inflate site load); distinct bindings
        that materialize to the same URL collapse in the URL-keyed cache
        below it.
        """
        binding_key = (form.identity, frozenset(bindings.items()))
        memoized = self.probe_cache.get(binding_key)
        if memoized is not None:
            return memoized
        url = form.submission_url(bindings)
        return self._probe_url(form, binding_key, url)

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
        return self._probe_url(form, binding_key, url)

    def _probe_url(
        self,
        form: SurfacingForm,
        binding_key: tuple[str, frozenset[tuple[str, str]]],
        url: Url,
    ) -> ProbeResult:
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

    def fetch(self, url: Url) -> WebPage:
        """Fetch an arbitrary URL with the surfacer agent (uncached).

        Fetch failures degrade to a synthetic 503 page, mirroring
        :meth:`probe`."""
        self.probe_count += 1
        try:
            return self.web.fetch(url, agent=self.agent)
        except FetchError as exc:
            return service_unavailable(str(url), str(exc))
