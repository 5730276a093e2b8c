"""Result-page signatures and the informativeness test.

Following the approach of Google's deep-web crawl, the surfacer decides
whether an input (or a query template) is worth using by checking whether
different value assignments produce *distinct* result pages.  A page
signature captures what matters for that comparison: whether the page is an
error / empty-results page, how many results it reports, and which records
(detail links) it lists.

Signature computation is the hottest path of the whole system (every probe,
every indexability check and every indexed page goes through it), so it is
organised around two ideas:

* :func:`analyze_html` parses the page **once** and derives everything the
  downstream consumers need -- title, visible text, anchor hrefs, the
  result-count banner and the error state -- in a single traversal
  (:class:`PageAnalysis`).  The search engine and the keyword prober reuse
  the same analysis instead of re-parsing the page.
* For the well-formed markup the synthetic web emits, the parse itself is a
  linear string scan (:func:`_fast_scan`) instead of the stdlib
  ``html.parser`` state machine; any construct the scanner does not fully
  understand (script/style CDATA, declarations beyond a doctype, malformed
  tags) falls back to the DOM path.  Both paths produce byte-identical
  analyses (``tests/core/test_informativeness.py`` checks differentially).
* :class:`SignatureCache` keys analyses by a fast content hash of the raw
  HTML, so identical result pages -- empty-results pages and error pages
  repeat constantly across probes, templates and sites -- are never parsed
  twice.  Signatures additionally key on the link-resolution base, because
  relative detail links resolve differently under different page URLs.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from html import unescape
from typing import Iterable, Sequence

from repro.htmlparse.dom import _VOID_TAGS, parse_html
from repro.htmlparse.links import keep_href, raw_hrefs, resolve_links
from repro.htmlparse.text import SKIP_TAGS, extract_text, extract_title
from repro.util.text import normalize
from repro.webspace.url import Url

_RESULT_COUNT_RE = re.compile(r"(\d+)\s+results?\s+found", re.IGNORECASE)
_NO_RESULTS_RE = re.compile(r"no\s+results\s+found", re.IGNORECASE)
_ERROR_MARKERS = ("404 not found", "405 method not allowed", "500 server error")

# Canonical detail links (http://host/.../item?id=N, no escapes, single
# param) are recognized directly; anything unusual falls back to Url.parse.
_ITEM_LINK_RE = re.compile(
    r"^http://(?P<host>[A-Za-z0-9.:-]+)(?:/[A-Za-z0-9_.~-]+)*/item/?"
    r"\?id=(?P<id>[A-Za-z0-9_.~-]*)$"
)


@dataclass(frozen=True)
class PageSignature:
    """A compact, comparable summary of a result page."""

    content_hash: str
    result_count: int
    record_ids: frozenset[str]
    is_error: bool = False

    @property
    def is_empty(self) -> bool:
        return self.result_count == 0 and not self.record_ids

    def distinct_from(self, other: "PageSignature") -> bool:
        """Whether two signatures correspond to observably different pages."""
        if self.is_error or other.is_error:
            return False
        if self.record_ids or other.record_ids:
            return self.record_ids != other.record_ids
        return self.content_hash != other.content_hash


ERROR_SIGNATURE = PageSignature(
    content_hash="error", result_count=0, record_ids=frozenset(), is_error=True
)


def record_ids_from_links(links: Iterable[str]) -> frozenset[str]:
    """Record identifiers referenced by detail-page links on a result page."""
    ids = set()
    for link in links:
        # Fast pre-filter: an item link must mention "item" somewhere, so
        # URL parsing is skipped for the vast majority of
        # navigation/pagination links.
        if "item" not in link:
            continue
        match = _ITEM_LINK_RE.match(link)
        if match is not None:
            ids.add(f"{match.group('host')}#{match.group('id')}")
            continue
        url = Url.parse(link)
        if url.path.rstrip("/").endswith("item"):
            record_id = url.param("id")
            if record_id is not None:
                ids.add(f"{url.host}#{record_id}")
    return frozenset(ids)


# -- single-pass page analysis --------------------------------------------------


@dataclass(frozen=True)
class PageAnalysis:
    """Everything derivable from one parse of a result page.

    ``hrefs`` are raw (unresolved) anchor targets so the analysis stays a
    pure function of the HTML content; link resolution against a base URL
    happens at signature time.  ``banner_count`` is the explicit result
    count banner (``None`` when the page shows no banner, in which case the
    signature falls back to counting detail links).
    """

    content_key: str
    title: str
    text: str
    digest: str
    banner_count: int | None
    is_error: bool
    hrefs: tuple[str, ...]

    def record_ids(self, page_url: str | Url | None = None) -> frozenset[str]:
        """Detail-link record ids, resolving relative links against ``page_url``."""
        return record_ids_from_links(resolve_links(self.hrefs, page_url))

    def signature(self, page_url: str | Url | None = None) -> PageSignature:
        """Derive the page signature under the given link-resolution base."""
        record_ids = self.record_ids(page_url)
        count = self.banner_count if self.banner_count is not None else len(record_ids)
        return PageSignature(
            content_hash=self.digest,
            result_count=max(0, count),
            record_ids=record_ids,
            is_error=self.is_error,
        )


def content_key(html: str) -> str:
    """A fast collision-resistant key for raw page content."""
    return hashlib.blake2b(html.encode("utf-8", "surrogatepass"), digest_size=16).hexdigest()


# -- the linear fast path ---------------------------------------------------
#
# Site-generated pages are well-formed: escaped text, quoted attributes, a
# known tag inventory and no script/style blocks.  For those, a single
# regex-tokenized scan reproduces exactly what :func:`_dom_scan` reads off
# the tree (title, visible body text, raw hrefs) without building a tree
# or running the stdlib parser's state machine.  The scanner is strict: any
# token it cannot prove it understands makes it return ``None`` and the DOM
# path runs instead, so correctness never depends on the fast path.

# Elements whose content the stdlib parser treats as raw text (CDATA); the
# fast path refuses them rather than replicating that mode.
_CDATA_TAGS = frozenset({"script", "style"})

# Groups: 1 = end-tag name, 2 = start-tag name, 3 = attribute string,
# 4 = self-closing slash.  ``match.lastindex`` dispatches: None for text /
# comments / doctype, 1 for end tags, 4 for start tags (groups 3 and 4
# always participate, even when empty).
_FAST_TOKEN_RE = re.compile(
    r"[^<]+"
    r"|<!--.*?-->"
    r"|<![Dd][Oo][Cc][Tt][Yy][Pp][Ee][^>]*>"
    r"|</([a-zA-Z][a-zA-Z0-9-]*)\s*>"
    r"|<([a-zA-Z][a-zA-Z0-9-]*)"
    r"((?:\s+[a-zA-Z][a-zA-Z0-9_:.-]*"
    r"(?:\s*=\s*(?:\"[^\"<]*\"|'[^'<]*'|[^\s<>'\"`=]+))?)*)"
    r"\s*(/?)>",
    re.DOTALL,
)

_FAST_ATTR_RE = re.compile(
    r"\s+([a-zA-Z][a-zA-Z0-9_:.-]*)(?:\s*=\s*(\"[^\"<]*\"|'[^'<]*'|[^\s<>'\"`=]+))?"
)


def _fast_href(attrs: str) -> str:
    """The kept anchor target from a start tag's attribute string, or ``""``.

    Mirrors the DOM path: last ``href`` wins (dict semantics), values are
    entity-unescaped, then stripped and filtered through :func:`keep_href`.
    """
    href = None
    for match in _FAST_ATTR_RE.finditer(attrs):
        if match.group(1).lower() != "href":
            continue
        value = match.group(2)
        if value is None:
            href = ""
            continue
        if value[0] in "\"'":
            value = value[1:-1]
        href = unescape(value) if "&" in value else value
    if href:
        href = href.strip()
        if keep_href(href):
            return href
    return ""


def _fast_scan(html: str) -> "tuple[str, str, tuple[str, ...]] | None":
    """Linear-scan equivalent of :func:`_dom_scan`, or ``None`` to fall back.

    Returns ``(title, body_text, hrefs)`` exactly as the DOM path would
    compute them.  Piece ordering follows ``DomNode._collect_text`` (a
    node's own text chunks precede its children's), which the scanner
    reproduces by folding each element's chunks into its parent at close.
    """
    # Frame: [tag, own_chunks, subtree_pieces, role] with role 1 = the
    # first <title>, 2 = the first <body>.
    stack: list[list] = [["#document", [], [], 0]]
    hrefs: list[str] = []
    title: str | None = None
    title_seen = False
    body_seen = False
    body_pieces: list[str] | None = None
    pos = 0

    def fold() -> None:
        nonlocal title, body_pieces
        tag, own, sub, role = stack.pop()
        pieces = own + sub if sub else own
        if role == 1:
            title = " ".join(pieces)
        elif role == 2:
            body_pieces = pieces
        if tag not in SKIP_TAGS and pieces:
            stack[-1][2].extend(pieces)

    for match in _FAST_TOKEN_RE.finditer(html):
        if match.start() != pos:
            return None
        pos = match.end()
        kind = match.lastindex
        if kind is None:
            token = match.group()
            if token[0] == "<":
                continue  # comment or doctype
            if "&" in token:
                token = unescape(token)
            data = token.strip()
            if data:
                stack[-1][1].append(data)
            continue
        if kind == 1:  # end tag
            tag = match.group(1).lower()
            if tag in _VOID_TAGS:
                continue
            for index in range(len(stack) - 1, 0, -1):
                if stack[index][0] == tag:
                    while len(stack) > index:
                        fold()
                    break
            continue
        tag = match.group(2).lower()
        if tag in _CDATA_TAGS:
            return None
        if tag == "a":
            href = _fast_href(match.group(3))
            if href:
                hrefs.append(href)
        selfclose = match.group(4) == "/" or tag in _VOID_TAGS
        role = 0
        if tag == "title" and not title_seen:
            title_seen = True
            if selfclose:
                title = ""
            else:
                role = 1
        elif tag == "body" and not body_seen:
            # The DOM path starts collecting at <body> even inside a
            # skipped subtree; the linear fold cannot, so punt.
            for frame in stack:
                if frame[0] in SKIP_TAGS:
                    return None
            body_seen = True
            if selfclose:
                body_pieces = []
            else:
                role = 2
        if not selfclose:
            stack.append([tag, [], [], role])
    if pos != len(html):
        return None
    while len(stack) > 1:
        fold()
    if body_seen:
        text_pieces = body_pieces if body_pieces is not None else []
    else:
        root = stack[0]
        text_pieces = root[1] + root[2]
    return (title or "", " ".join(text_pieces), tuple(hrefs))


def _dom_scan(html: str) -> tuple[str, str, tuple[str, ...]]:
    """The reference path: one DOM build read by the ``htmlparse`` extractors."""
    dom = parse_html(html)
    return (extract_title(dom), extract_text(dom, include_title=False), tuple(raw_hrefs(dom)))


def analyze_html(html: str, key: str | None = None) -> PageAnalysis:
    """Parse a page once and derive every signature/indexing ingredient.

    The produced ``text`` (and therefore the content digest) is
    byte-identical to ``extract_text(parse_html(html))`` and the hrefs match
    what ``extract_links`` would collect before resolution.
    """
    title, body_text, hrefs = _fast_scan(html) or _dom_scan(html)
    # Both pieces are already stripped, so this is the join over every chunk.
    text = " ".join(piece for piece in (title, body_text) if piece)
    normalized = normalize(text)
    match = _RESULT_COUNT_RE.search(text)
    if match:
        banner_count: int | None = int(match.group(1))
    elif _NO_RESULTS_RE.search(text):
        banner_count = 0
    else:
        banner_count = None
    return PageAnalysis(
        content_key=key if key is not None else content_key(html),
        title=title,
        text=text,
        digest=hashlib.sha1(normalized.encode("utf-8")).hexdigest()[:16],
        banner_count=banner_count,
        is_error=any(marker in normalized for marker in _ERROR_MARKERS),
        hrefs=hrefs,
    )


# -- the content-keyed cache ----------------------------------------------------


class SignatureCache:
    """Content-keyed cache of page analyses and derived signatures.

    Analyses are keyed by a hash of the raw HTML; derived signatures are
    additionally keyed by the link-resolution base (host + directory), since
    relative links resolve differently under different page URLs.  Entries
    are evicted FIFO past ``max_entries``; ``max_entries=0`` disables
    storage entirely (every call recomputes), which is how the tests get
    the uncached analysis to compare cached results against.

    The cache is safe to share across threads: analyses are pure functions
    of content, so a race at worst duplicates work (hit/miss counters are
    best-effort under concurrency).
    """

    def __init__(self, max_entries: int = 8192) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.max_entries = max_entries
        self._analyses: dict[str, PageAnalysis] = {}
        # content_key -> {(base_host, base_dir) -> signature}; bucketed per
        # content so eviction drops exactly one page's derived signatures.
        self._signatures: dict[str, dict[tuple[str, str], PageSignature]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._analyses)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "entries": len(self._analyses),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }

    def clear(self) -> None:
        self._analyses.clear()
        self._signatures.clear()
        self.hits = 0
        self.misses = 0

    # -- lookups ----------------------------------------------------------

    def analyze(self, html: str) -> PageAnalysis:
        """The (cached) single-pass analysis of a page."""
        key = content_key(html)
        cached = self._analyses.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        analysis = analyze_html(html, key)
        if self.max_entries:
            if len(self._analyses) >= self.max_entries:
                self._evict()
            self._analyses[key] = analysis
        return analysis

    def signature(
        self,
        html: str,
        status_ok: bool = True,
        page_url: str | Url | None = None,
    ) -> PageSignature:
        """The (cached) signature of a page under a link-resolution base."""
        if not status_ok:
            return ERROR_SIGNATURE
        if page_url is None:
            base_host, base_dir = "", ""
        else:
            base = page_url if isinstance(page_url, Url) else Url.parse(str(page_url))
            base_host, base_dir = base.host, base.path.rsplit("/", 1)[0]
        analysis = self.analyze(html)
        bucket = self._signatures.get(analysis.content_key)
        base_key = (base_host, base_dir)
        if bucket is not None:
            cached = bucket.get(base_key)
            if cached is not None:
                return cached
        signature = analysis.signature(page_url)
        if self.max_entries:
            if bucket is None:
                if len(self._signatures) >= self.max_entries:
                    self._evict_signature_bucket()
                bucket = self._signatures.setdefault(analysis.content_key, {})
            bucket[base_key] = signature
        return signature

    def _evict(self) -> None:
        # FIFO eviction of one analysis plus exactly its derived signatures.
        # RuntimeError covers a concurrent insert racing the iterator --
        # eviction is skipped and retried on the next miss.
        try:
            key = next(iter(self._analyses))
            self._analyses.pop(key, None)
            self._signatures.pop(key, None)
        except (StopIteration, RuntimeError):  # pragma: no cover - races
            pass

    def _evict_signature_bucket(self) -> None:
        try:
            self._signatures.pop(next(iter(self._signatures)), None)
        except (StopIteration, RuntimeError):  # pragma: no cover - races
            pass


def distinct_signature_fraction(signatures: Sequence[PageSignature]) -> float:
    """Fraction of probes yielding distinct, non-error, non-empty pages.

    This is the informativeness measure: an input (or template) whose values
    mostly produce the same page -- or error / empty pages -- is not worth
    enumerating.
    """
    if not signatures:
        return 0.0
    useful = [sig for sig in signatures if not sig.is_error and not sig.is_empty]
    if not useful:
        return 0.0
    distinct_keys = {(sig.record_ids, sig.content_hash) for sig in useful}
    return len(distinct_keys) / len(signatures)


def is_informative(signatures: Sequence[PageSignature], threshold: float = 0.25) -> bool:
    """The informativeness test: enough distinct result pages across probes."""
    return distinct_signature_fraction(signatures) >= threshold
