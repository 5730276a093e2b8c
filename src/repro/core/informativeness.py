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
* For the well-formed markup the synthetic web emits, the parse itself is
  one ``re.split`` into text and tag pieces (:func:`_fast_scan`), each
  distinct tag string parsed once per :class:`SignatureCache`.  The split
  and the tag grammar live in :mod:`repro.htmlparse.dom`, whose tree
  builder reads the same memo; anything the grammar refuses (script/style
  CDATA, malformed tags, a ``>`` inside a quoted value or a comment) falls
  back to the stdlib DOM path.  Both paths produce byte-identical analyses
  (``tests/core/`` fuzzes them).
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

from repro.htmlparse.dom import _TAG_SPLIT_RE, _TreeBuilder, _parse_tag
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
# known tag inventory and no script/style blocks.  For those, a walk over
# the page split into text and tag pieces reproduces exactly what
# :func:`_dom_scan` reads off the tree (title, visible body text, raw hrefs)
# without building a tree or running the stdlib parser's state machine.
# The scanner is strict: any piece it cannot prove it understands makes it
# return ``None`` and the DOM path runs instead, so correctness never
# depends on the fast path.


def _fast_scan(html: str, tags: dict | None = None) -> "tuple[str, str, tuple[str, ...]] | None":
    """Split-scan equivalent of :func:`_dom_scan`, or ``None`` to fall back.

    Returns ``(title, body_text, hrefs)`` exactly as the DOM path would
    compute them.  Piece ordering follows ``DomNode._collect_text`` (a
    node's own text chunks precede its children's), which the scanner
    reproduces by folding each element's chunks into its parent at close.
    ``tags`` memoizes :func:`~repro.htmlparse.dom._parse_tag` (a cache passes
    its own).  It refuses what the split tree build refuses, and a first
    ``<body>`` inside a skipped subtree.
    """
    tags = {} if tags is None else tags
    # Frame: [tag, own_chunks, subtree_pieces, role] with role 1 = the
    # first <title>, 2 = the first <body>.
    stack: list[list] = [["#document", [], [], 0]]
    hrefs: list[str] = []
    title: str | None = None
    title_seen = False
    body_seen = False
    body_pieces: list[str] | None = None
    raw = ""  # the open title / textarea: only its end tag may follow

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

    for position, piece in enumerate(_TAG_SPLIT_RE.split(html)):
        if not position & 1:  # text
            if piece:
                if "<" in piece:
                    return None
                if "&" in piece:
                    piece = unescape(piece)
                data = piece.strip()
                if data:
                    stack[-1][1].append(data)
            continue
        parsed = tags.get(piece)
        if parsed is None:
            parsed = tags[piece] = _parse_tag(piece)
            if parsed is None:
                return None
        kind, tag, attrs, selfclose = parsed
        if raw:
            if kind != 1 or tag != raw:
                return None  # the split tree refuses it too
            raw = ""
        if not kind:
            continue
        if kind == 1:
            if stack[-1][0] == tag:  # the common, well-nested case
                fold()
                continue
            for index in range(len(stack) - 1, 0, -1):
                if stack[index][0] == tag:
                    while len(stack) > index:
                        fold()
                    break
            continue
        if tag == "a":
            href = attrs.get("href")
            if href:  # last ``href`` wins, stripped and filtered as ``raw_hrefs`` does
                href = href.strip()
                if keep_href(href):
                    hrefs.append(href)
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
            if kind == 3:
                raw = tag
    while len(stack) > 1:
        fold()
    if body_seen:
        text_pieces = body_pieces if body_pieces is not None else []
    else:
        root = stack[0]
        text_pieces = root[1] + root[2]
    return (title or "", " ".join(text_pieces), tuple(hrefs))


def _dom_scan(html: str) -> tuple[str, str, tuple[str, ...]]:
    """The reference path: one ``HTMLParser`` tree read by the ``htmlparse`` extractors."""
    dom = _TreeBuilder.build(html)
    return (extract_title(dom), extract_text(dom, include_title=False), tuple(raw_hrefs(dom)))


def analyze_html(html: str, key: str | None = None, tags: dict | None = None) -> PageAnalysis:
    """Parse a page once and derive every signature/indexing ingredient.

    The produced ``text`` (and therefore the content digest) is
    byte-identical to ``extract_text(parse_html(html))`` and the hrefs match
    what ``extract_links`` would collect before resolution (``tags``: :func:`_fast_scan`).
    """
    title, body_text, hrefs = _fast_scan(html, tags) or _dom_scan(html)
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
        digest=hashlib.sha1(normalized.encode("utf-8", "surrogatepass")).hexdigest()[:16],
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
    of content, so a race at worst duplicates work.
    """

    def __init__(self, max_entries: int = 8192) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.max_entries = max_entries
        self._analyses: dict[str, PageAnalysis] = {}
        # content_key -> {(base_host, base_dir) -> signature}; bucketed per
        # content so eviction drops exactly one page's derived signatures.
        self._signatures: dict[str, dict[tuple[str, str], PageSignature]] = {}
        self._tags: dict[str, tuple | None] = {}  # the tag memo, emptied past max_entries

    def clear(self) -> None:
        self._analyses.clear()
        self._signatures.clear()
        self._tags.clear()

    def tag_memo(self) -> dict[str, tuple | None]:
        """The tag memo for ``parse_html``, emptied once past ``max_entries``."""
        if len(self._tags) > self.max_entries:
            self._tags.clear()
        return self._tags

    # -- lookups ----------------------------------------------------------

    def analyze(self, html: str) -> PageAnalysis:
        """The (cached) single-pass analysis of a page."""
        key = content_key(html)
        cached = self._analyses.get(key)
        if cached is not None:
            return cached
        analysis = analyze_html(html, key, self._tags)
        if len(self._tags) > self.max_entries:
            self._tags.clear()
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
