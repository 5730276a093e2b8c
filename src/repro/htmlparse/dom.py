"""A minimal DOM, built from one split of the page into text and tag pieces.

The DOM supports exactly what the extractors need: tag/attribute access,
children, recursive text collection and tag-based searching.

A strict tag grammar (:func:`_parse_tag`, each distinct tag piece parsed
once per memo the caller passes) builds the tree ``HTMLParser`` would;
any piece it refuses -- script/style, a stray ``<``, a ``>`` inside a
quoted value or a comment -- sends the page to ``HTMLParser`` instead
(``tests/core/`` fuzzes the two).  The page scanner in
:mod:`repro.core.informativeness` walks the same split and memo.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape
from html.parser import HTMLParser
from typing import Iterator

# Elements that never have a closing tag.
_VOID_TAGS = frozenset(
    {"input", "br", "img", "hr", "meta", "link", "area", "base", "col", "embed",
     "source", "track", "wbr"}
)

# Elements whose content the stdlib parser treats as raw text (CDATA); the
# grammar refuses them rather than replicating that mode.
_CDATA_TAGS = frozenset({"script", "style"})

# Escapable raw text in newer stdlib parsers (3.13): the split accepts no tag
# inside one but its end tag, so no Python version reads it differently.
_RCDATA_TAGS = frozenset({"title", "textarea"})

# Text pieces at even indices, tag pieces (``<`` to the first ``>``) at odd ones.
_TAG_SPLIT_RE = re.compile(r"(<[^<>]*>)")

# The grammar a whole tag piece must match.  Groups: 1 = end-tag name, 2 =
# start-tag name, 3 = attribute string, 4 = self-closing slash.
# ``match.lastindex`` dispatches: None for comments / doctype, 1 for end
# tags, 4 for start tags (groups 3 and 4 always participate, even empty).
_FAST_TOKEN_RE = re.compile(
    r"<!--.*?-->"
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


def _parse_tag(piece: str) -> "tuple[int, str, dict[str, str] | None, bool] | None":
    """``(kind, lower-cased name, attrs, self-closing)`` of a tag piece,
    kind 0 = ignored, 1 = end tag, 2 = start tag, 3 = one opening a
    :data:`_RCDATA_TAGS` element; ``None`` to fall back.  ``attrs`` (start
    tags only) is the dict :class:`_TreeBuilder` builds from ``HTMLParser``'s."""
    match = _FAST_TOKEN_RE.fullmatch(piece)
    if match is None:
        return None
    tag = (match.group(1) or match.group(2) or "").lower()  # "" for a comment / doctype
    if match.lastindex != 4:  # not a start tag
        return (1 if tag and tag not in _VOID_TAGS else 0, tag, None, False)
    if tag in _CDATA_TAGS:
        return None
    attrs: dict[str, str] = {}
    for attr in _FAST_ATTR_RE.finditer(match.group(3)):
        value = attr.group(2) or ""
        if value[:1] in ("\"", "'"):
            value = value[1:-1]
        attrs[attr.group(1).lower()] = unescape(value) if "&" in value else value
    if match.group(4) == "/" or tag in _VOID_TAGS:
        return (2, tag, attrs, True)
    return (3 if tag in _RCDATA_TAGS else 2, tag, attrs, False)


@dataclass
class DomNode:
    """One element (or the synthetic document root)."""

    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["DomNode"] = field(default_factory=list)
    text_chunks: list[str] = field(default_factory=list)
    parent: "DomNode | None" = None

    def attr(self, name: str, default: str = "") -> str:
        return self.attrs.get(name, default)

    # -- traversal --------------------------------------------------------

    def walk(self) -> Iterator["DomNode"]:
        """Depth-first traversal including this node."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find_all(self, tag: str) -> list["DomNode"]:
        """All descendant nodes with the given tag name."""
        tag = tag.lower()
        return [node for node in self.walk() if node.tag == tag]

    def find_first(self, tag: str) -> "DomNode | None":
        """The first descendant with the given tag, or None."""
        tag = tag.lower()
        for node in self.walk():
            if node.tag == tag:
                return node
        return None

    def direct_children(self, tag: str) -> list["DomNode"]:
        tag = tag.lower()
        return [child for child in self.children if child.tag == tag]

    def text(self, separator: str = " ") -> str:
        """All text in this subtree, in document order."""
        pieces: list[str] = []
        self._collect_text(pieces)
        return separator.join(pieces)

    def _collect_text(self, pieces: list[str]) -> None:
        # Text chunks of a node precede its children's text; this ordering is
        # close enough to document order for indexing purposes.
        pieces.extend(self.text_chunks)
        for child in self.children:
            child._collect_text(pieces)


class _TreeBuilder(HTMLParser):
    """HTMLParser subclass that assembles a :class:`DomNode` tree: the
    reference the split build is fuzzed against, and its fallback."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = DomNode(tag="#document")
        self._stack: list[DomNode] = [self.root]

    @classmethod
    def build(cls, html: str) -> DomNode:
        builder = cls()
        builder.feed(html)
        builder.close()
        return builder.root

    def handle_starttag(
        self, tag: str, attrs: list[tuple[str, str | None]], selfclose: bool = False
    ) -> None:
        parent = self._stack[-1]
        node = DomNode(tag.lower(), {key: (value or "") for key, value in attrs}, [], [], parent)
        parent.children.append(node)
        if not selfclose and node.tag not in _VOID_TAGS:
            self._stack.append(node)

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        self.handle_starttag(tag, attrs, selfclose=True)

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        if tag in _VOID_TAGS:
            return
        # Pop to the matching open tag, tolerating mis-nested markup.
        for index in range(len(self._stack) - 1, 0, -1):
            if self._stack[index].tag == tag:
                del self._stack[index:]
                return

    def handle_data(self, data: str) -> None:
        stripped = data.strip()
        if stripped:
            self._stack[-1].text_chunks.append(stripped)


def _split_tree(html: str, tags: dict) -> DomNode | None:
    """The :class:`_TreeBuilder` tree built from the split, or ``None`` when a
    piece is outside the grammar (``tags`` memoizes :func:`_parse_tag`)."""
    root = DomNode("#document")
    stack = [root]
    raw = ""  # the open title / textarea: only its end tag may follow
    for position, piece in enumerate(_TAG_SPLIT_RE.split(html)):
        if not position & 1:  # text
            if piece:
                if "<" in piece:
                    return None
                if "&" in piece:
                    piece = unescape(piece)
                data = piece.strip()
                if data:
                    stack[-1].text_chunks.append(data)
            continue
        parsed = tags.get(piece)
        if parsed is None:
            parsed = tags[piece] = _parse_tag(piece)
            if parsed is None:
                return None
        kind, tag, attrs, selfclose = parsed
        if raw:
            if kind != 1 or tag != raw:
                return None
            raw = ""
        if kind >= 2:
            parent = stack[-1]
            node = DomNode(tag, dict(attrs), [], [], parent)
            parent.children.append(node)
            if not selfclose:
                stack.append(node)
                if kind == 3:
                    raw = tag
        elif kind:
            # Pop to the matching open tag, tolerating mis-nested markup.
            for index in range(len(stack) - 1, 0, -1):
                if stack[index].tag == tag:
                    del stack[index:]
                    break
    return root


def parse_html(html: str, tags: dict | None = None) -> DomNode:
    """Parse an HTML document into a DOM tree rooted at ``#document``
    (``tags``: the tag memo of :func:`_split_tree`, fresh when omitted)."""
    return _split_tree(html, {} if tags is None else tags) or _TreeBuilder.build(html)
