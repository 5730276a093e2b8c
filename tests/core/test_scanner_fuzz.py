"""Differential fuzz of the split scanner and tree, and of whitespace normalization.

The split scanner (``_fast_scan``) may refuse any page, but a page it
accepts must come out exactly as the DOM path (``_dom_scan``) reads it; a
page the split tree build (``_split_tree``) accepts must build exactly the
``HTMLParser`` tree; both refuse by one grammar, and a tag memo warmed by
other pages must change nothing.  Markup is drawn from a small inventory of
the constructs that could tell the paths apart.
"""

from __future__ import annotations

import re

from hypothesis import example, given, settings, strategies as st

from repro.core.informativeness import _dom_scan, _fast_scan
from repro.htmlparse.dom import DomNode, _split_tree, _TreeBuilder, parse_html
from repro.htmlparse.text import SKIP_TAGS
from repro.util.text import normalize

TAGS = [
    # document structure, repeated <title> / <body>
    "<html>", "</html>", "<head>", "</head>", "<title>", "</title>", "<TITLE>",
    "<title/>", "<body>", "</body>", "<body/>", "<BODY class=x>",
    # void and self-closing tags
    "<br>", "<br/>", "</br>", "<img src=x.png>", "<hr />", "<input type='text' name=q>",
    "<p/>", "<div />",
    # anchors: quoted, unquoted, entity-escaped, repeated or empty hrefs
    '<a href="http://h.test/item?id=1">', "<a href=/item?id=2>",
    "<a href='/item?id=3&amp;x=1'>", '<a href="/a" HREF="http://h.test/item?id=4">',
    '<A Href = " /item?id=5 ">', "<a href>", '<a href="">', '<a href="#top">',
    '<a href="javascript:go()">', "<a>", "</a>", '<a href="x>y">', "<a title='1 > 0' href=/b>",
    # comments, doctype, a stray bracket
    "<!-- note -->", "<!-- a < b -->", "<!-- a > b -->", "<!---->", "<!DOCTYPE html>",
    "<!doctype html>", "<", " < ", ">",
    # raw-text and skipped elements
    "<script>", "</script>", "<style>", "</style>", "<noscript>", "</noscript>",
    "<select name=make>", "</select>", "<option value=1>", "</option>",
    # form markup: selected options, textarea, labels, a repeated attribute
    # in mixed case, entity-escaped unquoted values
    "<option selected>", "<option value=2 SELECTED=selected>", "<textarea name=notes>",
    "</textarea>", "<textarea/>", "<label for=q>", "</label>", "<form action=/s method=get>",
    "</form>", "<input Name=a NAME='b' name=\"c\">", "<input value=a&amp;b>",
    "<a href=/p&amp;q>", "<img alt=&lt;x&gt;>",
    # ordinary, mis-nested and unclosed elements
    "<div>", "</div>", "<span>", "</span>", "<p>", "</p>", "<td>", "</td>", "<h3>", "</h3>",
    '<p class="result-count">', "</nosuchtag>",
]
TEXT = [
    "hello", "  World  ", "3 results found", "No results found", "404 Not Found",
    "&amp; &lt;b&gt; &#65;&#x42;", "a\n\tb", "\xa0x ", "caf\xe9", " ",
]

markup = st.lists(st.sampled_from(TAGS) | st.sampled_from(TEXT), max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(markup)
@example("<title><option value=1>hello")  # a title's skipped child still counts
@example("hello<body>World</body>tail")  # text outside <body>
@example("<noscript><body>x</body></noscript>")  # <body> inside a skipped subtree
@example("<div><span>a</div>b</span>c")  # mis-nested end tags
def test_an_accepted_page_scans_exactly_as_the_dom_reads_it(html):
    fast = _fast_scan(html)
    assert fast is None or fast == _dom_scan(html)


@settings(max_examples=200, deadline=None)
@given(st.lists(markup, min_size=1, max_size=4))
def test_a_warm_tag_memo_scans_like_a_cold_one(pages):
    memo: dict = {}
    for html in pages + pages:
        assert _fast_scan(html, memo) == _fast_scan(html)


def tree(node: DomNode) -> tuple:
    """Everything a node holds, in order, its children's parent links checked."""
    assert all(child.parent is node for child in node.children)
    return (node.tag, list(node.attrs.items()), node.text_chunks,
            [tree(child) for child in node.children])


@settings(max_examples=400, deadline=None)
@given(markup)
@example("<title><b>x</b></title>")  # newer stdlib parsers read a title's tags as text
@example("<textarea>a<!-- c -->b</textarea>")
@example("<div><span>a</div>b</span>c")
def test_an_accepted_page_builds_exactly_the_stdlib_tree(html):
    split = _split_tree(html, {})
    reference = tree(_TreeBuilder.build(html))
    assert split is None or tree(split) == reference
    assert tree(parse_html(html)) == reference


def first_body_in_a_skipped_subtree(root: DomNode) -> bool:
    body = root.find_first("body")
    while body is not None:
        body = body.parent
        if body is not None and body.tag in SKIP_TAGS:
            return True
    return False


@settings(max_examples=400, deadline=None)
@given(markup)
@example("<noscript><body>x</body></noscript>")
def test_the_scanner_and_the_tree_refuse_by_one_grammar(html):
    """The scanner refuses what the tree build refuses, and beyond that only
    a first ``<body>`` inside a skipped subtree, which its fold cannot read."""
    split = _split_tree(html, {})
    refused = split is None or first_body_in_a_skipped_subtree(split)
    assert (_fast_scan(html) is None) == refused


@settings(max_examples=200, deadline=None)
@given(st.lists(markup, min_size=1, max_size=4))
def test_a_warm_memo_shared_with_the_scanner_builds_like_a_cold_one(pages):
    memo: dict = {}
    for html in pages + pages:
        _fast_scan(html, memo)
        warm, cold = _split_tree(html, memo), _split_tree(html, {})
        assert (warm is None) == (cold is None)
        assert warm is None or tree(warm) == tree(cold)


def test_the_split_cuts_what_the_grammar_would_have_read_whole():
    """A ``>`` inside a quoted value or a comment sends the page to the DOM
    path, which still reads it."""
    for html, text in (
        ('<html><body><a href="x>y">z</a></body></html>', "z"),
        ("<html><body><!-- a > b -->text</body></html>", "text"),
    ):
        assert _fast_scan(html) is None
        assert _dom_scan(html)[1] == text


#: Every character ``str.isspace`` accepts besides the ASCII six.
UNICODE_WHITESPACE = "".join(
    chr(code)
    for code in [0x1C, 0x1D, 0x1E, 0x1F, 0x85, 0xA0, 0x1680, *range(0x2000, 0x200B),
                 0x2028, 0x2029, 0x202F, 0x205F, 0x3000]
)


@settings(max_examples=400)
@given(st.text(st.characters() | st.sampled_from(UNICODE_WHITESPACE + " \t\n\r\x0b\x0c")))
def test_normalize_collapses_exactly_what_a_whitespace_regex_does(text):
    """``str.split`` and a str pattern's ``\\s`` agree on what whitespace is."""
    assert normalize(text) == re.sub(r"\s+", " ", text.strip().lower())
