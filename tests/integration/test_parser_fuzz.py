"""Fuzz of the parsers that take outside text.

Query strings come from users and hrefs from pages no one vetted, so
neither may crash a read or a crawl: the query parsers never raise,
``Url.parse`` fails only with ``ValueError``, and link resolution drops
what it cannot parse and returns only URLs that parse back to
themselves.  Examples are drawn from arbitrary text and from a URL-ish
alphabet (delimiters, escapes, brackets, whitespace and non-ASCII).
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.htmlparse.links import resolve_links
from repro.query.parse import parse_query
from repro.serve.cache import normalize_query
from repro.webspace.url import Url

URLISH = ":/?#[]%&=@ .+-_~" "abcxyzHT019" "\t\n\xa0\xe9中ﬁ℀"
PIECES = [
    "http://", "https://", "//", "/", "?", "#", "&", "=", "[", "]", "[::1]", "%", "%41",
    "%zz", "@", ":", ":80", " ", "item", "id=1", "h.example.com", "..", "./", "javascript:",
    "\xe9", "中", "ﬁ", "℀", "\t", "\n",
]

urlish = st.text(alphabet=URLISH, max_size=40) | st.lists(
    st.sampled_from(PIECES), max_size=12
).map("".join)
outside_text = st.text(max_size=40) | urlish

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


@SETTINGS
@given(outside_text)
@example("make:Toyota color: :red cheap")
@example("Body Style:sedan")
def test_query_parsers_never_raise(text):
    parsed = parse_query(text)
    assert parsed.is_empty == (not parsed.keywords and not parsed.filters)
    assert normalize_query(text) == normalize_query(normalize_query(text))


@SETTINGS
@given(outside_text)
@example("http://[x/")
@example("http://[x/item?id=1")
def test_url_parse_returns_a_url_or_raises_value_error(text):
    try:
        url = Url.parse(text)
    except ValueError:
        return
    assert isinstance(url, Url)


@SETTINGS
@given(st.lists(outside_text, max_size=6), st.sampled_from([None, "http://h.example.com/a/b"]))
@example(["http://[x/", "/[y", "item?id=2"], "http://h.example.com/")
def test_resolved_links_round_trip_through_url_parse(hrefs, page_url):
    links = resolve_links(hrefs, page_url)
    assert len(set(links)) == len(links)
    for link in links:
        assert str(Url.parse(link)) == link
