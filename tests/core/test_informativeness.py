"""Tests for page signatures and the informativeness measure."""

from __future__ import annotations

from repro.core.informativeness import (
    PageSignature,
    SignatureCache,
    distinct_signature_fraction,
    record_ids_from_links,
)
from repro.webspace.page import not_found


def signature_of(html: str, page_url: str | None = None) -> PageSignature:
    """A page's signature through the one entry point, a cache of its own."""
    return SignatureCache().signature(html, page_url=page_url)


RESULTS_HTML = """
<html><head><title>Results</title></head><body>
<p class="result-count">3 results found</p>
<div class="result"><h3><a href="http://cars.test/item?id=4">Car A</a></h3><p>make: Toyota</p></div>
<div class="result"><h3><a href="http://cars.test/item?id=9">Car B</a></h3><p>make: Honda</p></div>
<div class="result"><h3><a href="http://cars.test/item?id=11">Car C</a></h3><p>make: Ford</p></div>
</body></html>
"""

EMPTY_HTML = """
<html><head><title>Results</title></head><body>
<p class="result-count">No results found</p>
</body></html>
"""


class TestSignatureOf:
    def test_result_count_parsed_from_banner(self):
        signature = signature_of(RESULTS_HTML)
        assert signature.result_count == 3
        assert not signature.is_error
        assert not signature.is_empty

    def test_record_ids_from_detail_links(self):
        signature = signature_of(RESULTS_HTML)
        assert signature.record_ids == frozenset(
            {"cars.test#4", "cars.test#9", "cars.test#11"}
        )

    def test_empty_page(self):
        signature = signature_of(EMPTY_HTML)
        assert signature.result_count == 0
        assert signature.is_empty

    def test_error_page_detected(self):
        signature = signature_of(not_found("http://x.com/").html)
        assert signature.is_error

    def test_count_falls_back_to_record_links(self):
        html = RESULTS_HTML.replace('<p class="result-count">3 results found</p>', "")
        assert signature_of(html).result_count == 3

    def test_signature_for_page_resolves_relative_links(self):
        html = RESULTS_HTML.replace("http://cars.test/item", "/item")
        signature = signature_of(html, "http://cars.test/search?make=Toyota")
        assert signature.record_ids == frozenset({"cars.test#4", "cars.test#9", "cars.test#11"})

class TestInformativeness:
    def _signature(self, ids: set[str], error: bool = False) -> PageSignature:
        return PageSignature(
            content_hash=str(sorted(ids)),
            result_count=len(ids),
            record_ids=frozenset(ids),
            is_error=error,
        )

    def test_all_distinct_is_fully_informative(self):
        signatures = [self._signature({f"r{i}"}) for i in range(5)]
        assert distinct_signature_fraction(signatures) == 1.0

    def test_all_identical_is_barely_informative(self):
        signatures = [self._signature({"r1"}) for _ in range(10)]
        assert distinct_signature_fraction(signatures) == 0.1

    def test_errors_and_empties_do_not_count(self):
        signatures = [self._signature(set()) for _ in range(4)] + [
            self._signature({"x"}, error=True)
        ]
        assert distinct_signature_fraction(signatures) == 0.0

    def test_empty_input(self):
        assert distinct_signature_fraction([]) == 0.0

    def test_repeated_pages_count_once(self):
        signatures = [self._signature({"a"}), self._signature({"a"}), self._signature({"b"}), self._signature({"c"})]
        fraction = distinct_signature_fraction(signatures)
        assert fraction == 0.75


class TestRecordIdsFromLinks:
    def test_only_item_links_counted(self):
        links = [
            "http://a.com/item?id=1",
            "http://a.com/item?id=2",
            "http://a.com/other?id=3",
            "http://a.com/",
        ]
        assert record_ids_from_links(links) == frozenset({"a.com#1", "a.com#2"})

    def test_item_link_without_id_ignored(self):
        assert record_ids_from_links(["http://a.com/item"]) == frozenset()


class TestFastScanDifferential:
    """The linear fast scanner must agree byte-for-byte with the DOM path
    on generated pages, and must *refuse* (return ``None``) anything it
    cannot prove it parses identically."""

    @staticmethod
    def _form_and_make_input(car_site):
        template = car_site.forms[0]
        return template, next(spec for spec in template.inputs if spec.column == "make")

    def _site_pages(self, car_site):
        from repro.webspace.url import Url

        template, make_input = self._form_and_make_input(car_site)
        urls = [
            car_site.homepage_url(),
            car_site.detail_url(1),
            Url.build(car_site.host, template.action_path, {}),
            Url.build(
                car_site.host,
                template.action_path,
                {make_input.name: make_input.options[0]},
            ),
            Url.build(
                car_site.host, template.action_path, {make_input.name: "zzqx"}
            ),
        ]
        return [car_site.handle(url) for url in urls]

    def test_fast_scan_matches_dom_scan_on_generated_pages(self, car_site):
        from repro.core.informativeness import _dom_scan, _fast_scan

        for page in self._site_pages(car_site):
            assert page.ok
            fast = _fast_scan(page.html)
            assert fast is not None, "generated markup should take the fast path"
            assert fast == _dom_scan(page.html)

    def test_fast_scan_matches_dom_scan_over_a_walk_of_the_site(self, car_site):
        """No flag selects a path, so the two are compared directly, over
        every page a link walk from one submission per ``make`` reaches
        (results pages, pagination, detail pages), not a hand-picked five."""
        from repro.core.informativeness import _dom_scan, _fast_scan
        from repro.htmlparse.links import resolve_links
        from repro.webspace.url import Url

        template, make_input = self._form_and_make_input(car_site)
        frontier = [str(car_site.homepage_url())] + [
            str(Url.build(car_site.host, template.action_path, {make_input.name: option}))
            for option in make_input.options
        ]
        seen = set(frontier)
        compared = 0
        while frontier and compared < 150:
            url = frontier.pop(0)
            page = car_site.handle(Url.parse(url))
            fast = _fast_scan(page.html)
            assert fast is not None and fast == _dom_scan(page.html), url
            compared += 1
            for link in resolve_links(fast[2], url):
                if Url.parse(link).host == car_site.host and link not in seen:
                    seen.add(link)
                    frontier.append(link)
        assert compared > 20

    def test_fast_scan_refuses_cdata_and_malformed_markup(self):
        from repro.core.informativeness import _dom_scan, _fast_scan, analyze_html

        refused = [
            "<html><body><script>var x = '<div>';</script>hi</body></html>",
            "<html><body><style>p { color: red }</style>hi</body></html>",
            "<html><body><p>unterminated <a href='x</p></body></html>",
            "<html><body><p>stray < bracket</p></body></html>",
        ]
        for html in refused:
            assert _fast_scan(html) is None, html
            # The DOM fallback still analyzes the page.
            title, body_text, hrefs = _dom_scan(html)
            assert analyze_html(html).text == " ".join(
                piece for piece in (title, body_text) if piece
            )
