"""Tests for form, link and table extraction."""

from __future__ import annotations

import pytest

from repro.htmlparse.dom import parse_html
from repro.htmlparse.forms import extract_forms
from repro.htmlparse.links import extract_links
from repro.htmlparse.tables import extract_tables


FORM_HTML = """
<html><body>
<form id="carsearch" action="/search" method="get">
  <label>Keywords <input type="text" name="q"/></label>
  <label>Make
    <select name="make">
      <option value="">-- any --</option>
      <option value="Toyota">Toyota</option>
      <option value="Honda" selected>Honda</option>
    </select>
  </label>
  <input type="hidden" name="lang" value="en"/>
  <input type="submit" value="Go"/>
</form>
<form action="/buy" method="post">
  <input type="text" name="card_number"/>
  <textarea name="notes"></textarea>
</form>
</body></html>
"""


class TestFormExtraction:
    def test_two_forms_found(self):
        forms = extract_forms(FORM_HTML)
        assert len(forms) == 2

    def test_get_form_metadata(self):
        form = extract_forms(FORM_HTML)[0]
        assert form.action == "/search"
        assert form.is_get
        assert form.form_id == "carsearch"

    def test_input_kinds(self):
        form = extract_forms(FORM_HTML)[0]
        kinds = {spec.name: spec.kind for spec in form.inputs}
        assert kinds == {"q": "text", "make": "select", "lang": "hidden"}

    def test_select_options_and_default(self):
        form = extract_forms(FORM_HTML)[0]
        make = {spec.name: spec for spec in form.inputs}["make"]
        assert make.options == ("Toyota", "Honda")
        assert make.default == "Honda"

    def test_submit_buttons_excluded(self):
        form = extract_forms(FORM_HTML)[0]
        assert "Go" not in {spec.name for spec in form.inputs}

    def test_labels_attached(self):
        form = extract_forms(FORM_HTML)[0]
        labels = {spec.name: spec.label for spec in form.inputs}
        assert "Keywords" in labels["q"]
        assert "Make" in labels["make"]

    def test_bindable_inputs_exclude_hidden(self):
        form = extract_forms(FORM_HTML)[0]
        assert {spec.name for spec in form.bindable_inputs} == {"q", "make"}

    def test_post_form_and_textarea(self):
        form = extract_forms(FORM_HTML)[1]
        assert not form.is_get
        assert ("notes", "text") in [(spec.name, spec.kind) for spec in form.inputs]

    def test_page_url_recorded(self):
        forms = extract_forms(FORM_HTML, page_url="http://a.com/")
        assert forms[0].page_url == "http://a.com/"

    def test_no_forms(self):
        assert extract_forms("<html><body><p>nothing</p></body></html>") == []


LINK_HTML = """
<html><body>
<a href="http://other.com/page">absolute</a>
<a href="/item?id=5">relative root</a>
<a href="detail.html">relative sibling</a>
<a href="#section">fragment</a>
<a href="javascript:void(0)">script</a>
<a href="/item?id=5">duplicate</a>
</body></html>
"""


class TestLinkExtraction:
    def test_absolute_and_relative_links(self):
        links = extract_links(LINK_HTML, page_url="http://site.com/listing/index.html")
        assert "http://other.com/page" in links
        assert "http://site.com/item?id=5" in links
        assert "http://site.com/listing/detail.html" in links

    def test_fragment_and_javascript_dropped(self):
        links = extract_links(LINK_HTML, page_url="http://site.com/")
        assert not any("#" in link or "javascript" in link for link in links)

    def test_duplicates_removed(self):
        links = extract_links(LINK_HTML, page_url="http://site.com/")
        assert links.count("http://site.com/item?id=5") == 1

    def test_relative_links_without_base_are_dropped(self):
        links = extract_links(LINK_HTML)
        assert links == ["http://other.com/page"]

    def test_an_href_that_is_not_a_url_is_dropped_not_raised(self):
        """``Url.parse`` rejects an unclosed IPv6 bracket; the page's other
        links still resolve, exactly as without the hostile one."""
        hostile = '<a href="http://[x/">x</a><a href="/[y">y</a>'
        page = "http://h.example.com/"
        assert extract_links(hostile, page) == ["http://h.example.com/[y"]
        assert extract_links(hostile + LINK_HTML, page) == extract_links(
            '<a href="/[y">y</a>' + LINK_HTML, page
        )


TABLE_HTML = """
<html><body>
<table class="results">
  <tr><th>make</th><th>model</th><th>price</th></tr>
  <tr><td>Toyota</td><td>Camry</td><td>5000</td></tr>
  <tr><td>Honda</td><td>Civic</td><td>6000</td></tr>
</table>
<table class="record">
  <tr><th>make</th><td>Ford</td></tr>
  <tr><th>price</th><td>3000</td></tr>
  <tr><th>color</th><td>red</td></tr>
</table>
<table><tr><td>lonely</td></tr></table>
</body></html>
"""


class TestTableExtraction:
    def test_header_table(self):
        tables = extract_tables(TABLE_HTML)
        header_table = tables[0]
        assert header_table.header == ("make", "model", "price")
        assert header_table.rows == (("Toyota", "Camry", "5000"), ("Honda", "Civic", "6000"))
        assert (header_table.row_count, header_table.column_count) == (2, 3)

    def test_attribute_value_table(self):
        detail = extract_tables(TABLE_HTML)[1]
        assert not detail.has_header
        assert ("make", "Ford") in detail.rows
        assert detail.row_count == 3

    def test_headerless_single_cell_table(self):
        plain = extract_tables(TABLE_HTML)[2]
        assert plain.rows == (("lonely",),)

    def test_css_class_and_page_url(self):
        tables = extract_tables(TABLE_HTML, page_url="http://x.com/p")
        assert tables[0].css_class == "results"
        assert tables[0].page_url == "http://x.com/p"

    def test_no_tables(self):
        assert extract_tables("<html><body></body></html>") == []

    def test_markup_without_a_table_tag_builds_no_dom(self, monkeypatch):
        import repro.htmlparse.tables as tables_module

        def no_dom(html):
            raise AssertionError("parsed a page that holds no <table")

        monkeypatch.setattr(tables_module, "parse_html", no_dom)
        assert extract_tables("<html><body><p>no tables here</p></body></html>") == []
        # An escaped tag is text, not an element.
        assert extract_tables("<p>&lt;table&gt;&lt;tr&gt;&lt;td&gt;x&lt;/td&gt;</p>") == []

    @pytest.mark.parametrize(
        "html",
        [
            TABLE_HTML,
            TABLE_HTML.replace("<table", "<TABLE").replace("</table", "</TABLE"),
            TABLE_HTML.replace("<table", "<tAbLe"),
            "<p>&lt;table&gt; escaped, then real</p><table><tr><td>x</td></tr></table>",
            "<!-- <table> in a comment only -->",
            "<p>&lt;table&gt;</p>",
            "",
        ],
    )
    def test_markup_and_parsed_page_give_the_same_tables(self, html):
        assert extract_tables(html, "http://x.com/p") == extract_tables(
            parse_html(html), "http://x.com/p"
        )
