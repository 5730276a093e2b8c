"""Tests for the HTML rendering helpers and form markup."""

from __future__ import annotations

from repro.htmlparse import extract_forms, extract_tables, extract_text, extract_title
from repro.webspace import html as markup
from repro.webspace.forms_markup import render_form, render_input
from repro.webspace.site import FormInputSpec, FormTemplate


class TestMarkupHelpers:
    def test_render_page_and_title_round_trip(self):
        page = markup.render_page("My Title", markup.paragraph("hello"), language="es")
        assert extract_title(page) == "My Title"
        assert 'lang="es"' in page
        assert "hello" in extract_text(page)

    def test_escaping_of_user_content(self):
        page = markup.render_page("T", markup.paragraph("<script>alert(1)</script>"))
        assert "<script>alert" not in page
        assert "&lt;script&gt;" in page

    def test_heading_level_clamped(self):
        assert markup.heading("x", level=0).startswith("<h1>")
        assert markup.heading("x", level=9).startswith("<h6>")

    def test_link_and_list(self):
        html = markup.unordered_list([markup.link("http://a.com/", "A"), markup.link("http://b.com/", "B")])
        assert html.count("<li>") == 2
        assert 'href="http://a.com/"' in html

    def test_definition_table_skips_none(self):
        html = markup.definition_table({"make": "Toyota", "color": None})
        table = extract_tables(html)[0]
        assert ("make", "Toyota") in table.rows
        assert all(row[0] != "color" for row in table.rows)

    def test_result_banners(self):
        assert "1 result found" in markup.result_count_banner(1)
        assert "5 results found" in markup.result_count_banner(5)
        assert "No results found" in markup.no_results_banner()


class TestFormMarkup:
    def _template(self) -> FormTemplate:
        return FormTemplate(
            form_id="f1",
            action_path="/search",
            method="get",
            inputs=[
                FormInputSpec(name="q", kind="text", role="search_box", label="Keywords"),
                FormInputSpec(
                    name="make", kind="select", role="select", column="make",
                    options=("Toyota", "Honda"), label="Make",
                ),
                FormInputSpec(name="lang", kind="hidden", role="hidden", default="en"),
            ],
        )

    def test_rendered_form_parses_back(self):
        parsed = extract_forms(render_form(self._template()))[0]
        assert parsed.action == "/search"
        assert parsed.is_get
        assert parsed.form_id == "f1"
        inputs = {spec.name: spec for spec in parsed.inputs}
        assert inputs["q"].kind == "text"
        assert inputs["make"].options == ("Toyota", "Honda")
        assert inputs["lang"].kind == "hidden"
        assert inputs["lang"].default == "en"

    def test_select_has_any_option(self):
        html = render_input(self._template().inputs[1])
        assert "-- any --" in html

    def test_labels_round_trip(self):
        parsed = extract_forms(render_form(self._template()))[0]
        labels = {spec.name: spec.label for spec in parsed.inputs}
        assert "Keywords" in labels["q"]
        assert "Make" in labels["make"]

    def test_option_values_escaped(self):
        spec = FormInputSpec(
            name="category", kind="select", role="select", options=('a"b<c',), label="c"
        )
        parsed = extract_forms(f'<form action="/s" method="get">{render_input(spec)}</form>')[0]
        assert parsed.inputs[0].options == ('a"b<c',)
