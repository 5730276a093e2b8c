"""The surfacer's view of a form.

A :class:`SurfacingForm` wraps a :class:`~repro.htmlparse.forms.ParsedForm`
together with the host it was discovered on, and knows how to turn a set of
input bindings into a GET submission URL.  This is the *only* interface the
surfacing pipeline has to a site -- it never sees backend schemas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.htmlparse.forms import ParsedForm, ParsedInput, extract_forms
from repro.webspace.page import WebPage
from repro.webspace.url import Url


@dataclass(frozen=True)
class SurfacingForm:
    """A form as seen by the surfacer."""

    host: str
    parsed: ParsedForm
    source_url: str = ""

    @property
    def action_path(self) -> str:
        action = self.parsed.action or "/"
        return action if action.startswith("/") else "/" + action

    @property
    def method(self) -> str:
        return self.parsed.method.lower()

    @property
    def is_get(self) -> bool:
        return self.parsed.is_get

    @property
    def inputs(self) -> tuple[ParsedInput, ...]:
        return self.parsed.inputs

    @property
    def bindable_inputs(self) -> tuple[ParsedInput, ...]:
        return self.parsed.bindable_inputs

    @property
    def text_inputs(self) -> tuple[ParsedInput, ...]:
        return self.parsed.text_inputs

    @property
    def select_inputs(self) -> tuple[ParsedInput, ...]:
        return self.parsed.select_inputs

    @property
    def identity(self) -> str:
        """A stable identifier for the form (host + action)."""
        return f"{self.host}{self.action_path}"

    def submission_url(self, bindings: Mapping[str, str]) -> Url:
        """The GET URL for a submission with the given input bindings.

        Hidden inputs with default values are always included (that is what a
        browser would submit); empty bindings are dropped.
        """
        params: dict[str, str] = {}
        for spec in self.inputs:
            if spec.kind == "hidden" and spec.default:
                params[spec.name] = spec.default
        for name, value in bindings.items():
            text = str(value).strip()
            if text:
                params[name] = text
        return Url.build(self.host, self.action_path, params)


def discover_forms(page: WebPage, host: str | None = None) -> list[SurfacingForm]:
    """Extract all forms from a fetched page as :class:`SurfacingForm` objects."""
    page_host = host or Url.parse(page.url).host
    parsed_forms = extract_forms(page.html, page_url=page.url)
    return [
        SurfacingForm(host=page_host, parsed=parsed, source_url=page.url)
        for parsed in parsed_forms
    ]
