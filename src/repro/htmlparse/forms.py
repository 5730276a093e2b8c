"""Extraction of HTML forms from parsed pages.

This is the surfacing system's only window onto a form: the public input
names, their widget kinds (text vs. select vs. hidden), the select options
and the form's action/method.  Nothing about the backend schema leaks
through, which is what makes the semantic problems in the paper (typed
inputs, correlated inputs) real problems.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.htmlparse.dom import DomNode, parse_html


@dataclass(frozen=True)
class ParsedInput:
    """One input discovered inside a ``<form>``."""

    name: str
    kind: str  # 'text' | 'select' | 'hidden' | 'submit' | 'checkbox' | 'radio' | ...
    options: tuple[str, ...] = ()
    default: str = ""
    label: str = ""

    @property
    def is_text(self) -> bool:
        return self.kind == "text"

    @property
    def is_select(self) -> bool:
        return self.kind == "select"

    @property
    def is_bindable(self) -> bool:
        """Inputs the surfacer can assign values to (text boxes and selects)."""
        return self.kind in ("text", "select")


@dataclass(frozen=True)
class ParsedForm:
    """One ``<form>`` element."""

    action: str
    method: str
    inputs: tuple[ParsedInput, ...] = ()
    form_id: str = ""
    page_url: str = ""

    @property
    def is_get(self) -> bool:
        return self.method.lower() == "get"

    @property
    def bindable_inputs(self) -> tuple[ParsedInput, ...]:
        return tuple(spec for spec in self.inputs if spec.is_bindable)

    @property
    def text_inputs(self) -> tuple[ParsedInput, ...]:
        return tuple(spec for spec in self.inputs if spec.is_text)

    @property
    def select_inputs(self) -> tuple[ParsedInput, ...]:
        return tuple(spec for spec in self.inputs if spec.is_select)


def _extract_select(node: DomNode) -> ParsedInput:
    options = []
    default = ""
    for option in node.find_all("option"):
        value = option.attr("value", option.text())
        if "selected" in option.attrs:
            default = value
        if value:
            options.append(value)
    return ParsedInput(
        name=node.attr("name"),
        kind="select",
        options=tuple(options),
        default=default,
    )


def _extract_input(node: DomNode) -> ParsedInput | None:
    input_type = node.attr("type", "text").lower()
    name = node.attr("name")
    if input_type in ("submit", "button", "image", "reset"):
        return None
    if not name:
        return None
    kind = "text" if input_type in ("text", "search", "email", "number", "tel") else input_type
    return ParsedInput(name=name, kind=kind, default=node.attr("value", ""))


def _label_map(form_node: DomNode) -> dict[str, str]:
    """Map input names to the text of the <label> wrapping them."""
    labels: dict[str, str] = {}
    for label_node in form_node.find_all("label"):
        text = label_node.text()
        for control in label_node.walk():
            if control.tag in ("input", "select") and control.attr("name"):
                labels[control.attr("name")] = text
    return labels


def extract_forms(html_or_dom: str | DomNode, page_url: str = "") -> list[ParsedForm]:
    """Extract every form from an HTML document (or pre-parsed DOM)."""
    root = parse_html(html_or_dom) if isinstance(html_or_dom, str) else html_or_dom
    forms: list[ParsedForm] = []
    for form_node in root.find_all("form"):
        labels = _label_map(form_node)
        inputs: list[ParsedInput] = []
        for node in form_node.walk():
            parsed: ParsedInput | None = None
            if node.tag == "select":
                parsed = _extract_select(node)
            elif node.tag == "input":
                parsed = _extract_input(node)
            elif node.tag == "textarea":
                parsed = ParsedInput(name=node.attr("name"), kind="text")
            if parsed is None or not parsed.name:
                continue
            label = labels.get(parsed.name, "")
            inputs.append(
                ParsedInput(
                    name=parsed.name,
                    kind=parsed.kind,
                    options=parsed.options,
                    default=parsed.default,
                    label=label,
                )
            )
        forms.append(
            ParsedForm(
                action=form_node.attr("action", ""),
                method=form_node.attr("method", "get").lower() or "get",
                inputs=tuple(inputs),
                form_id=form_node.attr("id", ""),
                page_url=page_url,
            )
        )
    return forms
