"""Keyword-query reformulation into form submissions.

Given a keyword query and a form's mapping onto a mediated schema, produce
the bindings for a submission likely to retrieve relevant records: query
tokens that match a select option are bound to that select, numbers are
bound to numeric attributes (year/price style), and whatever is left goes to
the form's search box.  As the paper notes, this keyword reformulation is a
different problem from classical query reformulation in data integration --
it is inherently lossy, which is what the comparison experiments measure.
"""

from __future__ import annotations

from repro.core.form_model import SurfacingForm
from repro.util.text import name_tokens, tokenize
from repro.virtual.matching import FormMapping
from repro.virtual.mediated_schema import schema_for_domain

_SEARCH_BOX_HINTS = frozenset({"q", "query", "search", "keyword", "keywords", "kw"})
_YEAR_RANGE = (1900, 2030)


def reformulate(query: str, mapping: FormMapping) -> dict[str, str]:
    """The form bindings (input name -> value) for ``query`` against the
    mapped form; empty when nothing binds."""
    form = mapping.form
    bindings: dict[str, str] = {}
    remaining: list[str] = []
    # Generic domain words ("used", "jobs", "recipe", ...) describe the
    # vertical, not the content being sought; binding them to the search
    # box would only shrink recall.
    domain_words = frozenset(
        token
        for keyword in schema_for_domain(mapping.domain).keywords
        for token in tokenize(keyword)
    )
    select_options = _select_option_index(form)
    for token in tokenize(query):
        if token in domain_words:
            continue
        # 1. Token matches a select option -> bind that select.
        input_name = next(
            (
                name
                for name, options in select_options.items()
                if name not in bindings and token in options
            ),
            None,
        )
        if input_name is not None:
            bindings[input_name] = select_options[input_name][token]
            continue
        # 2. Numeric token -> bind a numeric-looking input (year first).
        if token.isdigit():
            input_name = _numeric_input(form, int(token))
            if input_name is not None and input_name not in bindings:
                bindings[input_name] = token
                continue
        remaining.append(token)
    if remaining:
        search_box = _search_box(form)
        if search_box is not None:
            bindings[search_box] = " ".join(remaining)
    return bindings


def _select_option_index(form: SurfacingForm) -> dict[str, dict[str, str]]:
    """Per-select mapping from lower-cased option token to the original option."""
    index: dict[str, dict[str, str]] = {}
    for spec in form.select_inputs:
        options: dict[str, str] = {}
        for option in spec.options:
            for token in tokenize(str(option)):
                options.setdefault(token, str(option))
        if options:
            index[spec.name] = options
    return index


def _numeric_input(form: SurfacingForm, value: int) -> str | None:
    """Choose an input for a bare number (years to year-ish inputs, the
    rest to price-ish inputs)."""
    year_like = _YEAR_RANGE[0] <= value <= _YEAR_RANGE[1]
    year_inputs, price_inputs = [], []
    for spec in form.bindable_inputs:
        tokens = set(name_tokens(spec.name))
        if "year" in tokens or "date" in tokens:
            year_inputs.append(spec.name)
        if tokens & {"price", "rent", "salary", "cost"}:
            price_inputs.append(spec.name)
    if year_like and year_inputs:
        return year_inputs[0]
    if price_inputs:
        return price_inputs[0]
    return None


def _search_box(form: SurfacingForm) -> str | None:
    for spec in form.text_inputs:
        if spec.name in _SEARCH_BOX_HINTS or set(name_tokens(spec.name)) & _SEARCH_BOX_HINTS:
            return spec.name
    # Fall back to any text input.
    for spec in form.text_inputs:
        return spec.name
    return None
