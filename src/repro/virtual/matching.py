"""Semantic matching of form inputs to mediated-schema attributes.

Creating and maintaining these mappings is exactly the per-source work the
paper argues does not scale to the whole web; building it here makes that
cost measurable (number of mapped inputs, match confidence) and gives the
vertical search engine the mappings it needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.form_model import SurfacingForm
from repro.htmlparse.forms import ParsedInput
from repro.util.text import jaccard, name_tokens, string_similarity
from repro.virtual.mediated_schema import MediatedAttribute, MediatedSchema, all_schemas


@dataclass(frozen=True)
class AttributeMatch:
    """One (form input -> mediated attribute) correspondence."""

    input_name: str
    attribute_name: str
    score: float


@dataclass
class FormMapping:
    """The semantic mapping of one form onto one domain's mediated schema."""

    form: SurfacingForm
    domain: str
    matches: list[AttributeMatch] = field(default_factory=list)
    domain_score: float = 0.0

    def input_for(self, attribute_name: str) -> str | None:
        best: AttributeMatch | None = None
        for match in self.matches:
            if match.attribute_name == attribute_name:
                if best is None or match.score > best.score:
                    best = match
        return best.input_name if best is not None else None


#: Least input-to-attribute similarity a mapping keeps.
MIN_MATCH_SCORE = 0.45


def match_input(input_spec: ParsedInput, attribute: MediatedAttribute) -> float:
    """Similarity between one form input and one mediated attribute.

    Combines name similarity (against the attribute name and synonyms)
    with value overlap between the input's select options and the
    attribute's sample values.
    """
    input_tokens = set(name_tokens(input_spec.name)) | set(name_tokens(input_spec.label))
    name_score = 0.0
    for candidate in attribute.all_names():
        candidate_tokens = set(name_tokens(candidate))
        token_score = jaccard(input_tokens, candidate_tokens)
        literal_score = string_similarity(input_spec.name, candidate)
        name_score = max(name_score, token_score, literal_score)
    value_score = 0.0
    if input_spec.options and attribute.sample_values:
        options = {option.strip().lower() for option in input_spec.options}
        samples = {value.strip().lower() for value in attribute.sample_values}
        value_score = jaccard(options, samples)
    return max(name_score, 0.6 * name_score + 0.4 * value_score, value_score)


def map_form(form: SurfacingForm, schema: MediatedSchema) -> FormMapping:
    """Best mapping of a form onto one schema."""
    mapping = FormMapping(form=form, domain=schema.domain)
    total_score = 0.0
    for input_spec in form.bindable_inputs:
        best_attribute, best_score = None, 0.0
        for attribute in schema.attributes:
            score = match_input(input_spec, attribute)
            if score > best_score:
                best_attribute, best_score = attribute, score
        if best_attribute is not None and best_score >= MIN_MATCH_SCORE:
            mapping.matches.append(
                AttributeMatch(
                    input_name=input_spec.name,
                    attribute_name=best_attribute.name,
                    score=best_score,
                )
            )
            total_score += best_score
    mapping.domain_score = total_score / max(1, len(form.bindable_inputs))
    return mapping


def classify_domain(form: SurfacingForm) -> FormMapping:
    """Pick the domain whose schema the form maps to best."""
    best: FormMapping | None = None
    for schema in all_schemas():
        mapping = map_form(form, schema)
        if best is None or mapping.domain_score > best.domain_score:
            best = mapping
    assert best is not None, "at least one mediated schema must be registered"
    return best
