"""Per-site result wrappers for the virtual-integration engine.

A wrapper extracts individual result records from a site's result pages and
renames their fields into the domain's mediated schema.  The extraction
itself reuses the generic repeated-structure extractor from
:mod:`repro.core.extraction`; the wrapper contributes the field renaming
(via the form mapping) and light type cleanup.  The paper's point that
wrappers are "easier within a vertical" but site-specific at web scale shows
up as the per-site mapping dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.extraction import ExtractedRecord, extract_result_records
from repro.htmlparse.dom import DomNode
from repro.virtual.matching import FormMapping
from repro.virtual.mediated_schema import schema_for_domain


@dataclass
class WrappedRecord:
    """An extracted record expressed in mediated-schema attribute names."""

    host: str
    title: str
    detail_url: str
    attributes: dict[str, str]

    def get(self, attribute: str, default: str = "") -> str:
        return self.attributes.get(attribute, default)


class ResultWrapper:
    """Extracts and normalizes records from one source's result pages."""

    def __init__(self, mapping: FormMapping) -> None:
        self.mapping = mapping
        self.host = mapping.form.host
        try:
            self._schema = schema_for_domain(mapping.domain)
        except KeyError:
            self._schema = None

    def _normalize_field(self, field_name: str) -> str:
        """Map a raw field label to a mediated attribute name when possible."""
        if self._schema is None:
            return field_name
        attribute = self._schema.attribute(field_name)
        if attribute is not None:
            return attribute.name
        return field_name

    def wrap_page(self, html_or_dom: str | DomNode) -> list[WrappedRecord]:
        """Extract all records from one result page (markup or parsed)."""
        records: list[WrappedRecord] = []
        for extracted in extract_result_records(html_or_dom):
            records.append(self._wrap(extracted))
        return records

    def _wrap(self, extracted: ExtractedRecord) -> WrappedRecord:
        attributes = {
            self._normalize_field(name): value for name, value in extracted.fields.items()
        }
        return WrappedRecord(
            host=self.host,
            title=extracted.title,
            detail_url=extracted.detail_url,
            attributes=attributes,
        )


def matches_filters(record: WrappedRecord, filters: dict[str, str]) -> bool:
    """Whether a wrapped record satisfies structured attribute filters.

    Numeric filter values match on equality after float conversion; string
    values match case-insensitively.
    """
    for attribute, expected in filters.items():
        actual = record.get(attribute)
        if not actual:
            return False
        expected_text = str(expected).strip().lower()
        actual_text = actual.strip().lower()
        try:
            if float(expected_text) != float(actual_text.replace(",", "")):
                return False
            continue
        except ValueError:
            pass
        if expected_text != actual_text:
            return False
    return True
