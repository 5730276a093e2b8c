"""Detection of correlated form inputs (Section 4.2).

Two correlation patterns matter in practice:

* **Ranges** -- a pair of inputs restricting the minimum and maximum of one
  numeric property (``min_price`` / ``max_price``).  Treating the pair as
  independent inputs wastes URLs on invalid ranges; recognizing the pair lets
  the surfacer emit one URL per bucket.
* **Database selection** -- a text box plus a select menu that chooses which
  underlying database the keywords are run against (movies / music /
  software / games).  Good keywords differ per selected database, so keyword
  selection must be conditioned on the select value.

Detection is pattern mining over input names, positions and option values,
as the paper suggests ("large collections of forms can be mined to identify
patterns ... based on input names, their values, and position").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.form_model import SurfacingForm
from repro.htmlparse.forms import ParsedForm, ParsedInput
from repro.util.text import name_tokens

_MIN_MARKERS = frozenset({"min", "low", "from", "start", "lower", "least"})
_MAX_MARKERS = frozenset({"max", "high", "to", "end", "upper", "most"})
_SEARCH_NAME_HINTS = frozenset({"q", "query", "search", "keyword", "keywords", "kw"})
_DB_SELECT_HINTS = frozenset({"category", "section", "type", "catalog", "db", "database", "collection", "in"})


@dataclass(frozen=True)
class RangePair:
    """A detected min/max input pair over one property."""

    property_name: str
    min_input: str
    max_input: str
    options: tuple[str, ...] = ()


@dataclass(frozen=True)
class DatabaseSelection:
    """A detected (search box, database selector) pair."""

    text_input: str
    select_input: str
    categories: tuple[str, ...] = ()


def _split_range_name(name: str, label: str = "") -> tuple[str, str] | None:
    """Split an input name into (property, bound) if it looks like a range bound.

    Returns ``(property, 'min')`` / ``(property, 'max')`` or None.
    """
    tokens = name_tokens(name) or name_tokens(label)
    if not tokens:
        return None
    marker_kind = None
    marker_token = None
    for token in tokens:
        if token in _MIN_MARKERS:
            marker_kind, marker_token = "min", token
            break
        if token in _MAX_MARKERS:
            marker_kind, marker_token = "max", token
            break
    if marker_kind is None:
        # Names like "minprice" / "maxprice" without separators.
        joined = "".join(tokens)
        for marker, kind in (("min", "min"), ("max", "max"), ("low", "min"), ("high", "max")):
            if joined.startswith(marker) and len(joined) > len(marker):
                return joined[len(marker):], kind
        return None
    remaining = [token for token in tokens if token != marker_token]
    if not remaining:
        return None
    return "".join(remaining), marker_kind


def _options_look_numeric(options: tuple[str, ...]) -> bool:
    if not options:
        return False
    numeric = 0
    for option in options:
        cleaned = option.replace(",", "").replace("$", "").strip()
        try:
            float(cleaned)
            numeric += 1
        except ValueError:
            continue
    return numeric >= max(1, int(0.8 * len(options)))


class CorrelationDetector:
    """Detects range pairs and database-selection pairs in a parsed form."""

    def __init__(self, require_numeric_options: bool = False) -> None:
        self.require_numeric_options = require_numeric_options

    # -- ranges -----------------------------------------------------------------

    def detect_ranges(self, form: SurfacingForm | ParsedForm) -> list[RangePair]:
        """All detected min/max pairs in the form."""
        inputs = form.inputs if isinstance(form, (SurfacingForm,)) else form.inputs
        bounds: dict[str, dict[str, ParsedInput]] = {}
        for spec in inputs:
            if not spec.is_bindable:
                continue
            split = _split_range_name(spec.name, spec.label)
            if split is None:
                continue
            property_name, kind = split
            bounds.setdefault(property_name, {})[kind] = spec
        pairs: list[RangePair] = []
        for property_name, found in sorted(bounds.items()):
            if "min" not in found or "max" not in found:
                continue
            min_spec, max_spec = found["min"], found["max"]
            options = min_spec.options or max_spec.options
            if self.require_numeric_options and not _options_look_numeric(options):
                continue
            pairs.append(
                RangePair(
                    property_name=property_name,
                    min_input=min_spec.name,
                    max_input=max_spec.name,
                    options=options,
                )
            )
        return pairs

    # -- database selection ------------------------------------------------------

    def detect_database_selection(
        self, form: SurfacingForm | ParsedForm, max_categories: int = 12
    ) -> DatabaseSelection | None:
        """Detect a (search box, database selector) pair, if present.

        The heuristic: the form has exactly one generic text box, and a select
        menu with a small number of non-numeric options whose name suggests a
        category / section selector.
        """
        text_boxes = [
            spec
            for spec in form.text_inputs
            if set(name_tokens(spec.name)) & _SEARCH_NAME_HINTS or spec.name in _SEARCH_NAME_HINTS
        ]
        if len(text_boxes) != 1:
            return None
        candidates = []
        for spec in form.select_inputs:
            if not spec.options or len(spec.options) > max_categories:
                continue
            if _options_look_numeric(spec.options):
                continue
            name_hit = bool(set(name_tokens(spec.name)) & _DB_SELECT_HINTS)
            candidates.append((name_hit, len(spec.options), spec))
        if not candidates:
            return None
        # Prefer selects whose name hints at a database selector, then the
        # smallest option list (most likely to be a coarse category switch).
        candidates.sort(key=lambda item: (not item[0], item[1]))
        name_hit, _, chosen = candidates[0]
        if not name_hit:
            return None
        return DatabaseSelection(
            text_input=text_boxes[0].name,
            select_input=chosen.name,
            categories=chosen.options,
        )

    # -- corpus-level statistics ----------------------------------------------------

    def range_prevalence(self, forms: list[SurfacingForm | ParsedForm]) -> float:
        """Fraction of forms containing at least one range pair (paper: ~20%)."""
        if not forms:
            return 0.0
        hits = sum(1 for form in forms if self.detect_ranges(form))
        return hits / len(forms)
