"""Typed-input recognition (Section 4.1 of the paper).

Text inputs come in two flavours: generic *search boxes* that accept any
keyword, and *typed* text boxes that only accept values of a common data
type -- US zip codes, city names, dates, prices.  Knowing the type lets the
surfacer pose meaningful queries (better coverage) and avoid meaningless
ones.  Importantly, the paper stresses that the *form's domain* does not
need to be understood -- only the input's data type.

Recognition combines two signals:

* the input's public name / label (``zip``, ``postal_code``, ``city`` ...);
* probe confirmation: values of the candidate type return results markedly
  more often than nonsense values do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.form_model import SurfacingForm
from repro.core.probe import FormProber
from repro.datagen import vocab
from repro.htmlparse.forms import ParsedInput
from repro.util.rng import SeededRng
from repro.util.text import name_tokens

TYPE_ZIPCODE = "zipcode"
TYPE_CITY = "city"
TYPE_DATE = "date"
TYPE_PRICE = "price"
TYPE_STATE = "state"
TYPE_SEARCH = "search"

COMMON_TYPES = (TYPE_ZIPCODE, TYPE_CITY, TYPE_DATE, TYPE_PRICE, TYPE_STATE)

# Name tokens that suggest each type.
_NAME_HINTS: dict[str, frozenset[str]] = {
    TYPE_ZIPCODE: frozenset({"zip", "zipcode", "postal", "postcode"}),
    TYPE_CITY: frozenset({"city", "town", "location"}),
    TYPE_DATE: frozenset({"date", "day", "posted", "start", "end", "when"}),
    TYPE_PRICE: frozenset({"price", "cost", "rent", "salary", "budget", "fee"}),
    TYPE_STATE: frozenset({"state", "province", "region"}),
}

_SEARCH_HINTS = frozenset({"q", "query", "search", "keyword", "keywords", "kw", "terms", "text"})

@dataclass(frozen=True)
class TypePrediction:
    """Result of classifying one text input."""

    input_name: str
    predicted_type: str
    confidence: float
    by_name: bool = True
    probe_confirmed: bool = False


class TypedValueLibrary:
    """Canonical value lists for the common data types.

    These are exactly the "mediated-schema-like lists of values associated
    with elements" the paper envisions: they are shared across all forms and
    domains, and also get populated by the semantic services
    (:mod:`repro.webtables.services`) in the aggregation experiments.
    """

    def __init__(self, rng: SeededRng | None = None) -> None:
        self._rng = rng or SeededRng("typed-values")
        self._values: dict[str, list[str]] = {
            TYPE_ZIPCODE: list(vocab.ALL_ZIPCODES),
            TYPE_CITY: list(vocab.CITY_NAMES),
            TYPE_STATE: list(vocab.US_STATES),
            TYPE_DATE: [f"{year}" for year in range(1995, 2010)]
            + [f"{year}-{month:02d}" for year in (2007, 2008) for month in range(1, 13)],
            TYPE_PRICE: [str(value) for value in (100, 500, 1000, 5000, 10000, 20000, 50000, 100000, 250000, 500000)],
        }

    def values_for(self, type_name: str, count: int | None = None) -> list[str]:
        """Values for a type (optionally a deterministic sample of ``count``)."""
        values = self._values.get(type_name, [])
        if count is None or count >= len(values):
            return list(values)
        return self._rng.child(type_name).sample(values, count)

    def nonsense_values(self, count: int = 3) -> list[str]:
        """Values that should match nothing, used as probe controls."""
        pool = ["zzqx", "qqqqq", "xyzzy42", "nosuchvalue", "zzzzz9"]
        return pool[:count]


@dataclass
class InputTypeClassifier:
    """Classifies text inputs into search boxes vs. typed inputs."""

    library: TypedValueLibrary = field(default_factory=TypedValueLibrary)
    probe_values_per_type: int = 4
    min_hit_advantage: float = 0.25

    # -- name-based classification --------------------------------------------

    def classify_by_name(self, input_spec: ParsedInput) -> TypePrediction | None:
        """Classify from the input's name and label alone."""
        tokens = set(name_tokens(input_spec.name)) | set(name_tokens(input_spec.label))
        if tokens & _SEARCH_HINTS:
            return TypePrediction(
                input_name=input_spec.name,
                predicted_type=TYPE_SEARCH,
                confidence=0.9,
            )
        best_type = None
        for type_name, hints in _NAME_HINTS.items():
            if tokens & hints:
                best_type = type_name
                break
        if best_type is None:
            return None
        return TypePrediction(
            input_name=input_spec.name, predicted_type=best_type, confidence=0.7
        )

    # -- probe-based confirmation ----------------------------------------------

    def confirm_with_probes(
        self,
        form: SurfacingForm,
        input_spec: ParsedInput,
        candidate_type: str,
        prober: FormProber,
    ) -> TypePrediction:
        """Check that candidate-type values actually retrieve results.

        Typed values should produce non-empty result pages much more often
        than nonsense values; if they do not, the input is demoted to a
        generic search box (or left unclassified).
        """
        typed_values = self.library.values_for(candidate_type, self.probe_values_per_type)
        nonsense = self.library.nonsense_values()
        typed_hits = self._hit_rate(form, input_spec.name, typed_values, prober)
        nonsense_hits = self._hit_rate(form, input_spec.name, nonsense, prober)
        confirmed = typed_hits - nonsense_hits >= self.min_hit_advantage
        confidence = 0.95 if confirmed else 0.4
        return TypePrediction(
            input_name=input_spec.name,
            predicted_type=candidate_type if confirmed else TYPE_SEARCH,
            confidence=confidence,
            by_name=True,
            probe_confirmed=confirmed,
        )

    @staticmethod
    def _hit_rate(
        form: SurfacingForm, input_name: str, values: Sequence[str], prober: FormProber
    ) -> float:
        if not values:
            return 0.0
        hits = 0
        for value in values:
            result = prober.probe(form, {input_name: value})
            if result.has_results:
                hits += 1
        return hits / len(values)

    # -- whole-form classification ------------------------------------------------

    def classify_form(
        self,
        form: SurfacingForm,
        prober: FormProber | None = None,
    ) -> dict[str, TypePrediction]:
        """Classify every text input of a form.

        Returns a mapping input name -> prediction.  Inputs with no name
        signal are treated as search boxes (the paper found the vast
        majority of text boxes are search boxes).
        """
        predictions: dict[str, TypePrediction] = {}
        for input_spec in form.text_inputs:
            prediction = self.classify_by_name(input_spec)
            if prediction is None:
                prediction = TypePrediction(
                    input_name=input_spec.name,
                    predicted_type=TYPE_SEARCH,
                    confidence=0.5,
                    by_name=False,
                )
            elif (
                prober is not None
                and prediction.predicted_type in COMMON_TYPES
            ):
                prediction = self.confirm_with_probes(
                    form, input_spec, prediction.predicted_type, prober
                )
            predictions[input_spec.name] = prediction
        return predictions

    def typed_inputs(self, predictions: dict[str, TypePrediction]) -> dict[str, str]:
        """The subset of predictions that are common typed inputs."""
        return {
            name: prediction.predicted_type
            for name, prediction in predictions.items()
            if prediction.predicted_type in COMMON_TYPES
        }
