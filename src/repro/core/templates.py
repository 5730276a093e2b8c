"""Query templates and the informative-template search (the ISIT idea).

A *query template* designates a subset of a form's inputs as binding inputs;
a *query* is the template with concrete values assigned.  Enumerating the
Cartesian product of all inputs is fatal for multi-input forms, so the
selector searches the template lattice incrementally: it starts from
single-input templates, keeps only the *informative* ones (those whose value
assignments produce distinct result pages), and only extends informative
templates by one more input.  This is what makes the number of generated
URLs proportional to the size of the underlying database rather than to the
number of possible queries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.form_model import SurfacingForm
from repro.core.informativeness import PageSignature, distinct_signature_fraction
from repro.core.probe import FormProber
from repro.core.valuepool import ValuePool
from repro.util.rng import SeededRng


@dataclass(frozen=True)
class QueryTemplate:
    """An ordered set of binding inputs."""

    binding_inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "binding_inputs", tuple(sorted(self.binding_inputs)))

    def extend(self, input_name: str) -> "QueryTemplate":
        if input_name in self.binding_inputs:
            raise ValueError(f"input {input_name!r} is already in the template")
        return QueryTemplate(self.binding_inputs + (input_name,))

    def __str__(self) -> str:
        return "+".join(self.binding_inputs)


@dataclass
class TemplateEvaluation:
    """Informativeness evidence for one template."""

    template: QueryTemplate
    informativeness: float
    informative: bool
    probes_issued: int
    sample_signatures: list[PageSignature] = field(default_factory=list)
    distinct_records: int = 0


class TemplateSelector:
    """Searches the template lattice for informative templates."""

    def __init__(
        self,
        prober: FormProber,
        informativeness_threshold: float = 0.2,
        max_dimensions: int = 3,
        probes_per_template: int = 12,
        max_templates: int = 40,
        rng: SeededRng | None = None,
    ) -> None:
        self.prober = prober
        self.informativeness_threshold = informativeness_threshold
        self.max_dimensions = max_dimensions
        self.probes_per_template = probes_per_template
        self.max_templates = max_templates
        self.rng = rng or SeededRng("templates")

    # -- binding sampling -------------------------------------------------------

    def sample_bindings(
        self,
        template: QueryTemplate,
        value_sets: "Mapping[str, Sequence[str]] | ValuePool",
        limit: int | None = None,
    ) -> list[dict[str, str]]:
        """A deterministic sample of value assignments for a template.

        Uses the full Cartesian product when it is small, otherwise a seeded
        sample of ``limit`` *distinct* positions in the (unmaterialized)
        product, decoded mixed-radix into one combination each.  Sampling
        positions instead of rejection-sampling combinations guarantees
        exactly ``limit`` bindings in ``limit`` draws even when the product
        is barely larger than the sample (the old ``while`` loop could spin
        for ``limit * 10`` attempts on such near-full spaces).
        """
        limit = limit or self.probes_per_template
        pool = ValuePool.wrap(value_sets)
        value_lists = []
        for name in template.binding_inputs:
            values = pool.nonblank(name)
            if not values:
                return []
            value_lists.append(values)
        total = 1
        for values in value_lists:
            total *= len(values)
        if total <= limit:
            return [
                dict(zip(template.binding_inputs, combo))
                for combo in itertools.product(*value_lists)
            ]
        rng = self.rng.child(str(template))
        indices = sorted(rng.sample_indices(total, limit))
        bindings = []
        for index in indices:
            combo: list[str] = []
            for values in reversed(value_lists):
                index, position = divmod(index, len(values))
                combo.append(values[position])
            combo.reverse()
            bindings.append(dict(zip(template.binding_inputs, combo)))
        return bindings

    # -- evaluation ----------------------------------------------------------------

    def evaluate(
        self,
        form: SurfacingForm,
        template: QueryTemplate,
        value_sets: "Mapping[str, Sequence[str]] | ValuePool",
    ) -> TemplateEvaluation:
        """Probe a sample of the template's queries and measure informativeness.

        Probes go through the prober's binding-keyed
        :class:`~repro.core.probe.ProbeCache`, so a binding sampled while
        evaluating a dimension-``d-1`` template (or re-sampled by a later
        stage) reuses the earlier signature instead of re-fetching.
        """
        bindings = self.sample_bindings(template, ValuePool.wrap(value_sets))
        signatures: list[PageSignature] = []
        records: set[str] = set()
        for binding in bindings:
            result = self.prober.probe(form, binding)
            signatures.append(result.signature)
            records |= result.signature.record_ids
        informativeness = distinct_signature_fraction(signatures)
        return TemplateEvaluation(
            template=template,
            informativeness=informativeness,
            informative=informativeness >= self.informativeness_threshold and bool(records),
            probes_issued=len(bindings),
            sample_signatures=signatures,
            distinct_records=len(records),
        )

    # -- lattice search ---------------------------------------------------------------

    def select_templates(
        self,
        form: SurfacingForm,
        value_sets: "Mapping[str, Sequence[str]] | ValuePool",
    ) -> list[TemplateEvaluation]:
        """Incremental search for informative templates.

        Dimension-1 candidates are all inputs with candidate values; a
        template of dimension *d* is only considered if it extends an
        informative template of dimension *d-1*.  Returns the evaluations of
        every informative template found (all dimensions).
        """
        pool = ValuePool.wrap(value_sets)
        # One sorted pass over the inputs: the old code re-sorted ``available``
        # for every frontier template at every dimension.
        available = sorted(name for name, values in value_sets.items() if values)
        informative: list[TemplateEvaluation] = []
        frontier: list[QueryTemplate] = []
        evaluated: set[QueryTemplate] = set()

        for name in available:
            if len(informative) >= self.max_templates:
                break
            template = QueryTemplate((name,))
            evaluation = self.evaluate(form, template, pool)
            evaluated.add(template)
            if evaluation.informative:
                informative.append(evaluation)
                frontier.append(template)

        dimension = 1
        while frontier and dimension < self.max_dimensions and len(informative) < self.max_templates:
            dimension += 1
            next_frontier: list[QueryTemplate] = []
            for template in frontier:
                for name in available:
                    if name in template.binding_inputs:
                        continue
                    extended = template.extend(name)
                    if extended in evaluated:
                        continue
                    evaluated.add(extended)
                    evaluation = self.evaluate(form, extended, pool)
                    if evaluation.informative:
                        informative.append(evaluation)
                        next_frontier.append(extended)
                    if len(informative) >= self.max_templates:
                        break
                if len(informative) >= self.max_templates:
                    break
            frontier = next_frontier
        return informative
