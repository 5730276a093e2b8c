"""The virtual-integration baseline (Section 3.1).

A data-integration approach to the Deep Web: per-domain mediated schemas,
semantic mappings from form inputs to mediated attributes, routing
vocabularies, keyword-query reformulation into form submissions, and
per-site result wrappers -- held per source by the registry of a
:class:`~repro.virtual.vertical.VerticalSearchEngine`.  It answers only
through the federated read: ``service.query(..., live=True)`` has the
planner pick live hosts from that registry and the executor probe them.
The baseline exists so that the paper's comparison (surfacing vs. virtual
integration: breadth, fortuitous answering, query-time load, structured
slice-and-dice) can be measured rather than asserted.
"""

from repro.virtual.mediated_schema import MediatedAttribute, MediatedSchema, schema_for_domain
from repro.virtual.matching import FormMapping, classify_domain
from repro.virtual.reformulation import reformulate
from repro.virtual.wrappers import ResultWrapper
from repro.virtual.vertical import VerticalAnswer, VerticalSearchEngine

__all__ = [
    "MediatedAttribute",
    "MediatedSchema",
    "schema_for_domain",
    "FormMapping",
    "classify_domain",
    "reformulate",
    "ResultWrapper",
    "VerticalSearchEngine",
    "VerticalAnswer",
]
