"""The durable tier's codecs: every persisted type round-trips, field for field.

Strategies are derived from the same annotations the codec compiles, so
a field added to any persisted dataclass is generated, encoded, dumped,
parsed, decoded and compared here without an edit.  The one hand-written
codec, the ``documents`` row, is checked against it.
"""

from __future__ import annotations

import json
import sqlite3
from collections.abc import Sequence
from dataclasses import fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.surfacer import SiteSurfacingResult, SurfacingConfig
from repro.persist.codec import decode, encode
from repro.persist.sqlite import INSERT_DOCUMENT, create_schema, read_records, record_row
from repro.store.records import IngestRecord
from repro.util.text import tokenize
from repro.webtables.corpus import HarvestState

from persisted_types import ROOTS, persisted_dataclasses

PERSISTED = persisted_dataclasses(*ROOTS)

SCALARS = {
    str: st.text(max_size=8),  # any unicode: ids and hosts are not ASCII-only
    int: st.integers(-(2**53), 2**53),
    float: st.floats(allow_nan=False),
    bool: st.booleans(),
    object: st.none() | st.integers(-1000, 1000) | st.text(max_size=8),
    # Validated at construction, so drawn from configs that pass.
    SurfacingConfig: st.sampled_from(
        [SurfacingConfig(), SurfacingConfig(seed=3, max_urls_per_form=60, range_aware=False)]
    ),
}


def values_of(tp) -> st.SearchStrategy:
    """A strategy for values of annotation ``tp`` (optionals both ways,
    containers empty and not)."""
    if tp in SCALARS:
        return SCALARS[tp]
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        return st.builds(tp, **{spec.name: values_of(hints[spec.name]) for spec in fields(tp)})
    origin, args = get_origin(tp), get_args(tp)
    if type(None) in args:
        return st.none() | values_of(args[0])
    if origin is dict:
        return st.dictionaries(values_of(args[0]), values_of(args[1]), max_size=3)
    if origin is tuple and Ellipsis not in args:
        return st.tuples(*map(values_of, args))
    # An abstract ``Sequence`` is exercised with the non-list kind.
    return st.lists(values_of(args[0]), max_size=3).map(tuple if origin is Sequence else origin)


@pytest.mark.parametrize("tp", PERSISTED, ids=lambda tp: tp.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_field_round_trips_through_json_byte_stably(tp, data):
    value = data.draw(values_of(tp))
    payload = encode(tp, value)
    # The guard the hand-written pairs would have failed: nothing a
    # dataclass declares is left out of its payload.
    assert set(payload) == {spec.name for spec in fields(tp) if spec.init}
    dumped = json.dumps(payload, sort_keys=True)
    assert decode(tp, json.loads(dumped)) == value
    assert json.dumps(encode(tp, value), sort_keys=True) == dumped


#: Records whose tokens are what every producer in the tree writes:
#: ``tokenize`` output (``[a-z0-9]+``), any length, zero included.
TOKENIZED_RECORDS = values_of(IngestRecord).flatmap(
    lambda record: st.lists(st.text(max_size=12).map(tokenize), max_size=4).map(
        lambda parts: replace(record, tokens=[token for part in parts for token in part])
    )
)


@settings(max_examples=60, deadline=None)
@given(record=TOKENIZED_RECORDS)
def test_document_row_round_trips_tokenized_streams(record):
    """``record_row`` / ``read_records`` stay hand-written for the store
    and the restart path: the codec is their reference for every field but
    ``tokens``, which is written as one space-joined string and splits
    back to the same stream."""
    row = record_row(record)
    payload = encode(IngestRecord, record)
    assert row == (*(payload[name] for name in ("url", "host", "title", "text")),
                   " ".join(record.tokens), len(record.tokens), record.source,
                   json.dumps(payload["annotations"], sort_keys=True))
    with sqlite3.connect(":memory:") as connection:
        create_schema(connection, {})
        connection.execute(INSERT_DOCUMENT, (1, *row))
        assert list(read_records(connection)) == [record]
    connection.close()


@pytest.mark.parametrize(
    "tokens", [[""], ["a", ""], ["", "b"], ["a b"], ["a", "b c", "d"], [" "]]
)
def test_a_token_that_would_not_split_back_is_refused(tokens):
    record = IngestRecord(url="u", host="h", title="", text="", tokens=tokens)
    with pytest.raises(ValueError, match="empty or holds a space"):
        record_row(record)


def test_sets_are_written_sorted():
    state = HarvestState(urls={"b", "a", "c"}, form_hosts={"z", "y"})
    payload = encode(HarvestState, state)
    assert payload["urls"] == ["a", "b", "c"] and payload["form_hosts"] == ["y", "z"]


@pytest.mark.parametrize(
    "payload, complaint",
    [
        ({"host": "h", "domain": "d", "surprise": 1}, "unknown .'surprise'."),
        ({"host": "h"}, "missing .'domain'."),
        (["host", "domain"], "expected an object"),
        ({"host": "h", "domain": "d", "coverage": {"host": "h"}}, "CoverageReport: .* missing"),
    ],
)
def test_decode_refuses_a_payload_of_another_layout(payload, complaint):
    with pytest.raises(ValueError, match=complaint):
        decode(SiteSurfacingResult, payload)


def test_an_annotation_without_an_encoding_is_refused_at_compile_time():
    with pytest.raises(TypeError, match="no durable encoding"):
        encode(dict[int, str], {})
