"""Fuzz for the index JSON decoder.

The head builds its job pool from an index document that may have been
hand-edited, truncated or written by another version, so
``DataIndex.from_json`` and every ``from_dict`` beneath it
(``RecordFormat``, ``FileInfo``, ``ChunkInfo``, ``ChunkStats``,
``ChunkSource``, ``ChunkFragment``) must reject a malformed document with
``ValueError`` -- never ``KeyError``/``TypeError``/``AttributeError`` --
and without allocating more than a small multiple of the text.  The
mutator takes a valid index (codec ranges, replicas, fragments,
non-finite stats) and drops, retypes or corrupts one node of it; a
mutation that is malformed by construction must be rejected, any other
must be rejected or load as an index that round-trips.
"""

import copy
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import (
    distribute_dataset,
    replicate_dataset,
    stripe_dataset,
    write_dataset,
)
from repro.data.formats import points_format, tokens_format
from repro.data.index import DataIndex
from repro.storage.local import MemoryStore

#: Keys a document may leave out (or set to null).
OPTIONAL = {
    "meta", "crc32", "codec", "enc_offset", "enc_nbytes", "replicas",
    "fragments", "stripe", "stats", "sample",
}
#: Lists whose length is fixed by the rest of the document.
FIXED_LENGTH = {"counts", "mins", "maxs", "sums", "stripe"}
#: Keys holding stat values, which may be any number.
STAT_VALUES = {"mins", "maxs", "sums", "sample"}
#: What one decode may allocate beyond a multiple of its text.
SLACK = 64 << 10


def _valid_indexes() -> list[dict]:
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(24, 2))
    pts[3, 0], pts[5, 1], pts[7, 0] = np.nan, np.inf, -np.inf
    stores = {n: MemoryStore(n) for n in ("local", "cloud", "s0", "s1")}
    coded = write_dataset(pts, points_format(2), stores["local"],
                          n_files=2, chunk_units=5, codec="zlib",
                          meta={"note": [1, {"x": None}]})
    toks = rng.integers(0, 50, size=30)
    placed = distribute_dataset(
        write_dataset(toks, tokens_format(), stores["local"], n_files=3,
                      chunk_units=7, key_prefix="tok"),
        stores, {"local": 0.5, "cloud": 0.5}, stores["local"],
    )
    replicated = replicate_dataset(placed, stores, n_replicas=1)
    striped = stripe_dataset(
        write_dataset(toks, tokens_format(), stores["local"], n_files=1,
                      chunk_units=10, key_prefix="str", codec="shuffle"),
        stores, k=2, m=1,
    )
    stat_less = replicated.to_dict()
    for c in stat_less["chunks"]:
        del c["stats"]
    return [coded.to_dict(), replicated.to_dict(), striped.to_dict(), stat_less]


VALID = _valid_indexes()


def _nodes(doc, path=()):
    """Every (path, value) in ``doc``, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        yield path + (k,), v
        if isinstance(v, (dict, list)):
            yield from _nodes(v, path + (k,))


def _key_of(path) -> str | None:
    """The innermost dict key on ``path``."""
    return next((p for p in reversed(path) if isinstance(p, str)), None)


@st.composite
def mutated(draw):
    """``(document, must_fail)``: a valid index with one node dropped,
    retyped or corrupted."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID)))
    nodes = list(_nodes(doc))
    path, value = nodes[draw(st.integers(0, len(nodes) - 1))]
    parent = doc
    for p in path[:-1]:
        parent = parent[p]
    last, key = path[-1], _key_of(path)
    free = path[0] == "meta" and len(path) > 1
    stat_value = key in STAT_VALUES and not isinstance(value, list)
    kind = draw(st.sampled_from(["drop", "retype", "corrupt"]))
    if kind == "drop" and isinstance(last, str):
        del parent[last]
        return doc, not free and last not in OPTIONAL
    if kind == "corrupt" and isinstance(value, list) and value:
        if draw(st.booleans()):
            value.pop()
        else:
            value.append(copy.deepcopy(value[-1]))
        row = key == "sample" and isinstance(last, int)
        return doc, not free and (key in FIXED_LENGTH or row)
    if kind == "corrupt" and type(value) is int and not stat_value:
        parent[last] = -1 - value
        return doc, not free
    # Retype: a JSON value of another type than the one written.
    choices = [v for v in ("x", "", [], [0], {}, {"k": 1}, True, False)
               if type(v) is not type(value)]
    parent[last] = draw(st.sampled_from(choices))
    return doc, not free


def load_traced(text: str):
    """``(DataIndex or the ValueError, tracemalloc peak)``; any other
    exception propagates and fails the test."""
    tracemalloc.start()
    try:
        try:
            out = DataIndex.from_json(text)
        except ValueError as exc:
            out = exc
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDecoderFuzz:
    @given(case=mutated())
    @settings(max_examples=1500, deadline=None)
    def test_one_bad_node_is_a_value_error(self, case):
        doc, must_fail = case
        text = json.dumps(doc)
        out, peak = load_traced(text)
        if must_fail:
            assert isinstance(out, ValueError), f"accepted: {text[:300]}"
        elif not isinstance(out, ValueError):
            again = out.to_json()
            assert DataIndex.from_json(again).to_json() == again
        assert peak <= SLACK + 40 * len(text)

    @given(doc=st.sampled_from(VALID), cut=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_truncated_text(self, doc, cut):
        text = json.dumps(doc)
        with pytest.raises(ValueError):
            DataIndex.from_json(text[: cut % len(text)])

    @pytest.mark.parametrize("doc", VALID, ids=["codec", "replicas", "striped", "no-stats"])
    def test_valid_documents_round_trip(self, doc):
        text = json.dumps(doc)
        assert DataIndex.from_json(text).to_json() == text


def _chunk_doc() -> dict:
    return copy.deepcopy(VALID[0]["chunks"][0])


class TestMalformedDocuments:
    """One hand-made example of each kind of damage."""

    @pytest.mark.parametrize("doc", [[], "index", 3, None])
    def test_not_an_object(self, doc):
        with pytest.raises(ValueError, match="expected an object"):
            DataIndex.from_dict(doc)

    @pytest.mark.parametrize("key", ["format", "files", "chunks"])
    def test_missing_top_level_key(self, key):
        doc = copy.deepcopy(VALID[0])
        del doc[key]
        with pytest.raises(ValueError, match=f"missing '{key}'"):
            DataIndex.from_dict(doc)

    @pytest.mark.parametrize("key", ["chunk_id", "key", "offset", "nbytes", "n_units"])
    def test_missing_chunk_key(self, key):
        doc = _chunk_doc()
        del doc[key]
        with pytest.raises(ValueError, match="chunk"):
            DataIndex.from_dict({**VALID[0], "chunks": [doc]})

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown keys"):
            DataIndex.from_dict({**VALID[0], "files": [{**VALID[0]["files"][0], "x": 1}]})

    @pytest.mark.parametrize("key,value", [
        ("nbytes", -1), ("offset", "0"), ("n_units", True), ("chunk_id", 1.0),
        ("location", 7), ("codec", 3), ("replicas", {}), ("stripe", [2]),
        ("stripe", [2, -1]), ("stats", []),
    ])
    def test_bad_chunk_field(self, key, value):
        with pytest.raises(ValueError):
            DataIndex.from_dict({**VALID[0], "chunks": [{**_chunk_doc(), key: value}]})

    def test_codec_without_encoded_range(self):
        doc = {**_chunk_doc(), "enc_nbytes": None}
        with pytest.raises(ValueError, match="encoded range"):
            DataIndex.from_dict({**VALID[0], "chunks": [doc]})

    @pytest.mark.parametrize("key,value,match", [
        ("mins", ["low", 0.0], "non-numeric"),
        ("sums", [None, 0.0], "expected a number"),
        ("maxs", [1.0], "list of 2"),
        ("counts", [1, -1], "non-negative"),
        ("counts", [1, 99], "exceeds"),
        ("sample", [[1.0]], "list of 2"),
    ])
    def test_bad_stats(self, key, value, match):
        stats = {**_chunk_doc()["stats"], key: value}
        doc = {**_chunk_doc(), "stats": stats}
        with pytest.raises(ValueError, match=match):
            DataIndex.from_dict({**VALID[0], "chunks": [doc]})

    @pytest.mark.parametrize("fmt", [
        {"name": "p", "dtype": "garbage", "record_shape": [2]},
        {"name": "p", "dtype": "O", "record_shape": [2]},
        {"name": "p", "dtype": "<f8", "record_shape": [0]},
        {"name": "p", "dtype": "<f8", "record_shape": "2"},
        {"name": "p", "dtype": None, "record_shape": [2]},
        {"name": "p", "dtype": "<f8"},
    ])
    def test_bad_format(self, fmt):
        with pytest.raises(ValueError):
            DataIndex.from_dict({**VALID[0], "format": fmt})

    @pytest.mark.parametrize("frag", [
        {"frag_index": 0, "location": "s0", "key": "k"},
        {"frag_index": -2, "location": "s0", "key": "k", "nbytes": 4},
        {"frag_index": 0, "location": None, "key": "k", "nbytes": 4},
    ])
    def test_bad_fragment(self, frag):
        doc = copy.deepcopy(VALID[2])
        doc["chunks"][0]["fragments"][0] = frag
        with pytest.raises(ValueError, match="fragment"):
            DataIndex.from_dict(doc)

    def test_bad_replica(self):
        doc = copy.deepcopy(VALID[1])
        doc["chunks"][0]["replicas"][0] = {"location": "cloud", "enc_offset": 0}
        with pytest.raises(ValueError, match="source"):
            DataIndex.from_dict(doc)
