"""The token-counter reduction object: count when ids are dense, sort
otherwise, one answer either way.

The dense/sort choice is made per chunk from the chunk's own largest id
(integer ids viewed unsigned, so a negative one reads as huge) and length; these tests pin where the boundary sits, that both sides give the
counts ``wordcount_exact`` gives, and the contracts the runtimes rely on
(``merge`` reads only, pickles carry the used prefix and nothing else,
the whole-chunk fold allocates nothing of the chunk's size).
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.apps.filtered import FilteredWordCountSpec, filtered_wordcount_exact
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.core.reduction_object import ArrayReductionObject, CounterReductionObject
from repro.core.serialization import (
    deserialize_robj,
    deserialize_robj_oob,
    serialize_robj,
    serialize_robj_oob,
    serialized_nbytes,
)
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.formats import tokens_format
from repro.runtime import ClusterConfig, make_engine
from repro.storage.local import MemoryStore


def counted(*chunks) -> CounterReductionObject:
    robj = CounterReductionObject()
    for chunk in chunks:
        robj.count(np.asarray(chunk, dtype=np.int64))
    return robj


def exact(*chunks) -> dict[int, int]:
    return wordcount_exact(np.concatenate([np.asarray(c, dtype=np.int64) for c in chunks]))


class TestDenseOrSort:
    def test_dense_chunk_is_counted_in_the_array(self):
        robj = counted([0, 3, 3, 1, 0, 0])
        assert robj.counts.tolist() == [3, 1, 0, 2]
        assert robj.counts.dtype == np.int64
        assert robj.sparse == {}
        assert robj.value() == {0: 3, 1: 1, 3: 2}

    def test_largest_id_just_below_the_chunk_length_is_dense(self):
        robj = counted([4, 0, 0, 0, 0])
        assert robj.counts.tolist() == [4, 0, 0, 0, 1] and robj.sparse == {}

    def test_largest_id_equal_to_the_chunk_length_is_sorted(self):
        robj = counted([5, 0, 0, 0, 0])
        assert len(robj.counts) == 0 and robj.sparse == {0: 4, 5: 1}

    def test_one_negative_id_sends_the_whole_chunk_through_the_sort(self):
        robj = counted([-1, 0, 0, 1])
        assert len(robj.counts) == 0 and robj.sparse == {-1: 1, 0: 2, 1: 1}

    @pytest.mark.parametrize("chunk", [
        [-5, -5, -1, -(2**62)],
        [2**40, 2**62, 2**62, 2**63 - 1],
        [-3, 0, 7, 2**50, 7, -3],
    ], ids=["all-negative", "all-huge", "mixed"])
    def test_ids_that_cannot_be_dense(self, chunk):
        robj = counted(chunk)
        assert len(robj.counts) == 0
        assert robj.value() == exact(chunk)

    def test_an_id_counted_on_both_sides_is_added_up(self):
        robj = counted([2, 2, 0, 1], [2, 2**40], [-1, 2])
        assert robj.counts.tolist() == [1, 1, 2] and robj.sparse == {2: 2, 2**40: 1, -1: 1}
        assert robj.value() == {0: 1, 1: 1, 2: 4, 2**40: 1, -1: 1}

    def test_empty_chunk_is_a_no_op(self):
        robj = counted([])
        assert robj.value() == {} and robj.nbytes == 0

    def test_single_token(self):
        assert counted([0]).counts.tolist() == [1]
        assert counted([9]).sparse == {9: 1}

    def test_read_only_frombuffer_input(self):
        raw = np.arange(50, dtype=np.int64).repeat(3).tobytes()
        chunk = np.frombuffer(raw, dtype=np.int64)
        assert not chunk.flags.writeable
        robj = CounterReductionObject()
        robj.count(chunk)
        assert robj.value() == {i: 3 for i in range(50)}

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint16, np.uint64])
    def test_narrow_and_unsigned_ids(self, dtype):
        dense = np.array([3, 1, 3, 0, 2, 2, 2], dtype=dtype)
        sparse = np.array([200, 7, 200], dtype=dtype)
        robj = CounterReductionObject()
        robj.count(dense)
        robj.count(sparse)
        assert robj.counts.tolist() == [1, 1, 3, 2]
        assert robj.value() == {0: 1, 1: 1, 2: 3, 3: 2, 7: 1, 200: 2}

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    @pytest.mark.parametrize("negative", [-1, "min"])
    def test_a_negative_id_of_any_width_goes_sparse(self, dtype, negative):
        # Viewed unsigned, -1 is the width's largest value and the width's
        # minimum its sign bit alone: both read as far past the length.
        low = np.iinfo(dtype).min if negative == "min" else negative
        chunk = np.array([low, 0, 1, 1, 0, 2], dtype=dtype)
        robj = CounterReductionObject()
        robj.count(chunk)
        assert len(robj.counts) == 0
        assert robj.sparse == {int(low): 1, 0: 2, 1: 2, 2: 1}

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint32, np.uint64])
    def test_an_id_equal_to_the_length_goes_sparse_at_any_width(self, dtype):
        below = CounterReductionObject()
        below.count(np.array([3, 0, 0, 1], dtype=dtype))
        assert below.counts.tolist() == [2, 1, 0, 1] and below.sparse == {}
        at = CounterReductionObject()
        at.count(np.array([4, 0, 0, 1], dtype=dtype))
        assert len(at.counts) == 0 and at.sparse == {0: 2, 1: 1, 4: 1}

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64])
    def test_int32_uint8_and_uint64_count_exactly(self, dtype):
        rng = np.random.default_rng(5)
        top = min(int(np.iinfo(dtype).max), 2**62)
        chunks = [
            rng.integers(0, 200, 500).astype(dtype),  # dense
            rng.integers(0, top, 50, endpoint=True).astype(dtype),  # wide
            np.array([np.iinfo(dtype).max, 0, np.iinfo(dtype).max], dtype=dtype),
        ]
        robj = CounterReductionObject()
        for chunk in chunks:
            robj.count(chunk)
        want: dict[int, int] = {}
        for chunk in chunks:
            for key in chunk.tolist():
                want[key] = want.get(key, 0) + 1
        assert robj.value() == want

    def test_float_ids_keep_the_min_max_test(self):
        dense = CounterReductionObject()
        dense.count(np.array([2.0, 0.0, 2.0]))
        assert dense.counts.tolist() == [1, 0, 2] and dense.sparse == {}
        sparse = CounterReductionObject()
        sparse.count(np.array([-1.0, 0.0, 0.0]))
        assert len(sparse.counts) == 0 and sparse.sparse == {-1.0: 1, 0.0: 2}

    def test_value_is_python_ints_and_skips_ids_never_seen(self):
        value = counted([0, 4, 4, 2, 2], [2**40]).value()
        assert value == {0: 1, 2: 2, 4: 2, 2**40: 1}
        assert all(type(k) is int and type(v) is int for k, v in value.items())

    def test_counts_past_float_precision_stay_exact(self):
        robj = counted([0, 0, 1])
        big = CounterReductionObject()
        big.count(np.zeros(1, dtype=np.int64))
        big._dense[0] = 2**53
        robj.merge(big)
        robj.count(np.zeros(1, dtype=np.int64))
        assert robj.value()[0] == 2**53 + 3


class TestGrowth:
    def test_grows_geometrically_and_reports_only_what_is_used(self):
        robj = CounterReductionObject()
        reallocations = 0
        for n in range(1, 400):
            before = robj._dense
            robj.count(np.arange(n, dtype=np.int64))
            reallocations += robj._dense is not before
            assert len(robj.counts) == n
        assert reallocations <= 10  # doublings, not one reallocation per chunk
        assert robj.nbytes == 399 * 8
        assert robj.counts.tolist() == list(range(399, 0, -1))

    def test_a_smaller_chunk_after_a_larger_one_keeps_the_length(self):
        robj = counted(np.arange(100), [0, 0, 0])
        assert len(robj.counts) == 100 and robj.counts[0] == 4

    def test_nbytes_is_dense_prefix_plus_sparse_entries(self):
        robj = counted(np.arange(10), [-1, -2, 2**40])
        assert robj.nbytes == 10 * 8 + 3 * CounterReductionObject.SPARSE_ENTRY_NBYTES


class TestMerge:
    def test_merge_adds_both_parts_and_grows(self):
        a = counted([0, 1, 1], [-1])
        b = counted([0, 0, 4, 4, 2], [-1, 2**40])
        a.merge(b)
        assert a.value() == exact([0, 1, 1, -1], [0, 0, 4, 4, 2, -1, 2**40])
        assert len(a.counts) == 5

    def test_merge_leaves_other_bit_identical_and_shares_nothing(self):
        other = counted(np.arange(30).repeat(2), [-4, 2**41, -4])
        before = pickle.dumps(other)
        dense_before = other._dense.copy()
        fresh = other.copy_empty()
        fresh.merge(other)
        assert pickle.dumps(other) == before
        assert not np.shares_memory(fresh._dense, other._dense)
        assert fresh.sparse == other.sparse and fresh.sparse is not other.sparse
        fresh.count(np.arange(30))
        fresh.count(np.array([-4]))
        np.testing.assert_array_equal(other._dense, dense_before)
        assert other.sparse == {-4: 2, 2**41: 1}

    def test_merging_a_shorter_object_into_a_longer_one(self):
        a = counted(np.arange(50))
        a.merge(counted([0, 0, 1]))
        assert a.counts[:3].tolist() == [3, 2, 1] and len(a.counts) == 50

    def test_merge_of_empties(self):
        a = CounterReductionObject()
        a.merge(CounterReductionObject())
        assert a.value() == {} and a.nbytes == 0

    def test_copy_empty_is_the_identity(self):
        robj = counted([1, 1, 0], [-1])
        empty = robj.copy_empty()
        assert isinstance(empty, CounterReductionObject) and empty.value() == {}
        empty.merge(robj)
        assert empty.value() == robj.value()

    def test_merge_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            CounterReductionObject().merge(ArrayReductionObject((1,)))


OBJECTS = {
    "empty": lambda: CounterReductionObject(),
    "dense": lambda: counted(np.arange(100).repeat(2)),
    "sparse": lambda: counted([-1, 2**40, -1]),
    "both": lambda: counted(np.arange(64), [5, -9, 2**50]),
    "grown": lambda: counted(np.arange(10), np.arange(11)),  # spare capacity behind
}


@pytest.mark.parametrize("kind", OBJECTS)
class TestSerialization:
    def test_pickle_round_trip(self, kind):
        robj = OBJECTS[kind]()
        back = deserialize_robj(serialize_robj(robj))
        assert isinstance(back, CounterReductionObject)
        assert back.value() == robj.value() and back.nbytes == robj.nbytes
        np.testing.assert_array_equal(back.counts, robj.counts)
        back.count(np.arange(200))  # the copy is a working object
        assert back.value()[199] == 1

    def test_pickle_carries_the_used_prefix_only(self, kind):
        robj = OBJECTS[kind]()
        back = pickle.loads(pickle.dumps(robj))
        assert len(back._dense) == len(robj.counts)

    def test_out_of_band_round_trip(self, kind):
        robj = OBJECTS[kind]()
        meta, buffers = serialize_robj_oob(robj)
        assert [b.nbytes for b in buffers] == [robj.counts.nbytes]
        assert len(meta) < 400 + 30 * len(robj.sparse)
        back = deserialize_robj_oob(meta, buffers)
        assert back.value() == robj.value()
        # zero-copy: the rebuilt counts alias the buffers that were handed over
        if robj.counts.nbytes:
            assert np.shares_memory(back._dense, robj._dense)

    def test_out_of_band_through_foreign_memory(self, kind):
        """What the process engine does: copy the buffers into a segment,
        rebuild there, merge into a fresh object, drop the segment."""
        robj = OBJECTS[kind]()
        meta, buffers = serialize_robj_oob(robj)
        segment = bytearray(b"".join(bytes(b) for b in buffers))
        view = memoryview(segment)
        back = deserialize_robj_oob(meta, [view[: len(segment)]])
        fresh = back.copy_empty()
        fresh.merge(back)
        segment[:] = bytes(len(segment))  # the segment is recycled
        assert fresh.value() == robj.value()

    def test_serialized_nbytes_is_the_pickle_length(self, kind):
        robj = OBJECTS[kind]()
        assert serialized_nbytes(robj) == len(serialize_robj(robj))
        assert serialized_nbytes(robj) >= robj.counts.nbytes


class TestWordCountSpec:
    def test_finalize_equals_reference_key_for_key(self):
        rng = np.random.default_rng(3)
        toks = rng.integers(0, 300, 5000)
        toks[:1500:97] = -rng.integers(1, 50, len(toks[:1500:97]))
        toks[-1500::211] = 2**45
        spec = WordCountSpec()
        robj = spec.create_reduction_object()
        for chunk in np.array_split(toks, 9):
            spec.local_reduction_batch(robj, chunk)
        assert robj.sparse and len(robj.counts)  # both sides were used
        result = spec.finalize(robj)
        assert result == wordcount_exact(toks)
        assert all(type(k) is int and type(v) is int for k, v in result.items())

    def test_whole_chunk_fold_allocates_nothing_of_the_chunks_size(self):
        """Pins our side of the fold.  (``np.bincount`` itself copies an
        input that is not writeable -- as decoded chunks are -- before it
        counts; that copy is numpy's, ~20 of ~110 us here, and is not
        what this test is about.)"""
        chunk = np.random.default_rng(4).integers(0, 5000, 83_000)
        spec = WordCountSpec()
        robj = spec.create_reduction_object()
        spec.local_reduction_batch(robj, chunk)  # grown to its final size
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            spec.local_reduction_batch(robj, chunk)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # One 5000-slot bincount (40 KB) against a 664 KB chunk.
        assert peak < chunk.nbytes // 8
        assert sum(robj.value().values()) == 2 * len(chunk)

    @pytest.mark.parametrize("pushdown", [None, "prune", "verify"])
    def test_filtered_wordcount_off_prune_verify_identical(self, pushdown):
        rng = np.random.default_rng(11)
        toks = np.sort(rng.integers(0, 400, size=6000))
        toks[:40] = -toks[:40] - 1  # a negative head, still sorted-ish per chunk
        toks[-40:] = 2**40
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        idx = write_dataset(toks, tokens_format(), stores["local"], n_files=4, chunk_units=250)
        idx = distribute_dataset(idx, stores, {"local": 0.5, "cloud": 0.5}, stores["local"])
        clusters = [ClusterConfig("local", "local", 2, 2), ClusterConfig("cloud", "cloud", 2, 2)]
        spec = FilteredWordCountSpec(60, 330)
        rr = make_engine("threaded", clusters, stores, batch_size=2, pushdown=pushdown).run(spec, idx)
        assert rr.result == filtered_wordcount_exact(toks, 60, 330)
        assert isinstance(rr.robj, CounterReductionObject)
        assert rr.robj.sparse and len(rr.robj.counts)  # chunks of either kind survived
        if pushdown:
            assert rr.stats.n_pruned_chunks > 0
