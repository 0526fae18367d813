"""Per-chunk statistics: the metadata side of metadata-first retrieval.

The organizer computes :class:`ChunkStats` in its single write pass;
pruning is only sound if these stats are exact (min/max/count/sum over
the decoded values), NaN-safe, overflow-safe, and survive every index
transformation (codecs, placement, replication, JSON round-trips).
"""

import json
import math

import numpy as np
import pytest

from repro.data.chunks import SAMPLE_UNITS, ChunkStats, compute_chunk_stats
from repro.data.dataset import (
    distribute_dataset,
    read_chunk,
    replicate_dataset,
    write_dataset,
)
from repro.data.formats import RecordFormat, points_format, tokens_format
from repro.data.index import DataIndex
from repro.storage.local import MemoryStore


class TestComputeChunkStats:
    def test_scalar_ints(self):
        st = compute_chunk_stats(np.array([5, 1, 9, 3], dtype=np.int64))
        assert st.n_units == 4
        assert st.counts == (4,)
        assert st.mins == (1,)
        assert st.maxs == (9,)
        assert st.sums == (18,)
        assert st.mean(0) == pytest.approx(4.5)

    def test_multifield_records(self):
        pts = np.array([[1.0, 10.0], [3.0, -2.0], [2.0, 4.0]])
        st = compute_chunk_stats(pts)
        assert st.n_fields == 2
        assert st.mins == (1.0, -2.0)
        assert st.maxs == (3.0, 10.0)
        assert st.sums == (6.0, 12.0)

    def test_empty_chunk(self):
        st = compute_chunk_stats(np.empty((0, 3)))
        assert st.n_units == 0
        assert st.counts == (0, 0, 0)
        assert st.mins == (None, None, None)
        assert st.maxs == (None, None, None)
        assert st.sample == ()
        assert st.mean(0) is None
        # Unknown bounds must never exclude the chunk.
        assert st.overlaps(0, -1e9, 1e9)
        assert st.overlaps(2, 5.0, 5.0)

    def test_single_unit(self):
        st = compute_chunk_stats(np.array([7], dtype=np.int64))
        assert st.n_units == 1
        assert st.mins == (7,) and st.maxs == (7,) and st.sums == (7,)
        assert st.sample == ((7,),)
        assert st.overlaps(0, 7, 7)
        assert not st.overlaps(0, 8, 9)

    def test_nan_values_ignored_in_bounds(self):
        col = np.array([np.nan, 2.0, np.nan, 5.0])
        st = compute_chunk_stats(col)
        assert st.counts == (2,)
        assert st.mins == (2.0,) and st.maxs == (5.0,)
        assert st.sums == (7.0,)

    def test_all_nan_field_keeps_chunk(self):
        st = compute_chunk_stats(np.array([np.nan, np.nan]))
        assert st.counts == (0,)
        assert st.mins == (None,) and st.maxs == (None,)
        # relevant() built on overlaps() cannot mis-prune an opaque chunk.
        assert st.overlaps(0, 0.0, 1.0)

    def test_infinities_survive(self):
        st = compute_chunk_stats(np.array([np.inf, -np.inf, 1.0]))
        assert st.counts == (3,)
        assert st.mins == (-np.inf,) and st.maxs == (np.inf,)
        assert st.overlaps(0, 100.0, 200.0)  # infinite span overlaps all

    def test_nan_bounds_defensive_overlap(self):
        # Hand-built stats with NaN bounds (cannot arise from
        # compute_chunk_stats) must still keep the chunk.
        st = ChunkStats(1, (1,), (float("nan"),), (float("nan"),), (0.0,))
        assert st.overlaps(0, 0.0, 1.0)

    def test_int_sum_overflow_exact(self):
        big = np.array([2**62, 2**62, 2**62, 2**62], dtype=np.int64)
        st = compute_chunk_stats(big)
        assert st.sums == (2**64,)  # int64 accumulation would wrap to 0
        assert st.mins == (2**62,) and st.maxs == (2**62,)

    def test_sample_is_bounded_and_representative(self):
        st = compute_chunk_stats(np.arange(1000, dtype=np.int64))
        assert len(st.sample) == SAMPLE_UNITS
        values = [row[0] for row in st.sample]
        assert values[0] == 0 and values[-1] == 999
        assert values == sorted(values)
        assert st.sample_fraction(lambda row: row[0] < 500) == pytest.approx(
            0.5, abs=0.2
        )

    def test_sample_disabled(self):
        st = compute_chunk_stats(np.arange(10), sample_units=0)
        assert st.sample == ()
        assert st.sample_fraction(lambda row: True) == 0.0


class TestStatsSerialization:
    def test_roundtrip_plain(self):
        st = compute_chunk_stats(np.array([[1.5, 2.5], [3.5, -4.5]]))
        assert ChunkStats.from_dict(st.to_dict()) == st

    @pytest.mark.parametrize("data", [
        np.array([np.inf, 1.0]),
        np.array([-np.inf, np.inf]),
        np.array([np.nan, 2.0]),
        np.array([np.nan, np.nan]),
    ], ids=["inf", "both-inf", "nan", "all-nan"])
    def test_roundtrip_nonfinite_through_json(self, data):
        st = compute_chunk_stats(data)
        # Strict JSON (no Infinity/NaN literals) must survive the trip.
        text = json.dumps(st.to_dict(), allow_nan=False)
        back = ChunkStats.from_dict(json.loads(text))
        assert back == st

    def test_roundtrip_bigint_sum(self):
        st = compute_chunk_stats(np.array([2**62] * 4, dtype=np.int64))
        back = ChunkStats.from_dict(json.loads(json.dumps(st.to_dict())))
        assert back.sums == (2**64,)


class TestWriteDatasetStats:
    def test_every_chunk_carries_stats_by_default(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(200, 3))
        store = MemoryStore()
        idx = write_dataset(pts, points_format(3), store, n_files=4, chunk_units=16)
        assert all(c.stats is not None for c in idx.chunks)
        assert all(c.stats.n_units == c.n_units for c in idx.chunks)
        assert all(c.stats.n_fields == 3 for c in idx.chunks)
        assert sum(c.n_units for c in idx.chunks) == 200

    def test_stats_match_decoded_chunk_values(self):
        toks = np.sort(np.random.default_rng(5).integers(0, 500, size=120))
        store = MemoryStore()
        idx = write_dataset(toks, tokens_format(), store, n_files=3, chunk_units=10)
        pos = 0
        for f in idx.files:
            for c in (c for c in idx.chunks if c.file_id == f.file_id):
                expect = compute_chunk_stats(toks[pos:pos + c.n_units])
                assert c.stats == expect, f"chunk {c.chunk_id} stats diverged"
                pos += c.n_units
        assert pos == 120

    def test_codec_and_plain_stats_identical(self):
        toks = np.random.default_rng(6).integers(0, 99, size=90)
        plain = write_dataset(toks, tokens_format(), MemoryStore(),
                              n_files=2, chunk_units=8)
        coded = write_dataset(toks, tokens_format(), MemoryStore(),
                              n_files=2, chunk_units=8, codec="zlib")
        for a, b in zip(plain.chunks, coded.chunks):
            assert a.stats == b.stats

    def test_stats_survive_placement_replication_and_json(self):
        toks = np.arange(80)
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        idx = write_dataset(toks, tokens_format(), stores["local"],
                            n_files=2, chunk_units=8)
        placed = distribute_dataset(
            idx, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
        )
        replicated = replicate_dataset(placed, stores, n_replicas=1)
        assert all(c.stats is not None for c in replicated.chunks)
        back = DataIndex.from_json(replicated.to_json())
        for a, b in zip(replicated.chunks, back.chunks):
            assert a.stats == b.stats
            assert len(b.sources) == len(a.sources)

    def test_old_index_without_stats_still_loads(self):
        toks = np.arange(40)
        idx = write_dataset(toks, tokens_format(), MemoryStore(),
                            n_files=2, chunk_units=8)
        d = idx.to_dict()
        for c in d["chunks"]:
            del c["stats"]
        back = DataIndex.from_json(json.dumps(d))
        assert all(c.stats is None for c in back.chunks)
        assert "stats" not in back.to_dict()["chunks"][0]


def decoded_chunks(idx, store):
    """``(chunk, decoded units)`` for every chunk, read back from ``store``."""
    stores = {store.location: store}
    return [(c, read_chunk(idx, c.chunk_id, stores)) for c in idx.chunks]


class TestStatsDescribeWrittenValues:
    """Stats are computed after the format's cast, on the bytes stored."""

    @pytest.mark.parametrize("codec", [None, "zlib"])
    def test_float64_input_to_float32_format(self, codec):
        store = MemoryStore()
        idx = write_dataset(np.full((8, 1), 0.1), points_format(1, dtype=np.float32),
                            store, n_files=1, chunk_units=4, codec=codec)
        for c, units in decoded_chunks(idx, store):
            assert c.stats == compute_chunk_stats(units)
            assert c.stats.maxs == (float(np.float32(0.1)),)
            # The stored value is 0.10000000149...; a range just above the
            # float64 0.1 must not prune the chunk that holds it.
            assert c.stats.overlaps(0, 0.1000000005, 1.0)

    @pytest.mark.parametrize("codec", [None, "shuffle"])
    def test_int64_input_wrapping_in_int32_format(self, codec):
        toks = np.array([2**31 + 5, 3, 2**31 + 5, -7], dtype=np.int64)
        store = MemoryStore()
        idx = write_dataset(toks, tokens_format(np.int32), store,
                            n_files=1, chunk_units=2, codec=codec)
        for c, units in decoded_chunks(idx, store):
            assert c.stats == compute_chunk_stats(units)
        assert idx.chunks[0].stats.mins == (-(2**31) + 5,)

    def test_pushdown_verify_over_a_cast_dataset(self):
        from repro.apps.filtered import BoundingBoxKMeansSpec
        from repro.runtime import ClusterConfig, make_engine

        # Chunk 0 holds 0.05, chunk 1 the float64 0.1 stored as float32.
        pts = np.repeat([[0.05, 0.05], [0.1, 0.1]], 3, axis=0)
        store = MemoryStore("local")
        idx = write_dataset(pts, points_format(2, dtype=np.float32), store,
                            n_files=2, chunk_units=3)
        spec = BoundingBoxKMeansSpec(np.array([[0.0, 0.0], [1.0, 1.0]]),
                                     0.1000000005, 1.0)
        runs = {
            mode: make_engine(
                "threaded", [ClusterConfig("local", "local", 1)],
                {"local": store}, pushdown=mode,
            ).run(spec, idx)
            for mode in ("off", "verify")
        }
        assert runs["verify"].stats.n_pruned_chunks == 1
        assert runs["verify"].result.counts.tolist() == [3, 0]
        np.testing.assert_array_equal(
            runs["verify"].result.centroids, runs["off"].result.centroids
        )


class TestOverlapSemantics:
    def test_inclusive_bounds(self):
        st = compute_chunk_stats(np.array([10, 20], dtype=np.int64))
        assert st.overlaps(0, 20, 30)   # touching at max
        assert st.overlaps(0, 0, 10)    # touching at min
        assert not st.overlaps(0, 21, 30)
        assert not st.overlaps(0, 0, 9)

    def test_mean_uses_nonnan_count(self):
        st = compute_chunk_stats(np.array([np.nan, 4.0, 8.0]))
        assert st.mean(0) == pytest.approx(6.0)

    def test_nan_equality_in_custom_eq(self):
        a = compute_chunk_stats(np.array([np.inf, -np.inf]))
        b = ChunkStats.from_dict(a.to_dict())
        assert math.isnan(a.sums[0])
        assert a == b
        assert a != compute_chunk_stats(np.array([1.0, 2.0]))
