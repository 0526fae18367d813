"""Property-based tests for data organization.

Invariants: encode/decode is the identity, chunk plans tile files
exactly, placement conserves bytes, and end-to-end dataset writes
round-trip for arbitrary shapes and chunkings.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.chunks import plan_file_chunks
from repro.data.dataset import read_all_units, write_dataset
from repro.data.formats import RecordFormat, points_format
from repro.data.index import build_index
from repro.storage.local import MemoryStore

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestFormatRoundtrip:
    @given(
        data=arrays(np.float64, st.tuples(st.integers(0, 40), st.just(3)), elements=finite)
    )
    @settings(max_examples=50)
    def test_points_roundtrip(self, data):
        fmt = points_format(3)
        assert np.array_equal(fmt.decode(fmt.encode(data)), data)

    @given(
        data=arrays(np.int64, st.integers(0, 100)),
    )
    @settings(max_examples=50)
    def test_scalar_roundtrip(self, data):
        fmt = RecordFormat("toks", np.int64)
        assert np.array_equal(fmt.decode(fmt.encode(data)), data)


class TestChunkPlanProperties:
    @given(file_units=st.integers(0, 500), chunk_units=st.integers(1, 64))
    @settings(max_examples=100)
    def test_chunks_tile_file_exactly(self, file_units, chunk_units):
        chunks = plan_file_chunks(
            file_id=0, key="k", file_units=file_units, unit_nbytes=8,
            chunk_units=chunk_units, location="local",
        )
        assert sum(c.n_units for c in chunks) == file_units
        pos = 0
        for c in chunks:
            assert c.offset == pos
            pos += c.nbytes
        assert pos == file_units * 8
        # All but the last chunk are full-size.
        for c in chunks[:-1]:
            assert c.n_units == chunk_units


class TestPlacementProperties:
    @given(
        n_files=st.integers(1, 16),
        frac=st.floats(0.01, 0.99),
        units=st.integers(1, 50),
    )
    @settings(max_examples=80)
    def test_placement_conserves_files_and_bytes(self, n_files, frac, units):
        idx = build_index(points_format(2), [units] * n_files, chunk_units=7)
        placed = idx.with_placement({"local": frac, "cloud": 1 - frac})
        assert len(placed.files) == n_files
        assert placed.nbytes == idx.nbytes
        assert len(placed.chunks) == len(idx.chunks)
        local_bytes = sum(f.nbytes for f in placed.files if f.location == "local")
        # File-granularity placement: within one file of the target.
        assert abs(local_bytes - frac * idx.nbytes) <= units * 16 + 1e-9


class TestIndexSerializationProperties:
    """DataIndex.to_dict/from_dict is the identity on everything the
    head plans from: meta, per-source encoded ranges (replicas), and
    per-chunk statistics."""

    @given(
        n=st.integers(4, 120),
        dim=st.integers(1, 4),
        n_files=st.integers(1, 4),
        chunk_units=st.integers(1, 24),
        codec=st.sampled_from([None, "zlib"]),
        replicas=st.integers(0, 2),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=30, deadline=None)
    def test_index_roundtrip_identity(
        self, n, dim, n_files, chunk_units, codec, replicas, seed
    ):
        from repro.data.dataset import distribute_dataset, replicate_dataset
        from repro.data.index import DataIndex

        if n < n_files:
            n = n_files
        rng = np.random.default_rng(seed)
        units = rng.normal(size=(n, dim))
        stores = {
            "local": MemoryStore("local"),
            "cloud": MemoryStore("cloud"),
            "backup": MemoryStore("backup"),
        }
        idx = write_dataset(
            units, points_format(dim), stores["local"],
            n_files=n_files, chunk_units=chunk_units, codec=codec,
        )
        idx = distribute_dataset(
            idx, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
        )
        if replicas:
            idx = replicate_dataset(idx, stores, n_replicas=replicas)
        back = DataIndex.from_json(idx.to_json())
        assert back.meta == idx.meta
        assert back.files == idx.files
        assert len(back.chunks) == len(idx.chunks)
        for a, b in zip(idx.chunks, back.chunks):
            assert b == a  # includes sources (enc ranges) and stats
            assert b.sources == a.sources
            assert b.stats == a.stats
            assert (b.stats is None) == (a.stats is None)
        assert back.fmt.name == idx.fmt.name
        assert back.nbytes == idx.nbytes


class TestDatasetRoundtripProperties:
    @given(
        n=st.integers(4, 200),
        dim=st.integers(1, 6),
        n_files=st.integers(1, 4),
        chunk_units=st.integers(1, 32),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_write_read_identity(self, n, dim, n_files, chunk_units, seed):
        if n < n_files:
            n = n_files
        rng = np.random.default_rng(seed)
        units = rng.normal(size=(n, dim))
        store = MemoryStore()
        idx = write_dataset(
            units, points_format(dim), store, n_files=n_files, chunk_units=chunk_units
        )
        assert np.array_equal(read_all_units(idx, {"local": store}), units)
        assert idx.n_units == n

    @given(
        n_files=st.integers(1, 20),
        local_frac=st.floats(0.0, 1.0),
        stripe=st.sampled_from([None, (2, 1), (4, 2), (3, 3)]),
        replicas=st.integers(0, 1),
        codec=st.sampled_from([None, "shuffle"]),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=30, deadline=None)
    def test_concurrent_placement_reads_back_identical(
        self, n_files, local_frac, stripe, replicas, codec, seed
    ):
        """Placement moves, copies and stripes objects concurrently; what
        it leaves behind reads back as the dataset that was written."""
        from repro.data.dataset import (
            distribute_dataset,
            replicate_dataset,
            stripe_dataset,
        )

        units = np.random.default_rng(seed).normal(size=(n_files * 9, 3))
        stores = {n: MemoryStore(n) for n in ("local", "cloud", "s0", "s1")}
        idx = write_dataset(
            units, points_format(3), stores["local"],
            n_files=n_files, chunk_units=4, codec=codec,
        )
        idx = distribute_dataset(
            idx, stores, {"local": local_frac, "cloud": 1.0 - local_frac},
            stores["local"],
        )
        if stripe is not None:
            idx = stripe_dataset(idx, stores, k=stripe[0], m=stripe[1])
        elif replicas:
            idx = replicate_dataset(idx, stores, n_replicas=replicas)
        assert np.array_equal(read_all_units(idx, stores), units)
