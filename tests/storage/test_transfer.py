"""Unit tests for multi-threaded ranged retrieval."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.chunks import ChunkInfo
from repro.runtime.core import ClusterConfig, make_cluster_fetchers
from repro.storage.bandwidth import FakeClock
from repro.storage.cache import ChunkCache
from repro.storage.local import MemoryStore
from repro.storage.s3 import S3Profile, SimulatedS3Store
from repro.storage.transfer import FetchInfo, ParallelFetcher, split_range


class TestSplitRange:
    def test_even_split(self):
        assert split_range(0, 100, 4) == [(0, 25), (25, 25), (50, 25), (75, 25)]

    def test_uneven_split(self):
        parts = split_range(10, 10, 3)
        assert parts == [(10, 4), (14, 3), (17, 3)]

    def test_covers_range_exactly(self):
        parts = split_range(5, 97, 8)
        assert sum(n for _, n in parts) == 97
        assert parts[0][0] == 5
        for (o1, n1), (o2, _) in zip(parts, parts[1:]):
            assert o1 + n1 == o2

    def test_more_parts_than_bytes(self):
        parts = split_range(0, 2, 5)
        assert parts == [(0, 1), (1, 1)]

    def test_zero_bytes(self):
        assert split_range(0, 0, 3) == []

    def test_single_byte_parts(self):
        """n_parts == nbytes degenerates to one byte per slice."""
        assert split_range(7, 3, 3) == [(7, 1), (8, 1), (9, 1)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_range(0, 10, 0)
        with pytest.raises(ValueError):
            split_range(0, -1, 2)


class TestParallelFetcher:
    def test_reassembles_in_order(self):
        store = MemoryStore()
        data = bytes(range(256)) * 40
        store.put("o", data)
        with ParallelFetcher({"local": store}, n_threads=4) as fetcher:
            assert fetcher.fetch("local", "o") == data

    def test_range_fetch(self):
        store = MemoryStore()
        store.put("o", b"0123456789abcdef")
        with ParallelFetcher({"local": store}, n_threads=3) as fetcher:
            assert fetcher.fetch("local", "o", 4, 8) == b"456789ab"

    def test_single_thread_uses_one_get(self):
        store = MemoryStore()
        store.put("o", b"x" * 100)
        fetcher = ParallelFetcher({"local": store}, n_threads=1)
        fetcher.fetch("local", "o")
        assert store.stats.n_gets == 1

    def test_multi_thread_issues_multiple_gets(self):
        store = MemoryStore()
        store.put("o", b"x" * 100)
        # floor disabled: exercise the raw splitting machinery
        with ParallelFetcher({"local": store}, n_threads=4, min_part_nbytes=0) as fetcher:
            fetcher.fetch("local", "o")
        assert store.stats.n_gets == 4

    def test_min_part_floor_coalesces_small_fetches(self):
        """Default fetcher behaviour: a small range is one GET, not a
        spray of sub-4KB range requests."""
        store = MemoryStore()
        store.put("o", b"x" * 1000)
        with ParallelFetcher({"local": store}, n_threads=8) as fetcher:
            assert fetcher.fetch("local", "o") == b"x" * 1000
        assert store.stats.n_gets == 1

    def test_min_part_floor_still_splits_large_fetches(self):
        store = MemoryStore()
        store.put("o", b"x" * (64 * 1024))
        with ParallelFetcher({"local": store}, n_threads=4) as fetcher:
            fetcher.fetch("local", "o")
        assert store.stats.n_gets == 4

    def test_small_fetch_skips_split(self):
        store = MemoryStore()
        store.put("o", b"xy")
        with ParallelFetcher({"local": store}, n_threads=8) as fetcher:
            assert fetcher.fetch("local", "o") == b"xy"
        assert store.stats.n_gets == 1

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            ParallelFetcher({"local": MemoryStore()}, n_threads=0)

    def test_subrange_error_is_deterministic(self):
        """The *earliest* failing sub-range's error surfaces, every time."""

        class FlakyStore(MemoryStore):
            def get(self, key, offset=0, nbytes=None):
                if offset in (25, 75):
                    raise OSError(f"part at {offset} failed")
                return super().get(key, offset, nbytes)

        store = FlakyStore()
        store.put("o", b"x" * 100)
        with ParallelFetcher({"local": store}, n_threads=4, min_part_nbytes=0) as fetcher:
            for _ in range(5):
                with pytest.raises(OSError, match="part at 25 failed"):
                    fetcher.fetch("local", "o")

    def test_error_does_not_poison_later_fetches(self):
        class OnceBroken(MemoryStore):
            def __init__(self):
                super().__init__()
                self.fail = True

            def get(self, key, offset=0, nbytes=None):
                if self.fail and offset >= 50:
                    raise OSError("boom")
                return super().get(key, offset, nbytes)

        store = OnceBroken()
        store.put("o", b"y" * 100)
        with ParallelFetcher({"local": store}, n_threads=4, min_part_nbytes=0) as fetcher:
            with pytest.raises(OSError):
                fetcher.fetch("local", "o")
            store.fail = False
            assert fetcher.fetch("local", "o") == b"y" * 100

    def test_parallelism_beats_per_connection_cap(self):
        """The paper's optimization: n connections give ~n x throughput."""
        clock = FakeClock()
        profile = S3Profile(per_connection_bw=100.0)
        data = b"z" * 1000

        s3_serial = SimulatedS3Store(profile=profile, clock=clock)
        s3_serial.put("o", data)
        t0 = clock.now()
        ParallelFetcher({"cloud": s3_serial}, n_threads=1).fetch("cloud", "o")
        serial_time = clock.now() - t0
        assert serial_time == pytest.approx(10.0, rel=0.01)
        # FakeClock serializes concurrent sleeps, so measure parallel
        # retrieval as the max of the per-part durations instead.
        parts = split_range(0, len(data), 4)
        per_part = max(n / 100.0 for _, n in parts)
        assert per_part * 4 <= serial_time + 1e-9
        assert per_part == pytest.approx(2.5)


class TestOneFetcherOverEveryStore:
    """A cluster's fetcher holds the run's store map and reads every
    source from the store at its location."""

    def test_each_source_is_read_from_its_store(self):
        stores = {loc: MemoryStore(loc) for loc in ("local", "cloud")}
        stores["local"].put("o", b"L" * 64)
        stores["cloud"].put("o", b"C" * 64)
        with ParallelFetcher(stores) as fetcher:
            assert fetcher.fetch("cloud", "o") == b"C" * 64
            chunk = ChunkInfo(
                chunk_id=0, file_id=0, key="o", location="local",
                offset=0, nbytes=64, n_units=64,
            )
            assert bytes(fetcher.fetch_chunk(chunk)) == b"L" * 64
        assert (stores["local"].stats.n_gets, stores["cloud"].stats.n_gets) == (1, 1)

    def test_a_location_without_a_store_is_a_lookup_error(self):
        with ParallelFetcher({"local": MemoryStore()}) as fetcher:
            with pytest.raises(LookupError, match="no store for location 'cloud'") as err:
                fetcher.fetch("cloud", "o")
        assert not isinstance(err.value, KeyError)  # a KeyError would fail over

    def test_the_by_location_map_holds_one_fetcher(self):
        stores = {loc: MemoryStore(loc) for loc in ("local", "cloud")}
        fetchers = make_cluster_fetchers(stores, ClusterConfig("c", "local", 1, 2))
        (fetcher,) = set(fetchers.values())
        assert list(fetchers) == ["local", "cloud"]
        stores["cloud"].put("o", b"x" * 64 * 1024)
        fetcher.fetch("cloud", "o")
        pools = fetcher.pools
        assert pools._pools
        for f in fetchers.values():
            f.close()  # once per location: the one release, then nothing
        assert pools._pools == {} and pools._holds[""] == 0


class TestCacheIntegration:
    def test_second_fetch_served_from_cache(self):
        store = MemoryStore()
        store.put("o", b"q" * 64)
        cache = ChunkCache(1024)
        with ParallelFetcher({"local": store}, cache=cache) as fetcher:
            first, second = FetchInfo(), FetchInfo()
            data1 = fetcher.fetch("local", "o", 0, 64, first)
            data2 = fetcher.fetch("local", "o", 0, 64, second)
        assert data1 == data2 == b"q" * 64
        assert (first.cache_hit, second.cache_hit) == (False, True)
        assert store.stats.n_gets == 1

    def test_distinct_ranges_do_not_alias(self):
        store = MemoryStore()
        store.put("o", b"ab" * 32)
        cache = ChunkCache(1024)
        with ParallelFetcher({"local": store}, cache=cache) as fetcher:
            assert fetcher.fetch("local", "o", 0, 2) == b"ab"
            assert fetcher.fetch("local", "o", 2, 2) == b"ab"
        assert store.stats.n_gets == 2

    def test_plain_fetch_fills_cache(self):
        store = MemoryStore()
        store.put("o", b"z" * 16)
        cache = ChunkCache(1024)
        with ParallelFetcher({"local": store}, cache=cache) as fetcher:
            fetcher.fetch("local", "o", 0, 16)
        assert cache.contains(store.location, "o", 0, 16)


class TestFetchFrameInto:
    """``fetch_frame(chunk, out)``: the frame lands in ``out``."""

    def test_writes_range_into_buffer(self):
        store = MemoryStore("local")
        data = bytes(range(256)) * 4
        store.put("o", data)
        out = bytearray(512)
        with ParallelFetcher({"local": store}, n_threads=4) as fetcher:
            frame = fetcher.fetch_frame(chunk_of("o", 512, offset=128), out, info := FetchInfo())
        assert info.cache_hit is False
        assert info.bytes_wire == 512
        assert info.n_copies == 0  # part GETs wrote straight into out
        assert bytes(out) == bytes(frame) == data[128:640]

    def test_single_thread_path(self):
        store = MemoryStore("local")
        store.put("o", b"0123456789")
        out = bytearray(4)
        with ParallelFetcher({"local": store}, n_threads=1) as fetcher:
            frame = fetcher.fetch_frame(chunk_of("o", 4, offset=3), out, info := FetchInfo())
        assert (info.cache_hit, info.n_copies) == (False, 0)
        assert bytes(out) == bytes(frame) == b"3456"

    def test_parallel_parts_write_disjoint_slices(self):
        """Each sub-range GET lands in its own slice; the reassembly
        equals the assembled fetch byte for byte."""
        store = MemoryStore("local")
        data = bytes((i * 7) % 256 for i in range(4096))
        store.put("o", data)
        out = bytearray(4096)
        with ParallelFetcher({"local": store}, n_threads=8, min_part_nbytes=0) as fetcher:
            fetcher.fetch_frame(chunk_of("o", 4096), out)
            assert bytes(out) == fetcher.fetch("local", "o", 0, 4096)
        assert store.stats.n_gets >= 8

    def test_cache_hit_copies_into_buffer(self):
        store = MemoryStore("local")
        store.put("o", b"q" * 64)
        cache = ChunkCache(1024)
        out = bytearray(64)
        with ParallelFetcher({"local": store}, cache=cache) as fetcher:
            fetcher.fetch("local", "o", 0, 64)  # warm
            fetcher.fetch_frame(chunk_of("o", 64), out, info := FetchInfo())
        assert info.cache_hit is True
        assert info.bytes_wire == 0
        assert info.n_copies == 1  # the copy out of the cache entry
        assert bytes(out) == b"q" * 64
        assert store.stats.n_gets == 1


def chunk_of(key, nbytes, offset=0):
    """A single-source, unencoded index chunk covering
    ``key[offset:offset+nbytes]``."""
    return ChunkInfo(
        chunk_id=0, file_id=0, key=key, location="local",
        offset=offset, nbytes=nbytes, n_units=nbytes,
    )


class TestFetchChunkAsync:
    def test_result_and_timing(self):
        store = MemoryStore("local")
        store.put("o", b"p" * 128)
        with ParallelFetcher({"local": store}) as fetcher:
            handle = fetcher.fetch_chunk_async(chunk_of("o", 128))
            assert bytes(handle.result()) == b"p" * 128
            assert handle.done()
            assert handle.fetch_s >= 0.0
            assert handle.cache_hit is False
            assert handle.info.bytes_wire == 128

    def test_cache_hit_reported(self):
        store = MemoryStore("local")
        store.put("o", b"h" * 32)
        cache = ChunkCache(1024)
        with ParallelFetcher({"local": store}, cache=cache) as fetcher:
            fetcher.fetch("local", "o", 0, 32)
            handle = fetcher.fetch_chunk_async(chunk_of("o", 32))
            assert bytes(handle.result()) == b"h" * 32
            assert handle.cache_hit is True
            assert handle.info.bytes_wire == 0

    def test_error_propagates_through_result(self):
        store = MemoryStore("local")  # "o" never stored
        with ParallelFetcher({"local": store}) as fetcher:
            handle = fetcher.fetch_chunk_async(chunk_of("o", 8))
            with pytest.raises(KeyError):
                handle.result()

    def test_overlaps_with_foreground_work(self):
        """A slow async fetch runs while the caller does other work."""
        release = threading.Event()

        class SlowStore(MemoryStore):
            def get(self, key, offset=0, nbytes=None):
                release.wait(timeout=5.0)
                return super().get(key, offset, nbytes)

        store = SlowStore("local")
        store.put("o", b"s" * 8)
        with ParallelFetcher({"local": store}) as fetcher:
            handle = fetcher.fetch_chunk_async(chunk_of("o", 8))
            assert not handle.done()  # still blocked in the store
            release.set()
            assert bytes(handle.result()) == b"s" * 8

    def test_cancel_absorbs_running_fetch(self):
        store = MemoryStore("local")
        store.put("o", b"c" * 8)
        with ParallelFetcher({"local": store}) as fetcher:
            handle = fetcher.fetch_chunk_async(chunk_of("o", 8))
            handle.cancel()  # must not raise regardless of progress
        # close() joined the pool; the handle is settled either way.
        assert handle.done()


class TestSplitRangeProperties:
    """Hypothesis coverage of the splitting invariants (satellite of the
    transfer layer: the floor must never break coverage/ordering)."""

    @given(
        offset=st.integers(min_value=0, max_value=1 << 40),
        nbytes=st.integers(min_value=0, max_value=1 << 22),
        n_parts=st.integers(min_value=1, max_value=64),
        floor=st.sampled_from([0, 1, 512, 4096, 64 * 1024]),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, offset, nbytes, n_parts, floor):
        parts = split_range(offset, nbytes, n_parts, floor)
        # Exact coverage, in order, no overlap.
        assert sum(n for _, n in parts) == nbytes
        pos = offset
        for o, n in parts:
            assert o == pos
            assert n > 0
            pos += n
        assert len(parts) <= n_parts
        if floor > 0 and len(parts) > 1:
            # Every emitted slice respects the floor.
            assert all(n >= floor for _, n in parts)
        if floor == 0 and parts:
            # Without a floor, sizes differ by at most one byte.
            sizes = [n for _, n in parts]
            assert max(sizes) - min(sizes) <= 1

    @given(
        nbytes=st.integers(min_value=1, max_value=1 << 20),
        n_parts=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_floor_bounds_part_count(self, nbytes, n_parts):
        floor = 4096
        parts = split_range(0, nbytes, n_parts, floor)
        assert len(parts) <= max(1, nbytes // floor)


class TestEncodedCacheCharge:
    """The chunk cache stores *encoded* bytes: its budget is charged at
    the wire size, so compressed chunks pack more per megabyte."""

    def make_index(self, codec):
        import numpy as np

        from repro.data.dataset import write_dataset
        from repro.data.formats import points_format

        rng = np.random.default_rng(5)
        pts = rng.normal(size=(4000, 4))
        store = MemoryStore("local")
        idx = write_dataset(
            pts, points_format(4), store, n_files=2, chunk_units=500,
            codec=codec,
        )
        return store, idx

    def test_cache_charged_at_encoded_size(self):
        store, idx = self.make_index("shuffle")
        enc_total = sum(c.enc_nbytes for c in idx.chunks)
        logical_total = sum(c.nbytes for c in idx.chunks)
        assert enc_total < logical_total
        cache = ChunkCache(64 << 20)
        with ParallelFetcher({"local": store}, cache=cache) as fetcher:
            for c in idx.chunks:
                fetcher.fetch_chunk(c)
        assert cache.current_nbytes == enc_total

    def test_decode_on_hit(self):
        store, idx = self.make_index("shuffle")
        cache = ChunkCache(64 << 20)
        with ParallelFetcher({"local": store}, cache=cache) as fetcher:
            chunk = idx.chunks[0]
            data1 = fetcher.fetch_chunk(chunk, info1 := FetchInfo())
            assert not info1.cache_hit
            assert info1.bytes_wire == chunk.enc_nbytes
            assert info1.bytes_logical == chunk.nbytes
            data2 = fetcher.fetch_chunk(chunk, info2 := FetchInfo())
            assert info2.cache_hit
            assert info2.bytes_wire == 0
            assert info2.decode_s >= 0.0
            assert data2 == data1

    def test_uncompressed_chunk_charges_logical_size(self):
        store, idx = self.make_index(None)
        cache = ChunkCache(64 << 20)
        with ParallelFetcher({"local": store}, cache=cache) as fetcher:
            chunk = idx.chunks[0]
            fetcher.fetch_chunk(chunk, info := FetchInfo())
        assert info.bytes_wire == chunk.nbytes
        assert cache.current_nbytes == chunk.nbytes
