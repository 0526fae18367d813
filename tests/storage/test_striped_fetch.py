"""Erasure-coded striping: placement, fastest-k-of-n retrieval, recovery.

Chaos is the seeded fault injector throughout; breaker cooldowns use an
injectable fake clock, so no test sleeps on the wall clock.
"""


import numpy as np
import pytest

from repro.data.chunks import ChunkFragment
from repro.data.dataset import (
    distribute_dataset,
    ordered_placements,
    read_all_units,
    stripe_dataset,
    write_dataset,
)
from repro.data.formats import RecordFormat
from repro.data.index import DataIndex
from repro.runtime.core import ClusterConfig, EngineOptions, make_cluster_fetchers
from repro.storage.erasure import ErasureError
from repro.storage.faults import FaultInjectingStore, FaultSpec
from repro.storage.health import BreakerPolicy, HealthRegistry
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryPolicy
from repro.storage.transfer import FetchInfo

FMT = RecordFormat("bytes", np.uint8, ())
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, s: float) -> None:
        self.now += s


def make_stores(n_spares=4, dead=(), stall=()):
    stores = {}
    for name in ["local", "cloud"] + [f"spare{i}" for i in range(n_spares)]:
        store = MemoryStore(name)
        if name in dead:
            store = FaultInjectingStore(
                store, FaultSpec(permanent_keys=("part",)), armed=False
            )
        elif name in stall:
            store = FaultInjectingStore(
                store, FaultSpec(stall_p=1.0, stall_s=0.05, seed=3), armed=False
            )
        stores[name] = store
    return stores


def make_striped(stores, *, n=240, k=4, m=2, codec=None):
    units = np.arange(n, dtype=np.uint8).reshape(n, *FMT.record_shape)
    index = write_dataset(
        units, FMT, stores["local"], n_files=3, chunk_units=20, codec=codec
    )
    index = distribute_dataset(
        index, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
    )
    index = stripe_dataset(index, stores, k=k, m=m)
    for s in stores.values():
        arm = getattr(s, "arm", None)
        if callable(arm):
            arm()
    return units, index


def make_fetchers(stores, *, health=None, hedge=None):
    cluster = ClusterConfig("local", "local", n_workers=1, retrieval_threads=2)
    return make_cluster_fetchers(
        stores, cluster, EngineOptions(retry=FAST_RETRY, hedge=hedge), health=health
    )


def fetch_everything(index, fetchers):
    out = []
    for c in index.chunks:
        info = FetchInfo()
        out.append((bytes(fetchers[c.location].fetch_chunk(c, info)), info))
    return out


class TestStripeDataset:
    def test_fragments_attached_originals_deleted(self):
        stores = make_stores()
        units, index = make_striped(stores)
        assert index.meta["stripe"] == [4, 2]
        for c in index.chunks:
            assert c.stripe == (4, 2)
            assert len(c.fragments) == 6
            assert [f.frag_index for f in c.fragments] == list(range(6))
            # Round-robin placement never doubles up while stores last.
            locs = [f.location for f in c.fragments]
            assert len(set(locs)) == 6
        # The original file objects are gone: only fragments remain.
        for name, store in stores.items():
            assert all(".f" in key for key in store.list_keys())

    def test_read_round_trip_plain_and_encoded(self):
        for codec in (None, "zlib"):
            stores = make_stores()
            units, index = make_striped(stores, codec=codec)
            np.testing.assert_array_equal(read_all_units(index, stores), units)

    def test_storage_overhead_is_n_over_k(self):
        stores = make_stores()
        plain = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        units = np.arange(240, dtype=np.uint8)
        base = write_dataset(units, FMT, plain["local"], n_files=3, chunk_units=20)
        base_bytes = sum(plain["local"].size(k) for k in plain["local"].list_keys())
        _, index = make_striped(stores, k=4, m=2)
        striped_bytes = sum(
            s.size(key) for s in stores.values() for key in s.list_keys()
        )
        ratio = striped_bytes / base_bytes
        assert 1.5 <= ratio < 1.52  # (k+m)/k plus padding

    def test_index_json_round_trip(self):
        stores = make_stores()
        _, index = make_striped(stores)
        rt = DataIndex.from_json(index.to_json())
        for a, b in zip(rt.chunks, index.chunks):
            assert a.fragments == b.fragments
            assert a.stripe == b.stripe

    def test_old_index_without_stripe_still_loads(self):
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        units = np.arange(60, dtype=np.uint8)
        index = write_dataset(units, FMT, stores["local"], n_files=2,
                              chunk_units=10)
        text = index.to_json()
        assert '"fragments"' not in text and '"stripe"' not in text
        rt = DataIndex.from_json(text)
        assert all(c.fragments == () and c.stripe is None for c in rt.chunks)

    def test_invalid_geometry_rejected(self):
        stores = make_stores()
        units = np.arange(60, dtype=np.uint8)
        index = write_dataset(units, FMT, stores["local"], n_files=2,
                              chunk_units=10)
        with pytest.raises(ValueError):
            stripe_dataset(index, stores, k=0, m=2)
        with pytest.raises(ValueError):
            stripe_dataset(index, stores, k=1, m=0)

    def test_fragment_round_trip(self):
        f = ChunkFragment(frag_index=3, location="spare1", key="a.f03", nbytes=9)
        assert ChunkFragment.from_dict(f.to_dict()) == f


class TestOrderedPlacements:
    def test_rotation_spreads_start_store(self):
        stores = {n: MemoryStore(n) for n in ("a", "b", "c", "d")}
        p0 = ordered_placements(stores, "a", 3, rotation=0, include_home=True,
                                distinct=False)
        p1 = ordered_placements(stores, "a", 3, rotation=1, include_home=True,
                                distinct=False)
        assert p0 != p1
        assert len(p0) == len(p1) == 3

    def test_distinct_needs_enough_stores(self):
        stores = {n: MemoryStore(n) for n in ("a", "b")}
        with pytest.raises(ValueError, match="replicas need"):
            ordered_placements(stores, "a", 2, what="replica")

    def test_unknown_home_rejected(self):
        stores = {"a": MemoryStore("a")}
        with pytest.raises(KeyError):
            ordered_placements(stores, "nope", 1)


class TestStripedFetch:
    def test_bit_identical_and_counters(self):
        stores = make_stores()
        units, index = make_striped(stores)
        fetchers = make_fetchers(stores)
        try:
            results = fetch_everything(index, fetchers)
        finally:
            for f in fetchers.values():
                f.close()
        assert b"".join(d for d, _ in results) == units.tobytes()
        for _, info in results:
            assert info.n_fragments == 4
            assert info.n_parity_decodes == 0  # all data legs healthy
            assert info.n_copies == 1  # exactly the reassembly copy
        assert sum(info.fragments_wasted_bytes for _, info in results) == 0

    def test_encoded_chunks_count_decode_copy(self):
        stores = make_stores()
        units, index = make_striped(stores, codec="zlib")
        fetchers = make_fetchers(stores)
        try:
            results = fetch_everything(index, fetchers)
        finally:
            for f in fetchers.values():
                f.close()
        assert b"".join(d for d, _ in results) == units.tobytes()
        assert all(i.n_copies == 2 for _, i in results)

    def test_m_dead_stores_masked_by_parity(self):
        stores = make_stores(dead=("spare0", "spare1"))
        units, index = make_striped(stores)
        fetchers = make_fetchers(stores)
        try:
            results = fetch_everything(index, fetchers)
        finally:
            for f in fetchers.values():
                f.close()
        assert b"".join(d for d, _ in results) == units.tobytes()
        assert sum(i.n_parity_decodes for _, i in results) > 0
        assert sum(i.n_failovers for _, i in results) > 0

    def test_more_than_m_dead_stores_fails(self):
        stores = make_stores(dead=("spare0", "spare1", "spare2"))
        units, index = make_striped(stores)
        fetchers = make_fetchers(stores)
        try:
            from repro.storage.faults import PermanentStorageError

            with pytest.raises((PermanentStorageError, ErasureError)):
                for c in index.chunks:
                    fetchers[c.location].fetch_chunk(c)
        finally:
            for f in fetchers.values():
                f.close()

    def test_chunk_with_too_few_fragments_rejected(self):
        stores = make_stores()
        _, index = make_striped(stores, k=4, m=2)
        c = index.chunks[0]
        from dataclasses import replace

        broken = replace(c, fragments=c.fragments[:3])
        fetchers = make_fetchers(stores)
        try:
            with pytest.raises(ErasureError, match="fragments"):
                fetchers[c.location].fetch_chunk(broken)
        finally:
            for f in fetchers.values():
                f.close()


class TestBreakerStripedRouting:
    def test_open_breaker_demoted_while_k_healthy(self):
        stores = make_stores(dead=("spare0",))
        units, index = make_striped(stores)
        health = HealthRegistry(BreakerPolicy(fail_threshold=2, recovery_s=60.0))
        fetchers = make_fetchers(stores, health=health)
        try:
            results = fetch_everything(index, fetchers)
        finally:
            for f in fetchers.values():
                f.close()
        assert b"".join(d for d, _ in results) == units.tobytes()
        snap = health.snapshot()["spare0"]
        assert snap["state"] == "open"
        # Once open, the dead store's fragments are demoted: skips accrue
        # and the dead store stops being attempted on every chunk.
        skips = sum(info.n_breaker_skips for _, info in results)
        assert skips > 0

    def test_half_open_probe_recovers_store(self):
        clock = FakeClock()
        stores = make_stores(dead=("spare0",))
        units, index = make_striped(stores)
        health = HealthRegistry(
            BreakerPolicy(fail_threshold=2, recovery_s=1.0, close_after=1),
            clock=clock,
        )
        fetchers = make_fetchers(stores, health=health)
        try:
            fetch_everything(index, fetchers)
            assert health.snapshot()["spare0"]["state"] == "open"
            # The store heals; after the cooldown the breaker half-opens
            # and the next striped fetch's probe closes it again.
            stores["spare0"].disarm()
            clock.advance(1.5)
            results = fetch_everything(index, fetchers)
        finally:
            for f in fetchers.values():
                f.close()
        assert b"".join(d for d, _ in results) == units.tobytes()
        snap = health.snapshot()["spare0"]
        assert snap["state"] == "closed"
        assert snap["n_half_opened"] >= 1
        assert snap["n_closed"] >= 1
        # With every store healthy again, no parity decode is needed.
        assert sum(i.n_parity_decodes for _, i in results) == 0


class TestEngineOptionsStripe:
    def test_valid_stripe_normalized(self):
        opts = EngineOptions(stripe=(4, 2))
        assert opts.stripe == (4, 2)

    @pytest.mark.parametrize("bad", [(0, 2), (1, 0), (-1, 1), (4,), (300, 2)])
    def test_invalid_stripe_rejected(self, bad):
        with pytest.raises(ValueError):
            EngineOptions(stripe=bad)
