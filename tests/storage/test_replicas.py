"""Replica-aware retrieval: placement, failover, hedging, breakers.

Chaos is always the seeded fault injector (permanent faults and seeded
stalls); test code itself never sleeps on the clock.
"""

import numpy as np
import pytest

from repro.data.chunks import ChunkInfo, ChunkSource
from repro.data.dataset import (
    distribute_dataset,
    read_all_units,
    replicate_dataset,
    write_dataset,
)
from repro.data.formats import RecordFormat
from repro.runtime.core import ClusterConfig, EngineOptions, make_cluster_fetchers
from repro.storage.faults import FaultInjectingStore, FaultSpec
from repro.storage.health import BreakerPolicy, HealthRegistry, HedgePolicy
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryPolicy
from repro.storage.transfer import FetchInfo, ParallelFetcher

FMT = RecordFormat("bytes", np.uint8, ())
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0)


def make_dataset(stores, *, n=240, n_files=3, local_fraction=0.5, codec=None,
                 n_replicas=1):
    units = np.arange(n, dtype=np.uint8).reshape(n, *FMT.record_shape)
    index = write_dataset(
        units, FMT, stores["local"], n_files=n_files, chunk_units=20,
        codec=codec,
    )
    index = distribute_dataset(
        index, stores, {"local": local_fraction, "cloud": 1 - local_fraction},
        stores["local"],
    )
    return units, replicate_dataset(index, stores, n_replicas=n_replicas)


def make_fetchers(stores, *, health=None, hedge=None, retry=FAST_RETRY):
    cluster = ClusterConfig("local", "local", n_workers=1, retrieval_threads=2)
    return make_cluster_fetchers(
        stores, cluster, EngineOptions(retry=retry, hedge=hedge), health=health
    )


class TestChunkSource:
    def test_round_trip(self):
        src = ChunkSource("cloud", "part-0.bin", enc_offset=10, enc_nbytes=99)
        assert ChunkSource.from_dict(src.to_dict()) == src

    def test_none_enc_range_omitted(self):
        src = ChunkSource("cloud", "part-0.bin")
        d = src.to_dict()
        assert "enc_offset" not in d and "enc_nbytes" not in d
        assert ChunkSource.from_dict(d) == src

    def test_chunk_info_round_trip_with_replicas(self):
        c = ChunkInfo(
            chunk_id=0, file_id=0, key="part-0.bin", location="local",
            offset=0, nbytes=100, n_units=10,
            replicas=(ChunkSource("cloud", "part-0.bin"),),
        )
        rt = ChunkInfo.from_dict(c.to_dict())
        assert rt.replicas == c.replicas
        assert rt.sources[0].location == "local"  # primary first
        assert rt.sources[1].location == "cloud"

    def test_no_replicas_key_when_empty(self):
        c = ChunkInfo(
            chunk_id=0, file_id=0, key="k", location="local",
            offset=0, nbytes=10, n_units=1,
        )
        assert "replicas" not in c.to_dict()
        assert c.sources == (ChunkSource("local", "k"),)


class TestReplicateDataset:
    def test_replicas_attached_and_bytes_copied(self):
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        units, index = make_dataset(stores)
        assert index.meta["n_replicas"] == 1
        for c in index.chunks:
            assert len(c.sources) == 2
            locs = {s.location for s in c.sources}
            assert locs == {"local", "cloud"}
        # Every file readable from both stores, byte-identical.
        for f in index.files:
            assert stores["local"].get(f.key) == stores["cloud"].get(f.key)

    def test_encoded_replicas_serve_same_ranges(self):
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        units, index = make_dataset(stores, codec="zlib")
        for c in index.chunks:
            for s in c.sources:
                assert s.enc_offset == c.enc_offset
                assert s.enc_nbytes == c.enc_nbytes

    def test_zero_replicas_is_identity(self):
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        units = np.arange(60, dtype=np.uint8)
        index = write_dataset(units, FMT, stores["local"], n_files=2,
                              chunk_units=10)
        assert replicate_dataset(index, stores, n_replicas=0) is index

    def test_too_few_stores_rejected(self):
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        units = np.arange(60, dtype=np.uint8)
        index = write_dataset(units, FMT, stores["local"], n_files=2,
                              chunk_units=10)
        with pytest.raises(ValueError, match="replicas need"):
            replicate_dataset(index, stores, n_replicas=2)

    def test_read_all_units_unaffected(self):
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        units, index = make_dataset(stores)
        np.testing.assert_array_equal(read_all_units(index, stores), units)


def fetch_everything(index, fetchers):
    """Fetch every chunk through the fetcher owning its primary store."""
    out = []
    for c in index.chunks:
        info = FetchInfo()
        out.append((bytes(fetchers[c.location].fetch_chunk(c, info)), info))
    return out


class TestFailover:
    def test_dead_primary_fails_over_to_replica(self):
        cloud = FaultInjectingStore(
            MemoryStore("cloud"), FaultSpec(permanent_keys=("part",)),
            armed=False,
        )
        stores = {"local": MemoryStore("local"), "cloud": cloud}
        units, index = make_dataset(stores)
        cloud.arm()
        fetchers = make_fetchers(stores)
        try:
            results = fetch_everything(index, fetchers)
        finally:
            for f in fetchers.values():
                f.close()
        got = b"".join(d for d, _ in results)
        assert got == units.tobytes()
        cloud_chunks = [c for c in index.chunks if c.location == "cloud"]
        assert cloud_chunks  # placement actually split the data
        failovers = sum(i.n_failovers for _, i in results)
        assert failovers == len(cloud_chunks)

    def test_failover_exhausted_raises_last_error(self):
        spec = FaultSpec(permanent_keys=("part",))
        stores = {
            "local": FaultInjectingStore(MemoryStore("local"), spec, armed=False),
            "cloud": FaultInjectingStore(MemoryStore("cloud"), spec, armed=False),
        }
        units, index = make_dataset(stores)
        for s in stores.values():
            s.arm()
        fetchers = make_fetchers(stores)
        try:
            from repro.storage.faults import PermanentStorageError

            with pytest.raises(PermanentStorageError):
                fetchers[index.chunks[0].location].fetch_chunk(index.chunks[0])
        finally:
            for f in fetchers.values():
                f.close()

    def test_encoded_chunks_fail_over_too(self):
        cloud = FaultInjectingStore(
            MemoryStore("cloud"), FaultSpec(permanent_keys=("part",)),
            armed=False,
        )
        stores = {"local": MemoryStore("local"), "cloud": cloud}
        units, index = make_dataset(stores, codec="zlib")
        cloud.arm()
        fetchers = make_fetchers(stores)
        try:
            results = fetch_everything(index, fetchers)
        finally:
            for f in fetchers.values():
                f.close()
        assert b"".join(d for d, _ in results) == units.tobytes()
        assert sum(i.n_failovers for _, i in results) > 0


    def test_missing_fetcher_is_a_bug_not_a_failover(self):
        cloud = FaultInjectingStore(
            MemoryStore("cloud"), FaultSpec(permanent_keys=("part",)),
            armed=False,
        )
        stores = {"local": MemoryStore("local"), "cloud": cloud}
        units, index = make_dataset(stores)
        cloud.arm()
        health = HealthRegistry(BreakerPolicy())
        fetchers = make_fetchers(stores, health=health)
        del fetchers["cloud"].siblings["local"]
        chunk = next(c for c in index.chunks if c.location == "cloud")
        try:
            with pytest.raises(LookupError, match="no fetcher") as err:
                fetchers["cloud"].fetch_chunk(chunk)
        finally:
            for f in fetchers.values():
                f.close()
        assert not isinstance(err.value, KeyError)
        assert health.health("local").n_failures == 0


class TestBreakerRouting:
    def test_open_breaker_skips_dead_store(self):
        cloud = FaultInjectingStore(
            MemoryStore("cloud"), FaultSpec(permanent_keys=("part",)),
            armed=False,
        )
        stores = {"local": MemoryStore("local"), "cloud": cloud}
        units, index = make_dataset(stores)
        cloud.arm()
        health = HealthRegistry(BreakerPolicy(fail_threshold=2, recovery_s=60.0))
        fetchers = make_fetchers(stores, health=health)
        try:
            results = fetch_everything(index, fetchers)
        finally:
            for f in fetchers.values():
                f.close()
        assert b"".join(d for d, _ in results) == units.tobytes()
        snap = health.snapshot()["cloud"]
        assert snap["state"] == "open"
        assert snap["n_opened"] == 1
        # Once open, replica ordering puts the healthy store first: the
        # dead store stops being attempted, so its failure count is far
        # below the number of cloud-primary chunks fetched.
        cloud_chunks = sum(1 for c in index.chunks if c.location == "cloud")
        assert cloud_chunks > 2
        assert snap["n_failures"] == 2  # exactly the opening streak

    def test_registry_only_created_when_configured(self):
        from repro.runtime.core import EngineOptions, EngineBase

        class Probe(EngineBase):
            def run(self, spec, index):  # pragma: no cover
                raise NotImplementedError

        stores = {"local": MemoryStore("local")}
        clusters = [ClusterConfig("local", "local", 1, 1)]
        assert Probe(clusters, stores).make_health() is None
        assert Probe(
            clusters, stores, options=EngineOptions(breaker=BreakerPolicy())
        ).make_health() is not None
        assert Probe(
            clusters, stores, options=EngineOptions(hedge=HedgePolicy())
        ).make_health() is not None


class TestHedging:
    def stalled_stores(self, stall_s=0.05):
        # Every cloud read stalls (p=1.0) for a seeded duration in
        # [stall_s/2, stall_s]; the local replica answers instantly.
        cloud = FaultInjectingStore(
            MemoryStore("cloud"),
            FaultSpec(stall_p=1.0, stall_s=stall_s, seed=3),
            armed=False,
        )
        return {"local": MemoryStore("local"), "cloud": cloud}

    def test_stalled_primary_is_hedged_and_loses(self):
        stores = self.stalled_stores()
        units, index = make_dataset(stores)
        stores["cloud"].arm()
        hedge = HedgePolicy(multiplier=3.0, min_threshold_s=0.005, max_hedges=1)
        health = HealthRegistry()
        fetchers = make_fetchers(stores, health=health, hedge=hedge)
        try:
            results = fetch_everything(index, fetchers)
        finally:
            for f in fetchers.values():
                f.close()
        assert b"".join(d for d, _ in results) == units.tobytes()
        hedges = sum(i.n_hedges for _, i in results)
        wins = sum(i.hedge_wins for _, i in results)
        assert hedges > 0
        assert wins > 0
        assert wins <= hedges

    def test_failover_winner_is_not_a_hedge_win(self):
        """A dead primary fails at once and the replica then wins: that
        is failover, not a hedge, so no hedge fired and none won."""
        cloud = FaultInjectingStore(
            MemoryStore("cloud"), FaultSpec(permanent_keys=("part",)),
            armed=False,
        )
        stores = {"local": MemoryStore("local"), "cloud": cloud}
        units, index = make_dataset(stores)
        cloud.arm()
        fetchers = make_fetchers(stores, hedge=HedgePolicy(min_threshold_s=0.5))
        try:
            results = fetch_everything(index, fetchers)
        finally:
            for f in fetchers.values():
                f.close()
        assert b"".join(d for d, _ in results) == units.tobytes()
        cloud_chunks = sum(1 for c in index.chunks if c.location == "cloud")
        hedges = sum(i.n_hedges for _, i in results)
        wins = sum(i.hedge_wins for _, i in results)
        assert sum(i.n_failovers for _, i in results) == cloud_chunks
        assert wins <= hedges
        assert (hedges, wins) == (0, 0)

    def test_hedge_improves_p95_on_same_seed(self):
        def run(hedge):
            stores = self.stalled_stores()
            units, index = make_dataset(stores)
            stores["cloud"].arm()
            fetchers = make_fetchers(
                stores, health=HealthRegistry() if hedge else None, hedge=hedge
            )
            try:
                results = fetch_everything(index, fetchers)
                lat = sorted(t for _, info in results for t in info.fetch_latencies)
            finally:
                for f in fetchers.values():
                    f.close()
            return lat[int(0.95 * (len(lat) - 1))]

        p95_plain = run(None)
        p95_hedged = run(
            HedgePolicy(multiplier=3.0, min_threshold_s=0.005, max_hedges=1)
        )
        # Unhedged cloud fetches eat the full seeded stall (>= 25ms);
        # hedged ones are bounded near the 5ms threshold plus a fast
        # local read.
        assert p95_hedged < p95_plain

    def test_hedged_fetch_with_all_sources_dead_raises(self):
        spec = FaultSpec(permanent_keys=("part",))
        stores = {
            "local": FaultInjectingStore(MemoryStore("local"), spec, armed=False),
            "cloud": FaultInjectingStore(MemoryStore("cloud"), spec, armed=False),
        }
        units, index = make_dataset(stores)
        for s in stores.values():
            s.arm()
        fetchers = make_fetchers(
            stores, health=HealthRegistry(), hedge=HedgePolicy()
        )
        try:
            from repro.storage.faults import PermanentStorageError

            with pytest.raises(PermanentStorageError):
                fetchers[index.chunks[0].location].fetch_chunk(index.chunks[0])
        finally:
            for f in fetchers.values():
                f.close()


class TestSingleSourceUnchanged:
    def test_plain_fetch_records_health(self):
        store = MemoryStore("local")
        store.put("k", b"z" * 64)
        health = HealthRegistry()
        chunk = ChunkInfo(
            chunk_id=0, file_id=0, key="k", location="local",
            offset=0, nbytes=64, n_units=64,
        )
        with ParallelFetcher(store, n_threads=1, health=health) as f:
            data = f.fetch_chunk(chunk, info := FetchInfo())
        assert bytes(data) == b"z" * 64
        assert info.n_failovers == 0
        assert health.health("local").n_successes == 1
