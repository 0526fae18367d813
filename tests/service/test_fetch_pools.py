"""Fetch threads and fetchers belong to the service, not to the run.

A ``BurstingService`` builds one ``FetchPools`` and one fetcher per
cluster when its fleet starts, and every run fetches through them, so a
held session's warm pass starts no thread at all: its range splits, race
legs and read-aheads reuse the threads earlier passes started.  Race legs run on the leg pool of the
store they read, so losers parked on one stalled store fill only that
store's pool, and a later hedged run over other stores goes on at once.
"""

import sys
import threading

import numpy as np

from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.bursting.session import BurstingSession
from repro.data.dataset import (
    distribute_dataset,
    replicate_dataset,
    stripe_dataset,
    write_dataset,
)
from repro.data.formats import tokens_format
from repro.data.generator import generate_tokens
from repro.runtime import ClusterConfig, EngineOptions
from repro.runtime import core
from repro.runtime.core import fetch_pools, make_cluster_fetcher
from repro.service import BurstingService
from repro.storage.health import HedgePolicy
from repro.storage.local import MemoryStore
from repro.storage.s3 import S3Profile, SimulatedS3Store
from repro.storage.transfer import HEDGE_POOL_WIDTH, ParallelFetcher
from tests.gated import WAIT_S, GatedStore
from tests.storage.test_detached_legs import wait_for


def test_a_held_session_starts_threads_only_until_its_pools_are_full(monkeypatch):
    """Split ranges (a WAN store timed slow enough to split), read-ahead
    (``prefetch``) and the fleet: every thread comes from the session's
    one set of pools, so however many passes run, no more start than
    the fleet and the pools' widths, and once warm a pass starts none.

    (A pool may still add a thread on a later pass while it is below its
    width: CPython's executor starts one for any submit that finds none
    idle.  Per-run pools would start about twenty every pass here.)"""
    tokens = generate_tokens(200_000, 500, seed=41)
    cloud = SimulatedS3Store(
        MemoryStore("cloud"),
        S3Profile(request_latency_s=0.001, per_connection_bw=4e6),
    )
    stores = {"local": MemoryStore("local"), "cloud": cloud}
    session = BurstingSession.from_units(
        tokens, tokens_format(), stores, n_files=8,
        local_workers=1, cloud_workers=1, retrieval_threads=2, prefetch=True,
    )
    started = []
    start = threading.Thread.start

    def spy(self):
        started.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    per_pass = []
    with session:
        for _ in range(20):
            n = len(started)
            rr = session.run(WordCountSpec())
            assert rr.result == wordcount_exact(tokens)
            per_pass.append(len(started) - n)
        pools = session._service._pools
        widths = pools._widths["readahead"] + 2 * pools._widths["range"]
    assert rr.stats.clusters["cloud"].n_split_fetches > 0  # the cloud's ranges split
    assert any(name.startswith("range-cloud") for name in started)
    assert sum(per_pass) <= 3 + widths, per_pass  # the fleet, then the pools
    assert sorted(per_pass)[len(per_pass) // 2] == 0, per_pass


def test_losers_parked_on_one_store_do_not_slow_a_run_on_others():
    """Run A's primary store never answers: each of its races is won by
    the replica's hedge, and its ``HEDGE_POOL_WIDTH`` losers stay parked,
    filling that store's leg pool.  Run B, hedged over two other stores,
    completes while they are still parked."""
    spec = WordCountSpec()
    slow = GatedStore("slow")
    stores = {
        "slow": slow, "fast": GatedStore("fast", gated=False),
        "x": MemoryStore("x"), "y": MemoryStore("y"),
    }
    a_tokens = generate_tokens(HEDGE_POOL_WIDTH * 200, 100, seed=42)
    b_tokens = generate_tokens(4000, 100, seed=43)
    slow.open_all()  # organize ungated, then close the gate
    a = write_dataset(
        a_tokens, spec.fmt, slow, n_files=HEDGE_POOL_WIDTH, chunk_units=200,
        key_prefix="a",
    )
    a = replicate_dataset(a, {"slow": slow, "fast": stores["fast"]})
    b = write_dataset(
        b_tokens, spec.fmt, stores["x"], n_files=4, chunk_units=1000, key_prefix="b",
    )
    b = replicate_dataset(b, {"x": stores["x"], "y": stores["y"]})
    slow._gated = True
    before = set(threading.enumerate())
    service = BurstingService(
        [ClusterConfig("c", "slow", 1, retrieval_threads=1)], stores,
        batch_size=1, hedge=HedgePolicy(min_threshold_s=0.001, max_hedges=1),
    )
    try:
        ra = service.submit(spec, a).result(timeout=WAIT_S)
        assert np.array_equal(ra.result, wordcount_exact(a_tokens))
        assert slow.stats.n_detached == len(slow.parked) == HEDGE_POOL_WIDTH
        rb = service.submit(spec, b).result(timeout=WAIT_S)
        assert np.array_equal(rb.result, wordcount_exact(b_tokens))
        assert len(slow.parked) == HEDGE_POOL_WIDTH  # B never waited on them
    finally:
        slow.open_all()
        service.shutdown()
    wait_for(lambda: slow.stats.n_detached == 0)
    wait_for(lambda: set(threading.enumerate()) <= before)


def test_runs_sharing_one_pool_set_leave_nothing_behind():
    """Six threads -- three times the cores, at a 10 us switch interval --
    each build, use and close one run's fetcher over one shared
    ``FetchPools``, racing striped and hedged fetches on its leg pools.
    No hold is lost: once the owner lets go, every pool has shut down
    and no fetch thread is left."""
    spec = WordCountSpec()
    stores = {loc: MemoryStore(loc) for loc in ("local", "s0", "s1", "s2")}
    tokens = generate_tokens(8 * 300, 50, seed=44)
    index = write_dataset(tokens, spec.fmt, stores["local"], n_files=8, chunk_units=300)
    index = stripe_dataset(index, stores, k=2, m=1)
    cluster = ClusterConfig("c", "local", 2, retrieval_threads=2)
    options = EngineOptions(hedge=HedgePolicy(min_threshold_s=1e-4, max_hedges=1))
    before = set(threading.enumerate())
    pools = fetch_pools([cluster])
    pools.hold()
    errors = []

    def runs():
        try:
            for _ in range(20):
                fetcher = make_cluster_fetcher(stores, cluster, options, pools=pools)
                handles = [fetcher.fetch_chunk_async(c) for c in index.chunks]
                for h in handles:
                    h.result()
                fetcher.close()
        except BaseException as exc:  # reported below, on the test's thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=runs) for _ in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(WAIT_S * 3)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads) and errors == []
    assert pools._pools  # the owner's hold kept them
    pools.release()
    wait_for(lambda: all(stores[loc].stats.n_detached == 0 for loc in stores))
    assert pools._pools == {} and set(pools._holds.values()) == {0}
    wait_for(lambda: set(threading.enumerate()) <= before)


def test_a_fleet_serving_five_runs_builds_one_fetcher_per_cluster(monkeypatch):
    """Fetchers hold no run state: the fleet builds one per cluster, over
    every store, as it starts, five runs (two of them at once) fetch
    through them, each run's workers book their own fetches, and
    shutdown closes them."""
    built = []

    class Counted(ParallelFetcher):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(core, "ParallelFetcher", Counted)
    tokens = generate_tokens(40_000, 200, seed=43)
    stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
    index = write_dataset(
        tokens, tokens_format(), stores["local"], n_files=4, chunk_units=2_500
    )
    index = distribute_dataset(index, stores, {"local": 0.5, "cloud": 0.5}, stores["local"])
    clusters = [ClusterConfig("local", "local", 2), ClusterConfig("cloud", "cloud", 1)]
    service = BurstingService(clusters, stores)
    try:
        handles = [service.submit(WordCountSpec(), index) for _ in range(2)]
        handles += [service.submit(WordCountSpec(), index) for _ in range(3)]
        results = [h.result(timeout=WAIT_S) for h in handles]
        fetchers = dict(service._fetchers)
    finally:
        service.shutdown()
    assert len(built) == 2
    assert fetchers == {"local": built[0], "cloud": built[1]}
    for rr in results:
        assert rr.result == wordcount_exact(tokens)
        assert rr.stats.cache_misses == len(index.chunks)  # one ledger per fetch
    assert all(f._closed for f in built)  # closed at shutdown
    assert service._fetchers == {}
