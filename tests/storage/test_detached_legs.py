"""Race losers are booked when their race is won, then left behind.

A hedged k-of-n race returns as soon as it has its winners.  Each loser
still running at that moment is booked in the fetch's ``FetchInfo`` by
the wire bytes it requested and detached: neither the race nor
``ParallelFetcher.close()`` waits for it, yet it still reports to the
health registry when it ends, and holds the run's ``FetchPools`` until
then.  At most ``HEDGE_POOL_WIDTH`` detached legs
may be alive per store, so a store that never answers cannot grow
threads without bound.

Every fetch here is a replicated chunk whose primary store parks its
GETs behind a gate (``tests.gated.GatedStore``) and whose replica
answers at once (an ungated one, which still counts its GETs), so the
hedge always wins and the primary always loses.
"""

import threading
import time

from repro.data.chunks import ChunkInfo, ChunkSource
from repro.runtime.core import ClusterConfig, EngineOptions, make_cluster_fetchers
from repro.storage.health import HealthRegistry, HedgePolicy
from repro.storage.transfer import HEDGE_POOL_WIDTH
from tests.gated import WAIT_S, GatedStore

PAYLOAD = bytes(range(256)) * 16
CHUNK = ChunkInfo(
    chunk_id=0, file_id=0, key="obj", location="slow", offset=0,
    nbytes=len(PAYLOAD), n_units=len(PAYLOAD),
    replicas=(ChunkSource("fast", "obj"),),
)
HEDGE = HedgePolicy(min_threshold_s=0.001, max_hedges=1)


def make_stores():
    stores = {"slow": GatedStore("slow"), "fast": GatedStore("fast", gated=False)}
    for store in stores.values():
        store.put("obj", PAYLOAD)
    return stores


def make_fetchers(stores, health=None):
    """One run's fetchers: what every engine builds per run and closes."""
    cluster = ClusterConfig("c", "slow", n_workers=1, retrieval_threads=1)
    return make_cluster_fetchers(
        stores, cluster, EngineOptions(hedge=HEDGE), health=health
    )


def close_all(fetchers):
    for f in fetchers.values():
        f.close()


def wait_for(predicate, timeout=WAIT_S):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestDetachedLoser:
    def test_race_returns_with_its_loser_booked_and_parked(self):
        stores = make_stores()
        fetchers = make_fetchers(stores)
        try:
            data, info = fetchers["slow"].fetch_chunk(CHUNK)
            assert bytes(data) == PAYLOAD
            assert (info.n_hedges, info.hedge_wins) == (1, 1)
            assert info.fragments_wasted_bytes == len(PAYLOAD)
            assert stores["slow"].parked == ["obj"]
            assert stores["slow"].stats.n_detached == 1
        finally:
            stores["slow"].open_all()
            close_all(fetchers)
        wait_for(lambda: stores["slow"].stats.n_detached == 0)

    def test_close_returns_and_the_loser_still_reports_health(self):
        stores = make_stores()
        health = HealthRegistry()
        before = set(threading.enumerate())
        fetchers = make_fetchers(stores, health)
        fetchers["slow"].fetch_chunk(CHUNK)
        close_all(fetchers)  # nothing joins the parked loser
        slow = stores["slow"]
        assert slow.parked == ["obj"]
        assert health.health("slow").latency_ewma_s == 0.0
        # The detached leg keeps its store's pool and nothing else.
        pools = fetchers["slow"].pools
        assert set(pools._pools) == {("leg", "slow")}
        assert all(f.siblings == {} for f in fetchers.values())
        slow.open_all()
        wait_for(lambda: slow.stats.n_detached == 0)
        assert health.health("slow").latency_ewma_s > 0.0
        # The last leg out let go of it.
        assert pools._pools == {}
        wait_for(lambda: set(threading.enumerate()) <= before)

    def test_a_store_that_never_answers_holds_at_most_the_cap(self):
        """40 runs against a primary that does not answer until the end:
        32 leave their loser detached, the 33rd waits on its own, and
        the live threads stay within the cap meanwhile."""
        stores = make_stores()
        slow, fast = stores["slow"], stores["fast"]
        before = set(threading.enumerate())
        infos = []

        def runs():
            for _ in range(40):
                fetchers = make_fetchers(stores)
                infos.append(fetchers["slow"].fetch_chunk(CHUNK)[1])
                close_all(fetchers)

        runner = threading.Thread(target=runs, name="runs")
        runner.start()
        try:
            slow.wait_parked(HEDGE_POOL_WIDTH + 1)
            assert len(infos) == HEDGE_POOL_WIDTH
            # The 33rd race has hedged too: it has a loser to wait on.
            wait_for(lambda: fast.n_arrivals > HEDGE_POOL_WIDTH)
            assert slow.stats.n_detached == HEDGE_POOL_WIDTH
            # The detached legs, the 33rd race's two legs, the runner.
            wait_for(
                lambda: len(set(threading.enumerate()) - before)
                <= HEDGE_POOL_WIDTH + 3,
                timeout=WAIT_S / 2,
            )
        finally:
            slow.open_all()
            runner.join(WAIT_S)
        assert not runner.is_alive() and len(infos) == 40
        assert slow.max_parked == HEDGE_POOL_WIDTH + 1
        stalled = infos[: HEDGE_POOL_WIDTH + 1]  # the runs before the gate opened
        assert all(i.fragments_wasted_bytes == len(PAYLOAD) for i in stalled)
        wait_for(lambda: slow.stats.n_detached == 0)
        wait_for(lambda: set(threading.enumerate()) <= before)
