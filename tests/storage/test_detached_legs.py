"""Race losers are booked when their race is won, then left behind.

A hedged k-of-n race returns as soon as it has its winners.  Each loser
still running at that moment is booked in the fetch's ``FetchInfo`` by
the wire bytes it requested and detached: neither the race nor
``ParallelFetcher.close()`` waits for it, yet it still reports to the
health registry when it ends, and holds the run's ``FetchPools`` until
then.  At most ``HEDGE_POOL_WIDTH`` detached legs
may be alive per store, so a store that never answers cannot grow
threads without bound.

A GET attempt that outlives its retry policy's ``attempt_timeout_s``
is walked away from the same way, under the same cap.

Every race here is a replicated chunk whose primary store parks its
GETs behind a gate (``tests.gated.GatedStore``) and whose replica
answers at once (an ungated one, which still counts its GETs), so the
hedge always wins and the primary always loses.  Every guarded attempt
reads the gated primary alone.
"""

import sys
import threading
import time

import pytest

import repro.storage.transfer as transfer
from repro.data.chunks import ChunkInfo, ChunkSource
from repro.runtime.core import ClusterConfig, EngineOptions, make_cluster_fetchers
from repro.storage.codecs import encode_chunk
from repro.storage.health import HealthRegistry, HedgePolicy
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryExhausted, RetryPolicy
from repro.storage.transfer import HEDGE_POOL_WIDTH, FetchInfo, FetchPools, ParallelFetcher
from tests.gated import WAIT_S, GatedStore, wait_for

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


def make_fetchers(stores, health=None, options=EngineOptions(hedge=HEDGE)):
    """One run's fetchers: what every engine builds per run and closes."""
    cluster = ClusterConfig("c", "slow", n_workers=1, retrieval_threads=1)
    return make_cluster_fetchers(stores, cluster, options, health=health)


def close_all(fetchers):
    for f in fetchers.values():
        f.close()



class TestDetachedLoser:
    def test_race_returns_with_its_loser_booked_and_parked(self):
        stores = make_stores()
        fetchers = make_fetchers(stores)
        try:
            data = fetchers["slow"].fetch_chunk(CHUNK, info := FetchInfo())
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
                fetchers["slow"].fetch_chunk(CHUNK, info := FetchInfo())
                infos.append(info)
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

    def test_a_loser_never_decodes(self, monkeypatch):
        """Race legs source frames; the one decode follows the win, so a
        coded chunk is inflated once however many legs raced it."""
        frame = encode_chunk(PAYLOAD, "zlib")
        coded = ChunkInfo(
            chunk_id=2, file_id=0, key="coded", location="slow", offset=0,
            nbytes=len(PAYLOAD), n_units=len(PAYLOAD), codec="zlib",
            enc_offset=0, enc_nbytes=len(frame),
            replicas=(ChunkSource("fast", "coded"),),
        )
        stores = make_stores()
        for store in stores.values():
            store.put("coded", frame)
        decodes = []
        decode = transfer.decode_chunk
        monkeypatch.setattr(
            transfer, "decode_chunk", lambda f: (decodes.append(1), decode(f))[1]
        )
        fetchers = make_fetchers(stores)
        try:
            data = fetchers["slow"].fetch_chunk(coded, info := FetchInfo())
            assert bytes(data) == PAYLOAD
            assert (info.n_hedges, info.hedge_wins, info.n_copies) == (1, 1, 1)
        finally:
            stores["slow"].open_all()
            close_all(fetchers)
        wait_for(lambda: stores["slow"].stats.n_detached == 0)
        assert len(decodes) == 1


#: Two attempts, each given 10 ms, and no backoff between them.
GUARDED = EngineOptions(retry=RetryPolicy(
    max_attempts=2, base_delay_s=0.0, max_delay_s=0.0, attempt_timeout_s=0.01,
))
PLAIN = ChunkInfo(
    chunk_id=1, file_id=0, key="obj", location="slow", offset=0,
    nbytes=len(PAYLOAD), n_units=len(PAYLOAD),
)


def live_threads(before):
    return len(set(threading.enumerate()) - before)


class TestTimedOutAttempt:
    def test_a_timed_out_attempt_is_a_detached_leg(self):
        slow = GatedStore("slow")
        slow.put("obj", PAYLOAD)
        before = set(threading.enumerate())
        policy = RetryPolicy(max_attempts=1, attempt_timeout_s=0.01)
        fetcher = ParallelFetcher(slow, retry=policy)
        info = FetchInfo()
        try:
            with pytest.raises(RetryExhausted):
                fetcher.fetch_chunk(PLAIN, info)
            assert slow.parked == ["obj"]
            assert (slow.stats.n_detached, slow.stats.n_abandoned) == (1, 1)
            assert (info.n_abandoned, info.n_errors) == (1, 1)
        finally:
            fetcher.close()
        # The parked attempt keeps its store's pools and nothing else.
        pools = fetcher.pools
        assert set(pools._pools) == {("attempt", "slow")}
        slow.open_all()
        wait_for(lambda: slow.stats.n_detached == 0)
        assert pools._pools == {}
        wait_for(lambda: set(threading.enumerate()) <= before)

    def test_a_store_that_never_answers_holds_at_most_the_cap(self):
        """40 runs whose every attempt times out: the first 32 attempts
        are detached, every later one fails at once, and no run waits."""
        stores = {"slow": GatedStore("slow")}
        slow = stores["slow"]
        slow.put("obj", PAYLOAD)
        before = set(threading.enumerate())
        most = 0
        try:
            for _ in range(40):
                fetchers = make_fetchers(stores, options=GUARDED)
                t0 = time.monotonic()
                with pytest.raises(RetryExhausted):
                    fetchers["slow"].fetch_chunk(PLAIN)
                assert time.monotonic() - t0 < WAIT_S / 4
                close_all(fetchers)
                most = max(most, live_threads(before))
            assert slow.stats.n_detached == HEDGE_POOL_WIDTH
            assert slow.stats.n_abandoned == HEDGE_POOL_WIDTH
            assert slow.max_parked == HEDGE_POOL_WIDTH
        finally:
            slow.open_all()
        assert most <= HEDGE_POOL_WIDTH + 3
        wait_for(lambda: slow.stats.n_detached == 0)
        wait_for(lambda: set(threading.enumerate()) <= before)

    def test_a_queued_attempt_is_cancelled_and_never_runs(self, monkeypatch):
        """With one attempt thread per store, a second fetch's attempt
        queues behind a parked one: at its deadline it is cancelled, not
        detached, and its GET never reaches the store."""
        monkeypatch.setattr(transfer, "HEDGE_POOL_WIDTH", 1)
        slow = GatedStore("slow")
        slow.put("obj", PAYLOAD)
        policy = RetryPolicy(max_attempts=1, attempt_timeout_s=0.5)
        pools = FetchPools(0, 1)
        first, second = (
            ParallelFetcher(slow, retry=policy, pools=pools) for _ in range(2)
        )
        errors = []
        ledgers = FetchInfo(), FetchInfo()

        def fetch_first():
            try:
                first.fetch_chunk(PLAIN, ledgers[0])
            except RetryExhausted as exc:
                errors.append(exc)

        runner = threading.Thread(target=fetch_first)
        runner.start()
        try:
            slow.wait_parked(1)
            with pytest.raises(RetryExhausted):
                second.fetch_chunk(PLAIN, ledgers[1])
            runner.join(WAIT_S)
            assert not runner.is_alive() and len(errors) == 1
            assert [info.n_abandoned for info in ledgers] == [1, 0]
        finally:
            slow.open_all()
            first.close()
            second.close()
        wait_for(lambda: slow.stats.n_detached == 0)
        assert slow.n_arrivals == 1

    def test_concurrent_timeouts_keep_the_books(self):
        """Eight threads time out GETs on one store through one set of
        pools, with a short switch interval: the detached gauge never
        passes the cap and returns to 0, and every walk-away is counted
        once on the store and once in its fetch's ledger."""

        class SlowStore(MemoryStore):
            def get(self, key, offset=0, nbytes=None):
                time.sleep(0.02)
                return super().get(key, offset, nbytes)

        slow = SlowStore("slow")
        slow.put("obj", PAYLOAD)
        pools = FetchPools(0, 1)
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.0, max_delay_s=0.0,
            attempt_timeout_s=0.002,
        )
        fetchers = [ParallelFetcher(slow, retry=policy, pools=pools) for _ in range(8)]
        most = []
        ledgers = []

        def run(fetcher):
            for _ in range(10):
                info = FetchInfo()
                try:
                    fetcher.fetch_chunk(PLAIN, info)
                except RetryExhausted:
                    pass
                most.append(slow.stats.n_detached)
                ledgers.append(info)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(f,)) for f in fetchers]
            for t in threads:
                t.start()
            for t in threads:
                t.join(WAIT_S)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
            for f in fetchers:
                f.close()
        assert max(most) <= HEDGE_POOL_WIDTH
        wait_for(lambda: slow.stats.n_detached == 0)
        assert slow.stats.n_abandoned == sum(i.n_abandoned for i in ledgers) > 0
        wait_for(lambda: pools._pools == {})
