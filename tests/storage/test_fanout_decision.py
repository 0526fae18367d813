"""When a ranged fetch is split: decided by observed GET times only.

The fetcher times every store GET into the store's ``StorageStats`` and
splits a range ``p`` ways only while the fastest recent rate says the
split saves at least one GIL switch interval:
``nbytes * s_per_byte * (1 - 1/p) >= sys.getswitchinterval()``.

Everything here runs on a virtual clock (no sleeps): each thread reads
its own timeline, which a modelled store advances by what the GET would
have cost, so the fetcher measures exactly the modelled duration.
"""

import sys
import threading
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.chunks import ChunkInfo
from repro.runtime.core import (
    ClusterConfig,
    EngineOptions,
    account_fetch_info,
    make_cluster_fetcher,
    snapshot_get_rates,
)
from repro.runtime.stats import ClusterStats, RunStats, WorkerStats
from repro.storage import transfer
from repro.storage.faults import TransientStorageError
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryExhausted, RetryPolicy
from repro.storage.transfer import FetchInfo, ParallelFetcher
from tests.gated import WAIT_S, GatedStore

MB = 1_000_000
BLOB = bytes(range(256)) * (2 * MB // 256)  # one 2 MB object, like a k-means chunk


class ThreadClock:
    """Virtual ``monotonic()``: one timeline per thread."""

    def __init__(self):
        self._local = threading.local()

    def now(self):
        return getattr(self._local, "t", 0.0)

    def advance(self, dt):
        self._local.t = self.now() + dt


class ModelStore(MemoryStore):
    """In-memory store whose GETs cost ``latency_s + nbytes / bw`` of
    virtual time, plus any stall queued in ``stalls``; ``broken`` makes
    every GET fail with a retryable error."""

    def __init__(self, clock, latency_s=0.0, bw=None):
        super().__init__()
        self.clock = clock
        self.latency_s = latency_s
        self.bw = bw
        self.stalls = []
        self.broken = False

    def get(self, key, offset=0, nbytes=None):
        if self.broken:
            raise TransientStorageError("modelled outage")
        out = super().get(key, offset, nbytes)
        cost = self.latency_s + (len(out) / self.bw if self.bw else 0.0)
        if self.stalls:
            cost += self.stalls.pop(0)
        self.clock.advance(cost)
        return out


@pytest.fixture
def clock(monkeypatch):
    clock = ThreadClock()
    monkeypatch.setattr(
        transfer, "time", types.SimpleNamespace(monotonic=clock.now)
    )
    return clock


def memcpy_store(clock):
    """A store with no request latency: 10 GB/s, i.e. a memory copy."""
    store = ModelStore(clock, bw=10e9)
    store.put("o", BLOB)
    return store


def wan_store(clock):
    """The suite's WAN profile: 5 ms per request, 40 MB/s per connection."""
    store = ModelStore(clock, latency_s=0.005, bw=40e6)
    store.put("o", BLOB)
    return store


def gets_per_fetch(store, fetcher, n, nbytes=len(BLOB), info=None):
    counts = []
    for _ in range(n):
        before = store.stats.n_gets
        assert fetcher.fetch("local", "o", 0, nbytes, info) == BLOB[:nbytes]
        counts.append(store.stats.n_gets - before)
    return counts


class TestDecision:
    def test_zero_latency_store_is_fetched_unsplit_once_evidence_exists(self, clock):
        store = memcpy_store(clock)
        info = FetchInfo()
        with ParallelFetcher({"local": store}, n_threads=2) as fetcher:
            # no evidence yet: today's fan-out, retrieval_threads GETs
            assert gets_per_fetch(store, fetcher, 6, info=info) == [2, 1, 1, 1, 1, 1]
        assert (info.n_split_fetches, info.n_single_fetches) == (1, 5)

    def test_fanout_ceiling_is_n_threads(self, clock):
        store = memcpy_store(clock)
        with ParallelFetcher({"local": store}, n_threads=4) as fetcher:
            assert gets_per_fetch(store, fetcher, 3) == [4, 1, 1]

    def test_wan_store_keeps_splitting(self, clock):
        store = wan_store(clock)
        with ParallelFetcher({"local": store}, n_threads=2) as fetcher:
            assert gets_per_fetch(store, fetcher, 10, nbytes=1_600_000) == [2] * 10
        # 0.8 MB parts at 5 ms + 40 MB/s: 25 ms each
        assert store.stats.s_per_byte == pytest.approx(0.025 / 800_000)

    def test_latency_only_store_stops_splitting(self, clock):
        store = ModelStore(clock, latency_s=0.001)  # 1 ms, no bandwidth term
        store.put("o", BLOB)
        with ParallelFetcher({"local": store}, n_threads=2) as fetcher:
            assert gets_per_fetch(store, fetcher, 5, nbytes=1_600_000) == [2, 1, 1, 1, 1]

    def test_the_threshold_is_one_switch_interval(self, clock):
        store = memcpy_store(clock)
        interval = sys.getswitchinterval()
        with ParallelFetcher({"local": store}, n_threads=2) as fetcher:
            # splitting 2 MB two ways saves half the GET: exactly one interval
            store.stats.record_get_time(len(BLOB), 2 * interval)
            assert fetcher._plan_parts(store, len(BLOB)) == 2
            store.stats._get_rates.clear()
            store.stats.record_get_time(len(BLOB), 2 * interval * 0.99)
            assert fetcher._plan_parts(store, len(BLOB)) == 1

    def test_one_stall_among_eight_samples_flips_nothing(self, clock):
        store = memcpy_store(clock)
        with ParallelFetcher({"local": store}, n_threads=2) as fetcher:
            gets_per_fetch(store, fetcher, 4)
            store.stalls.append(0.080)  # the next GET takes 80 ms: 4e-8 s/byte
            assert gets_per_fetch(store, fetcher, 8) == [1] * 8
        wan = wan_store(clock)
        with ParallelFetcher({"local": wan}, n_threads=2) as fetcher:
            gets_per_fetch(wan, fetcher, 2)
            wan.stalls.append(0.080)
            assert gets_per_fetch(wan, fetcher, 6) == [2] * 6

    def test_a_store_that_turns_slow_is_split_again(self, clock):
        store = memcpy_store(clock)
        with ParallelFetcher({"local": store}, n_threads=2) as fetcher:
            gets_per_fetch(store, fetcher, 3)
            store.latency_s, store.bw = 0.005, 40e6  # now behind the WAN
            counts = gets_per_fetch(store, fetcher, 12)
        # the window holds 8 samples: the fast ones have to age out first
        assert counts == [1] * 8 + [2] * 4

    def test_failed_gets_leave_no_sample(self, clock):
        store = memcpy_store(clock)
        store.broken = True
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.0, max_delay_s=0.0)
        with ParallelFetcher({"local": store}, n_threads=2, retry=retry) as fetcher:
            with pytest.raises(RetryExhausted):
                fetcher.fetch("local", "o")
            assert store.stats.s_per_byte is None
            assert store.stats.snapshot()["n_rate_samples"] == 0
            store.broken = False
            # still no evidence, so still the full fan-out
            assert gets_per_fetch(store, fetcher, 2) == [2, 1]

    def test_overhead_sized_gets_leave_no_sample(self, clock):
        store = memcpy_store(clock)
        with ParallelFetcher({"local": store}, n_threads=2, min_part_nbytes=0) as fetcher:
            fetcher.fetch("local", "o", 0, 4000)  # two 2000-byte GETs: all request overhead
        assert store.stats.n_gets == 2 and store.stats.s_per_byte is None

    def test_fetch_frame_into_and_fetch_decide_alike(self, clock):
        chunk = ChunkInfo(
            chunk_id=0, file_id=0, key="o", location="local",
            offset=0, nbytes=len(BLOB), n_units=len(BLOB),
        )
        for make, warm in ((memcpy_store, 1), (wan_store, 2)):
            store = make(clock)
            with ParallelFetcher({"local": store}, n_threads=2) as fetcher:
                for expected in (2, warm, warm):
                    buf = bytearray(len(BLOB))
                    before = store.stats.n_gets
                    frame = fetcher.fetch_frame(chunk, buf, info := FetchInfo())
                    assert store.stats.n_gets - before == expected
                    assert (info.bytes_wire, info.n_copies) == (len(BLOB), 0)
                    assert bytes(buf) == bytes(frame) == BLOB
                assert gets_per_fetch(store, fetcher, 1) == [warm]

    def test_evidence_belongs_to_the_store_not_the_fetcher(self, clock):
        """A new run builds new fetchers, and the suite's ``TimedStore``
        wraps the store but shares ``stats``: neither starts from nothing."""
        store = memcpy_store(clock)
        with ParallelFetcher({"local": store}, n_threads=2) as first:
            gets_per_fetch(store, first, 1)

        class Wrapper(MemoryStore):
            def __init__(self, inner):
                super().__init__()
                self.inner, self.stats = inner, inner.stats

            def get(self, key, offset=0, nbytes=None):
                return self.inner.get(key, offset, nbytes)

        with ParallelFetcher({"local": Wrapper(store)}, n_threads=2) as second:
            before = store.stats.n_gets
            assert second.fetch("local", "o", 0, len(BLOB)) == BLOB
            assert store.stats.n_gets - before == 1


#: name -> (n_threads, min_part_nbytes, nbytes, evidence, parts).  Evidence
#: is the store's fastest observed s/byte: ``None`` (never timed), a
#: number, or ``(p, factor)`` -- ``factor`` times the rate at which a
#: ``p``-way split of ``nbytes`` saves exactly one switch interval.
FANOUT = {
    "one-thread-is-never-split": (1, 0, 2 * MB, None, 1),
    "untimed-store-gets-the-ceiling": (4, 0, 2 * MB, None, 4),
    "untimed-store-gets-a-wide-ceiling": (16, 0, 2 * MB, None, 16),
    "min-part-caps-the-ceiling": (4, MB, 2 * MB, None, 2),
    "range-below-min-part-is-one-get": (4, MB, MB // 2, None, 1),
    "memcpy-store-is-unsplit": (4, 0, 2 * MB, 1e-10, 1),
    "memcpy-store-is-unsplit-at-any-ceiling": (16, 0, 2 * MB, 1e-10, 1),
    "wan-store-gets-the-ceiling": (4, 0, 2 * MB, 1e-6, 4),
    "wan-store-is-capped-by-min-part": (8, MB // 2, 2 * MB, 1e-6, 4),
    "just-above-break-even-splits": (8, 0, 2 * MB, (8, 1.01), 8),
    "just-below-break-even-is-unsplit": (8, 0, 2 * MB, (8, 0.99), 1),
    "break-even-is-judged-at-the-capped-fan-out": (4, MB, 2 * MB, (2, 0.99), 1),
    "capped-fan-out-above-break-even-splits": (4, MB, 2 * MB, (2, 1.01), 2),
}


@pytest.mark.parametrize(
    "n_threads, min_part, nbytes, evidence, parts", FANOUT.values(), ids=FANOUT
)
def test_the_one_fanout_rule(n_threads, min_part, nbytes, evidence, parts):
    """``min(n_threads, nbytes // min_part)`` parts, collapsed to one GET
    when the store's evidence says the split saves under one interval."""
    store = MemoryStore()
    blob = (bytes(range(256)) * (nbytes // 256 + 1))[:nbytes]
    store.put("o", blob)
    if isinstance(evidence, tuple):
        p, factor = evidence
        evidence = factor * sys.getswitchinterval() / (nbytes * (1 - 1 / p))
    if evidence is not None:
        store.stats.record_get_time(MB, evidence * MB)
    with ParallelFetcher({"local": store}, n_threads=n_threads, min_part_nbytes=min_part) as f:
        assert f._plan_parts(store, nbytes) == parts
        before = store.stats.n_gets
        assert f.fetch("local", "o") == blob
        assert store.stats.n_gets - before == parts


class TestAccounting:
    def test_snapshot_shows_why_a_store_is_unsplit(self, clock):
        store = memcpy_store(clock)
        with ParallelFetcher({"local": store}, n_threads=2) as fetcher:
            gets_per_fetch(store, fetcher, 3)
        snap = store.stats.snapshot()
        assert snap["n_gets"] == 4 and snap["bytes_read"] == 3 * len(BLOB)
        assert snap["n_rate_samples"] == 4
        assert snap["s_per_byte"] == store.stats.s_per_byte == pytest.approx(1e-10)

    def test_ledger_reports_single_vs_split(self, clock):
        store = memcpy_store(clock)
        info = FetchInfo()
        with ParallelFetcher({"local": store}, n_threads=2) as fetcher:
            gets_per_fetch(store, fetcher, 4, info=info)
        stats = RunStats()
        stats.clusters["local"] = cstats = ClusterStats("local", "local", [WorkerStats()])
        account_fetch_info(cstats.workers[0], info)
        snapshot_get_rates(stats, {"local": store})  # what every run ends with
        assert (cstats.n_split_fetches, cstats.n_single_fetches) == (1, 3)
        row = stats.transfer_rows()[0]
        assert (row["fetches_split"], row["fetches_single"]) == (1, 3)
        assert row["s_per_byte"] == {"local": pytest.approx(1e-10)}

    def test_get_timing_leaves_chunk_latency_accounting_alone(self, clock):
        """``FetchInfo.fetch_s`` / ``fetch_latencies`` stay the chunk's wall
        time minus decode, one sample per chunk; the per-GET rate samples
        are a separate record."""
        chunk = types.SimpleNamespace(
            key="o", location="local", offset=0, nbytes=len(BLOB), codec=None,
            chunk_id=0,
        )
        store = wan_store(clock)
        get_s = 0.005 + len(BLOB) / 40e6
        with ParallelFetcher({"local": store}, n_threads=1) as fetcher:  # GETs on this thread
            for _ in range(3):
                data = fetcher.fetch_chunk(chunk, info := FetchInfo())
                assert bytes(data) == BLOB
                assert info.fetch_s == pytest.approx(get_s) and info.decode_s == 0.0
                assert info.fetch_latencies == [info.fetch_s]
        assert store.stats.snapshot()["n_rate_samples"] == 3


class TestPools:
    """``retrieval_threads`` is connections *per chunk fetch*; the pools
    hold every fetch the cluster's workers can have in flight."""

    @pytest.mark.parametrize("n_workers,prefetch", [(2, False), (1, True)])
    def test_two_fetches_of_two_parts_put_four_gets_on_the_wire(
        self, n_workers, prefetch
    ):
        """Whether they are two workers' fetches or one worker's
        read-ahead.  (One two-thread range pool shared by the whole
        cluster used to run them two at a time.)"""
        store = GatedStore()
        store.put("a", BLOB)
        store.put("b", BLOB)
        cluster = ClusterConfig("c", "local", n_workers, retrieval_threads=2)
        fetcher = make_cluster_fetcher(
            {"local": store}, cluster, EngineOptions(prefetch=prefetch)
        )
        got = {}
        if prefetch:
            handles = {
                k: fetcher.fetch_chunk_async(types.SimpleNamespace(
                    key=k, location="local", offset=0, nbytes=len(BLOB), codec=None,
                    chunk_id=0,
                ))
                for k in "ab"
            }
            fetch = {k: h.result for k, h in handles.items()}
        else:
            fetch = {k: (lambda k=k: fetcher.fetch("local", k)) for k in "ab"}
        waiters = [
            threading.Thread(target=lambda k=k: got.update({k: fetch[k]()}))
            for k in "ab"
        ]
        for th in waiters:
            th.start()
        assert sorted(store.wait_parked(4)) == ["a", "a", "b", "b"]
        store.open_all()
        for th in waiters:
            th.join(WAIT_S)
        assert {k: bytes(v) for k, v in got.items()} == {"a": BLOB, "b": BLOB}
        fetcher.close()

    def test_the_calling_thread_fetches_the_first_part_itself(self, clock):
        store = wan_store(clock)
        callers = []
        get = store.get
        store.get = lambda *a: (callers.append(threading.current_thread()), get(*a))[1]
        with ParallelFetcher({"local": store}, n_threads=3) as fetcher:
            assert fetcher.fetch("local", "o") == BLOB
        assert len(callers) == 3 and callers.count(threading.current_thread()) == 1


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(1, 40_000),
    data=st.data(),
    n_threads=st.integers(1, 5),
    min_part=st.sampled_from([0, 1, 512, 4096]),
    evidence=st.sampled_from([None, 1e-12, 1e-6]),
)
def test_bytes_are_identical_whichever_way_the_decision_goes(
    size, data, n_threads, min_part, evidence
):
    offset = data.draw(st.integers(0, size - 1))
    nbytes = data.draw(st.integers(1, size - offset))
    blob = bytes((i * 31 + 7) % 251 for i in range(size))
    store = MemoryStore()
    store.put("o", blob)
    if evidence is not None:
        store.stats.record_get_time(1, evidence)  # fast: unsplit; slow: split
    info = FetchInfo()
    with ParallelFetcher({"local": store}, n_threads=n_threads, min_part_nbytes=min_part) as f:
        assert bytes(f.fetch("local", "o", offset, nbytes, info)) == blob[offset:offset + nbytes]
        buf = bytearray(nbytes + 3)
        chunk = ChunkInfo(
            chunk_id=0, file_id=0, key="o", location="local",
            offset=offset, nbytes=nbytes, n_units=nbytes,
        )
        f.fetch_frame(chunk, buf, info)
        assert bytes(buf[:nbytes]) == blob[offset:offset + nbytes]
        assert info.n_single_fetches + info.n_split_fetches == 2
        if evidence == 1e-12:
            assert info.n_split_fetches == 0
