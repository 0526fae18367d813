"""Striped fetches read ahead without ``prefetch``.

A striped chunk is fetched by a race whose legs run on the leg pools,
so a fleet worker keeps :func:`~repro.runtime.core.window_depth` such
fetches in flight while it folds whether or not ``prefetch`` is set --
two on a cluster of more than one worker.
Plain chunks and replicas, hedged or not, keep an empty window.  The
datasets are organized over plain in-memory stores and read through
gated copies of them (:mod:`tests.gated`), so each test
decides when a fetch may finish and reads what is in flight meanwhile.
No sleeps.
"""

import sys
import threading

import pytest

import repro.service.service as service_mod
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import replicate_dataset, stripe_dataset, write_dataset
from repro.data.generator import generate_tokens
from repro.runtime.core import READAHEAD, ClusterConfig, window_depth
from repro.service import BurstingService
from repro.service.service import ServiceSlave
from repro.storage.health import HedgePolicy
from repro.storage.local import MemoryStore
from repro.storage.transfer import HEDGE_POOL_WIDTH
from tests.gated import WAIT_S, gated_copies, wait_parked_in
from tests.runtime.test_readahead import RecordingMaster

K, M = 4, 2
UNITS = 300
UNIT_NBYTES = WordCountSpec().fmt.unit_nbytes
#: Fetches in flight per worker behind these (small) striped chunks.
DEPTH = window_depth(UNITS * UNIT_NBYTES)
#: The same with two workers, whose races share the leg pools.
PAIR_DEPTH = READAHEAD
#: A hedge that never fires while a test holds a gate.
NEVER = HedgePolicy(min_threshold_s=60.0, max_hedges=1)
SPARES = tuple(f"spare{i}" for i in range(4))


def organize(kind, n_chunks, seed, stores=None, prefix="part", units=UNITS):
    """``(tokens, index, stores)``: ``n_chunks`` one-chunk files written
    to ``local`` and then striped (``"striped"``, k=4 m=2 over six
    stores), replicated to ``cloud`` (``"replicated"``) or left alone
    (``"plain"``), all on ungated in-memory stores."""
    if stores is None:
        names = ("local", "cloud") + (SPARES if kind == "striped" else ())
        stores = {loc: MemoryStore(loc) for loc in names}
    tokens = generate_tokens(n_chunks * units, 50, seed=seed)
    index = write_dataset(
        tokens, WordCountSpec().fmt, stores["local"], n_files=n_chunks,
        chunk_units=units, key_prefix=prefix,
    )
    if kind == "striped":
        index = stripe_dataset(index, stores, k=K, m=M)
    elif kind == "replicated":
        index = replicate_dataset(index, stores, n_replicas=1)
    return tokens, index, stores


def chunk_of(index):
    """Object key -> chunk id, for every key a fetch of ``index`` reads."""
    keys = {}
    for c in index.chunks:
        for obj in c.fragments or c.sources:
            keys[obj.key] = c.chunk_id
    return keys


def workers(rr):
    return rr.stats.clusters["local"].workers


class Fleet:
    """A one-cluster service over gated copies of ``stores``."""

    def __init__(self, stores, n_workers, **options):
        self.before = set(threading.enumerate())
        self.stores = gated_copies(stores)
        self.service = BurstingService(
            [ClusterConfig("local", "local", n_workers, retrieval_threads=1)],
            self.stores, batch_size=1, **options,
        )

    def windows(self):
        """Each worker's reserved chunk ids, oldest first."""
        return [
            [job.chunk.chunk_id for job, _ in slave._window]
            for slave in self.service._slaves
        ]

    def open_all(self):
        for store in self.stores.values():
            store.open_all()

    def close(self):
        self.open_all()
        self.service.shutdown()
        assert set(threading.enumerate()) <= self.before


@pytest.mark.parametrize("n_workers, depth", [(1, DEPTH), (2, PAIR_DEPTH)])
@pytest.mark.parametrize("hedge", [None, NEVER], ids=["unhedged", "hedged"])
def test_striped_chunks_fill_the_window_without_prefetch(hedge, n_workers, depth):
    """Each worker parks ``depth`` whole chunk fetches -- every leg of
    each, as many as a store's leg pool holds -- and folds every chunk
    through the window."""
    assert DEPTH * K == HEDGE_POOL_WIDTH
    tokens, index, stores = organize("striped", n_workers * depth + 2, seed=41)
    fleet = Fleet(stores, n_workers, prefetch=False, hedge=hedge)
    try:
        handle = fleet.service.submit(WordCountSpec(), index)
        parked = wait_parked_in(fleet.stores, n_workers * depth * K)
        windows = fleet.windows()
        assert [len(w) for w in windows] == [depth] * n_workers
        keys = chunk_of(index)
        assert sorted(keys[key] for _, key in parked) == sorted(
            c for w in windows for c in w for _ in range(K)
        )
        fleet.open_all()
        rr = handle.result(timeout=WAIT_S)
        assert rr.result == wordcount_exact(tokens)
        for w in workers(rr):
            assert w.prefetch_hits + w.prefetch_misses == w.jobs_processed
        assert sum(w.jobs_processed for w in workers(rr)) == len(index.chunks)
        assert rr.stats.n_hedges == 0
    finally:
        fleet.close()


@pytest.mark.parametrize("hedge", [None, NEVER], ids=["unhedged", "hedged"])
def test_replicas_keep_an_empty_window(hedge):
    tokens, index, stores = organize("replicated", 6, seed=42)
    fleet = Fleet(stores, 2, prefetch=False, hedge=hedge)
    try:
        handle = fleet.service.submit(WordCountSpec(), index)
        assert len(wait_parked_in(fleet.stores, 2)) == 2
        assert fleet.windows() == [[], []]  # each worker waits on its own GET
        fleet.open_all()
        rr = handle.result(timeout=WAIT_S)
        assert rr.result == wordcount_exact(tokens)
        for w in workers(rr):
            assert (w.prefetch_hits, w.prefetch_misses, w.overlap_s) == (0, 0, 0.0)
    finally:
        fleet.close()


def test_plain_jobs_ride_the_window_only_behind_striped_ones(monkeypatch):
    """One worker serves a striped run and a plain run at once: plain
    jobs reach the window only reserved behind a striped one, the rest
    are fetched on the worker's own thread, and both answers are exact."""
    folded, direct = [], []
    process, fetch_now = ServiceSlave._process, ServiceSlave._fetch_now

    def record_process(self, job, raw):
        folded.append(job)
        return process(self, job, raw)

    def record_fetch_now(self, job):
        direct.append(job)
        return fetch_now(self, job)

    monkeypatch.setattr(ServiceSlave, "_process", record_process)
    monkeypatch.setattr(ServiceSlave, "_fetch_now", record_fetch_now)
    s_tokens, s_index, stores = organize("striped", 3, seed=43)
    # More plain jobs than the striped ones' window can take.
    p_tokens, p_index, _ = organize(
        "plain", 2 * DEPTH, seed=44, stores=stores, prefix="p"
    )
    fleet = Fleet(stores, 1, prefetch=False)
    try:
        s = fleet.service.submit(WordCountSpec(), s_index, tenant="s")
        wait_parked_in(fleet.stores, len(s_index.chunks) * K)  # all in flight
        p = fleet.service.submit(WordCountSpec(), p_index, tenant="p")
        fleet.open_all()
        assert s.result(timeout=WAIT_S).result == wordcount_exact(s_tokens)
        rr = p.result(timeout=WAIT_S)
        assert rr.result == wordcount_exact(p_tokens)
    finally:
        fleet.close()
    ahead = [
        i for i, job in enumerate(folded)
        if job.run_id == p.run_id and not any(job is d for d in direct)
    ]
    # Each was reserved while one of the DEPTH jobs folded before it
    # was current, and only a striped job opens the window.
    for i in ahead:
        assert any(j.run_id == s.run_id for j in folded[max(0, i - DEPTH):i])
    (w,) = workers(rr)
    assert w.prefetch_hits + w.prefetch_misses == len(ahead)
    assert 0 < len(ahead) < w.jobs_processed == len(p_index.chunks)


def test_crash_requeues_a_striped_window_and_folds_each_chunk_once(monkeypatch):
    monkeypatch.setattr(service_mod, "ClusterMaster", RecordingMaster)
    tokens, index, stores = organize("striped", DEPTH + 4, seed=45)
    before = set(threading.enumerate())
    service = BurstingService(
        [ClusterConfig("local", "local", 2, retrieval_threads=1)], stores,
        batch_size=1, prefetch=False, crash_plan={"local-w0": 2},
    )
    handle = service.submit(WordCountSpec(), index)
    master = service._masters["local"]
    try:
        service._threads[0].join(WAIT_S)  # local-w0 dies on its third job
        assert not service._threads[0].is_alive()
        handed = master.handed
        assert len(handed) == 2 + 1 + PAIR_DEPTH
        assert master.completed == handed[:2]
        assert master.requeued == handed[2:]  # current + whole window, once
        master.survivor_go.set()
        rr = handle.result(timeout=WAIT_S)
    finally:
        master.survivor_go.set()
        service.shutdown()
    assert rr.result == wordcount_exact(tokens)
    assert sorted(master.completed) == [c.chunk_id for c in index.chunks]
    w0, w1 = workers(rr)
    assert w0.failed and w1.jobs_recovered == len(master.requeued)
    assert w0.jobs_processed + w1.jobs_processed == len(index.chunks)
    assert set(threading.enumerate()) <= before


def test_a_crowded_hedged_fleet_folds_every_striped_chunk_once():
    """More workers than cores and a short switch interval: windows,
    hedges and detached losers interleave, and each chunk folds once."""
    tokens, index, stores = organize("striped", 24, seed=46)
    clusters = [ClusterConfig(c, c, 3, retrieval_threads=2) for c in ("local", "cloud")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        service = BurstingService(
            clusters, stores, batch_size=2,
            hedge=HedgePolicy(min_threshold_s=0.0005, max_hedges=2),
        )
        try:
            rr = service.submit(WordCountSpec(), index).result(timeout=WAIT_S)
        finally:
            service.shutdown()
    finally:
        sys.setswitchinterval(interval)
    assert rr.result == wordcount_exact(tokens)
    assert rr.stats.jobs_processed == len(index.chunks)
    assert rr.stats.n_requeued_jobs == 0
