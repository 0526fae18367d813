"""The read-ahead window is sized in bytes.

A fleet worker reserves while :func:`~repro.runtime.core.window_has_room`:
two fetches in flight behind chunks of 1.4 MB or more, up to eight
behind small ones (:func:`~repro.runtime.core.window_depth`), and never
a deep window of large chunks behind a small one.  Every fetcher has
room for the deepest window.  The gated runs below read how many whole
chunk fetches a worker really parks (:mod:`tests.gated`); no sleeps.
"""

import threading

import pytest

import repro.service.service as service_mod
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import stripe_dataset, write_dataset
from repro.data.generator import generate_tokens
from repro.runtime.core import (
    READAHEAD,
    READAHEAD_MAX,
    READAHEAD_NBYTES,
    ClusterConfig,
    window_depth,
    window_has_room,
)
from repro.service import BurstingService
from repro.storage.local import MemoryStore
from repro.storage.transfer import HEDGE_POOL_WIDTH
from tests.gated import WAIT_S, GatedStore, gated_copies, wait_parked_in
from tests.runtime.test_readahead import RecordingMaster
from tests.service.test_raced_readahead import K, chunk_of, organize

UNIT_NBYTES = WordCountSpec().fmt.unit_nbytes
#: ``wordcount-striped-stall``'s chunks: 32 MB in 48 striped chunks.
STRIPED_UNITS = 666_672 // UNIT_NBYTES
STRIPED_DEPTH = window_depth(STRIPED_UNITS * UNIT_NBYTES)
#: ``knn-hybrid-wan``'s chunks: 38 MB in 24 chunks.
KNN_UNITS = 1_600_000 // UNIT_NBYTES


def filled(sizes):
    """How many of ``sizes`` (the chunk being folded first, then the
    jobs on offer) a worker reserves while the window has room."""
    held, n = sizes[0], 0
    while n + 1 < len(sizes) and window_has_room(n, held):
        n += 1
        held += sizes[n]
    return n


@pytest.mark.parametrize(
    "nbytes, depth",
    [
        (READAHEAD_NBYTES, 2),
        (2 << 20, 2),
        (1_600_000, 2),
        (1_398_102, 2),  # the smallest chunk still two deep
        (1_398_101, 3),
        (666_672, 6),
        (2_400, 8),
        (1, 8),
        (0, 8),  # an empty chunk does not divide by zero
    ],
)
def test_depth_table(nbytes, depth):
    assert window_depth(nbytes) == depth


def test_the_window_holds_about_readahead_nbytes():
    assert READAHEAD_NBYTES == READAHEAD * (2 << 20)
    for nbytes in (700_000, 1_000_000, 1_398_101):
        assert window_depth(nbytes) * nbytes <= READAHEAD_NBYTES


@pytest.mark.parametrize(
    "nbytes", [0, 1, 2_400, 500_000, 524_288, 666_672, 1_398_101, 1_398_102, 12_500_000]
)
def test_window_depth_is_how_deep_uniform_chunks_fill(nbytes):
    assert filled([nbytes] * 20) == window_depth(nbytes)


@pytest.mark.parametrize("rider", [1_398_102, 1_600_000, 12_500_000])
def test_a_small_chunk_opens_no_deep_window_of_large_ones(rider):
    """A stripe (or a file's ragged tail) opening the window lets large
    chunks ride it only as far as their bytes allow."""
    assert window_depth(666_672) == 6
    n = filled([666_672] + [rider] * 20)
    assert n == max(READAHEAD, (READAHEAD_NBYTES - 666_672) // rider + 1)
    # Past READAHEAD, every reservation but the last fits the budget.
    assert n <= READAHEAD or (n - 1) * rider <= READAHEAD_NBYTES


def test_striped_run_parks_six_whole_chunk_fetches_per_worker():
    """One worker in each of two clusters, as in the suite: each parks
    every leg of ``STRIPED_DEPTH`` striped chunks (two at a fixed
    ``READAHEAD``) on the service's pools, sized for that window."""
    assert STRIPED_DEPTH == 6 and STRIPED_DEPTH * K <= HEDGE_POOL_WIDTH
    tokens, index, stores = organize(
        "striped", 2 * STRIPED_DEPTH + 2, seed=51, units=STRIPED_UNITS
    )
    assert {window_depth(c.nbytes) for c in index.chunks} == {STRIPED_DEPTH}
    before = set(threading.enumerate())
    gated = gated_copies(stores)
    service = BurstingService(
        [ClusterConfig(c, c, 1, retrieval_threads=1) for c in ("local", "cloud")],
        gated, batch_size=1,
    )
    try:
        handle = service.submit(WordCountSpec(), index)
        parked = wait_parked_in(gated, 2 * STRIPED_DEPTH * K)
        windows = [
            [job.chunk.chunk_id for job, _ in slave._window]
            for slave in service._slaves
        ]
        assert [len(w) for w in windows] == [STRIPED_DEPTH, STRIPED_DEPTH]
        keys = chunk_of(index)
        assert sorted(keys[key] for _, key in parked) == sorted(
            c for w in windows for c in w for _ in range(K)
        )
        # Every fetcher borrows the service's pools, sized for both windows.
        assert {f.pools for f in service._fetchers.values()} == {service._pools}
        assert service._pools._widths["readahead"] == 2 * READAHEAD_MAX
        for store in gated.values():
            store.open_all()
        rr = handle.result(timeout=WAIT_S)
    finally:
        for store in gated.values():
            store.open_all()
        service.shutdown()
    assert rr.result == wordcount_exact(tokens)
    assert rr.stats.jobs_processed == len(index.chunks)
    assert set(threading.enumerate()) <= before


def test_prefetch_over_large_chunks_parks_exactly_two():
    """``knn-hybrid-wan``'s memory guard: 1.6 MB chunks keep a two-deep
    window under ``prefetch``, whatever the fetch order."""
    n_chunks = 5
    tokens = generate_tokens(n_chunks * KNN_UNITS, 50, seed=52)
    store = GatedStore()
    index = write_dataset(
        tokens, WordCountSpec().fmt, store, n_files=n_chunks, chunk_units=KNN_UNITS
    )
    assert {window_depth(c.nbytes) for c in index.chunks} == {READAHEAD}
    before = set(threading.enumerate())
    service = BurstingService(
        [ClusterConfig("local", "local", 1, retrieval_threads=1)],
        {"local": store}, batch_size=1, prefetch=True,
    )
    try:
        handle = service.submit(WordCountSpec(), index)
        fetcher = service._fetchers["local"]
        assert fetcher.pools is service._pools
        assert fetcher.pools._widths["readahead"] == READAHEAD_MAX
        remaining = n_chunks
        while remaining:
            expect = min(READAHEAD, remaining)
            parked = store.wait_parked(expect)
            assert len(parked) == expect
            store.release(*reversed(parked))
            remaining -= expect
        rr = handle.result(timeout=WAIT_S)
    finally:
        store.open_all()
        service.shutdown()
    assert store.max_parked == READAHEAD
    assert rr.result == wordcount_exact(tokens)
    (w,) = rr.stats.clusters["local"].workers
    assert w.prefetch_hits + w.prefetch_misses == n_chunks
    assert set(threading.enumerate()) <= before


def test_crash_behind_a_six_deep_window_requeues_each_job_once(monkeypatch):
    """``local-w0`` dies on its third job with a full window: the job in
    hand and all six reserved ones go back once, and a second worker
    folds them -- every chunk exactly once.  The chunks are the striped
    workload's size, read ahead under ``prefetch``: two workers'
    striped windows this deep would not fit the leg pools."""
    monkeypatch.setattr(service_mod, "ClusterMaster", RecordingMaster)
    tokens, index, stores = organize(
        "plain", STRIPED_DEPTH + 4, seed=53, units=STRIPED_UNITS
    )
    before = set(threading.enumerate())
    service = BurstingService(
        [ClusterConfig("local", "local", 2, retrieval_threads=1)], stores,
        batch_size=1, prefetch=True, crash_plan={"local-w0": 2},
    )
    handle = service.submit(WordCountSpec(), index)
    master = service._masters["local"]
    try:
        service._threads[0].join(WAIT_S)
        assert not service._threads[0].is_alive()
        handed = master.handed
        assert len(handed) == 2 + 1 + STRIPED_DEPTH
        assert master.completed == handed[:2]
        assert master.requeued == handed[2:]  # current + whole window, once
        master.survivor_go.set()
        rr = handle.result(timeout=WAIT_S)
    finally:
        master.survivor_go.set()
        service.shutdown()
    assert rr.result == wordcount_exact(tokens)
    assert sorted(master.completed) == [c.chunk_id for c in index.chunks]
    w0, w1 = rr.stats.clusters["local"].workers
    assert w0.failed and w1.jobs_recovered == len(master.requeued)
    assert w0.jobs_processed + w1.jobs_processed == len(index.chunks)
    assert rr.stats.n_requeued_jobs == 1 + STRIPED_DEPTH
    assert set(threading.enumerate()) <= before


def test_large_plain_chunks_riding_a_stripes_window_stay_in_bytes():
    """A striped run's small chunk opens the window; another run's 2 MiB
    plain chunks ride it.  They fill it to ``READAHEAD_NBYTES`` (two of
    them), not to the stripe's depth of six."""
    rider_units = (2 << 20) // UNIT_NBYTES
    s_tokens, s_index, stores = organize(
        "striped", 1, seed=55, units=STRIPED_UNITS
    )
    p_tokens, p_index, _ = organize(
        "plain", 6, seed=56, stores=stores, prefix="p", units=rider_units
    )
    before = set(threading.enumerate())
    gated = gated_copies(stores)
    service = BurstingService(
        [ClusterConfig("local", "local", 1, retrieval_threads=1)],
        gated, batch_size=1,
    )
    try:
        s = service.submit(WordCountSpec(), s_index, tenant="s")
        legs = wait_parked_in(gated, K)  # the stripe in hand, nothing else
        p = service.submit(WordCountSpec(), p_index, tenant="p")
        for loc, key in legs:
            gated[loc].release(key)
        # The stripe folds only once the worker has reserved behind it.
        assert s.result(timeout=WAIT_S).result == wordcount_exact(s_tokens)
        (slave,) = service._slaves
        window = [job.chunk.nbytes for job, _ in slave._window]
        assert window == [rider_units * UNIT_NBYTES] * READAHEAD
        assert sum(window) <= READAHEAD_NBYTES < STRIPED_DEPTH * window[0]
        assert len(wait_parked_in(gated, READAHEAD)) == READAHEAD
        for store in gated.values():
            store.open_all()
        rr = p.result(timeout=WAIT_S)
    finally:
        for store in gated.values():
            store.open_all()
        service.shutdown()
    assert rr.result == wordcount_exact(p_tokens)
    assert gated["local"].max_parked == READAHEAD
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("n_stores", [1, 9], ids=["crowded", "spread"])
def test_a_lone_workers_race_legs_fit_the_leg_pools(n_stores):
    """Eight-fragment stripes: a lone worker's window stops where its
    legs fill a store's leg pool -- short of the chunks' depth when all
    fragments share one store, at that depth when each has its own."""
    k = 8
    depth = HEDGE_POOL_WIDTH // k if n_stores == 1 else window_depth(300 * UNIT_NBYTES)
    assert READAHEAD < HEDGE_POOL_WIDTH // k < window_depth(300 * UNIT_NBYTES)
    stores = {
        loc: MemoryStore(loc)
        for loc in ["local"] + [f"s{i}" for i in range(n_stores - 1)]
    }
    tokens = generate_tokens((depth + 2) * 300, 50, seed=57)
    index = write_dataset(
        tokens, WordCountSpec().fmt, stores["local"], n_files=depth + 2,
        chunk_units=300,
    )
    index = stripe_dataset(index, stores, k=k, m=1)
    before = set(threading.enumerate())
    gated = gated_copies(stores)
    service = BurstingService(
        [ClusterConfig("local", "local", 1, retrieval_threads=1)],
        gated, batch_size=1,
    )
    try:
        handle = service.submit(WordCountSpec(), index)
        wait_parked_in(gated, depth * k)
        (slave,) = service._slaves
        assert len(slave._window) == depth
        for store in gated.values():
            store.open_all()
        rr = handle.result(timeout=WAIT_S)
    finally:
        for store in gated.values():
            store.open_all()
        service.shutdown()
    assert rr.result == wordcount_exact(tokens)
    assert set(threading.enumerate()) <= before
