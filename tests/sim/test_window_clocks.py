"""The live worker and the DES reserve the same read-ahead windows.

Both ask :func:`~repro.runtime.core.window_limit` how deep a job may
read ahead and :func:`~repro.runtime.core.window_has_room` whether the
window has room.  Over one index, a :class:`ServiceSlave` pulling from
a fake master (:mod:`tests.masters`; fetches and folds stubbed, so the
test thread is the whole fleet) and the DES's cores must make the same
reserve calls: the same windows open, to the same depths.
"""

import pytest

import repro.service.service as service_mod
from repro.apps.wordcount import WordCountSpec
from repro.data.chunks import ChunkFragment, ChunkInfo
from repro.data.index import DataIndex, FileInfo
from repro.runtime.core import ClusterConfig, ClusterMaster
from repro.service.service import ServiceSlave
from repro.sim import simrun
from repro.sim.calibration import APP_PROFILES, ResourceParams
from repro.sim.simrun import SimClusterConfig
from repro.storage.health import HedgePolicy
from tests.masters import make_master

FMT = WordCountSpec().fmt
#: Enough jobs that every core of the widest fleet fills its window.
N_CHUNKS = 96
#: Three stores for six fragments: two of a chunk's four data legs
#: share one store.
STORES = ("local", "s1", "s2")
HEDGE = HedgePolicy(min_threshold_s=60.0)


def index_of(nbytes, stripe):
    """``N_CHUNKS`` one-chunk files of ``nbytes`` at ``local``, striped
    ``(k, m)`` over :data:`STORES` (no bytes are ever read)."""
    files, chunks = [], []
    n_units = nbytes // FMT.unit_nbytes
    for i in range(N_CHUNKS):
        key = f"part{i}"
        fragments = ()
        if stripe is not None:
            k, m = stripe
            fragments = tuple(
                ChunkFragment(j, STORES[j % len(STORES)], f"{key}.f{j}", -(-nbytes // k))
                for j in range(k + m)
            )
        files.append(FileInfo(i, key, nbytes, n_units, "local"))
        chunks.append(ChunkInfo(
            i, i, key, 0, nbytes, n_units, "local",
            fragments=fragments, stripe=stripe if fragments else None,
        ))
    return DataIndex(FMT, files, chunks)


def recording(monkeypatch, module):
    """Every ``window_has_room`` call ``module`` makes, with its answer."""
    calls = set()
    real = module.window_has_room

    def has_room(n, held):
        room = real(n, held)
        calls.add((n, held, room))
        return room

    monkeypatch.setattr(module, "window_has_room", has_room)
    return calls


def live_calls(monkeypatch, index, n_workers, alive, **options):
    """One fleet worker of an ``n_workers`` cluster, in a fleet of
    ``alive``, runs every job of ``index``."""
    calls = recording(monkeypatch, service_mod)
    cluster = ClusterConfig("local", "local", n_workers)
    master, scheduler = make_master("service", cluster, index, 4, **options)
    master.get_job = lambda wait=True: ClusterMaster.get_job(master, False)
    master.head._alive_workers = alive
    slave = ServiceSlave(master.head, cluster, 0, master, None)
    slave._start_fetch = lambda job: slave._window.append((job, None))
    slave._await_prefetch = lambda job, pending: b""
    slave._fetch_now = lambda job: b""
    slave._process = lambda job, raw: master.complete(job)
    assert slave._serve() is False
    assert scheduler.all_done
    return calls


def des_calls(monkeypatch, index, n_workers, alive, prefetch, stripe, hedge):
    """``alive / n_workers`` DES clusters of ``n_workers`` cores each run
    every job of ``index``."""
    calls = recording(monkeypatch, simrun)
    # The DES models no hedge policy (its window asks with None); hand
    # it the live worker's, so both sides ask the same question.
    real = simrun.window_limit

    def limit(chunk, prefetch, _hedge, n_workers, alive, stripe=None):
        return real(chunk, prefetch, hedge, n_workers, alive, stripe)

    monkeypatch.setattr(simrun, "window_limit", limit)
    profile = APP_PROFILES["kmeans"]
    clusters = [
        SimClusterConfig(f"c{i}", "local", n_workers)
        for i in range(alive // n_workers)
    ]
    res = simrun.simulate_run(
        index, clusters, profile, ResourceParams(), prefetch=prefetch,
        stripe=stripe,
    )
    assert res.stats.jobs_processed == N_CHUNKS
    return calls


@pytest.mark.parametrize("alive_clusters", [1, 4])
@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("prefetch", [False, True])
@pytest.mark.parametrize("hedge", [None, HEDGE], ids=["nohedge", "hedge"])
@pytest.mark.parametrize("stripe", [None, (4, 2), (1, 1)], ids=str)
@pytest.mark.parametrize("nbytes", [2_400, 666_672, 1_600_000])
def test_live_and_des_reserve_the_same_windows(
    monkeypatch, nbytes, stripe, hedge, prefetch, n_workers, alive_clusters
):
    index = index_of(nbytes, stripe)
    alive = n_workers * alive_clusters
    live = live_calls(
        monkeypatch, index, n_workers, alive, prefetch=prefetch, hedge=hedge
    )
    des = des_calls(monkeypatch, index, n_workers, alive, prefetch, stripe, hedge)
    assert des == live
    # The window opens with prefetch, or behind a stripe whose legs race
    # on the leg pools: more than one data leg, or a hedge.
    raced = stripe == (4, 2) or (stripe == (1, 1) and hedge is not None)
    assert bool(live) == (prefetch or raced)
    if live:
        depth = 1 + max(n for n, _, room in live if room)
        if raced and n_workers > 1:
            assert depth == 2
