"""The live masters and the DES refill their pools alike.

Both clocks ask one :class:`~repro.runtime.jobs.ClusterPool` when to
ask the head for a batch and when to stop: one refill in flight per
cluster, and a drained pool asks again only after a requeue.  Over one
index, scripted workers pull jobs through the live
:class:`~repro.runtime.core.ClusterMaster` (threads on a
:class:`~repro.runtime.core.RunHead`, paying the round trip with
``time.sleep``) and through the DES master (cores on the event loop),
and both heads must see the same ``request_jobs(location, n)`` calls
from every cluster.

Every worker completes each job it takes, except that with a fault
worker 0 sets its first job aside and reads on without waiting; once its
pool drains it hands that job back and goes on (``requeue``), or dies
with it (``death``).  A lone worker's death leaves a rescue cluster to
finish the run.  The calls do not depend on how the workers interleave,
so the threads need no pacing.
"""

import threading
import time

import pytest

from repro.data.formats import tokens_format
from repro.data.index import build_index
from repro.runtime.core import ClusterConfig, RunHead
from repro.runtime.jobs import STOP, WAIT, jobs_from_index
from repro.runtime.scheduler import HeadScheduler, StaticScheduler
from repro.runtime.stats import ClusterStats, WorkerStats
from repro.sim import simrun
from repro.sim.events import SimEnv
from repro.sim.simrun import SimClusterConfig

#: Three files of four chunks, all at ``local``.
INDEX = build_index(tokens_format(), [8] * 3, chunk_units=2)
RTT = 0.004
#: Worker ``w`` spends ``(w + 1) * HOLD`` seconds (wall or simulated)
#: on each job.
HOLD = 0.001


class Recording(HeadScheduler):
    def __init__(self, jobs):
        super().__init__(jobs)
        self.calls = []

    def request_jobs(self, location, max_jobs):
        self.calls.append((location, max_jobs))
        return super().request_jobs(location, max_jobs)


def per_cluster(calls):
    return {loc: [c for c in calls if c[0] == loc] for loc in ("local", "cloud")}


def live_calls(batch, n_workers, rtt, fault):
    scheduler = Recording(jobs_from_index(INDEX))
    head = RunHead(scheduler)
    local = head.master(ClusterConfig("local", "local", n_workers, link_latency_s=rtt), batch)
    cloud = head.master(ClusterConfig("cloud", "cloud", 1, link_latency_s=rtt), batch)
    threads, set_aside = [], []

    def start(master, w):
        threads.append(threading.Thread(target=worker, args=(master, w), daemon=True))
        threads[-1].start()

    def worker(master, w):
        aside = None
        while True:
            job = master.get_job(wait=aside is None)
            if job is None:
                if aside is None:
                    return
                if fault == "requeue":
                    master.requeue([aside])
                    aside = None
                    continue
                master.requeue([aside] + master.worker_died())
                if n_workers == 1:
                    start(cloud, 0)
                return
            if fault and master is local and w == 0 and not set_aside:
                set_aside.append(job)
                aside = job
                continue
            time.sleep(HOLD * (w + 1))
            master.complete(job)

    for w in range(n_workers):
        start(local, w)
    for th in threads:  # a rescue thread is listed before its starter ends
        th.join(10.0)
    assert not any(th.is_alive() for th in threads)
    assert scheduler.all_done
    return per_cluster(scheduler.calls)


def des_calls(batch, n_workers, rtt, fault):
    scheduler = Recording(jobs_from_index(INDEX))
    env = SimEnv()
    run = simrun._SimRun(
        env, net=None, topo=None, profile=None, spec_ctx=None, tracer=None,
        transfer=None, stripe=None, store_stalls=None, prefetch=False,
        alive=n_workers + 1, scheduler=scheduler, batch_size=batch,
    )
    local, cloud = (
        simrun._SimCluster(env, SimClusterConfig(name, name, n), ClusterStats(name, name), rtt)
        for name, n in (("local", n_workers), ("cloud", 1))
    )
    run.clusters += [local, cloud]
    set_aside = []

    def core(cl, w):
        aside = None
        while True:
            got = yield from run.next_job(cl)
            if got is STOP or got is WAIT:
                if aside is None:
                    if got is STOP:
                        return
                    yield cl.wake  # drained: wait for a requeue or the final drain
                    continue
                if fault == "requeue":
                    run.requeue([aside])
                    aside = None
                    continue
                run.requeue([aside] + cl.pool.worker_died())
                if n_workers == 1:
                    env.process(core(cloud, 0))
                return
            if fault and cl is local and w == 0 and not set_aside:
                set_aside.append(got)
                aside = got
                continue
            yield HOLD * (w + 1)
            run.complete(got, WorkerStats(), 0.0)

    for w in range(n_workers):
        env.process(core(local, w))
    env.run()
    assert scheduler.all_done
    return per_cluster(scheduler.calls)


@pytest.mark.parametrize("fault", [None, "requeue", "death"])
@pytest.mark.parametrize("rtt", [0.0, RTT])
@pytest.mark.parametrize("n_workers", [1, 2, 4])
@pytest.mark.parametrize("batch", [1, 2, 4])
def test_live_and_des_make_the_same_refill_calls(batch, n_workers, rtt, fault):
    des = des_calls(batch, n_workers, rtt, fault)
    assert live_calls(batch, n_workers, rtt, fault) == des
    # Every batch the index needs, then one empty refill per drain: the
    # first, and after a fault the one the handed-back job reopened.
    n_jobs = len(INDEX.chunks)
    refills = -(-n_jobs // batch) + 1
    rescued = fault == "death" and n_workers == 1
    local = refills + (2 if fault and not rescued else 0)
    assert des == {
        "local": [("local", batch)] * local,
        "cloud": [("cloud", batch)] * (2 if rescued else 0),
    }


def test_a_cluster_that_cannot_steal_stops_once_nothing_is_outstanding():
    """Without stealing, a drained cluster can never take the jobs a
    dead cluster left at the head: once nothing is outstanding it
    stops, and the run fails instead of waiting forever."""
    head = RunHead(StaticScheduler(jobs_from_index(INDEX)))
    local = head.master(ClusterConfig("local", "local", 1), 4)
    cloud = head.master(ClusterConfig("cloud", "cloud", 1), 4)
    got = []
    waiter = threading.Thread(target=lambda: got.append(cloud.get_job()), daemon=True)
    job = local.get_job()
    waiter.start()
    waiter.join(0.05)
    assert waiter.is_alive()  # drained; the local job may come back
    local.requeue([job] + local.worker_died())
    waiter.join(10.0)
    assert got == [None]
    assert not head.scheduler.all_done


def test_the_last_completion_stops_a_cluster_that_cannot_steal():
    """The same, when the last outstanding job is completed rather than
    handed back: one cloud worker parks on its drained pool while its
    sibling holds that job, and the completion stops it."""
    index = INDEX.with_placement({"local": 1, "cloud": 2})
    head = RunHead(StaticScheduler(jobs_from_index(index)))
    local = head.master(ClusterConfig("local", "local", 1), 4)
    cloud = head.master(ClusterConfig("cloud", "cloud", 2), 8)
    job = local.get_job()
    local.requeue([job] + local.worker_died())
    held = [cloud.get_job() for _ in range(8)]
    for job in held[:-1]:
        cloud.complete(job)
    got = []
    waiter = threading.Thread(target=lambda: got.append(cloud.get_job()), daemon=True)
    waiter.start()
    waiter.join(0.05)
    assert waiter.is_alive()  # drained; the held job may come back
    cloud.complete(held[-1])
    waiter.join(10.0)
    assert got == [None]
    assert cloud.get_job() is None
    assert head.scheduler.remaining == 4 and not head.scheduler.all_done


def test_a_halted_head_hands_out_only_what_is_pooled():
    head = RunHead(HeadScheduler(jobs_from_index(INDEX)))
    master = head.master(ClusterConfig("local", "local", 1), 2)
    assert master.get_job() is not None
    head.halt()
    assert master.get_job() is not None  # the batch's second job
    assert master.get_job() is None
    assert head.scheduler.remaining == len(INDEX.chunks) - 2
