"""The one live master over the two heads it can pull jobs from.

``lock`` is a :class:`ClusterMaster` of a one-run :class:`RunHead` (the
process engine's head: a bare :class:`HeadScheduler` behind its own
condition variable).  ``service`` is a :class:`ClusterMaster` of a
:class:`BurstingService` holding one admitted run and no fleet, so the
test's own threads are the only workers.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.apps.wordcount import WordCountSpec
from repro.runtime.core import ClusterConfig, ClusterMaster, RunHead
from repro.runtime.jobs import jobs_from_index
from repro.runtime.scheduler import HeadScheduler
from repro.service.service import BurstingService
from repro.storage.local import MemoryStore

MASTERS = ("lock", "service")


def make_master(kind, cluster: ClusterConfig, index, batch_size: int, **options):
    """``(master, scheduler)``: the master of ``cluster`` on a head of
    ``kind`` and the head scheduler of the run it hands out; ``options``
    configure the service."""
    if kind == "lock":
        scheduler = HeadScheduler(jobs_from_index(index))
        return run_master(cluster, scheduler, None, batch_size), scheduler
    stores = {
        obj.location: MemoryStore(obj.location)
        for c in index.chunks for obj in c.sources + c.fragments
    }
    service = BurstingService([cluster], stores, batch_size=batch_size, **options)
    service._ensure_fleet_locked = lambda: None  # the test is the fleet
    handle = service.submit(WordCountSpec(), index)
    master = service._masters[cluster.name] = ClusterMaster(service, cluster, batch_size)
    return master, service._runs[handle.run_id].scheduler


def run_master(cluster, scheduler, lock, batch_size, n_workers=None):
    """The master of ``cluster`` on a one-run head over ``scheduler``.
    The head locks with its own condition variable, so ``lock`` goes
    unused.  ``master.stop.set()`` halts the run; ``n_workers`` must be
    the cluster's."""
    assert n_workers in (None, cluster.n_workers)
    head = RunHead(scheduler)
    master = head.master(cluster, batch_size)
    master.stop = SimpleNamespace(set=head.halt)
    return master
