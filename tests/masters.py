"""The two masters a worker can pull jobs from, over one run's jobs.

``lock`` is the process engine's :class:`LockMaster` over a bare
:class:`HeadScheduler`.  ``service`` is a :class:`ServiceMaster` of a
:class:`BurstingService` holding one admitted run and no fleet, so the
test's own threads are the only workers.
"""

from __future__ import annotations

import threading

from repro.apps.wordcount import WordCountSpec
from repro.runtime.core import ClusterConfig, LockMaster
from repro.runtime.jobs import jobs_from_index
from repro.runtime.scheduler import HeadScheduler
from repro.service.service import BurstingService, ServiceMaster
from repro.storage.local import MemoryStore

MASTERS = ("lock", "service")


def make_master(kind, cluster: ClusterConfig, index, batch_size: int, **options):
    """``(master, scheduler)``: a master of ``kind`` for ``cluster`` and
    the head scheduler of the run it hands out; ``options`` configure
    the service."""
    if kind == "lock":
        scheduler = HeadScheduler(jobs_from_index(index))
        master = LockMaster(
            cluster, scheduler, threading.Lock(), batch_size,
            n_workers=cluster.n_workers,
        )
        return master, scheduler
    stores = {
        obj.location: MemoryStore(obj.location)
        for c in index.chunks for obj in c.sources + c.fragments
    }
    service = BurstingService([cluster], stores, batch_size=batch_size, **options)
    service._ensure_fleet_locked = lambda: None  # the test is the fleet
    handle = service.submit(WordCountSpec(), index)
    master = ServiceMaster(service, cluster, batch_size, cluster.n_workers)
    return master, service._runs[handle.run_id].scheduler
