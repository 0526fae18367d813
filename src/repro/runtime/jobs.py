"""Jobs and the cluster job pool.

One job corresponds to one chunk of the dataset.  The head node owns the
global pool (built from the index); each cluster's master keeps a small
local pool it refills from the head on demand -- the pooling mechanism
behind the paper's dynamic load balancing.  :class:`ClusterPool` is that
local pool together with the rule for when to refill it and when to
stop, written once for the live masters and the simulator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.data.chunks import ChunkInfo
from repro.data.index import DataIndex

__all__ = ["ASK", "STOP", "WAIT", "ClusterPool", "Job", "jobs_from_index"]


@dataclass(frozen=True)
class Job:
    """A unit of schedulable work: fetch and reduce one chunk."""

    job_id: int
    chunk: ChunkInfo
    #: Pushdown ordering hint (higher runs earlier); 0.0 when the app
    #: declares none, which preserves pure chunk-id order.
    priority: float = 0.0
    #: Submitted-run tag: which job's reduction object this assignment
    #: folds into when a shared slave fleet interleaves concurrent runs
    #: (the multi-tenant service).  "" for single-run engines.
    run_id: str = ""

    @property
    def location(self) -> str:
        """Storage site currently holding the chunk."""
        return self.chunk.location

    @property
    def file_id(self) -> int:
        return self.chunk.file_id

    @property
    def nbytes(self) -> int:
        return self.chunk.nbytes

    @property
    def n_units(self) -> int:
        return self.chunk.n_units


def jobs_from_index(index: DataIndex) -> list[Job]:
    """Generate the job pool from the data index, one job per chunk."""
    return [Job(c.chunk_id, c) for c in index.chunks]


#: What :meth:`ClusterPool.next` answers instead of a job.
ASK, WAIT, STOP = "ask", "wait", "stop"


class ClusterPool:
    """One cluster's job pool and the rules that refill and end it.

    Clock-free: the live master asks it under its head's condition
    variable, the simulator in its event loop.  One refill in flight per
    cluster: the worker told to :data:`ASK` fetches a batch from the
    head (:meth:`refilled`) while its siblings :data:`WAIT` for it.  An
    empty batch *drains* the pool; its workers then wait until
    :meth:`reopen` (a requeue, a new run) or the head's final drain, and
    :data:`STOP` only once the head is ``finished`` (one run: nothing
    outstanding, so nothing can come back; a service: shut down), so no
    requeued job is stranded by a cluster that stopped asking.
    """

    def __init__(self, n_workers: int) -> None:
        self.jobs: deque[Job] = deque()
        self.alive = n_workers  # workers that have not died
        self.refilling = False
        self.drained = False

    def __len__(self) -> int:
        return len(self.jobs)

    def next(self, finished: bool) -> Job | str:
        """A pooled job, or what to do.  ``finished`` counts only for a
        drained pool, so an empty one asks the head once more; a
        :data:`WAIT` waits for the refill in flight, or, drained, for
        more work."""
        if self.jobs:
            return self.jobs.popleft()
        if self.refilling:
            return WAIT
        if not self.drained:
            self.refilling = True
            return ASK
        return STOP if finished else WAIT

    def refilled(self, jobs: list[Job]) -> None:
        """Hand in the head's answer to an :data:`ASK`; none drains the pool."""
        self.refilling = False
        self.jobs.extend(jobs)
        self.drained = not jobs

    def reopen(self) -> bool:
        """A job may be back at the head: ask again.  True if the pool
        was drained (its workers may be waiting)."""
        was, self.drained = self.drained, False
        return was

    def worker_died(self) -> list[Job]:
        """Count one worker dead; the last death hands back the pooled
        jobs, last first (a requeue goes to the front of its file)."""
        self.alive -= 1
        if self.alive > 0:
            return []
        jobs = list(reversed(self.jobs))
        self.jobs.clear()
        return jobs
