"""State machine over one cluster's pool and its run's head.

:class:`~repro.runtime.jobs.ClusterPool` holds the refill and tail rules
both clocks ask (the live masters and the simulator).  Hypothesis drives
one pool of a ``local`` cluster and a :class:`HeadScheduler` through any
interleaving of: a worker asks, the refill in flight lands, a job
completes, a job is requeued (the head reopens the pool), a worker dies;
another cluster takes batches from the same head, so the pool drains
while jobs are still outstanding elsewhere.  After every step:

* no job is handed out twice (unless it was requeued in between);
* pooled + handed out + unassigned + completed = planned;
* at most one refill is in flight, and only the worker that was told to
  ask has it;
* a drained pool leaves nothing unassigned at the head (a requeue always
  reopens it), and "stop" is answered only once the head holds nothing
  unassigned or outstanding;
* the last death hands back the whole pool.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.data.formats import tokens_format
from repro.data.index import build_index
from repro.runtime.jobs import ASK, STOP, WAIT, ClusterPool, Job, jobs_from_index
from repro.runtime.scheduler import HeadScheduler

LOCAL, CLOUD = "local", "cloud"


class PoolMachine(RuleBasedStateMachine):
    @initialize(
        n_files=st.integers(1, 4),
        chunks_per_file=st.integers(1, 4),
        local_frac=st.sampled_from([0.0, 0.5, 1.0]),
        n_workers=st.integers(1, 3),
    )
    def setup(self, n_files, chunks_per_file, local_frac, n_workers):
        index = build_index(
            tokens_format(), [2 * chunks_per_file] * n_files, chunk_units=2
        ).with_placement({LOCAL: local_frac, CLOUD: 1.0 - local_frac})
        self.planned = len(index.chunks)
        self.head = HeadScheduler(jobs_from_index(index))
        self.pool = ClusterPool(n_workers)
        #: Jobs each live local worker holds, and those the other cluster holds.
        self.held: dict[int, list[Job]] = {w: [] for w in range(n_workers)}
        self.elsewhere: list[Job] = []
        self.out: set[int] = set()  # handed out and not yet back
        self.asker: int | None = None  # the worker whose refill is in flight
        self.completed = 0

    def hand_out(self, job: Job) -> None:
        assert job.job_id not in self.out, f"job {job.job_id} handed out twice"
        self.out.add(job.job_id)

    def give_back(self, job: Job) -> None:
        self.out.remove(job.job_id)

    def holders(self) -> list[list[Job]]:
        return [*self.held.values(), self.elsewhere]

    # -- rules ---------------------------------------------------------------

    @rule(data=st.data())
    def worker_asks(self, data):
        free = [w for w in self.held if w != self.asker]
        if not free:
            return
        w = data.draw(st.sampled_from(free))
        got = self.pool.next(self.head.all_done)
        if got is ASK:
            assert self.asker is None, "a second refill in flight"
            self.asker = w
        elif got is WAIT:
            assert self.pool.refilling or not self.head.all_done
        elif got is STOP:
            assert self.head.all_done, "stopped while the head holds work"
        else:
            self.hand_out(got)
            self.held[w].append(got)

    @precondition(lambda self: self.asker is not None)
    @rule(batch=st.integers(1, 4))
    def refill_lands(self, batch):
        # A batch, or empty once the head has nothing unassigned.
        self.pool.refilled(self.head.request_jobs(LOCAL, batch))
        self.asker = None

    @rule(batch=st.integers(1, 4))
    def other_cluster_takes(self, batch):
        for job in self.head.request_jobs(CLOUD, batch):
            self.hand_out(job)
            self.elsewhere.append(job)

    @rule(data=st.data())
    def complete(self, data):
        holders = [h for h in self.holders() if h]
        if holders:
            held = data.draw(st.sampled_from(holders))
            job = held.pop(data.draw(st.integers(0, len(held) - 1)))
            self.give_back(job)
            self.head.complete(job)
            self.completed += 1

    @rule(data=st.data())
    def requeue(self, data):
        holders = [h for h in self.holders() if h]
        if holders:
            held = data.draw(st.sampled_from(holders))
            job = held.pop(data.draw(st.integers(0, len(held) - 1)))
            self.give_back(job)
            self.head.reassign(job)
            self.pool.reopen()

    @rule(data=st.data())
    def worker_dies(self, data):
        # A worker waiting on its own refill is inside the head call.
        mortal = [w for w in self.held if w != self.asker]
        if not mortal:
            return
        w = data.draw(st.sampled_from(mortal))
        pooled = list(self.pool.jobs)
        returned = self.pool.worker_died()
        if self.held.keys() == {w}:
            assert sorted(j.job_id for j in returned) == sorted(
                j.job_id for j in pooled
            ), "the last death kept pooled jobs"
            assert len(self.pool) == 0
        else:
            assert returned == []
        for job in self.held.pop(w) + returned:
            self.out.discard(job.job_id)
            self.head.reassign(job)
        self.pool.reopen()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def conserved(self):
        pooled = len(self.pool)
        handed = sum(map(len, self.holders()))
        assert pooled + handed + self.head.remaining + self.completed == self.planned
        assert self.head.outstanding == pooled + handed
        assert {j.job_id for j in self.pool.jobs}.isdisjoint(self.out)

    @invariant()
    def one_refill_in_flight(self):
        assert self.pool.refilling == (self.asker is not None)

    @invariant()
    def drained_strands_nothing(self):
        if self.pool.drained:
            assert self.head.remaining == 0


PoolMachine.TestCase.settings = settings(
    derandomize=True, max_examples=300, stateful_step_count=40, deadline=None
)
TestPoolMachine = PoolMachine.TestCase
