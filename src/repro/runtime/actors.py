"""Actor-based control plane: the literal Figure-2 architecture.

Where :class:`~repro.runtime.engine.ThreadedEngine` invokes the head
scheduler through a lock (fast, simple), this engine runs the paper's
architecture as drawn: a **head actor** thread owning the global job
pool and the final global reduction, one **master actor** thread per
cluster owning the local pool, and slave worker threads -- all
communicating exclusively through typed messages
(:class:`RequestJobs`, :class:`AssignJobs`, :class:`ReassignJobs`,
:class:`RobjUpload`) over :class:`~repro.runtime.messages.Channel`
objects whose latency models the control-plane delay between a cloud
master and a local head.

The slaves themselves are :class:`~repro.runtime.core.SlaveRuntime`
instances -- the same loop the threaded and process engines run -- so
prefetching, chunk caching, retries, chunk verification, and
worker-crash containment hold here by construction.  The master actor
is this engine's :class:`~repro.runtime.core.MasterPort`: job refills
are head round-trips over the channel, and the port is drain-aware --
an empty :class:`AssignJobs` reply with jobs still outstanding at the
head means "poll again", never "done", so a job requeued by a crashed
worker is never stranded.

All engines produce identical results; the equivalence matrix asserts
it under prefetch, caching, injected faults, and worker crashes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core.api import GeneralizedReductionSpec
from repro.core.reduction_object import ReductionObject
from repro.core.serialization import deserialize_robj, serialize_robj
from repro.data.index import DataIndex
from repro.data.units import units_per_group
from repro.runtime.blas_budget import BLAS_BUDGET
from repro.runtime.core import (
    ClusterConfig,
    EngineBase,
    EngineOptions,
    LockMaster,
    RunResult,
    SlaveRuntime,
    finalize_result,
    finalize_timing,
    make_cluster_fetchers,
    rollup_fetcher_stats,
)
from repro.runtime.jobs import Job
from repro.runtime.pushdown import plan_jobs
from repro.runtime.messages import (
    AssignJobs,
    Channel,
    ReassignJobs,
    RequestJobs,
    RobjUpload,
    Shutdown,
)
from repro.runtime.scheduler import HeadScheduler
from repro.runtime.stats import ClusterStats, RunStats, WorkerStats
from repro.storage.base import StorageBackend
from repro.storage.health import HealthRegistry

__all__ = ["ActorEngine"]


@dataclass(frozen=True)
class _CompleteJobs:
    """Master -> head: these assigned jobs finished processing."""

    cluster: str
    jobs: tuple[Job, ...]


class _HeadActor(threading.Thread):
    """Owns the global scheduler; services masters over channels."""

    def __init__(
        self,
        scheduler: HeadScheduler,
        inbox: Channel,
        master_channels: dict[str, Channel],
        spec: GeneralizedReductionSpec,
        n_clusters: int,
    ) -> None:
        super().__init__(name="head", daemon=True)
        self.scheduler = scheduler
        self.inbox = inbox
        self.master_channels = master_channels
        self.spec = spec
        self.n_clusters = n_clusters
        self.uploads: list[ReductionObject] = []
        self.final: ReductionObject | None = None
        self.global_reduction_s = 0.0
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            while True:
                msg = self.inbox.recv()
                if isinstance(msg, RequestJobs):
                    jobs = self.scheduler.request_jobs(msg.location, msg.max_jobs)
                    requeued = tuple(
                        j.job_id
                        for j in jobs
                        if j.job_id in self.scheduler.requeued_ids
                    )
                    self.master_channels[msg.cluster].send(
                        AssignJobs(
                            tuple(jobs),
                            outstanding=self.scheduler.outstanding,
                            requeued=requeued,
                        )
                    )
                elif isinstance(msg, _CompleteJobs):
                    for job in msg.jobs:
                        self.scheduler.complete(job)
                elif isinstance(msg, ReassignJobs):
                    for job in msg.jobs:
                        self.scheduler.reassign(job)
                elif isinstance(msg, RobjUpload):
                    t0 = time.monotonic()
                    self.uploads.append(deserialize_robj(msg.payload))
                    if len(self.uploads) == self.n_clusters:
                        self.final = self.spec.global_reduction(self.uploads)
                        self.global_reduction_s += time.monotonic() - t0
                        return
                    self.global_reduction_s += time.monotonic() - t0
                elif isinstance(msg, Shutdown):
                    return
                else:  # pragma: no cover - defensive
                    raise TypeError(f"head got unexpected message {msg!r}")
        except BaseException as exc:  # surfaced by the engine
            self.error = exc


class _MasterActor(threading.Thread):
    """Owns one cluster: pool, slaves, combination, upload.

    Implements :class:`~repro.runtime.core.MasterPort` for its slaves;
    every head interaction is a message round-trip over channels with
    modelled latency.
    """

    #: Poll interval while the head has outstanding jobs that may yet be
    #: requeued (only reached at the tail of a run).
    POLL_S = LockMaster.POLL_S

    def __init__(
        self,
        cluster: ClusterConfig,
        head_inbox: Channel,
        inbox: Channel,
        spec: GeneralizedReductionSpec,
        index: DataIndex,
        stores: dict[str, StorageBackend],
        options: EngineOptions,
        group_units: int,
        cstats: ClusterStats,
        t_start: float,
        errors: list[BaseException],
        stop: threading.Event,
        *,
        health: HealthRegistry | None = None,
    ) -> None:
        super().__init__(name=f"master-{cluster.name}", daemon=True)
        self.health = health
        self.cluster = cluster
        self.head_inbox = head_inbox
        self.inbox = inbox
        self.spec = spec
        self.index = index
        self.stores = stores
        self.options = options
        self.group_units = group_units
        self.cstats = cstats
        self.t_start = t_start
        self.errors = errors
        self.stop = stop
        self.error: BaseException | None = None
        self._pool: list[Job] = []
        self._done = False
        self._requeued_ids: set[int] = set()
        self._lock = threading.Lock()
        self._refill_lock = threading.Lock()
        self._alive = cluster.n_workers
        self._alive_lock = threading.Lock()

    # -- MasterPort: API used by this cluster's worker threads ---------------

    def get_job(self, wait: bool = True) -> Job | None:
        """Next job, refilling over the channel when the pool is depleted.

        Drain-aware: an empty :class:`AssignJobs` reply only latches
        "done" when the head reports zero outstanding jobs; otherwise a
        crashed worker may still requeue work, so a blocking caller
        polls and a non-blocking one (the prefetch reserve path) returns
        ``None`` immediately.
        """
        while True:
            with self._lock:
                if self._pool:
                    return self._pool.pop(0)
                if self._done:
                    return None
            if self.stop.is_set():
                return None
            with self._refill_lock:
                with self._lock:
                    if self._pool:
                        return self._pool.pop(0)
                    if self._done:
                        return None
                # One worker performs the head round-trip on behalf of
                # the cluster; channel latency models the network.
                self.head_inbox.send(
                    RequestJobs(
                        self.cluster.name,
                        self.cluster.location,
                        self.options.batch_size,
                    )
                )
                reply = self.inbox.recv()
                assert isinstance(reply, AssignJobs)
                with self._lock:
                    if reply.jobs:
                        self._requeued_ids.update(reply.requeued)
                        self._pool.extend(reply.jobs)
                        return self._pool.pop(0)
                    if reply.outstanding == 0:
                        self._done = True
                        return None
            if not wait:
                return None
            time.sleep(self.POLL_S)

    def reserve_next(self) -> Job | None:
        """Non-blocking reserve of the job after the current one."""
        return self.get_job(wait=False)

    def complete(self, job: Job) -> bool:
        """Report one job done; True if it recovered a requeued job."""
        self.head_inbox.send(_CompleteJobs(self.cluster.name, (job,)))
        with self._lock:
            return job.job_id in self._requeued_ids

    def requeue(self, jobs: list[Job]) -> None:
        """Hand a dead worker's in-flight jobs back to the head."""
        if jobs:
            self.head_inbox.send(ReassignJobs(self.cluster.name, tuple(jobs)))

    def worker_died(self) -> list[Job]:
        """Mark one worker dead; the last death surrenders the pool."""
        with self._alive_lock:
            self._alive -= 1
            if self._alive > 0:
                return []
        with self._lock:
            drained = list(self._pool)
            self._pool.clear()
        return drained

    # -- the master's own thread: slaves, barrier, combination, upload ------

    def run(self) -> None:
        try:
            fetchers = make_cluster_fetchers(
                self.stores, self.cluster, self.options, health=self.health
            )
            robjs: list[ReductionObject] = []
            workers = []
            for wid in range(self.cluster.n_workers):
                wstats = WorkerStats()
                self.cstats.workers.append(wstats)
                runtime = SlaveRuntime(
                    f"{self.cluster.name}-w{wid}",
                    cluster=self.cluster,
                    port=self,
                    spec=self.spec,
                    index=self.index,
                    group_units=self.group_units,
                    fetchers=fetchers,
                    wstats=wstats,
                    robjs_out=robjs,
                    options=self.options,
                    t_start=self.t_start,
                    errors=self.errors,
                    stop=self.stop,
                )
                th = threading.Thread(
                    target=runtime.run, name=runtime.name, daemon=True
                )
                workers.append(th)
                th.start()
            for th in workers:
                th.join()
            rollup_fetcher_stats(self.cstats, fetchers)
            if self.errors:
                raise self.errors[0]
            self.cstats.finished_at = max(
                (w.finished_at for w in self.cstats.workers), default=0.0
            )
            merged = (
                self.spec.global_reduction(robjs)
                if robjs
                else self.spec.create_reduction_object()
            )
            payload = serialize_robj(merged)
            self.cstats.robj_nbytes = len(payload)
            t0 = time.monotonic()
            self.head_inbox.send(RobjUpload(self.cluster.name, payload, len(payload)))
            self.cstats.robj_transfer_s = time.monotonic() - t0
        except BaseException as exc:
            self.error = exc


class ActorEngine(EngineBase):
    """Message-passing head/master/slave engine (same API as ThreadedEngine)."""

    def run(self, spec: GeneralizedReductionSpec, index: DataIndex) -> RunResult:
        EngineOptions.validate_index(index, self.stores)
        opts = self.options
        # Pushdown (metadata-first retrieval) runs before the job pool
        # exists, identically to the other engines.
        plan = plan_jobs(index, spec, opts.pushdown, stores=self.stores)
        scheduler = opts.scheduler_factory(plan.jobs)
        group_units = units_per_group(opts.group_nbytes, index.fmt.unit_nbytes)
        health = self.make_health()
        if health is not None and hasattr(scheduler, "attach_health"):
            scheduler.attach_health(health.open_locations)
        t_start = time.monotonic()
        stats = RunStats()
        plan.apply_to(stats)
        errors: list[BaseException] = []
        stop = threading.Event()

        head_inbox = Channel()
        master_channels = {
            c.name: Channel(latency_s=c.link_latency_s) for c in self.clusters
        }
        head = _HeadActor(scheduler, head_inbox, master_channels, spec, len(self.clusters))
        masters = []
        for cluster in self.clusters:
            cstats = ClusterStats(cluster.name, cluster.location)
            stats.clusters[cluster.name] = cstats
            masters.append(
                _MasterActor(
                    cluster, head_inbox, master_channels[cluster.name], spec,
                    index, self.stores, opts, group_units,
                    cstats, t_start, errors, stop,
                    health=health,
                )
            )

        head.start()
        with BLAS_BUDGET.threads(sum(c.n_workers for c in self.clusters)):
            for m in masters:
                m.start()
            for m in masters:
                m.join()
        failed = next((m for m in masters if m.error is not None), None)
        if failed is not None:
            # A master died without uploading; release the head actor
            # before surfacing the failure.
            head_inbox.send(Shutdown())
            head.join(timeout=5.0)
            assert failed.error is not None
            raise failed.error
        head.join(timeout=60.0)
        t_end = time.monotonic()

        if head.error is not None:
            raise head.error
        if head.is_alive() or head.final is None:
            raise RuntimeError("head actor did not produce a final reduction object")
        stats.n_requeued_jobs = scheduler.n_reassigned
        if not scheduler.all_done:
            failed_n = stats.n_failed_workers
            raise RuntimeError(
                f"run ended with {scheduler.remaining} unassigned / "
                f"{scheduler.outstanding} outstanding jobs"
                + (f" ({failed_n} workers failed, none left to recover)"
                   if failed_n else "")
            )

        stats.total_s = t_end - t_start
        stats.global_reduction_s = head.global_reduction_s
        if health is not None:
            stats.breakers = health.snapshot()
        for cstats in stats.clusters.values():
            cstats.finished_at = max(
                (w.finished_at for w in cstats.workers), default=0.0
            )
        finalize_timing(stats)
        return finalize_result(spec, head.final, stats)
