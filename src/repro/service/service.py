"""BurstingService: a long-lived multi-tenant head over one slave fleet.

The paper's head node orchestrates exactly one generalized-reduction
run; this module turns it into a *service*.  One
:class:`BurstingService` owns the durable state -- the slave fleet, the
store map, the shared chunk cache, the store-health registry, and a job
registry -- while each submission gets its own head scheduler,
reduction objects, and :class:`~repro.runtime.stats.RunStats`.
Assignments carry a ``run_id`` tag, and a slave folds into whichever
run's reduction object its next assignment belongs to, so concurrent
jobs interleave chunk-by-chunk over the same workers (Sector/Sphere's
persistent storage+compute nodes serving many user jobs).

Ownership split:

* **service-lifetime state** -- clusters, stores, options, chunk cache,
  health registry, the fleet (:class:`ServiceSlave` threads pulling
  through a per-cluster :class:`~repro.runtime.core.ClusterMaster`, the
  service being its head), one fetcher per cluster (over every store)
  and their fetch threads, built with the fleet, the finalizer thread,
  the registry of queued and running runs, and a ring of the last
  :data:`RECENT_RUNS` finished runs' summary rows;
* **per-run state** (one :class:`_RunEntry` per submission, dropped when
  its handle resolves) -- the tagged job pool and its
  :class:`HeadScheduler`, each fleet worker's fold context, an error
  list, and the run's ``RunStats`` (its handle's).  A
  finished run is finalized by the *shared*
  :func:`~repro.runtime.core.finalize_run` epilogue, so per-run stats
  have full parity with the process engine's.

Scheduling is two-level: the tenant-aware
:class:`~repro.service.scheduler.MultiJobScheduler` picks *which run*
serves a cluster's batch request (weighted fair-share with per-tenant
``max_inflight`` admission control, FIFO within a tenant), then that
run's own :class:`HeadScheduler` picks *which chunks* (locality,
stealing, pushdown priority -- the paper's policy, unchanged).

The threaded engine is this service with one run: it submits one job
and shuts the service down.  A :class:`~repro.bursting.BurstingSession`
holds one service for all its passes.  The process engine executes each run
whole (its transport pins worker state to one spec per process), so for
``engine="process"`` the service runs one engine per admitted run on a
background thread (the engine itself runs one at a time, since forking
from concurrent threads is not fork-safe) -- same submit/status/result
API, FIFO-in-admission-order execution, chunk-level interleaving only
on the threaded fleet.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.core.api import GeneralizedReductionSpec, supports_batch_fold
from repro.core.reduction_object import ReductionObject
from repro.data.index import DataIndex
from repro.data.units import units_per_group
from repro.runtime import ENGINES
from repro.runtime.blas_budget import BLAS_BUDGET
from repro.runtime.core import (
    ClusterConfig,
    ClusterMaster,
    EngineBase,
    EngineOptions,
    RunResult,
    account_fetch_info,
    decode_and_fold,
    fetch_pools,
    finalize_run,
    make_cluster_fetcher,
    snapshot_get_rates,
    window_has_room,
    window_limit,
)
from repro.runtime.jobs import Job
from repro.runtime.process_engine import ProcessEngine
from repro.runtime.pushdown import plan_jobs
from repro.runtime.scheduler import HeadScheduler
from repro.runtime.stats import ClusterStats, RunStats, WorkerStats
from repro.service.registry import JobCancelledError, JobHandle, JobState
from repro.service.scheduler import MultiJobScheduler, TenantConfig
from repro.storage.base import StorageBackend
from repro.storage.codecs import Buffer
from repro.storage.faults import WorkerCrash
from repro.storage.retry import RetryExhausted
from repro.storage.transfer import FetchInfo, FetchPools, ParallelFetcher, PrefetchHandle

__all__ = ["BurstingService", "ServiceSlave"]

#: ``service_rows`` column -> the ``RunStats`` attribute it prints.
_SERVICE_STATS = {
    "total_s": "total_s",
    "stolen": "jobs_stolen",
    "workers_failed": "n_failed_workers",
    "recovered": "jobs_recovered",
    "requeued": "n_requeued_jobs",
    "retries": "n_retries",
}

#: How many finished runs ``status()`` and ``service_rows()`` still list.
RECENT_RUNS = 64

#: What a run's handle resolves to: its state, result and error.
_Outcome = tuple[JobState, RunResult | None, BaseException | None]


def _settle(close_out: Callable[[_RunEntry], _Outcome], entry: _RunEntry) -> _Outcome:
    """What ``close_out(entry)`` resolves the run's handle to, or FAILED with
    the error it raised, caught in this frame (see ``_forget_locked``)."""
    try:
        return close_out(entry)
    except BaseException as err:
        return JobState.FAILED, None, err


def _row(handle: JobHandle) -> dict[str, Any]:
    """One run's ``service_rows`` line; ``status()`` prints its first five."""
    progress = handle.progress()
    return {
        "job": handle.run_id,
        "tenant": handle.tenant,
        "state": handle.status().value,
        "chunks": progress["jobs_total"],
        "chunks_done": progress["jobs_done"],
        **{col: getattr(handle.stats, attr) for col, attr in _SERVICE_STATS.items()},
    }


@dataclass
class _WorkerCtx:
    """One worker's per-run fold context."""

    wstats: WorkerStats
    robj: ReductionObject


@dataclass
class _RunEntry:
    """Everything one queued or running run owns (registry record)."""

    run_id: str
    seq: int
    tenant: str
    spec: GeneralizedReductionSpec
    index: DataIndex
    handle: JobHandle
    scheduler: HeadScheduler
    stats: RunStats  # the handle's
    group_units: int
    batch_fold: bool
    robjs: dict[str, list[ReductionObject]] = field(default_factory=dict)
    #: Each fleet worker's fold context, by worker name: it dies with the run.
    ctxs: dict[str, _WorkerCtx] = field(default_factory=dict)
    errors: list[BaseException] = field(default_factory=list)
    t0: float = 0.0
    #: True while the fleet should keep executing this run's chunks.
    live: bool = False
    finalize_enqueued: bool = False


class ServiceSlave:
    """One fleet worker: the only in-process worker loop.

    Pulls jobs through its cluster's
    :class:`~repro.runtime.core.ClusterMaster`, fetches
    chunk bytes through its cluster's ``fetcher`` (on the service's one
    :class:`~repro.storage.transfer.FetchPools`, whose threads live as
    long as the fleet), decodes and folds them, and accounts every
    second and byte in :class:`WorkerStats` (every fetch's ledger, a
    failed one's too).  Each job's ``run_id`` selects the fold context:
    the run's spec and index, this worker's ``WorkerStats`` in that run
    (registered with the run at submission) and its reduction object
    there (created on the worker's first job of the run and registered
    with the run at once), so concurrent runs interleave chunk by chunk
    over the same workers.

    Whether the worker reads ahead, and how deep, is
    :func:`~repro.runtime.core.window_limit`'s answer for the job just
    taken (the DES asks the same function); it reserves jobs
    (non-blocking) while the window has room
    (:func:`~repro.runtime.core.window_has_room`), folds the current
    chunk, then waits for the *oldest* reserved one -- so chunks fold in
    the order they were reserved, and a retrieval-bound worker keeps
    that many streams open instead of idling on one.  A job reserved
    behind an open window rides it; with the window closed, a job is
    fetched on the worker's own thread.  A window entry whose run was
    cancelled or failed after it was reserved is dropped unfolded.

    Fault semantics: the crash-injection plan raises :class:`WorkerCrash`
    at the configured job count, and both injected crashes and
    retry-exhausted fetches are *contained* -- the worker's in-flight
    jobs (the current one and the whole window) go back to their runs'
    heads, its partially folded reduction objects stay with their runs
    (each holds exactly the jobs it completed, so folding it plus
    re-executing the requeued jobs yields each job exactly once), and
    the worker exits.  Any other error fails the run of the job being
    fetched or folded; the worker lives on and serves everyone else.
    A dropped window entry books its fetch's ledger if the fetch ran.
    """

    def __init__(
        self,
        service: "BurstingService",
        cluster: ClusterConfig,
        wid: int,
        master: ClusterMaster,
        fetcher: ParallelFetcher,
    ) -> None:
        self.name = f"{cluster.name}-w{wid}"
        self.service = service
        self.cluster = cluster
        self.wid = wid
        self.master = master
        self.crash_after = service.options.crash_plan.get(self.name)
        self.fetcher = fetcher
        self._jobs_done = 0
        #: Reserved jobs whose fetch is in flight, oldest first.
        self._window: deque[tuple[Job, PrefetchHandle]] = deque()

    def _ctx(self, job: Job) -> _WorkerCtx:
        """This worker's fold context in ``job``'s run (which is live:
        ``job`` is outstanding at its head), opened on its first job
        there.  The reduction object is registered with the run at once,
        so a later worker crash preserves the partial folds."""
        entry = self.service._runs[job.run_id]
        ctx = entry.ctxs.get(self.name)
        if ctx is None:
            name = self.cluster.name
            with self.service._cond:
                robj = entry.spec.create_reduction_object()
                entry.robjs[name].append(robj)
                ctx = entry.ctxs[self.name] = _WorkerCtx(
                    entry.stats.clusters[name].workers[self.wid], robj
                )
        return ctx

    # -- steps ---------------------------------------------------------------

    def _maybe_crash(self) -> None:
        if self.crash_after is not None and self._jobs_done >= self.crash_after:
            raise WorkerCrash(
                f"injected crash in {self.name} after {self._jobs_done} jobs"
            )

    def _fetch_now(self, job: Job) -> Buffer:
        """Synchronous fetch of one job's bytes, fully accounted as stall."""
        w = self._ctx(job).wstats
        info = FetchInfo()
        t0 = time.monotonic()
        try:
            raw = self.fetcher.fetch_chunk(job.chunk, info)
        finally:
            account_fetch_info(w, info)
        w.retrieval_s += time.monotonic() - t0 - info.decode_s
        return raw

    def _await_prefetch(self, job: Job, pending: PrefetchHandle) -> Buffer:
        """Collect an in-flight prefetch, splitting stall from overlap."""
        w = self._ctx(job).wstats
        ready = pending.done()
        t_need = time.monotonic()
        raw = pending.result()  # if it raises, its dropped window entry books it
        stall = time.monotonic() - t_need
        w.retrieval_s += stall
        w.overlap_s += max(0.0, pending.fetch_s - stall)
        if ready:
            w.prefetch_hits += 1
        else:
            w.prefetch_misses += 1
        account_fetch_info(w, pending.info)
        return raw

    def _process(self, job: Job, raw: Buffer) -> None:
        """Decode, reduce, and complete one job."""
        entry = self.service._runs[job.run_id]
        ctx = self._ctx(job)
        w = ctx.wstats
        if self.service.options.verify_chunks:
            from repro.data.integrity import verify_chunk_bytes

            verify_chunk_bytes(job.chunk, raw)
        decode_s, fold_s, nbytes, n_folds = decode_and_fold(
            entry.spec, entry.index.fmt, ctx.robj, raw,
            group_units=entry.group_units, batch_fold=entry.batch_fold,
        )
        elapsed = decode_s + fold_s
        w.processing_s += elapsed
        w.fold_s += fold_s
        w.bytes_folded += nbytes
        w.n_fold_calls += n_folds
        w.jobs_processed += 1
        if job.location != self.cluster.location:
            w.jobs_stolen += 1
        self._jobs_done += 1
        # Stamp the finish time before the head can observe the
        # completion (the finalizer may run the instant it lands).
        w.finished_at = time.monotonic() - entry.t0
        if self.master.complete(job):
            # This execution replaced one lost to a failed worker; its
            # compute time is the recovery overhead (the re-fetch is in
            # retrieval_s like any other fetch).
            w.jobs_recovered += 1
            w.recovery_s += elapsed

    def _depth(self, job: Job, riding: bool = False) -> int:
        """How deep a window ``job`` may ride in (:func:`window_limit`),
        0 when it opens none; a job ``riding`` one finds it open."""
        opts = self.service.options
        return window_limit(
            job.chunk, opts.prefetch or riding, opts.hedge,
            self.cluster.n_workers, self.service._alive_workers,
        )

    def _read_ahead(self, cur: Job) -> None:
        """Reserve jobs and start their fetches while the window behind
        ``cur`` has room (:func:`~repro.runtime.core.window_has_room`)."""
        limit = self._depth(cur)
        if not limit:
            return
        # On the first fill ``cur`` is also the window's oldest entry and
        # counts twice, so the window holds as many fetches with it as
        # it will once ``cur`` is folding.
        held = cur.chunk.nbytes
        for job, _ in self._window:
            held += job.chunk.nbytes
            limit = min(limit, self._depth(job, True))
        while len(self._window) < limit and window_has_room(len(self._window), held):
            job = self.master.reserve_next()
            if job is None:
                return
            self._start_fetch(job)
            held += job.chunk.nbytes
            limit = min(limit, self._depth(job, True))

    def _start_fetch(self, job: Job) -> None:
        self._ctx(job)  # where the entry books, should it be dropped
        self._window.append((job, self.fetcher.fetch_chunk_async(job.chunk)))

    def _drop(self, job: Job, handle: PrefetchHandle) -> None:
        """Cancel a window entry's fetch; one that ran books its ledger
        in ``job``'s run, if that is still registered."""
        if handle.cancel():
            entry = self.service._runs.get(job.run_id)
            ctx = None if entry is None else entry.ctxs.get(self.name)
            if ctx is not None:
                account_fetch_info(ctx.wstats, handle.info)

    def _abandon_window(self) -> list[Job]:
        """Empty the window: every fetch cancelled or absorbed, its jobs
        returned (they are still outstanding at their heads)."""
        jobs = []
        while self._window:
            job, handle = self._window.popleft()
            self._drop(job, handle)
            jobs.append(job)
        return jobs

    def _contain_failure(self, cur_job: Job | None) -> None:
        """Absorb this worker's death without aborting any run.

        The worker's in-flight jobs (the current one and every reserved
        one) return to their heads for reassignment; if it was its
        cluster's last worker, the master's pooled jobs go back too.
        The partially folded reduction objects stay with their runs.
        """
        inflight = self._abandon_window()
        # While its fetch is awaited the current job is still the
        # window's oldest entry: requeue it once.
        if cur_job is not None and all(j is not cur_job for j in inflight):
            inflight.insert(0, cur_job)
        # The death shows in the run(s) whose assignments it was
        # holding; its clock closes in every run it served.
        for j in inflight:
            self._ctx(j).wstats.failed = True
        now = time.monotonic()
        with self.service._cond:
            for entry in self.service._runs.values():
                ctx = entry.ctxs.get(self.name)
                if ctx is not None:
                    ctx.wstats.finished_at = now - entry.t0
        pooled = self.master.worker_died()
        self.service._worker_lost()
        self.master.requeue(inflight + pooled)

    # -- the loop ------------------------------------------------------------

    def run(self) -> None:
        """Serve jobs until shutdown or a contained crash."""
        while self._serve():
            pass
        self._abandon_window()

    def _serve(self) -> bool:
        """The loop proper; True when it failed a run and must resume."""
        window = self._window
        # The job being awaited or folded.  It and every job in the
        # window are outstanding at their heads until completed, so all
        # of them must be requeued if this worker dies.
        cur_job: Job | None = None
        try:
            while not self.service.halted:
                if not window:
                    # Nothing reserved: block at the head, which also
                    # picks up jobs requeued by a late failure.
                    cur_job = self.master.get_job()
                    if cur_job is None:
                        break
                    if self._depth(cur_job):
                        self._start_fetch(cur_job)
                        self._read_ahead(cur_job)
                if window:
                    cur_job, handle = window[0]
                    if not self.service._job_live(cur_job):
                        # Its run was cancelled or failed after the
                        # reserve: consume the assignment unfolded, once
                        # its fetch has ended.
                        window.popleft()
                        self._drop(cur_job, handle)
                        self.service._discard_job(cur_job)
                        cur_job = None
                        continue
                    raw = self._await_prefetch(cur_job, handle)
                    window.popleft()
                else:
                    raw = self._fetch_now(cur_job)
                self._read_ahead(cur_job)
                self._maybe_crash()
                self._process(cur_job, raw)
                cur_job = None
        except (WorkerCrash, RetryExhausted):
            # Recoverable: this worker is lost, its runs are not.
            self._contain_failure(cur_job)
        except BaseException as exc:
            # The error belongs to the job being fetched or folded: fail
            # its run, and let the liveness check drop that run's
            # reserved jobs.  Other runs' entries stay in the window.
            if window and window[0][0] is cur_job:
                self._drop(*window.popleft())  # it was the fetch that raised
            self.service._fail_worker_jobs(exc, [] if cur_job is None else [cur_job])
            return True
        return False


class BurstingService(EngineBase):
    """Long-lived multi-tenant head serving concurrent jobs.

    Construction mirrors the engines (clusters + stores + options or
    option keywords), plus ``tenants`` (name ->
    :class:`~repro.service.scheduler.TenantConfig`) and an optional
    global ``max_concurrent_runs`` admission cap.  ``engine`` selects
    the execution backend: ``"threaded"`` (default) interleaves all
    admitted runs chunk-by-chunk over one persistent slave fleet;
    ``"process"`` executes each admitted run whole on its own engine
    (admission-level sharing).

    Thread-safe: ``submit``/``status``/``cancel``/``shutdown`` may be
    called from any thread; :class:`JobHandle` results are awaitable
    from asyncio via :meth:`JobHandle.aresult`.  Unknown tenants are
    auto-registered with the default weight 1.0.
    """

    def __init__(
        self,
        clusters: list[ClusterConfig],
        stores: dict[str, StorageBackend],
        *,
        engine: str = "threaded",
        tenants: dict[str, TenantConfig] | None = None,
        max_concurrent_runs: int | None = None,
        options: EngineOptions | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(clusters, stores, options=options, **kwargs)
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {sorted(ENGINES)}"
            )
        if max_concurrent_runs is not None and max_concurrent_runs < 1:
            raise ValueError("max_concurrent_runs must be >= 1 or None")
        self.engine_name = engine
        self._tenants: dict[str, TenantConfig] = dict(tenants or {})
        self._max_concurrent = max_concurrent_runs
        self._cond = threading.Condition(threading.RLock())
        self._multi = MultiJobScheduler(
            {name: cfg.weight for name, cfg in self._tenants.items()}
        )
        #: Queued and running runs, in submission order.
        self._runs: dict[str, _RunEntry] = {}
        self._finished: deque[tuple[int, dict[str, Any]]] = deque(maxlen=RECENT_RUNS)
        self._pending: deque[_RunEntry] = deque()
        self._tenant_running: dict[str, int] = {}
        self._running = 0
        self._seq = 0
        self._closed = False
        self.halted = False  # shut down: masters hand out only pooled jobs
        self._t0 = time.monotonic()
        self._health = self.make_health()
        # Fleet state (threaded backend).
        self._fleet_started = False
        self._blas_held = False  # fleet start .. first shutdown()
        self._pools: FetchPools | None = None  # lent to the fleet's fetchers
        self._fetchers: dict[str, ParallelFetcher] = {}
        self._threads: list[threading.Thread] = []
        self._slaves: list[ServiceSlave] = []
        self._masters: dict[str, ClusterMaster] = {}
        self._alive_workers = sum(c.n_workers for c in self.clusters)
        self._finalize_q: queue.Queue[_RunEntry | None] = queue.Queue()
        self._finalizer: threading.Thread | None = None
        # Run-per-job state (process backend): the live run threads.
        self._run_threads: list[threading.Thread] = []

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        spec: GeneralizedReductionSpec,
        index: DataIndex,
        *,
        tenant: str = "default",
    ) -> JobHandle:
        """Register one run and return its :class:`JobHandle`.

        Non-blocking: planning (index validation, pushdown pruning, job
        tagging) happens in the caller's thread, then the run is queued
        and admitted as soon as its tenant has capacity.
        """
        EngineOptions.validate_index(index, self.stores)
        plan = plan_jobs(index, spec, self.options.pushdown, stores=self.stores)
        group_units = units_per_group(
            self.options.group_nbytes, index.fmt.unit_nbytes
        )
        batch_fold = self.options.batch_fold and supports_batch_fold(spec)
        with self._cond:
            if self._closed:
                raise RuntimeError("service is shut down")
            if tenant not in self._tenants:
                self._tenants[tenant] = TenantConfig()
                self._multi.set_weight(tenant, 1.0)
            seq = self._seq
            self._seq += 1
            run_id = f"job-{seq:04d}"
            jobs = [replace(j, run_id=run_id) for j in plan.jobs]
            scheduler = self.options.scheduler_factory(jobs)
            if self._health is not None and hasattr(scheduler, "attach_health"):
                scheduler.attach_health(self._health.open_locations)
            stats = RunStats()
            plan.apply_to(stats)
            for cluster in self.clusters:
                # One per fleet worker, also for workers that never fold
                # a chunk of this run: every entry point reports the
                # same worker set.
                stats.clusters[cluster.name] = ClusterStats(
                    cluster.name, cluster.location,
                    [WorkerStats() for _ in range(cluster.n_workers)],
                )
            handle = JobHandle(run_id, tenant, seq, self, stats, len(jobs))
            entry = _RunEntry(
                run_id=run_id,
                seq=seq,
                tenant=tenant,
                spec=spec,
                index=index,
                handle=handle,
                scheduler=scheduler,
                stats=stats,
                group_units=group_units,
                batch_fold=batch_fold,
                robjs={c.name: [] for c in self.clusters},
            )
            self._runs[run_id] = entry
            self._pending.append(entry)
            self._admit_locked()
            self._cond.notify_all()
        return handle

    # -- admission -----------------------------------------------------------

    def _can_admit_locked(self, entry: _RunEntry) -> bool:
        cfg = self._tenants[entry.tenant]
        if (
            cfg.max_inflight is not None
            and self._tenant_running.get(entry.tenant, 0) >= cfg.max_inflight
        ):
            return False
        if self._max_concurrent is not None and self._running >= self._max_concurrent:
            return False
        return True

    def _admit_locked(self) -> None:
        """Admit every queued run whose tenant has capacity (FIFO within
        a tenant; a capped tenant never blocks another's submissions)."""
        remaining: deque[_RunEntry] = deque()
        for entry in self._pending:
            if self._can_admit_locked(entry):
                self._start_run_locked(entry)
            else:
                remaining.append(entry)
        self._pending = remaining

    def _start_run_locked(self, entry: _RunEntry) -> None:
        self._running += 1
        self._tenant_running[entry.tenant] = (
            self._tenant_running.get(entry.tenant, 0) + 1
        )
        entry.t0 = time.monotonic()
        entry.live = True
        entry.handle._set_running()
        if self.engine_name == "threaded":
            self._ensure_fleet_locked()
            self._multi.add_run(entry)
            self._reopen_locked()
            if entry.scheduler.all_done:  # zero-chunk submission
                self._maybe_finalize_locked(entry)
        else:
            th = threading.Thread(
                target=self._run_via_engine,
                args=(entry,),
                name=f"svc-run-{entry.run_id}",
                daemon=True,
            )
            self._run_threads.append(th)
            th.start()

    def _ensure_fleet_locked(self) -> None:
        if self._fleet_started:
            return
        self._fleet_started = True
        self._pools = fetch_pools(self.clusters)
        self._pools.hold()
        for cluster in self.clusters:
            fetcher = self._fetchers[cluster.name] = make_cluster_fetcher(
                self.stores, cluster, self.options,
                health=self._health, pools=self._pools,
            )
            master = ClusterMaster(self, cluster, self.options.batch_size)
            self._masters[cluster.name] = master
            for wid in range(cluster.n_workers):
                slave = ServiceSlave(self, cluster, wid, master, fetcher)
                self._slaves.append(slave)
                self._threads.append(
                    threading.Thread(
                        target=slave.run, name=f"svc-{slave.name}", daemon=True
                    )
                )
        # The fleet's folders share the cores for the service's whole
        # life; shutdown() gives the BLAS threads back.
        BLAS_BUDGET.acquire(self._alive_workers)
        self._blas_held = True
        for th in self._threads:
            th.start()
        self._finalizer = threading.Thread(
            target=self._finalize_loop, name="svc-finalizer", daemon=True
        )
        self._finalizer.start()

    # -- run-per-job backend (process) ---------------------------------------

    def _run_via_engine(self, entry: _RunEntry) -> None:
        outcome = _settle(self._engine_run, entry)
        with self._cond:
            self._run_threads.remove(threading.current_thread())
            self._end_run_locked(entry, outcome)

    def _engine_run(self, entry: _RunEntry) -> _Outcome:
        rr = ProcessEngine(self.clusters, self.stores, options=self.options).run(
            entry.spec, entry.index
        )
        t = time.monotonic() - self._t0
        entry.handle._chunk_done_t.extend([t] * entry.handle._n_total)
        return JobState.DONE, rr, None

    # -- fleet callbacks (the head its masters ask; slaves) -------------------

    def _holds_nothing(self) -> bool:
        return False  # a drained cluster waits for more runs until shutdown

    def _request_jobs(self, location: str, max_jobs: int) -> list[Job]:
        jobs = self._multi.request_jobs(location, max_jobs)
        if jobs:  # the deficits moved: another run may now serve a drained cluster
            self._reopen_locked()
        return jobs

    def _reopen_locked(self) -> None:
        """Work may be at the head for a cluster that drained: a
        requeue, a run admitted or one ended.  Every pool asks again."""
        for master in self._masters.values():
            master.pool.reopen()

    def _job_live(self, job: Job) -> bool:
        entry = self._runs.get(job.run_id)
        return entry is not None and entry.live

    def _discard_job(self, job: Job) -> None:
        """Account a stale pooled assignment of a dead run as consumed."""
        with self._cond:
            entry = self._runs.get(job.run_id)
            if entry is None:
                return
            entry.scheduler.complete(job)
            self._maybe_finalize_locked(entry)

    def _complete(self, job: Job) -> bool:
        with self._cond:
            entry = self._runs[job.run_id]
            recovered = entry.scheduler.complete(job)
            entry.handle._chunk_done_t.append(time.monotonic() - self._t0)
            self._maybe_finalize_locked(entry)
        return recovered

    def _requeue(self, jobs: list[Job]) -> None:
        with self._cond:
            for job in jobs:
                entry = self._runs.get(job.run_id)
                if entry is None:
                    continue
                if entry.live:
                    entry.scheduler.reassign(job)
                else:
                    # Dead run: consume instead of requeueing work
                    # nobody should execute.
                    entry.scheduler.complete(job)
                    self._maybe_finalize_locked(entry)
            self._reopen_locked()
            self._cond.notify_all()

    def _fail_worker_jobs(self, exc: BaseException, jobs: list[Job]) -> None:
        """Fail the run(s) owning ``jobs`` after a non-recoverable error."""
        with self._cond:
            failed: dict[str, _RunEntry] = {}
            for job in jobs:
                entry = self._runs.get(job.run_id)
                if entry is None:
                    continue
                entry.scheduler.complete(job)  # consumed by the failure
                failed[entry.run_id] = entry
            if not jobs:
                # Fatal outside any assignment (a service bug): fail
                # every active fleet run rather than hang them.
                failed = {
                    e.run_id: e
                    for e in self._runs.values()
                    if e.live and not e.finalize_enqueued
                }
            for entry in failed.values():
                entry.errors.append(exc)
                entry.live = False
                entry.scheduler.drain_unassigned()
                self._maybe_finalize_locked(entry)
            self._cond.notify_all()

    def _worker_lost(self) -> None:
        with self._cond:
            self._alive_workers -= 1
            if self._alive_workers <= 0:
                # No survivors anywhere: force-resolve everything rather
                # than leave handles hanging.
                for entry in list(self._runs.values()):
                    if not entry.finalize_enqueued:
                        self._maybe_finalize_locked(entry)
                for entry in self._pending:
                    self._forget_locked(entry, (JobState.FAILED, None, RuntimeError(
                        f"every fleet worker failed; queued run {entry.run_id} cannot start"
                    )))
                self._pending.clear()
            self._cond.notify_all()

    # -- finalization --------------------------------------------------------

    def _maybe_finalize_locked(self, entry: _RunEntry) -> None:
        if entry.finalize_enqueued:
            return
        if entry.handle.status() is JobState.QUEUED:
            return
        force = self._fleet_started and self._alive_workers <= 0
        if entry.scheduler.all_done or force:
            # A worker that folded nothing of this run ran out of its work
            # now, not at the run's start (that would book the whole run
            # as its sync time).
            drained_at = time.monotonic() - entry.t0
            for cstats in entry.stats.clusters.values():
                for w in cstats.workers:
                    w.finished_at = w.finished_at or drained_at
            entry.finalize_enqueued = True
            entry.live = False
            self._finalize_q.put(entry)

    def _finalize_loop(self) -> None:
        # One call per run, so no local here keeps the last run's entry
        # alive while the loop waits for the next.
        while self._finalize_one(self._finalize_q.get()):
            pass

    def _finalize_one(self, entry: _RunEntry | None) -> bool:
        """Close out one run; False at the shutdown sentinel."""
        if entry is None:
            return False
        outcome = _settle(self._finalize_entry, entry)  # never kill the finalizer
        with self._cond:
            self._end_run_locked(entry, outcome)
        return True

    def _end_run_locked(self, entry: _RunEntry, outcome: _Outcome) -> None:
        """An admitted run is over: free its slot, forget it, resolve it."""
        self._running -= 1
        self._tenant_running[entry.tenant] -= 1
        self._multi.remove_run(entry.run_id)
        self._forget_locked(entry, outcome)
        self._admit_locked()
        self._reopen_locked()  # another run may answer a drained cluster now
        self._cond.notify_all()

    def _forget_locked(self, entry: _RunEntry, outcome: _Outcome) -> None:
        """Drop ``entry`` from the registry, then resolve its handle (all
        that is left of the run); its summary row joins the ring.

        A frame one of a failed run's errors passed through may hold it, or
        this run: their locals go, or the error -- with the frames a caller
        adds by re-raising it, and the session behind them -- is cyclic
        garbage.  Frames still executing keep theirs, so errors are caught
        in frames that have returned by now (:func:`_settle`, the worker's
        fetch and fold steps).
        """
        del self._runs[entry.run_id]
        for err in (*entry.errors, outcome[2]):  # every worker's, not just the first
            if err is not None:
                traceback.clear_frames(err.__traceback__)
        entry.handle._resolve(*outcome)
        self._finished.append((entry.seq, _row(entry.handle)))

    def _finalize_entry(self, entry: _RunEntry) -> _Outcome:
        """Close out one run; returns what its handle resolves to."""
        state = entry.handle.status()
        aborted = (
            state is JobState.CANCELLED
            or entry.errors
            or not entry.scheduler.all_done
        )
        if aborted:
            # Salvage path: resolve with the right error.  The partial
            # reduction state is discarded.
            snapshot_get_rates(entry.stats, self.stores)
            entry.stats.n_requeued_jobs = entry.scheduler.n_reassigned
            if self._health is not None:
                entry.stats.breakers = self._health.snapshot()
            entry.stats.total_s = time.monotonic() - entry.t0
            if state is JobState.CANCELLED:
                return state, None, JobCancelledError(f"{entry.run_id} was cancelled")
            if entry.errors:
                return JobState.FAILED, None, entry.errors[0]
            return JobState.FAILED, None, RuntimeError(
                f"{entry.run_id} ended with "
                f"{entry.scheduler.remaining} unassigned / "
                f"{entry.scheduler.outstanding} outstanding chunks "
                "and no workers left to recover"
            )
        rr = finalize_run(
            spec=entry.spec,
            clusters=self.clusters,
            stats=entry.stats,
            scheduler=entry.scheduler,
            stores=self.stores,
            cluster_robjs=entry.robjs,
            errors=entry.errors,
            t_start=entry.t0,
            health=self._health,
        )
        return JobState.DONE, rr, None

    # -- cancellation / shutdown ---------------------------------------------

    def _cancel(self, run_id: str) -> bool:
        with self._cond:
            entry = self._runs.get(run_id)
            if entry is None:
                return False
            return self._cancel_locked(entry)

    def _cancel_locked(self, entry: _RunEntry) -> bool:
        state = entry.handle.status()
        if state.terminal or entry.handle.done():
            return False
        if state is JobState.QUEUED:
            self._pending.remove(entry)
            self._forget_locked(entry, (JobState.CANCELLED, None, JobCancelledError(
                f"{entry.run_id} cancelled before start"
            )))
            return True
        if self.engine_name != "threaded":
            # The run-per-job backend cannot interrupt a running engine.
            return False
        entry.handle._mark_cancelled()
        entry.live = False
        entry.scheduler.drain_unassigned()
        self._maybe_finalize_locked(entry)
        self._cond.notify_all()
        return True

    def shutdown(
        self, *, cancel_pending: bool = False, timeout: float | None = None
    ) -> None:
        """Drain and stop the service.

        Rejects new submissions immediately; waits for every registered
        run to resolve (with ``cancel_pending=True``, cancels queued and
        running fleet jobs instead of waiting for them); then stops and
        joins the fleet, the finalizer, and any run threads.  Idempotent.
        """
        # Not itself: a thread that let go of a failed pass's error last
        # frees the session its traceback held, which calls this.
        me = threading.current_thread()
        with self._cond:
            self._closed = True
            handles = [entry.handle for entry in self._runs.values()]
            if cancel_pending:
                for entry in list(self._runs.values()):
                    self._cancel_locked(entry)
            self._cond.notify_all()
        try:
            for handle in handles:
                handle.wait(timeout)
            with self._cond:
                self.halted = True
                self._cond.notify_all()
            for th in self._threads:
                if th is not me:
                    th.join(timeout)
            # Masters and slaves point back at the service: forget the
            # joined fleet so a dropped service is freed without a cycle.
            self._masters.clear()
            self._slaves.clear()
        finally:
            with self._cond:
                if self._blas_held:
                    self._blas_held = False
                    BLAS_BUDGET.release()
                pools, self._pools = self._pools, None
                fetchers, self._fetchers = self._fetchers, {}
            for fetcher in fetchers.values():
                fetcher.close()
            if pools is not None:
                pools.release()
        for th in list(self._run_threads):
            if th is not me:
                th.join(timeout)
        if self._finalizer is not None and self._finalizer.is_alive():
            self._finalize_q.put(None)
            if self._finalizer is not me:
                self._finalizer.join(timeout)

    close = shutdown

    def __enter__(self) -> "BurstingService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- introspection -------------------------------------------------------

    def _rows_locked(self) -> list[dict[str, Any]]:
        """Rows of the recent finished runs and the live ones, by submission."""
        rows = [(seq, dict(row)) for seq, row in self._finished]
        rows += [(e.seq, _row(e.handle)) for e in self._runs.values()]
        rows.sort(key=lambda r: r[0])
        return [row for _, row in rows]

    def status(self) -> list[dict[str, Any]]:
        """One row per queued or running run and per recent finished one
        (the last :data:`RECENT_RUNS`): id, tenant, state, progress."""
        with self._cond:
            return [
                {col: row[col] for col in ("job", "tenant", "state", "chunks", "chunks_done")}
                for row in self._rows_locked()
            ]

    def service_rows(self) -> list[dict[str, Any]]:
        """Per-run stats rollup plus an ALL summary row.

        ``RunStats`` is per-job under the service; these rows are the
        service-level view -- one line per run :meth:`status` lists (fault
        isolation visible per run) and their totals at the bottom.
        """
        with self._cond:
            rows = self._rows_locked()
        summed = ("chunks", "chunks_done", *_SERVICE_STATS)
        rows.append(
            {"job": "ALL", "tenant": "-", "state": "-"}
            | {col: sum(r[col] for r in rows) for col in summed}
        )
        for row in rows:  # round last, so ALL is the rounded sum (0.0 when empty)
            row["total_s"] = round(float(row["total_s"]), 4)
        return rows

    def tenant_report(self) -> dict[str, dict[str, Any]]:
        """Per-tenant served work and configured weight (fairness view)."""
        with self._cond:
            return {
                name: {
                    "weight": cfg.weight,
                    "max_inflight": cfg.max_inflight,
                    "served_chunks": self._multi.served(name),
                    "running": self._tenant_running.get(name, 0),
                }
                for name, cfg in self._tenants.items()
            }
