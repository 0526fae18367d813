"""Process-based execution engine: true multi-core local reduction.

:class:`~repro.runtime.engine.ThreadedEngine` reproduces the paper's
protocol faithfully but runs every slave under one Python GIL, so the
"heavy computation" applications (k-means, PageRank) serialize their
compute on one core.  The paper's slaves are multi-threaded *native*
processes; this engine restores that: each slave is a real
``multiprocessing`` worker process, and the local reduction of N workers
genuinely occupies N cores.

The policy layer is untouched -- the same :class:`HeadScheduler` behind
a one-run :class:`~repro.runtime.core.RunHead`, the same per-cluster
:class:`~repro.runtime.core.ClusterMaster` (one
:class:`~repro.runtime.jobs.ClusterPool` each: one refill in flight per
cluster, and a feeder of a drained pool waits on the head's condition
variable until a requeue or the final drain), the same :class:`RunStats`, the same fold step
(:func:`~repro.runtime.core.decode_and_fold`) and the same
:func:`~repro.runtime.core.finalize_run` epilogue -- only the data plane
changes:

* **chunk frames cross through shared memory.**  The parent (which
  owns the stores, the chunk cache, and the retry policy) sources each
  job's chunk with the fleet's one fetch path,
  ``ParallelFetcher.fetch_frame``, straight into a
  :class:`~repro.storage.shm.SharedSegment`: sub-range GETs and an
  unhedged replica race write into the segment, a stripe reassembles
  there, a cache entry or a hedged race's winner is copied in once.
  The worker decodes with a zero-copy ``np.frombuffer`` off the mapped
  pages.  Codec-encoded chunks -- striped and raced ones too -- ship as
  their *wire frames*: the segment holds the (smaller) encoded bytes
  and the worker inflates them through the fetch path's own
  ``decode_frame`` (the index's logical size, carried in the job
  message, checked), so decompression parallelizes across worker cores
  instead of serializing in the parent's feeders.  No per-chunk pickle
  of payloads ever crosses a pipe; the task message is a few dozen
  bytes.
* **a run reuses its segments.**  A segment whose chunk the worker has
  acknowledged goes back to the run's :class:`SharedSegmentPool` and
  carries a later chunk, and a worker maps each segment name once and
  keeps it mapped: a run creates about one segment per chunk in flight
  (``shm_segments`` counts them), not one per chunk, so neither side
  pays an ``shm_open`` + ``mmap`` and a page fault per page for every
  chunk.  A segment is leased again only when nobody can still read
  it: after its ``done``, when its worker crashed (a crashed worker
  skips the job messages still queued for it), or when the run is
  being abandoned and its result discarded.
* **one feeder thread per worker** pulls jobs from the master and, with
  ``prefetch``, fetches the next chunk into shared memory while the
  worker folds the one before: a fixed double buffer, not the threaded
  fleet worker's byte-bounded read-ahead window
  (:func:`~repro.runtime.core.window_has_room`).  The feeder shares the
  core's fetch-accounting helpers.
* **reduction objects return via pickle protocol-5 out-of-band
  buffers** (:func:`~repro.core.serialization.serialize_robj_oob`):
  the worker sends a tiny metadata pickle, the parent leases one
  segment for the payload buffers, the worker copies them in, and the
  parent reconstructs the object aliasing the segment -- numpy-backed
  objects cross the boundary with a single copy, dict-backed ones fall
  back to in-band bytes automatically.
* **global reduction is a tree-merge**
  (:func:`~repro.core.api.tree_global_reduction`) instead of a
  sequential left-fold, unless the spec overrides
  ``global_reduction`` (then its implementation is authoritative).  The
  shared epilogue only reads the workers' objects (they alias the
  segments above) and hands out an object of its own, so the segments
  can go the moment it returns.

Runs execute one at a time per process: a run forks its workers, and a
fork taken while another run's feeder threads hold locks would hand the
children those locks mid-acquire.  The one thread an earlier run may
leave behind is a detached leg -- a race loser or a timed-out GET
attempt (see :meth:`~repro.storage.transfer.FetchPools.detach`); it
takes only fetch-path locks -- its store's and the health registry's --
and a child touches none of them.  A run closes the fetchers it built.

Lifecycle: the parent creates *and* unlinks every shared-memory segment
through one :class:`SharedSegmentPool`; workers only attach and close.
``run()`` verifies nothing is still leased on success and closes the
pool -- leased and parked segments alike -- on every path, so no
``/dev/shm`` entry outlives a run -- including
runs where a worker was killed by the crash-injection plan
(``crash_plan``, same containment semantics as the threaded engine: the
partial reduction object is preserved, in-flight jobs are requeued).

Cross-process overheads are accounted first-class: ``ipc_s`` (segment
copies and queue round-trips), ``ser_s`` (reduction-object
(de)serialization), and ``shm_nbytes`` flow into
``RunStats.breakdown_rows()`` / ``ipc_rows()`` so the overlap of fetch,
IPC, and compute is visible next to processing and retrieval.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.core.api import (
    GeneralizedReductionSpec,
    supports_batch_fold,
    tree_global_reduction,
    uses_default_global_reduction,
)
from repro.core.reduction_object import ReductionObject
from repro.core.serialization import deserialize_robj_oob, serialize_robj_oob
from repro.data.index import DataIndex
from repro.data.units import units_per_group
from repro.runtime.core import (
    ClusterConfig,
    EngineBase,
    ClusterMaster,
    EngineOptions,
    RunHead,
    RunResult,
    account_fetch_info,
    account_overlap,
    decode_and_fold,
    finalize_run,
    make_cluster_fetcher,
)
from repro.runtime.jobs import Job
from repro.runtime.pushdown import plan_jobs
from repro.runtime.stats import RunStats, WorkerStats, ClusterStats
from repro.storage.faults import WorkerCrash
from repro.storage.retry import RetryExhausted
from repro.storage.shm import (
    SharedSegment,
    SharedSegmentPool,
    attach_segment,
    close_quietly,
)
from repro.storage.transfer import FetchInfo, ParallelFetcher

__all__ = ["ProcessEngine"]

#: Held for a whole run: see "Runs execute one at a time" above.
_FORK_LOCK = threading.Lock()

#: How worker processes start: ``fork`` where available (workers are
#: forked before any engine thread starts, so the fork is safe).
START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


# -- worker-process side ------------------------------------------------------


class _Mappings(dict):
    """A worker's open mappings, one per segment name it was ever sent.

    The parent recycles its segments within a run, so the same few names
    come back chunk after chunk: mapping each once saves an ``shm_open``
    + ``mmap`` + ``munmap`` per chunk and, more to the point, the page
    faults of reading through a brand-new mapping every time.
    """

    def __missing__(self, name: str):
        shm = self[name] = attach_segment(name)
        return shm

    def close(self) -> None:
        for shm in self.values():
            close_quietly(shm)
        self.clear()


def _ship_robj(
    task_q, result_q, robj, status: str, crashed_job_id, mappings: _Mappings
) -> None:
    """Send this worker's reduction object to the parent, zero-copy.

    Protocol: put the ``("robj", ...)`` header carrying the in-band
    metadata pickle and out-of-band buffer sizes; the parent replies
    ``("ship", segment_name | None)``; copy the buffers into the
    segment; acknowledge with ``("shipped", copy_s)``.  Any ``("job",
    ...)`` messages that raced a crash are skipped here -- the parent
    requeues those jobs, so processing them would break exactly-once
    (and it is what lets the parent reuse their segments at once).
    """
    t0 = time.monotonic()
    meta, buffers = serialize_robj_oob(robj)
    ser_s = time.monotonic() - t0
    result_q.put(
        ("robj", status, crashed_job_id, meta, [b.nbytes for b in buffers], ser_s)
    )
    while True:
        msg = task_q.get()
        if msg[0] == "ship":
            break
    seg_name = msg[1]
    t0 = time.monotonic()
    if seg_name is not None:
        shm = mappings[seg_name]
        offset = 0
        for buf in buffers:
            shm.buf[offset : offset + buf.nbytes] = buf
            offset += buf.nbytes
    result_q.put(("shipped", time.monotonic() - t0))


def _worker_main(
    name: str,
    spec: GeneralizedReductionSpec,
    fmt,
    group_units: int,
    batch_fold: bool,
    task_q,
    result_q,
    crash_after: int | None,
) -> None:
    """Slave process: decode shared-memory chunks, fold, ship the robj."""
    robj = spec.create_reduction_object()
    jobs_done = 0
    mappings = _Mappings()
    try:
        while True:
            msg = task_q.get()
            if msg[0] == "finish":
                _ship_robj(task_q, result_q, robj, "ok", None, mappings)
                return
            _, job_id, seg_name, nbytes, frame_of = msg
            if crash_after is not None and jobs_done >= crash_after:
                raise WorkerCrash(
                    f"injected crash in {name} after {jobs_done} jobs", job_id
                )
            # The codec frame is decoded here, off the mapped pages, so
            # decompression runs on this core instead of the parent's
            # feeder.  No view into the mapping outlives the call: the
            # parent overwrites the segment with a later chunk once this
            # one is acknowledged, and the mapping must close cleanly.
            decode_s, fold_s, bytes_folded, n_folds = decode_and_fold(
                spec, fmt, robj, memoryview(mappings[seg_name].buf)[:nbytes],
                group_units=group_units, batch_fold=batch_fold, frame_of=frame_of,
            )
            jobs_done += 1
            result_q.put(
                ("done", job_id, decode_s, fold_s, bytes_folded, n_folds)
            )
    except WorkerCrash as exc:
        crashed_job_id = exc.args[1] if len(exc.args) > 1 else None
        _ship_robj(task_q, result_q, robj, "crashed", crashed_job_id, mappings)
    except BaseException:
        result_q.put(("error", traceback.format_exc()))
    finally:
        mappings.close()


# -- parent side --------------------------------------------------------------


class _WorkerCrashed(Exception):
    """Raised in a feeder when its worker reports an injected crash."""

    def __init__(self, msg: tuple) -> None:
        super().__init__("worker reported crash")
        self.msg = msg


@dataclass
class _WorkerHandle:
    """Parent-side endpoints of one worker process."""

    name: str
    proc: Any
    task_q: Any
    result_q: Any
    wstats: WorkerStats
    inflight: deque = field(default_factory=deque)  # (Job, SharedSegment)


class ProcessEngine(EngineBase):
    """Multi-cluster engine with one real process per slave.

    Accepts the same :class:`~repro.runtime.core.EngineOptions` surface
    as every engine (scheduling, caching, retries, crash injection);
    ``prefetch`` controls whether each worker process holds a second
    chunk in shared memory while it folds the first (double buffering)
    or runs strictly fetch-then-compute.  Workers start by
    :data:`START_METHOD`.
    """

    # -- top level -----------------------------------------------------------

    def run(self, spec: GeneralizedReductionSpec, index: DataIndex) -> RunResult:
        """Execute ``spec`` over the dataset described by ``index``."""
        with _FORK_LOCK:
            return self._run(spec, index)

    def _run(self, spec: GeneralizedReductionSpec, index: DataIndex) -> RunResult:
        EngineOptions.validate_index(index, self.stores)
        opts = self.options
        ctx = multiprocessing.get_context(START_METHOD)
        # Start the resource tracker *now*, while no engine thread or
        # segment exists: forked workers then inherit (and spawn-started
        # ones are handed) the one shared tracker, whose register/
        # unregister set stays balanced because only the parent ever
        # creates or unlinks segments.  Without this, each child's first
        # shm attach would lazily spawn a private tracker that warns
        # about "leaked" segments it never owned at exit.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        # Pushdown (metadata-first retrieval) runs before the job pool
        # exists, identically to the other engines.
        plan = plan_jobs(index, spec, opts.pushdown, stores=self.stores)
        scheduler = opts.scheduler_factory(plan.jobs)
        head = RunHead(scheduler)
        group_units = units_per_group(opts.group_nbytes, index.fmt.unit_nbytes)
        batch_fold = opts.batch_fold and supports_batch_fold(spec)
        segments = SharedSegmentPool()
        health = self.make_health()
        if health is not None and hasattr(scheduler, "attach_health"):
            scheduler.attach_health(health.open_locations)

        t_start = time.monotonic()
        stats = RunStats()
        plan.apply_to(stats)
        # Per cluster: (robj, backing segment or None) per surviving worker.
        cluster_entries: dict[str, list[tuple[ReductionObject, SharedSegment | None]]] = {}
        handles: list[_WorkerHandle] = []
        feeders: list[threading.Thread] = []
        fetchers: dict[str, ParallelFetcher] = {}
        errors: list[BaseException] = []

        try:
            # Spawn every worker process *before* starting any thread in
            # this process, so a fork start method never snapshots a
            # parent mid-lock.
            for cluster in self.clusters:
                master = head.master(cluster, opts.batch_size)
                cstats = ClusterStats(cluster.name, cluster.location)
                stats.clusters[cluster.name] = cstats
                cluster_entries[cluster.name] = []
                fetchers[cluster.name] = make_cluster_fetcher(
                    self.stores, cluster, opts, health=health
                )
                for wid in range(cluster.n_workers):
                    wname = f"{cluster.name}-w{wid}"
                    wstats = WorkerStats()
                    cstats.workers.append(wstats)
                    task_q = ctx.SimpleQueue()
                    result_q = ctx.Queue()
                    proc = ctx.Process(
                        target=_worker_main,
                        name=wname,
                        args=(
                            wname, spec, index.fmt, group_units, batch_fold,
                            task_q, result_q, opts.crash_plan.get(wname),
                        ),
                        daemon=True,
                    )
                    handle = _WorkerHandle(wname, proc, task_q, result_q, wstats)
                    handles.append(handle)
                    feeders.append(
                        threading.Thread(
                            target=self._feed_worker,
                            name=f"feeder-{wname}",
                            args=(
                                cluster, master, handle, fetchers[cluster.name],
                                segments, cluster_entries[cluster.name],
                                t_start, errors, head,
                            ),
                            daemon=True,
                        )
                    )
            for handle in handles:
                handle.proc.start()
            for th in feeders:
                th.start()
            for th in feeders:
                th.join()

            result = finalize_run(
                spec=spec,
                clusters=self.clusters,
                stats=stats,
                scheduler=scheduler,
                stores=self.stores,
                cluster_robjs={
                    name: [robj for robj, _ in entries]
                    for name, entries in cluster_entries.items()
                },
                errors=errors,
                t_start=t_start,
                combine=lambda robjs: self._combine(spec, robjs),
                health=health,
            )
            # The result never aliases a worker's object, so the worker
            # robjs (and their shared-memory backing) can go.
            for entries in cluster_entries.values():
                for _, seg in entries:
                    if seg is not None:
                        segments.release(seg)

            leaked = segments.active_count
            if leaked:  # pragma: no cover - lifecycle bug guard
                segments.close_all()
                raise RuntimeError(
                    f"shared-memory lifecycle bug: {leaked} segments still "
                    f"live after a successful run"
                )
            return result
        finally:
            head.halt()
            self._shutdown_workers(handles)
            segments.close_all()
            for fetcher in fetchers.values():
                fetcher.close()

    def _combine(
        self, spec: GeneralizedReductionSpec, robjs: list[ReductionObject]
    ) -> ReductionObject:
        """Global reduction: the tree for the default merge."""
        if uses_default_global_reduction(spec):
            return tree_global_reduction(spec, robjs)
        return spec.global_reduction(robjs)

    def _shutdown_workers(self, handles: list[_WorkerHandle]) -> None:
        """Reap worker processes; force-kill stragglers on error paths."""
        for handle in handles:
            if handle.proc.pid is None:
                continue  # never started
            handle.proc.join(timeout=0.1)
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join(timeout=5.0)
        for handle in handles:
            # Release queue pipe fds promptly (a long pytest session
            # would otherwise accumulate them until GC).
            handle.task_q.close()
            handle.result_q.close()
            handle.result_q.cancel_join_thread()

    # -- feeder (one thread per worker process) ------------------------------

    def _recv(self, handle: _WorkerHandle) -> tuple:
        """Next message from the worker, failing fast if it died hard."""
        while True:
            try:
                return handle.result_q.get(timeout=0.5)
            except queue_mod.Empty:
                if not handle.proc.is_alive():
                    raise RuntimeError(
                        f"worker process {handle.name} died unexpectedly "
                        f"(exit code {handle.proc.exitcode})"
                    ) from None

    def _drain_one(
        self,
        cluster: ClusterConfig,
        handle: _WorkerHandle,
        segments: SharedSegmentPool,
        port: ClusterMaster,
    ) -> None:
        """Consume one completion; recycle its segment; account it."""
        msg = self._recv(handle)
        kind = msg[0]
        if kind == "robj":
            raise _WorkerCrashed(msg)
        if kind == "error":
            raise RuntimeError(f"worker {handle.name} failed:\n{msg[1]}")
        if kind != "done":  # pragma: no cover - protocol guard
            raise RuntimeError(f"unexpected message from {handle.name}: {msg[0]!r}")
        _, job_id, decode_s, fold_s, bytes_folded, n_folds = msg
        proc_s = decode_s + fold_s
        job, seg = handle.inflight.popleft()
        if job.job_id != job_id:  # pragma: no cover - protocol guard
            raise RuntimeError(
                f"completion order violated: expected job {job.job_id}, "
                f"got {job_id}"
            )
        segments.release(seg)
        wstats = handle.wstats
        wstats.processing_s += proc_s
        wstats.decode_s += decode_s
        wstats.fold_s += fold_s
        wstats.bytes_folded += bytes_folded
        wstats.n_fold_calls += n_folds
        wstats.jobs_processed += 1
        if job.location != cluster.location:
            wstats.jobs_stolen += 1
        if port.complete(job):
            wstats.jobs_recovered += 1
            wstats.recovery_s += proc_s

    def _collect_robj(
        self, handle: _WorkerHandle, segments: SharedSegmentPool
    ) -> tuple[ReductionObject, SharedSegment | None, str]:
        """Run the ship handshake; returns (robj, backing segment, status)."""
        msg = self._recv(handle)
        if msg[0] == "error":
            raise RuntimeError(f"worker {handle.name} failed:\n{msg[1]}")
        if msg[0] != "robj":  # pragma: no cover - protocol guard
            raise RuntimeError(f"unexpected message from {handle.name}: {msg[0]!r}")
        robj, seg = self._finish_ship(handle, segments, msg)
        return robj, seg, msg[1]

    def _finish_ship(
        self, handle: _WorkerHandle, segments: SharedSegmentPool, msg: tuple
    ) -> tuple[ReductionObject, SharedSegment | None]:
        """Parent half of the out-of-band reduction-object transfer."""
        _, _status, _crashed_job_id, meta, buf_lens, child_ser_s = msg
        total = sum(buf_lens)
        wstats = handle.wstats
        seg = None
        if total:
            seg = segments.create(total)
            wstats.shm_segments += int(seg.leases == 1)
        handle.task_q.put(("ship", seg.name if seg else None))
        reply = self._recv(handle)
        if reply[0] == "error":
            raise RuntimeError(f"worker {handle.name} failed:\n{reply[1]}")
        if reply[0] != "shipped":  # pragma: no cover - protocol guard
            raise RuntimeError(
                f"unexpected message from {handle.name}: {reply[0]!r}"
            )
        t0 = time.monotonic()
        # One view per declared length, also when they total 0 bytes and
        # there is no segment: an empty numpy payload still pickles one
        # (zero-length) out-of-band buffer.
        base = seg.buf if seg is not None else memoryview(bytearray())
        views: list[memoryview] = []
        offset = 0
        for n in buf_lens:
            views.append(base[offset : offset + n])
            offset += n
        robj = deserialize_robj_oob(meta, views)
        wstats.ser_s += child_ser_s + (time.monotonic() - t0)
        wstats.ipc_s += reply[1]  # the worker's copy into the segment
        wstats.shm_nbytes += total
        return robj, seg

    def _requeue(self, jobs: list[Job], port: ClusterMaster) -> None:
        """Return a dead worker's jobs (and its master's pool) to the head."""
        port.requeue(jobs + port.worker_died())

    def _feed_worker(
        self,
        cluster: ClusterConfig,
        master: ClusterMaster,
        handle: _WorkerHandle,
        fetcher: ParallelFetcher,
        segments: SharedSegmentPool,
        robjs_out: list[tuple[ReductionObject, SharedSegment | None]],
        t_start: float,
        errors: list[BaseException],
        head: RunHead,
    ) -> None:
        wstats = handle.wstats
        prefetch = self.options.prefetch
        depth = 2 if prefetch else 1
        failed_job: Job | None = None  # job whose fetch exhausted retries
        try:
            try:
                while not head.halted:
                    # Block at the head only when this worker has nothing
                    # in flight: its inflight jobs are outstanding, and
                    # only this feeder can complete them, so a blocking
                    # wait here would deadlock the tail of the run.
                    job = master.get_job(wait=not handle.inflight)
                    if job is None:
                        if handle.inflight:
                            self._drain_one(cluster, handle, segments, master)
                            continue
                        break
                    try:
                        seg, payload_nbytes, frame_of, fetch_s = self._fetch_segment(
                            job, fetcher, segments, wstats
                        )
                    except RetryExhausted:
                        failed_job = job
                        raise
                    # The worker was computing while we fetched iff it
                    # already had work in flight: that retrieval hid
                    # under processing.
                    account_overlap(
                        wstats, fetch_s, bool(handle.inflight), prefetch
                    )
                    t0 = time.monotonic()
                    handle.task_q.put(
                        ("job", job.job_id, seg.name, payload_nbytes, frame_of)
                    )
                    wstats.ipc_s += time.monotonic() - t0
                    wstats.shm_nbytes += payload_nbytes
                    handle.inflight.append((job, seg))
                    while len(handle.inflight) >= depth:
                        self._drain_one(cluster, handle, segments, master)
                while handle.inflight:
                    self._drain_one(cluster, handle, segments, master)
                handle.task_q.put(("finish",))
                robj, seg, _status = self._collect_robj(handle, segments)
                wstats.finished_at = time.monotonic() - t_start
                robjs_out.append((robj, seg))
            except _WorkerCrashed as crashed:
                # Injected crash: the worker already sent its partial
                # object header.  Requeue everything it had in flight
                # (the worker skips those task messages), keep what it
                # completed.
                inflight_jobs = [job for job, _ in handle.inflight]
                for _, seg in handle.inflight:
                    segments.release(seg)
                handle.inflight.clear()
                self._requeue(inflight_jobs, master)
                robj, seg = self._finish_ship(handle, segments, crashed.msg)
                wstats.failed = True
                wstats.finished_at = time.monotonic() - t_start
                robjs_out.append((robj, seg))
            except RetryExhausted:
                # The fetch path gave up on ``failed_job`` (never sent to
                # the worker).  The worker itself is healthy: let it
                # finish the jobs it already holds, collect its partial
                # object, and requeue only the failed job.
                while handle.inflight:
                    self._drain_one(cluster, handle, segments, master)
                self._requeue(
                    [failed_job] if failed_job is not None else [], master
                )
                handle.task_q.put(("finish",))
                robj, seg, _status = self._collect_robj(handle, segments)
                wstats.failed = True
                wstats.finished_at = time.monotonic() - t_start
                robjs_out.append((robj, seg))
        except BaseException as exc:  # surfaced by run()
            for _, seg in handle.inflight:
                segments.release(seg)
            handle.inflight.clear()
            errors.append(exc)
            head.halt()  # fail fast: abort every other feeder promptly

    def _fetch_segment(
        self,
        job: Job,
        fetcher: ParallelFetcher,
        segments: SharedSegmentPool,
        wstats: WorkerStats,
    ) -> tuple[SharedSegment, int, tuple[int, int] | None, float]:
        """Fetch one job's chunk straight into a leased shared segment,
        booking its ledger in ``wstats`` (also when it raises).

        Returns ``(segment, payload_nbytes, frame_of, fetch_s)``,
        ``frame_of`` being ``(chunk_id, logical nbytes)`` when the
        segment holds a codec frame the worker decodes.

        The segment receives the chunk's wire frame through
        :meth:`ParallelFetcher.fetch_frame`, whatever its shape: sub-range
        GETs and an unhedged replica race write into the mapping, a
        stripe reassembles there, and a cache entry or a concurrent
        race's winner is copied in once.  Coded chunks thus ship
        *encoded*: the segment holds the (often far smaller) frame and
        the worker decodes off the mapped pages, so decompression runs on
        the worker's core instead of serializing in this feeder thread.
        Only ``verify_chunks`` decodes a coded chunk here (one decode +
        one copy), because the check reads logical bytes.
        """
        t0 = time.monotonic()
        chunk = job.chunk
        verify = self.options.verify_chunks
        encoded = chunk.codec is not None and not verify
        nbytes = chunk.wire_nbytes if encoded else chunk.nbytes
        seg = segments.create(nbytes)
        wstats.shm_segments += int(seg.leases == 1)
        info = FetchInfo()
        try:
            if chunk.codec is not None and verify:
                data = fetcher.fetch_chunk(chunk, info)
                seg.buf[:] = data
                info.n_copies += 1  # the copy into the segment
            else:
                fetcher.fetch_frame(chunk, seg.buf, info)
            if verify:
                from repro.data.integrity import verify_chunk_bytes

                verify_chunk_bytes(chunk, seg.buf)
        except BaseException:
            segments.release(seg)
            raise
        finally:
            account_fetch_info(wstats, info)
        frame_of = (chunk.chunk_id, chunk.nbytes) if encoded else None
        return seg, nbytes, frame_of, time.monotonic() - t0 - info.decode_s
