"""Threaded execution engine: the real, working middleware.

Runs the complete head/master/slave protocol with actual data movement
on one machine: worker threads pull jobs through their master from the
shared head scheduler, fetch chunk byte ranges (multi-threaded) from
whichever store holds them, fold unit groups into per-worker reduction
objects, and the head performs the final global reduction.

The per-worker loop itself -- synchronous fetch or a read-ahead window,
decode/fold, stats accounting, crash injection and containment --
lives in :class:`repro.runtime.core.SlaveRuntime` and is shared with the
other engines; this module contributes only the threaded control plane:
per-cluster :class:`LockMaster` instances refilling worker threads from
the shared head scheduler under a lock, and the shared
:func:`finalize_run` epilogue.

Two data-pipeline optimizations sit on the fetch path:

* **prefetching** (``prefetch=True``): before folding job *N* a worker
  reserves the next ``READAHEAD`` (two) jobs from its master and
  retrieves their bytes on background threads, overlapping data
  movement with computation and -- when retrieval is the bottleneck --
  keeping the link busy while it waits (the transport of data-cloud
  engines like Sector/Sphere keeps the pipe full the same way);
* a **chunk cache** (``chunk_cache=...``): a shared byte-budgeted LRU
  consulted before any store traffic, so iterative workloads re-reading
  the same remote chunks pay the retrieval cost once.

Both are result-invariant -- a worker folds exactly the same unit groups
in the same order -- and both are accounted in :class:`WorkerStats`
(``overlap_s``, ``prefetch_hits``, ``cache_hits``).

The engine is fault tolerant on the WAN fetch path:

* a **retry policy** (``retry=RetryPolicy(...)``) makes every store
  ``get`` retry transient errors with jittered exponential backoff, so
  a flaky link costs latency, not correctness;
* **worker-crash containment**: a worker killed by the crash-injection
  plan (``crash_plan``) or whose fetch exhausts its retries no longer
  aborts the run.  Its in-flight jobs (the current one and every one it
  had reserved) go back to the head via
  :meth:`HeadScheduler.reassign` and are re-executed by survivors,
  while its partially-folded reduction object -- which already holds
  every job it *completed* -- is preserved and included in the global
  reduction (the cheap robj-checkpoint recovery the Generalized
  Reduction model affords).  Non-retryable errors (a permanent fault,
  a bug in user code) still fail the whole run fast.

This engine demonstrates functional correctness of the middleware at any
scale that fits in memory; the discrete-event simulator in
:mod:`repro.sim` executes the same policy code against a resource model
for performance experiments.
"""

from __future__ import annotations

import threading
import time

from repro.core.api import GeneralizedReductionSpec
from repro.core.reduction_object import ReductionObject
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
    finalize_run,
    make_cluster_fetchers,
)
from repro.runtime.pushdown import plan_jobs
from repro.runtime.stats import ClusterStats, RunStats, WorkerStats
from repro.storage.transfer import ParallelFetcher

__all__ = [
    "ClusterConfig",
    "RunResult",
    "ThreadedEngine",
    "make_cluster_fetchers",
]

# Backwards-compatible alias: the lock-based master moved to the shared
# core (the process engine and tests import it from here).
_Master = LockMaster


class ThreadedEngine(EngineBase):
    """Multi-cluster, multi-worker threaded executor."""

    def run(self, spec: GeneralizedReductionSpec, index: DataIndex) -> RunResult:
        """Execute ``spec`` over the dataset described by ``index``."""
        EngineOptions.validate_index(index, self.stores)
        opts = self.options
        # Metadata-first retrieval: apply the spec's pushdown contract
        # (prune + prioritize via index ChunkStats) before the job pool
        # exists -- pruned chunks are never fetched, decoded, or folded.
        plan = plan_jobs(index, spec, opts.pushdown, stores=self.stores)
        scheduler = opts.scheduler_factory(plan.jobs)
        scheduler_lock = threading.Lock()
        group_units = units_per_group(opts.group_nbytes, index.fmt.unit_nbytes)
        health = self.make_health()
        if health is not None and hasattr(scheduler, "attach_health"):
            scheduler.attach_health(health.open_locations)

        t_start = time.monotonic()
        stats = RunStats()
        plan.apply_to(stats)
        cluster_robjs: dict[str, list[ReductionObject]] = {}
        threads: list[threading.Thread] = []
        fetchers: dict[str, dict[str, ParallelFetcher]] = {}
        errors: list[BaseException] = []
        stop = threading.Event()
        # Workers pull their first job only once every thread exists: a
        # worker that starts early fetches without ever blocking, and
        # could drain a small run before its siblings are created.
        fleet_up = threading.Event()

        for cluster in self.clusters:
            master = LockMaster(
                cluster, scheduler, scheduler_lock, opts.batch_size,
                stop=stop, n_workers=cluster.n_workers,
            )
            cstats = ClusterStats(cluster.name, cluster.location)
            stats.clusters[cluster.name] = cstats
            cluster_robjs[cluster.name] = []
            fetchers[cluster.name] = make_cluster_fetchers(
                self.stores, cluster, opts, health=health
            )
            for wid in range(cluster.n_workers):
                wstats = WorkerStats()
                cstats.workers.append(wstats)
                runtime = SlaveRuntime(
                    f"{cluster.name}-w{wid}",
                    cluster=cluster,
                    port=master,
                    spec=spec,
                    index=index,
                    group_units=group_units,
                    fetchers=fetchers[cluster.name],
                    wstats=wstats,
                    robjs_out=cluster_robjs[cluster.name],
                    options=opts,
                    t_start=t_start,
                    errors=errors,
                    stop=stop,
                )

                def work(runtime: SlaveRuntime = runtime) -> None:
                    fleet_up.wait()
                    runtime.run()

                threads.append(
                    threading.Thread(target=work, name=runtime.name, daemon=True)
                )

        # While the workers fold side by side, each gets its share of
        # the BLAS threads instead of a full set (restored on the way out).
        with BLAS_BUDGET.threads(len(threads)):
            for th in threads:
                th.start()
            fleet_up.set()
            for th in threads:
                th.join()
        return finalize_run(
            spec=spec,
            clusters=self.clusters,
            stats=stats,
            scheduler=scheduler,
            fetchers=fetchers,
            cluster_robjs=cluster_robjs,
            errors=errors,
            t_start=t_start,
            health=health,
        )
