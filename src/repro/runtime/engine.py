"""Threaded execution engine: the real, working middleware.

Runs the complete head/master/slave protocol with actual data movement
on one machine: worker threads pull jobs through their master from the
shared head scheduler, fetch chunk byte ranges (multi-threaded) from
whichever store holds them, fold unit groups into per-worker reduction
objects, and the head performs the final global reduction.

A run is one job on a one-run :class:`~repro.service.BurstingService`:
the engine builds the service from its clusters, stores and options,
submits, waits for the result and shuts the service down.  The control
plane (per-cluster masters refilling worker threads from the head), the
per-worker loop (synchronous fetch or a read-ahead window, decode/fold,
stats accounting, crash injection and containment) and the shared
:func:`~repro.runtime.core.finalize_run` epilogue are the service's.

Two data-pipeline optimizations sit on the fetch path:

* **prefetching** (``prefetch=True``, and always behind a striped
  chunk): before folding job *N* a worker reserves the next jobs from
  its master, as many as its byte-bounded window has room for
  (:func:`~repro.runtime.core.window_has_room`), and retrieves their bytes
  on background threads, overlapping data movement with computation
  and -- when retrieval is the bottleneck -- keeping the link busy
  while it waits (the transport of data-cloud engines like
  Sector/Sphere keeps the pipe full the same way);
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
  a bug in user code) still fail the run fast.

This engine demonstrates functional correctness of the middleware at any
scale that fits in memory; the discrete-event simulator in
:mod:`repro.sim` executes the same policy code against a resource model
for performance experiments.
"""

from __future__ import annotations

from repro.core.api import GeneralizedReductionSpec
from repro.data.index import DataIndex
from repro.runtime.core import ClusterConfig, EngineBase, RunResult

__all__ = ["ClusterConfig", "RunResult", "ThreadedEngine"]


class ThreadedEngine(EngineBase):
    """Multi-cluster, multi-worker threaded executor."""

    def run(self, spec: GeneralizedReductionSpec, index: DataIndex) -> RunResult:
        """Execute ``spec`` over the dataset described by ``index``."""
        from repro.service import BurstingService

        service = BurstingService(self.clusters, self.stores, options=self.options)
        try:
            return service.submit(spec, index).result()
        finally:
            service.shutdown()
