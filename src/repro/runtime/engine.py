"""Threaded execution engine: the real, working middleware, one run at a
time.

Runs the complete head/master/slave protocol with actual data movement
on one machine: worker threads pull jobs through their master from the
shared head scheduler, fetch chunk byte ranges (multi-threaded) from
whichever store holds them, fold unit groups into per-worker reduction
objects, and the head performs the final global reduction.

A run is one job on a one-run :class:`~repro.service.BurstingService`:
the engine builds the service from its clusters, stores and options,
submits, waits for the result and shuts the service down.  This is the
one-shot form; a :class:`~repro.bursting.BurstingSession` holds one
service across all its passes instead.  The control plane (per-cluster
masters refilling worker threads from the head), the worker loop
(:class:`~repro.service.service.ServiceSlave`: synchronous fetch or a
read-ahead window, decode/fold, stats accounting, crash injection and
containment) and the shared :func:`~repro.runtime.core.finalize_run`
epilogue are the service's, and so is every option's behaviour:

* **prefetching** (``prefetch=True``, and always behind a striped
  chunk) overlaps data movement with computation; the **chunk cache**
  (``chunk_cache=...``) makes iterative workloads pay a remote chunk's
  retrieval once.  Both are result-invariant and accounted in
  :class:`WorkerStats` (``overlap_s``, ``prefetch_hits``,
  ``cache_hits``);
* a **retry policy** (``retry=RetryPolicy(...)``) makes a flaky link
  cost latency, not correctness, and a worker killed by the crash plan
  (``crash_plan``) or by an exhausted retry no longer aborts the run:
  its in-flight jobs go back to the head (:meth:`HeadScheduler.reassign`)
  for the survivors, while its partially folded reduction object, which
  holds every job it *completed*, is kept for the global reduction.
  Non-retryable errors still fail the run fast.

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
