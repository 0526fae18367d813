"""Threaded execution engine: the real, working middleware, one run at a
time on a fleet it keeps.

Runs the complete head/master/slave protocol with actual data movement
on one machine: worker threads pull jobs through their master from the
shared head scheduler, fetch chunk byte ranges (multi-threaded) from
whichever store holds them, fold unit groups into per-worker reduction
objects, and the head performs the final global reduction.

A run is one job on the engine's :class:`~repro.service.BurstingService`,
which it holds across runs as a :class:`~repro.bursting.BurstingSession`
does (:class:`~repro.service.service.HeldService`): built from its
clusters, stores and options on the first run, built afresh after a run
that lost a worker or once :attr:`stores` changed, and shut down by
:meth:`ThreadedEngine.close` (or ``with``, or dropping the engine), so
a warm run starts no fleet thread.  The control plane (per-cluster
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

from typing import Any

from repro.core.api import GeneralizedReductionSpec
from repro.data.index import DataIndex
from repro.runtime.core import ClusterConfig, EngineBase, RunResult

__all__ = ["ClusterConfig", "RunResult", "ThreadedEngine"]


class ThreadedEngine(EngineBase):
    """Multi-cluster, multi-worker threaded executor over one held fleet."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        from repro.service.service import HeldService

        super().__init__(*args, **kwargs)
        self._held = HeldService(self.clusters, options=self.options)

    def run(self, spec: GeneralizedReductionSpec, index: DataIndex) -> RunResult:
        """Execute ``spec`` over the dataset described by ``index``."""
        return self._held.open(self.stores).submit(spec, index).result()

    def close(self) -> None:
        """Stop the engine's fleet.  Idempotent; a closed engine runs no
        more."""
        self._held.close()
