"""Job registry: per-submission lifecycle state and result retrieval.

Every submission to :class:`~repro.service.service.BurstingService`
gets a :class:`JobHandle` -- the caller's end of the job registry
entry.  The handle walks the lifecycle state machine::

    QUEUED --admit--> RUNNING --drain+finalize--> DONE
       |                 |----fatal error-------> FAILED
       |----cancel-------+----cancel------------> CANCELLED

and offers blocking (:meth:`JobHandle.result`) and asyncio-friendly
(:meth:`JobHandle.aresult`) result retrieval, live status/progress
queries, and cancellation.  All state transitions are performed by the
service under its head lock; the handle itself only synchronizes the
completion event.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from enum import Enum
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.core import RunResult
    from repro.runtime.stats import RunStats

__all__ = ["JobState", "JobCancelledError", "JobHandle"]


class JobState(Enum):
    """Lifecycle states of one submitted job."""

    QUEUED = "queued"        # admitted to the registry, awaiting a slot
    RUNNING = "running"      # chunks being assigned to the slave fleet
    DONE = "done"            # finalized; result available
    FAILED = "failed"        # finalized; exception available
    CANCELLED = "cancelled"  # withdrawn; unassigned chunks never ran

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class JobCancelledError(RuntimeError):
    """Raised by :meth:`JobHandle.result` for a cancelled job."""


class JobHandle:
    """The caller's handle on one submitted job.

    Created by :meth:`BurstingService.submit`; never constructed
    directly.  Thread-safe: any thread (or asyncio task, via
    :meth:`aresult`) may query status or wait for the result.
    """

    def __init__(
        self, run_id: str, tenant: str, seq: int, service: Any,
        stats: RunStats, n_total: int,
    ) -> None:
        self.run_id = run_id
        self.tenant = tenant
        self.seq = seq
        #: This job's live (and, once resolved, final) per-run stats.
        self.stats = stats
        self._service = service
        self._n_total = n_total
        #: Service-clock completion time of each chunk (the service appends).
        self._chunk_done_t: list[float] = []
        self._state = JobState.QUEUED
        self._result: RunResult | None = None
        self._exc: BaseException | None = None
        self._event = threading.Event()

    # -- state transitions (service-side) ------------------------------------

    def _set_running(self) -> None:
        if not self._state.terminal:
            self._state = JobState.RUNNING

    def _mark_cancelled(self) -> None:
        """Make cancellation visible immediately; resolution follows once
        the job's already-assigned chunks drain."""
        if not self._state.terminal:
            self._state = JobState.CANCELLED

    def _resolve(
        self,
        state: JobState,
        result: RunResult | None = None,
        exc: BaseException | None = None,
    ) -> None:
        if self._event.is_set():
            return
        self._state = state
        self._result = result
        self._exc = exc
        if result is not None:
            self.stats = result.stats
        # A resolved job lets go of the service: the service has dropped
        # its run, and a handle kept by a caller must not keep the fleet.
        self._service = None
        self._event.set()

    # -- caller API ----------------------------------------------------------

    def status(self) -> JobState:
        """Current lifecycle state."""
        return self._state

    def done(self) -> bool:
        """True once the job reached a terminal state *and* resolved."""
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job resolves; True unless the timeout hit."""
        return self._event.wait(timeout)

    def result(self, timeout: float | None = None) -> RunResult:
        """The job's :class:`~repro.runtime.core.RunResult`.

        Blocks until the job resolves.  Raises the job's error for a
        failed job, :class:`JobCancelledError` for a cancelled one, and
        :class:`TimeoutError` when ``timeout`` elapses first.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"{self.run_id} not done after {timeout}s (state {self._state.value})"
            )
        if self._exc is not None:
            try:
                raise self._exc
            finally:
                del self  # the traceback keeps this frame: no cycle via ``_exc``
        assert self._result is not None
        return self._result

    async def aresult(self, timeout: float | None = None) -> RunResult:
        """Asyncio-friendly :meth:`result` (runs the wait in an executor)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, functools.partial(self.result, timeout)
        )

    def cancel(self) -> bool:
        """Withdraw the job.

        A queued job is cancelled outright; a running job stops
        receiving new chunk assignments and resolves as CANCELLED once
        its in-flight chunks drain (their partial reduction state is
        discarded).  Returns False when the job already finished or the
        backend cannot interrupt it (the process run-per-job backend).
        """
        svc = self._service
        return svc is not None and bool(svc._cancel(self.run_id))

    # -- introspection -------------------------------------------------------

    def progress(self) -> dict[str, int]:
        """``{"jobs_total": ..., "jobs_done": ...}`` chunk counts."""
        return {"jobs_total": self._n_total, "jobs_done": len(self._chunk_done_t)}

    def chunk_done_times(self) -> list[float]:
        """Service-clock timestamps of each completed chunk (fairness
        instrumentation for the benchmark suite)."""
        return list(self._chunk_done_t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobHandle({self.run_id!r}, tenant={self.tenant!r}, "
            f"state={self._state.value})"
        )
