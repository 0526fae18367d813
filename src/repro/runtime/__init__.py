"""Runtime: jobs, scheduling policy, stats, and the execution engines."""

from repro.runtime.core import (
    ClusterConfig,
    ClusterMaster,
    EngineOptions,
    RunHead,
    RunResult,
)
from repro.runtime.engine import ThreadedEngine
from repro.runtime.jobs import ClusterPool, Job, jobs_from_index
from repro.runtime.process_engine import ProcessEngine
from repro.runtime.pushdown import (
    PushdownPlan,
    PushdownSoundnessError,
    plan_jobs,
    verify_pruned,
)
from repro.runtime.scheduler import HeadScheduler, RandomScheduler, StaticScheduler
from repro.runtime.stats import ClusterStats, RunStats, WorkerStats

#: The two execution engines, keyed by their CLI / driver name.
#:
#: * ``threaded`` -- worker threads in one process, the fleet of a
#:   :class:`repro.service.BurstingService`, whose worker is the
#:   reference implementation of the head/master/slave protocol.  A
#:   :class:`ThreadedEngine` and a :class:`repro.bursting.BurstingSession`
#:   each hold one service for all their runs (close them, or use
#:   ``with``, to stop its fleet).
#: * ``process`` -- one real OS process per slave; chunk bytes cross via
#:   shared memory, reduction objects via pickle-5 out-of-band buffers.
#:
#: Both accept the same :class:`EngineOptions` surface and share the
#: head scheduler, the fold step and the run epilogue; they differ only
#: in how the control plane is transported.
ENGINES = {
    "threaded": ThreadedEngine,
    "process": ProcessEngine,
}


def make_engine(name: str, clusters, stores, **kwargs):
    """Construct an execution engine by name (a key of :data:`ENGINES`).
    It runs any number of specs; ``with make_engine(...) as engine:``
    (or ``engine.close()``) stops whatever it holds between runs.

    ``kwargs`` is the unified :class:`EngineOptions` surface (batch
    size, prefetch, cache, retry policy, crash plan, ...); every engine
    accepts every option.  Alternatively pass a prebuilt options object
    as ``options=EngineOptions(...)``.
    """
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; expected one of {sorted(ENGINES)}")
    return ENGINES[name](clusters, stores, **kwargs)


__all__ = [
    "ClusterConfig",
    "ClusterMaster",
    "EngineOptions",
    "RunHead",
    "RunResult",
    "ThreadedEngine",
    "ProcessEngine",
    "ENGINES",
    "make_engine",
    "ClusterPool",
    "Job",
    "jobs_from_index",
    "PushdownPlan",
    "PushdownSoundnessError",
    "plan_jobs",
    "verify_pruned",
    "HeadScheduler",
    "RandomScheduler",
    "StaticScheduler",
    "ClusterStats",
    "RunStats",
    "WorkerStats",
]
