"""Benchmark-owned decorators around the objects handed to the program.

Each wrapper records one span per call on a shared
:class:`~benchmarks.suite.spans.Tracer`; none of them changes what the
wrapped object does.  They enter the program only through its public
options: the store map, the spec, ``scheduler_factory`` and the session's
chunk cache.

:class:`Plain` and :class:`Traced` are the two instrumentations a
workload can be opened with, so the untraced and the traced run share
one code path.
"""

from __future__ import annotations

import copy
from contextlib import nullcontext
from typing import Callable

from repro.core.api import GeneralizedReductionSpec
from repro.runtime import HeadScheduler, Job
from repro.storage import ChunkCache, StorageBackend

from benchmarks.suite.spans import Tracer

__all__ = ["Plain", "Traced", "TimedStore", "TimedScheduler", "timed_spec", "timed_cache"]


class TimedStore(StorageBackend):
    """Pass-through store recording a ``storage.get`` span per GET.

    Wrap the outermost store (outside any fault injector), so the span
    covers the throttle sleeps and injected stalls a worker really waits.
    """

    def __init__(self, inner: StorageBackend, name: str, tracer: Tracer) -> None:
        super().__init__()
        self.inner = inner
        self.name = name
        self.location = inner.location
        self.stats = inner.stats
        self._tracer = tracer

    def get(self, key: str, offset: int = 0, nbytes: int | None = None) -> bytes:
        with self._tracer.span("storage.get", store=self.name, key=key) as sp:
            out = self.inner.get(key, offset, nbytes)
            sp.args["nbytes"] = len(out)
        return out

    def put(self, key: str, data: bytes) -> None:
        self.inner.put(key, data)

    def size(self, key: str) -> int:
        return self.inner.size(key)

    def list_keys(self) -> list[str]:
        return self.inner.list_keys()

    def delete(self, key: str) -> None:
        self.inner.delete(key)


class TimedScheduler(HeadScheduler):
    """The shipped head scheduler with a span around each head call."""

    def __init__(self, jobs: list[Job], tracer: Tracer) -> None:
        super().__init__(jobs)
        self._tracer = tracer

    def request_jobs(self, cluster_location: str, max_jobs: int) -> list[Job]:
        with self._tracer.span("runtime.scheduler.request_jobs") as sp:
            jobs = super().request_jobs(cluster_location, max_jobs)
            sp.args["n"] = len(jobs)
        return jobs

    def complete(self, job: Job) -> None:
        with self._tracer.span("runtime.scheduler.complete"):
            super().complete(job)


def _time_method(obj, inner, span_name: str, tracer: Tracer, describe=None) -> None:
    """Shadow bound method ``inner`` on ``obj`` with a span-recording twin."""

    def timed(*args, **kwargs):
        with tracer.span(span_name) as sp:
            out = inner(*args, **kwargs)
            if describe is not None:
                sp.args.update(describe(args, out))
        return out

    setattr(obj, inner.__name__, timed)


def timed_spec(spec: GeneralizedReductionSpec, tracer: Tracer) -> GeneralizedReductionSpec:
    """A copy of ``spec`` whose fold and finalize calls record spans.

    The runtimes pick code paths by looking at the spec's *class*
    (``supports_batch_fold``, ``uses_default_global_reduction``, the
    pushdown hooks), so the copy keeps the class and shadows the methods
    on the instance instead of subclassing.  The shadows call the
    *original* spec, so a batch fold that delegates to
    ``local_reduction`` still records one span.
    """
    timed = copy.copy(spec)

    def fold_args(args, _out):
        return {"nbytes": int(args[1].nbytes)}

    _time_method(timed, spec.local_reduction, "core.fold", tracer, fold_args)
    _time_method(timed, spec.local_reduction_batch, "core.fold", tracer, fold_args)
    _time_method(timed, spec.finalize, "core.finalize", tracer)
    return timed


def timed_cache(cache: ChunkCache, tracer: Tracer) -> ChunkCache:
    """Record ``storage.cache.get`` / ``.put`` spans on ``cache`` itself.

    ``BurstingSession`` builds its own cache from ``cache_mb``, so the
    session's public ``cache`` attribute is instrumented in place.
    """
    _time_method(
        cache, cache.get, "storage.cache.get", tracer,
        lambda _args, out: {"hit": out is not None},
    )
    _time_method(cache, cache.put, "storage.cache.put", tracer)
    return cache


class Plain:
    """No instrumentation: every object goes to the program as it is."""

    tracer: Tracer | None = None

    def stores(self, stores: dict[str, StorageBackend]) -> dict[str, StorageBackend]:
        return stores

    def spec(self, spec: GeneralizedReductionSpec) -> GeneralizedReductionSpec:
        return spec

    def scheduler_factory(self) -> Callable[[list[Job]], HeadScheduler]:
        return HeadScheduler

    def cache(self, cache: ChunkCache | None) -> ChunkCache | None:
        return cache

    def pass_span(self, pass_id: int):
        """Context around one pass (or one service window); yields its span."""
        return nullcontext()


class Traced(Plain):
    """Wrap everything handed to the program with span recorders."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def stores(self, stores):
        return {
            name: TimedStore(store, name, self.tracer)
            for name, store in stores.items()
        }

    def spec(self, spec):
        return timed_spec(spec, self.tracer)

    def scheduler_factory(self):
        return lambda jobs: TimedScheduler(jobs, self.tracer)

    def cache(self, cache):
        return timed_cache(cache, self.tracer) if cache is not None else None

    def pass_span(self, pass_id):
        self.tracer.pass_id = pass_id
        return self.tracer.span("suite.pass", ambient=True)
