"""The five workloads: seed -> inputs -> organized dataset -> passes.

Every workload goes through the program's public entry points only
(``write_dataset`` / ``distribute_dataset`` / ``stripe_dataset``,
``BurstingSession``, ``BurstingService``, ``make_engine``) and checks each
answer against the single-machine reference that ships with the app.
Input arrays are drawn here from ``--seed``; the program sees only the
arrays.

Why each workload exists is recorded in ``BENCHMARK.json`` and the
README; the numbers in the class bodies are the sizing.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro import (
    BurstingSession,
    ClusterConfig,
    EngineOptions,
    FaultInjectingStore,
    FaultSpec,
    HedgePolicy,
    KMeansSpec,
    KnnSpec,
    MemoryStore,
    PageRankSpec,
    RecordFormat,
    S3Profile,
    SimulatedS3Store,
    WordCountSpec,
    distribute_dataset,
    edges_format,
    knn_exact,
    lloyd_step,
    make_engine,
    points_format,
    tokens_format,
    wordcount_exact,
    write_dataset,
)
from repro.data.dataset import stripe_dataset
from repro.service import BurstingService, TenantConfig
from scipy import sparse

from benchmarks.suite.wrappers import Plain

__all__ = ["WORKLOADS", "BatchWorkload", "ServiceMixed", "Organized", "JobSample"]

#: The paper-shaped WAN: 5 ms per request, 40 MB/s per connection,
#: 120 MB/s across connections.
WAN = S3Profile(request_latency_s=0.005, per_connection_bw=40e6, aggregate_bw=120e6)

PASS_TIMEOUT_S = 60.0


# The generators build their arrays in place: ``peak_rss_mb`` is a high-water
# mark of the measuring process, and temporaries of the input's own size made
# here would stand above what the program allocates afterwards.


def _points(rng: np.random.Generator, n: int, dim: int, n_clusters: int) -> np.ndarray:
    centers = rng.random((n_clusters, dim))
    labels = rng.integers(0, n_clusters, n)
    points = rng.normal(0.0, 0.15, (n, dim))
    for lo in range(0, n, 8192):
        points[lo:lo + 8192] += centers[labels[lo:lo + 8192]]
    return points


def _zipf_mod(rng: np.random.Generator, a: float, n: int, modulus: int) -> np.ndarray:
    draws = rng.zipf(a, n)  # int64
    draws -= 1
    draws %= modulus
    return draws


def _chunk_units(n_units: int, n_files: int, chunks_per_file: int) -> int:
    return math.ceil(math.ceil(n_units / n_files) / chunks_per_file)


def _same_lloyd_step(result, expected) -> bool:
    return bool(
        np.array_equal(result.counts, expected.counts)
        and np.allclose(result.centroids, expected.centroids, rtol=1e-9, atol=1e-12)
        and math.isclose(result.sse, expected.sse, rel_tol=1e-9)
    )


@dataclass
class Organized:
    """One dataset placed into fresh stores, with what placing it cost."""

    stores: dict
    #: one ``DataIndex``, or one per job kind on the service workload
    index: object
    #: seconds per organizer step: organize / distribute / stripe
    steps: dict[str, float] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        indexes = self.index.values() if isinstance(self.index, dict) else [self.index]
        return sum(i.nbytes for i in indexes)


class BatchWorkload:
    """One spec run pass after pass over one organized dataset."""

    name: str
    fmt: RecordFormat
    workers = 2
    engine = "threaded"
    n_files = 8
    chunks_per_file: int
    codec: str | None = None
    local_fraction = 0.5
    #: jobs a master asks the head for at once (``BurstingSession``'s default)
    batch_size = 2
    #: True when each pass's answer is the next pass's input.
    iterative = False

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale

    def _n(self, full: int) -> int:
        return max(self.n_files * self.chunks_per_file * 4, int(full * self.scale))

    # -- inputs --------------------------------------------------------------

    def generate(self, seed: int):
        """``(units, state)``: the dataset and the first pass's parameters."""
        raise NotImplementedError

    def make_spec(self, state):
        raise NotImplementedError

    def reference(self, units, state):
        """The single-machine answer for one pass from ``state``."""
        raise NotImplementedError

    def matches(self, result, expected) -> bool:
        raise NotImplementedError

    def next_state(self, state, result):
        return state

    # -- organization --------------------------------------------------------

    def make_stores(self, seed: int) -> dict:
        return {"local": MemoryStore("local"), "cloud": SimulatedS3Store(profile=WAN)}

    def organize(self, units, seed: int) -> Organized:
        stores = self.make_stores(seed)
        t0 = time.perf_counter()
        index = write_dataset(
            units, self.fmt, stores["local"], n_files=self.n_files,
            chunk_units=_chunk_units(len(units), self.n_files, self.chunks_per_file),
            codec=self.codec,
        )
        t1 = time.perf_counter()
        fractions = {"local": self.local_fraction, "cloud": 1.0 - self.local_fraction}
        index = distribute_dataset(
            index, stores, {k: v for k, v in fractions.items() if v > 0}, stores["local"]
        )
        t2 = time.perf_counter()
        return Organized(stores, index, {"organize": t1 - t0, "distribute": t2 - t1})

    def session_kwargs(self) -> dict:
        return {}

    def open(self, org: Organized, instr: Plain):
        """The object whose ``run(spec)`` is one pass."""
        session = BurstingSession(
            org.index, instr.stores(org.stores), engine=self.engine,
            scheduler_factory=instr.scheduler_factory(), **self.session_kwargs(),
        )
        instr.cache(session.cache)
        return session


class KMeansLocal(BatchWorkload):
    name = "kmeans-local"
    chunks_per_file = 4
    local_fraction = 1.0
    K, DIM, N = 64, 32, 250_000
    fmt = points_format(DIM)

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        points = _points(rng, self._n(self.N), self.DIM, self.K)
        return points, points[rng.choice(len(points), self.K, replace=False)].copy()

    def make_stores(self, seed):
        return {"local": MemoryStore("local")}

    def session_kwargs(self):
        return {"local_workers": 2, "cloud_workers": 0}

    def make_spec(self, state):
        return KMeansSpec(state)

    def reference(self, units, state):
        return lloyd_step(units, state)

    def matches(self, result, expected):
        return _same_lloyd_step(result, expected)


class KnnHybridWan(BatchWorkload):
    name = "knn-hybrid-wan"
    chunks_per_file = 3
    codec = "shuffle"
    local_fraction = 1 / 3
    K, DIM, N = 16, 32, 150_000
    fmt = points_format(DIM)

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        return _points(rng, self._n(self.N), self.DIM, 8), rng.random(self.DIM)

    def session_kwargs(self):
        return {"local_workers": 1, "cloud_workers": 1, "retrieval_threads": 2,
                "prefetch": True}

    def make_spec(self, state):
        return KnnSpec(state, self.K)

    def reference(self, units, state):
        return knn_exact(units, state, self.K)

    def matches(self, result, expected):
        return len(result) == len(expected) and all(
            math.isclose(d, e, rel_tol=1e-9) and np.array_equal(p, q)
            for (d, p), (e, q) in zip(result, expected)
        )


class PageRankProcessIter(BatchWorkload):
    name = "pagerank-process-iter"
    engine = "process"
    chunks_per_file = 4
    iterative = True
    PAGES, EDGES = 1_000_000, 6_000_000
    fmt = edges_format()

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        n_edges = self._n(self.EDGES)
        n_pages = max(16, int(self.PAGES * self.scale))
        edges = np.empty((n_edges, 2), dtype=np.int64)
        edges[:, 0] = rng.integers(0, n_pages, n_edges, dtype=np.int64)
        # every page gets one outgoing edge, so no rank mass dangles
        edges[:n_pages, 0] = np.arange(n_pages, dtype=np.int64)[:n_edges]
        edges[:, 1] = _zipf_mod(rng, 1.5, n_edges, n_pages)
        self.outdeg = np.bincount(edges[:, 0], minlength=n_pages).astype(np.float64)
        self._link = None
        return edges, np.full(n_pages, 1.0 / n_pages)

    def session_kwargs(self):
        return {"local_workers": 1, "cloud_workers": 1, "cache_mb": 256}

    def make_spec(self, state):
        return PageRankSpec(state, self.outdeg)

    def reference(self, units, state):
        if self._link is None:
            # The reference step as one sparse mat-vec (duplicate edges sum on
            # conversion): ~10x cheaper than pagerank_step, which matters
            # because every pass of the chain is checked.
            src, dst = units[:, 0], units[:, 1]
            self._link = sparse.csr_matrix(
                (1.0 / self.outdeg[src], (dst.astype(np.int32), src.astype(np.int32))),
                shape=(len(state), len(state)))
        n, damping = len(state), 0.85
        dangling = float(state[self.outdeg == 0].sum())
        return (1.0 - damping) / n + damping * (self._link @ state + dangling / n)

    def matches(self, result, expected):
        return bool(np.allclose(result, expected, rtol=1e-9, atol=1e-15))

    def next_state(self, state, result):
        return result


class WordcountStripedStall(BatchWorkload):
    name = "wordcount-striped-stall"
    chunks_per_file = 6
    STRIPE = (4, 2)
    SPARE = S3Profile(request_latency_s=0.002, per_connection_bw=80e6)
    TOKENS, VOCAB = 4_000_000, 5000
    fmt = tokens_format()
    batch_size = 4  # EngineOptions' default: this workload builds the engine itself

    def generate(self, seed):
        return _zipf_mod(np.random.default_rng(seed), 1.3, self._n(self.TOKENS), self.VOCAB), None

    def make_stores(self, seed):
        stores = {
            "local": MemoryStore("local"),
            "cloud": FaultInjectingStore(
                SimulatedS3Store(profile=self.SPARE),
                FaultSpec(stall_p=0.15, stall_s=0.08, seed=seed),
                armed=False,
            ),
        }
        for i in range(4):
            name = f"spare{i}"
            stores[name] = SimulatedS3Store(profile=self.SPARE, location=name)
        return stores

    def organize(self, units, seed):
        org = super().organize(units, seed)
        t0 = time.perf_counter()
        k, m = self.STRIPE
        org.index = stripe_dataset(org.index, org.stores, k=k, m=m)
        org.steps["stripe"] = time.perf_counter() - t0
        # the store starts stalling only after placement, as a live WAN would
        org.stores["cloud"].arm()
        return org

    def open(self, org, instr):
        # BurstingSession takes no stripe/hedge options, so this workload
        # drives the engine factory directly.
        engine = make_engine(
            "threaded",
            [ClusterConfig("local", "local", 1), ClusterConfig("cloud", "cloud", 1)],
            instr.stores(org.stores),
            options=EngineOptions(
                stripe=self.STRIPE, hedge=HedgePolicy(3.0, 0.01, 2),
                scheduler_factory=instr.scheduler_factory(),
            ),
        )
        return _EngineRunner(engine, org.index)

    def make_spec(self, state):
        return WordCountSpec()

    def reference(self, units, state):
        return wordcount_exact(units)

    def matches(self, result, expected):
        return result == expected


class _EngineRunner:
    def __init__(self, engine, index) -> None:
        self.engine, self.index = engine, index

    def run(self, spec):
        return self.engine.run(spec, self.index)


# -- service-mixed -------------------------------------------------------------


@dataclass
class JobKind:
    """One of the two job shapes the tenants alternate between."""

    units: np.ndarray
    fmt: RecordFormat
    spec: object
    expected: object
    matches: object


@dataclass
class JobSample:
    tenant: str
    kind: str
    nbytes: int
    submit_s: float      # time inside submit()
    latency_s: float     # submit() entry -> result() return
    ok: bool
    handle: object = None


class ServiceMixed:
    """Closed loop of small jobs from two tenants on one threaded service."""

    name = "service-mixed"
    workers = 2
    engine = "threaded"
    codec = None
    batch_size = 4  # EngineOptions' default, which the service runs with
    TENANTS = {"analytics": 2.0, "ingest": 1.0}
    OUTSTANDING = 2
    N_FILES, CHUNKS_PER_FILE = 8, 3
    TOKENS, VOCAB = 240_000, 2000
    POINTS, DIM, K = 60_000, 16, 8

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        floor = self.N_FILES * self.CHUNKS_PER_FILE * 4
        tokens = _zipf_mod(rng, 1.3, max(floor, int(self.TOKENS * self.scale)), self.VOCAB)
        points = _points(rng, max(floor, int(self.POINTS * self.scale)), self.DIM, self.K)
        centroids = points[rng.choice(len(points), self.K, replace=False)].copy()
        self.kinds = {
            "wordcount": JobKind(tokens, tokens_format(), WordCountSpec(),
                                 wordcount_exact(tokens), dict.__eq__),
            "kmeans": JobKind(points, points_format(self.DIM), KMeansSpec(centroids),
                              lloyd_step(points, centroids), _same_lloyd_step),
        }
        # the probes replay the larger of the two datasets
        return points, None

    def make_spec(self, _state):
        return self.kinds["kmeans"].spec

    def organize(self, _units, seed) -> Organized:
        stores = {
            "local": MemoryStore("local"),
            "cloud": SimulatedS3Store(profile=S3Profile(request_latency_s=0.001)),
        }
        steps = {"organize": 0.0, "distribute": 0.0}
        index = {}
        for name, kind in self.kinds.items():
            t0 = time.perf_counter()
            idx = write_dataset(
                kind.units, kind.fmt, stores["local"], n_files=self.N_FILES,
                key_prefix=name, chunk_units=_chunk_units(
                    len(kind.units), self.N_FILES, self.CHUNKS_PER_FILE),
            )
            t1 = time.perf_counter()
            index[name] = distribute_dataset(
                idx, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
            )
            steps["organize"] += t1 - t0
            steps["distribute"] += time.perf_counter() - t1
        return Organized(stores, index, steps)

    def open(self, org: Organized, instr: Plain) -> BurstingService:
        return BurstingService(
            [ClusterConfig("local", "local", 1), ClusterConfig("cloud", "cloud", 1)],
            instr.stores(org.stores),
            tenants={t: TenantConfig(weight=w) for t, w in self.TENANTS.items()},
            scheduler_factory=instr.scheduler_factory(),
        )

    def drive(self, service, org: Organized, instr: Plain, seconds: float):
        """Run the closed loop for ``seconds``; returns (samples, makespan)."""
        samples: list[JobSample] = []
        lock = threading.Lock()
        t_begin = time.perf_counter()
        deadline = t_begin + seconds

        def client(tenant: str, first: int) -> None:
            kinds = list(self.kinds)
            outstanding: deque = deque()
            n = first
            while True:
                while len(outstanding) < self.OUTSTANDING and time.perf_counter() < deadline:
                    kind = kinds[n % 2]
                    n += 1
                    spec = instr.spec(self.kinds[kind].spec)
                    t0 = time.perf_counter()
                    handle = service.submit(spec, org.index[kind], tenant=tenant)
                    outstanding.append((kind, t0, time.perf_counter() - t0, handle))
                if not outstanding:
                    return
                kind, t0, submit_s, handle = outstanding.popleft()
                try:
                    result = handle.result(timeout=PASS_TIMEOUT_S).result
                    latency = time.perf_counter() - t0
                    ok = self.kinds[kind].matches(result, self.kinds[kind].expected)
                except Exception:  # a failed job is a failed sample, not a crash
                    latency, ok = time.perf_counter() - t0, False
                with lock:
                    samples.append(JobSample(
                        tenant, kind, org.index[kind].nbytes, submit_s, latency, ok, handle,
                    ))

        threads = [
            threading.Thread(target=client, args=(tenant, i), name=f"client-{tenant}")
            for i, tenant in enumerate(self.TENANTS)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        return samples, time.perf_counter() - t_begin


WORKLOADS = {
    cls.name: cls
    for cls in (KMeansLocal, KnnHybridWan, PageRankProcessIter, ServiceMixed,
                WordcountStripedStall)
}
