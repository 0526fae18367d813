"""The run epilogue's ownership contracts.

``finalize_run`` moves the reduction object only where the answer needs
it: no pickle round trip, a one-worker cluster uploads its worker's
object as it is, and the head makes the single object that is handed
out.  What that must never cost:

* a worker's object is read, never written (crash recovery and the
  stats paths read it afterwards);
* ``RunResult.robj`` shares no memory with any worker's object -- on the
  process engine those alias shared memory that is unlinked right after;
* the upload is still *sized* as the wire would carry it, and an
  unpicklable object still raises;
* a spec that overrides ``global_reduction`` is called exactly as before
  and its answer stands.

The first half drives ``finalize_run`` directly with hand-built worker
objects of every shipped kind; the second half intercepts it inside real
threaded and process runs.  The kinds: array, dict, counter (wordcount's
dense counts + sort-path dict), top-k.
"""

import pickle
import time

import numpy as np
import pytest

from repro.apps.apriori import AprioriPassSpec, generate_transactions, transactions_format
from repro.apps.kmeans import KMeansSpec
from repro.apps.knn import KnnSpec
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.core.api import GeneralizedReductionSpec, run_local_pass
from repro.core.combiners import get_combiner
from repro.core.reduction_object import (
    ArrayReductionObject,
    CounterReductionObject,
    DictReductionObject,
    TopKReductionObject,
)
from repro.core.serialization import serialize_robj
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.formats import points_format
from repro.data.generator import generate_points, generate_tokens
from repro.runtime import ClusterConfig, make_engine
from repro.runtime.core import finalize_run
from repro.runtime.scheduler import HeadScheduler
from repro.runtime.stats import ClusterStats, RunStats, WorkerStats
from repro.storage.local import MemoryStore
from repro.storage.s3 import S3Profile, SimulatedS3Store


# -- hand-built worker objects ------------------------------------------------


class ArraySpec(GeneralizedReductionSpec):
    fmt = points_format(1)

    def create_reduction_object(self):
        return ArrayReductionObject((64,), np.float64, "add")

    def local_reduction(self, robj, unit_group):  # pragma: no cover - unused
        raise NotImplementedError


def array_worker(seed: int) -> ArrayReductionObject:
    robj = ArraySpec().create_reduction_object()
    robj.data[:] = np.random.default_rng(seed).integers(0, 1000, 64)
    return robj


class DictSpec(ArraySpec):
    def create_reduction_object(self):
        return DictReductionObject(get_combiner("sum"), value_nbytes=16)


def dict_worker(seed: int) -> DictReductionObject:
    robj = DictSpec().create_reduction_object()
    rng = np.random.default_rng(seed)
    for key in rng.integers(0, 40, 25).tolist():
        robj.update(key, float(rng.integers(1, 9)))
    return robj


def counter_worker(seed: int) -> CounterReductionObject:
    """Dense counts of a different length per worker, plus ids only the
    sort path can hold (some of them shared with the dense range)."""
    robj = WordCountSpec().create_reduction_object()
    rng = np.random.default_rng(seed)
    robj.count(rng.integers(0, int(rng.integers(1, 40)), 60))
    robj.count(rng.choice([-3, 5, 2**40, 2**62], 6))
    return robj


def topk_worker(seed: int) -> TopKReductionObject:
    robj = KnnSpec(np.zeros(3), 5).create_reduction_object()
    rng = np.random.default_rng(seed)
    robj.update_batch(rng.random(8), list(rng.random((8, 3))))
    return robj


KINDS = {
    "array": (ArraySpec(), array_worker),
    "dict": (DictSpec(), dict_worker),
    "counter": (WordCountSpec(), counter_worker),
    "topk": (KnnSpec(np.zeros(3), 5), topk_worker),
}

#: workers per cluster; 0 is a cluster whose every worker was lost
SHAPES = [(1,), (1, 1), (2, 1), (3, 2), (1, 0), (4, 3, 2)]


def arrays_of(robj) -> list[np.ndarray]:
    """Every numpy buffer a reduction object of a shipped kind holds."""
    if isinstance(robj, ArrayReductionObject):
        return [robj.data]
    if isinstance(robj, TopKReductionObject):
        return [robj._scores, *robj._payloads]
    if isinstance(robj, CounterReductionObject):
        return [robj._dense]
    return []


def shares_memory(a, b) -> bool:
    return any(
        np.shares_memory(x, y) for x in arrays_of(a) for y in arrays_of(b)
    )


def epilogue(spec, cluster_robjs: dict, *, combine=None, latency_s=0.0):
    clusters = [
        ClusterConfig(name, name, max(1, len(robjs)), link_latency_s=latency_s)
        for name, robjs in cluster_robjs.items()
    ]
    stats = RunStats()
    for cluster in clusters:
        stats.clusters[cluster.name] = ClusterStats(
            cluster.name, cluster.location,
            workers=[WorkerStats() for _ in range(cluster.n_workers)],
        )
    return finalize_run(
        spec=spec, clusters=clusters, stats=stats, scheduler=HeadScheduler([]),
        stores={}, cluster_robjs=cluster_robjs,
        errors=[], t_start=time.monotonic(), combine=combine,
    )


def upload_of(spec, robjs):
    """What a cluster of these worker objects sends to the head."""
    return robjs[0] if len(robjs) == 1 else spec.global_reduction(robjs)


def build(kind: str, shape):
    spec, make = KINDS[kind]
    seeds = iter(range(1000))
    return spec, {
        f"c{i}": [make(next(seeds)) for _ in range(n)] for i, n in enumerate(shape)
    }


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("kind", KINDS)
class TestOwnership:
    def test_worker_objects_are_bit_identical_afterwards(self, kind, shape):
        spec, cluster_robjs = build(kind, shape)
        workers = [r for robjs in cluster_robjs.values() for r in robjs]
        before = [pickle.dumps(r) for r in workers]
        epilogue(spec, cluster_robjs)
        assert [pickle.dumps(r) for r in workers] == before

    def test_result_object_aliases_no_worker(self, kind, shape):
        spec, cluster_robjs = build(kind, shape)
        workers = [r for robjs in cluster_robjs.values() for r in robjs]
        rr = epilogue(spec, cluster_robjs)
        assert all(rr.robj is not w for w in workers)
        assert not any(shares_memory(rr.robj, w) for w in workers)
        if kind == "dict":
            assert all(rr.robj.data is not w.data for w in workers)
        if kind == "counter":
            assert all(rr.robj.sparse is not w.sparse for w in workers)

    def test_result_is_the_flat_left_fold(self, kind, shape):
        spec, cluster_robjs = build(kind, shape)
        flat = spec.create_reduction_object()
        for robjs in cluster_robjs.values():
            for r in robjs:
                flat.merge(r)
        rr = epilogue(spec, cluster_robjs)
        assert pickle.dumps(rr.robj.value()) == pickle.dumps(flat.value())

    def test_upload_is_sized_as_its_pickle(self, kind, shape):
        spec, cluster_robjs = build(kind, shape)
        rr = epilogue(spec, cluster_robjs)
        for name, robjs in cluster_robjs.items():
            merged = upload_of(spec, robjs)
            assert rr.stats.clusters[name].robj_nbytes == len(serialize_robj(merged))


class TestEpilogueAccounting:
    def test_link_latency_is_still_paid_and_stamped(self):
        spec, cluster_robjs = build("array", (1, 2))
        rr = epilogue(spec, cluster_robjs, latency_s=0.03)
        for cstats in rr.stats.clusters.values():
            assert cstats.robj_transfer_s >= 0.03
        assert rr.stats.global_reduction_s >= 0.06

    def test_unpicklable_object_still_raises(self):
        spec, cluster_robjs = build("dict", (1, 1))
        cluster_robjs["c0"][0].combiner = lambda a, b: a + b  # not picklable
        with pytest.raises((pickle.PicklingError, AttributeError)):
            epilogue(spec, cluster_robjs)

    def test_finalize_is_timed_outside_total(self):
        class SlowFinalize(ArraySpec):
            def finalize(self, robj):
                time.sleep(0.03)
                return robj.value()

        _, cluster_robjs = build("array", (1, 1))
        rr = epilogue(SlowFinalize(), cluster_robjs)
        assert rr.stats.finalize_s >= 0.03
        assert rr.stats.total_s < 0.03
        for row in rr.stats.breakdown_rows():
            assert row["finalize_s"] == round(rr.stats.finalize_s, 4)

    def test_process_engine_combine_hook_makes_the_only_fresh_objects(self):
        """2 clusters x 1 worker: the combine hook runs once, at the head."""
        spec, cluster_robjs = build("array", (1, 1))
        calls = []

        def combine(robjs):
            calls.append(len(robjs))
            return spec.global_reduction(robjs)

        epilogue(spec, cluster_robjs, combine=combine)
        assert calls == [2]


class Recording(ArraySpec):
    """Overrides ``global_reduction`` (halving, so a skipped call shows)."""

    def __init__(self):
        self.calls: list[int] = []

    def global_reduction(self, robjs):
        self.calls.append(len(robjs))
        merged = super().global_reduction(robjs)
        merged.data /= 2.0
        return merged


class TestOverriddenGlobalReduction:
    #: shape -> input lengths seen: one call per cluster that has any
    #: object, then one at the head over every cluster's upload.
    CALLS = {
        (1,): [1, 1],
        (1, 1): [1, 1, 2],
        (2, 1): [2, 1, 2],
        (3, 2): [3, 2, 2],
        (1, 0): [1, 2],
        (4, 3, 2): [4, 3, 2, 3],
    }

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_called_once_per_cluster_and_once_at_the_head(self, shape):
        spec = Recording()
        _, cluster_robjs = build("array", shape)
        epilogue(spec, cluster_robjs)
        assert spec.calls == self.CALLS[shape]

    def test_its_answer_is_authoritative(self):
        spec = Recording()
        _, cluster_robjs = build("array", (1, 1))
        total = sum(r.data for robjs in cluster_robjs.values() for r in robjs)
        rr = epilogue(spec, cluster_robjs)
        # Halved once per cluster and once more at the head.
        np.testing.assert_array_equal(rr.robj.data, total / 4.0)

    def test_the_combine_hook_is_not_bypassed_for_one_worker(self):
        spec = Recording()
        _, cluster_robjs = build("array", (1, 1))
        seen = []
        epilogue(spec, cluster_robjs, combine=lambda r: (
            seen.append(len(r)), spec.global_reduction(r))[1])
        assert seen == [1, 1, 2]


# -- inside real runs ---------------------------------------------------------


#: Every GET takes 3 ms, so all four workers hold a job before the first
#: one finishes and the doomed worker is sure to be handed its second.
SLOW = S3Profile(request_latency_s=0.003)


def build_env(units, fmt, workers):
    stores = {
        name: SimulatedS3Store(MemoryStore(name), SLOW, location=name)
        for name in ("local", "cloud")
    }
    index = write_dataset(
        units, fmt, stores["local"], n_files=4,
        chunk_units=max(1, len(units) // 12),
    )
    index = distribute_dataset(
        index, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
    )
    clusters = [
        ClusterConfig("local", "local", workers[0], 2),
        ClusterConfig("cloud", "cloud", workers[1], 2),
    ]
    return stores, index, clusters


@pytest.fixture
def watched_epilogue(monkeypatch):
    """Wrap ``finalize_run`` where the engines look it up: snapshot every
    worker object before, compare after, check the result's aliasing
    while the workers' memory is still mapped."""
    seen = {}

    def watching(**kwargs):
        cluster_robjs = kwargs["cluster_robjs"]
        workers = [r for robjs in cluster_robjs.values() for r in robjs]
        before = [pickle.dumps(r) for r in workers]
        rr = finalize_run(**kwargs)
        assert [pickle.dumps(r) for r in workers] == before
        assert all(rr.robj is not w for w in workers)
        assert not any(shares_memory(rr.robj, w) for w in workers)
        seen["n_workers"] = len(workers)
        seen["uploads"] = {
            name: len(serialize_robj(upload_of(kwargs["spec"], robjs)))
            for name, robjs in cluster_robjs.items()
        }
        return rr

    import repro.runtime.process_engine as process_mod
    import repro.service.service as threaded_mod  # the threaded engine's runs

    assert threaded_mod.finalize_run is finalize_run
    monkeypatch.setattr(threaded_mod, "finalize_run", watching)
    monkeypatch.setattr(process_mod, "finalize_run", watching)
    return seen


RUNS = {
    "1+1": dict(workers=(1, 1)),
    "2+1": dict(workers=(2, 1)),
    "2+2": dict(workers=(2, 2)),
    "2+2-crash": dict(workers=(2, 2), crash_plan={"cloud-w0": 1}),
}


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("engine", ["threaded", "process"])
class TestInsideRealRuns:
    def check(self, engine, run, spec, units, watched):
        cfg = dict(RUNS[run])
        stores, index, clusters = build_env(units, spec.fmt, cfg.pop("workers"))
        rr = make_engine(engine, clusters, stores, batch_size=2, **cfg).run(
            spec, index
        )
        assert watched["n_workers"] == sum(c.n_workers for c in clusters)
        for name, nbytes in watched["uploads"].items():
            assert rr.stats.clusters[name].robj_nbytes == nbytes
        if "crash_plan" in cfg:
            assert rr.stats.n_failed_workers == 1
        # Every cluster's row carries the GET rate each store observed.
        rates = {loc: s.stats.s_per_byte for loc, s in sorted(stores.items())}
        assert None not in rates.values()
        assert all(row["s_per_byte"] == rates for row in rr.stats.transfer_rows())
        # Read the whole object now that run() has returned (and, on the
        # process engine, every segment is unlinked and every child gone).
        pickle.dumps(rr.robj)
        return rr

    def test_array_object(self, engine, run, watched_epilogue):
        pts = generate_points(2400, 4, n_clusters=3, spread=0.08, seed=5)
        spec = KMeansSpec(generate_points(3, 4, seed=6))
        rr = self.check(engine, run, spec, pts, watched_epilogue)
        assert int(rr.result.counts.sum()) == len(pts)

    def test_dict_object(self, engine, run, watched_epilogue):
        fmt = transactions_format(6)
        baskets = generate_transactions(2400, n_items=30, basket_width=6, seed=7)
        spec = AprioriPassSpec(fmt)
        rr = self.check(engine, run, spec, baskets, watched_epilogue)
        assert rr.result == run_local_pass(spec, [baskets]).value()

    def test_counter_object(self, engine, run, watched_epilogue):
        toks = generate_tokens(9000, 120, seed=7)
        toks[::1300] = -7  # these chunks cannot be counted densely
        toks[1::1700] = 2**40
        rr = self.check(engine, run, WordCountSpec(), toks, watched_epilogue)
        assert rr.result == wordcount_exact(toks)

    def test_topk_object(self, engine, run, watched_epilogue):
        pts = generate_points(2400, 4, seed=8)
        query = np.full(4, 0.5)
        rr = self.check(engine, run, KnnSpec(query, 7), pts, watched_epilogue)
        best = np.sort(((pts - query) ** 2).sum(axis=1))[:7]
        np.testing.assert_allclose([d for d, _ in rr.result], best)
        # The payloads are the engine's own copies, not views of a segment.
        assert all(p.base is None and p.flags.owndata for _, p in rr.result)
