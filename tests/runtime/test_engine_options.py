"""Engine configuration options: results must be invariant to tuning."""

import threading

import numpy as np
import pytest

from repro.apps.knn import KnnSpec, knn_exact
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.formats import points_format, tokens_format
from repro.runtime.engine import ClusterConfig, ThreadedEngine
from repro.runtime.scheduler import HeadScheduler, StaticScheduler


@pytest.fixture
def split(points, stores):
    idx = write_dataset(points, points_format(4), stores["local"], n_files=6, chunk_units=200)
    return distribute_dataset(idx, stores, {"local": 0.5, "cloud": 0.5}, stores["local"])


def clusters(local=2, cloud=2, threads=2):
    return [
        ClusterConfig("local", "local", local, retrieval_threads=threads),
        ClusterConfig("cloud", "cloud", cloud, retrieval_threads=threads),
    ]


class TestTuningInvariance:
    @pytest.mark.parametrize("batch_size", [1, 2, 8, 100])
    def test_batch_size_does_not_change_result(self, points, stores, split, batch_size):
        engine = ThreadedEngine(clusters(), stores, batch_size=batch_size)
        rr = engine.run(KnnSpec(np.zeros(4), 5), split)
        ref = knn_exact(points, np.zeros(4), 5)
        np.testing.assert_allclose([x[0] for x in rr.result], [r[0] for r in ref])
        assert rr.stats.jobs_processed == len(split.chunks)

    @pytest.mark.parametrize("group_nbytes", [64, 4096, 1 << 22])
    def test_group_size_does_not_change_result(self, points, stores, split, group_nbytes):
        engine = ThreadedEngine(clusters(), stores, group_nbytes=group_nbytes)
        rr = engine.run(KnnSpec(np.zeros(4), 5), split)
        ref = knn_exact(points, np.zeros(4), 5)
        np.testing.assert_allclose([x[0] for x in rr.result], [r[0] for r in ref])

    @pytest.mark.parametrize("threads", [1, 3, 8])
    def test_retrieval_threads_do_not_change_result(self, points, stores, split, threads):
        engine = ThreadedEngine(clusters(threads=threads), stores)
        rr = engine.run(KnnSpec(np.zeros(4), 5), split)
        ref = knn_exact(points, np.zeros(4), 5)
        np.testing.assert_allclose([x[0] for x in rr.result], [r[0] for r in ref])

    def test_static_scheduler_correct_when_both_sites_have_compute(
        self, tokens, stores
    ):
        idx = write_dataset(tokens, tokens_format(), stores["local"], n_files=4, chunk_units=500)
        idx = distribute_dataset(idx, stores, {"local": 0.5, "cloud": 0.5}, stores["local"])
        engine = ThreadedEngine(clusters(), stores, scheduler_factory=StaticScheduler)
        rr = engine.run(WordCountSpec(), idx)
        assert rr.result == wordcount_exact(tokens)
        # Strict co-location: nobody ever steals.
        assert rr.stats.jobs_stolen == 0

    def test_lopsided_worker_counts(self, points, stores, split):
        # One local worker against five cloud workers.  Which side folds
        # more is otherwise a thread race (the lone local worker can
        # drain its half before a cloud thread is scheduled), so local
        # GETs are held until the head has assigned the cloud cluster a
        # majority of the pool.  Assignments never move between live
        # clusters, and the local worker blocks holding one request's
        # worth of jobs, so the outcome below follows from the gate.
        cloud_has_majority = threading.Event()
        majority = len(split.chunks) // 2 + 1

        class AnnouncingScheduler(HeadScheduler):
            def request_jobs(self, cluster_location, max_jobs):
                batch = super().request_jobs(cluster_location, max_jobs)
                if self.assigned_counts.get("cloud", 0) >= majority:
                    cloud_has_majority.set()
                return batch

        class HeldLocalStore:
            def __init__(self, inner):
                self.inner = inner

            def get(self, *args, **kwargs):
                assert cloud_has_majority.wait(10), "cloud was never assigned a majority"
                return self.inner.get(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        held = {"local": HeldLocalStore(stores["local"]), "cloud": stores["cloud"]}
        engine = ThreadedEngine(
            clusters(local=1, cloud=5), held, scheduler_factory=AnnouncingScheduler
        )
        rr = engine.run(KnnSpec(np.zeros(4), 5), split)
        ref = knn_exact(points, np.zeros(4), 5)
        np.testing.assert_allclose([x[0] for x in rr.result], [r[0] for r in ref])
        # The bigger cluster does more of the work.
        assert rr.stats.jobs_processed == len(split.chunks)
        assert (
            rr.stats.clusters["cloud"].jobs_processed
            > rr.stats.clusters["local"].jobs_processed
        )


class TestComputeHints:
    def test_spec_cost_hints_order_matches_paper(self):
        """kmeans is compute-heavy, pagerank medium, knn light."""
        from repro.apps.kmeans import KMeansSpec
        from repro.apps.pagerank import PageRankSpec

        assert KMeansSpec.compute_s_per_unit > PageRankSpec.compute_s_per_unit
        assert PageRankSpec.compute_s_per_unit > KnnSpec.compute_s_per_unit
