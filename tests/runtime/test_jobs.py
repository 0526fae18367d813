"""Unit tests for jobs and pools."""

import pytest

from repro.data.formats import tokens_format
from repro.data.index import build_index
from repro.runtime.jobs import ASK, STOP, WAIT, ClusterPool, Job, jobs_from_index


@pytest.fixture
def index():
    return build_index(tokens_format(), [10, 10], chunk_units=4).with_placement(
        {"local": 0.5, "cloud": 0.5}
    )


class TestJobsFromIndex:
    def test_one_job_per_chunk(self, index):
        jobs = jobs_from_index(index)
        assert len(jobs) == len(index.chunks)
        assert [j.job_id for j in jobs] == [c.chunk_id for c in index.chunks]

    def test_job_properties_delegate_to_chunk(self, index):
        job = jobs_from_index(index)[0]
        chunk = index.chunks[0]
        assert job.location == chunk.location
        assert job.file_id == chunk.file_id
        assert job.nbytes == chunk.nbytes
        assert job.n_units == chunk.n_units

    def test_locations_follow_placement(self, index):
        jobs = jobs_from_index(index)
        assert {j.location for j in jobs} == {"local", "cloud"}


class TestClusterPool:
    def test_first_worker_asks_the_rest_wait_for_its_refill(self, index):
        jobs = jobs_from_index(index)
        pool = ClusterPool(2)
        assert pool.next(False) is ASK
        assert pool.next(False) is WAIT and not pool.drained
        pool.refilled(jobs[:3])
        assert [pool.next(False) for _ in range(3)] == jobs[:3]
        assert pool.next(False) is ASK

    def test_empty_refill_drains_until_reopened(self):
        pool = ClusterPool(1)
        assert pool.next(False) is ASK
        pool.refilled([])
        assert pool.drained
        assert pool.next(False) is WAIT  # more may come
        assert pool.next(True) is STOP  # the head holds nothing more
        assert pool.reopen() and not pool.reopen()
        assert pool.next(True) is ASK  # asks once more before it stops

    def test_last_death_hands_back_the_pool(self, index):
        jobs = jobs_from_index(index)
        pool = ClusterPool(2)
        pool.next(False)
        pool.refilled(jobs[:3])
        assert len(pool) == 3
        assert pool.worker_died() == []
        assert pool.worker_died() == jobs[2::-1]
        assert len(pool) == 0
