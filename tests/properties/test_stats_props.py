"""Property-based tests for the stats rollup.

``WorkerStats``' field list is the one declaration of which counters
exist; every level above is a function of it.  For random populations
of workers over 1-3 clusters, each counter read on ``ClusterStats`` /
``RunStats`` must equal the brute-force sum (per-worker mean for the six
stacked-bar timers), whichever way the classes choose to produce it.
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.stats import ClusterStats, RunStats, WorkerStats

#: The stacked-bar timers: per-worker means at cluster level.
MEANS = ("processing_s", "retrieval_s", "sync_s", "overlap_s", "ipc_s", "ser_s")

#: ``finished_at`` is a timestamp and ``failed`` a flag: state, not counters.
NOT_COUNTERS = ("finished_at", "failed")

#: Every numeric field (``fetch_latencies``, a list of samples, pools).
WORKER_COUNTERS = [
    f.name for f in dataclasses.fields(WorkerStats)
    if f.name not in NOT_COUNTERS and f.type != "list"
]

#: What the fetchers fed into a cluster before each fetch's ledger was
#: booked into its worker's counters.
FETCH_COUNTERS = (
    "n_retries", "n_errors", "bytes_retried", "n_breaker_skips", "n_abandoned",
    "n_single_fetches", "n_split_fetches",
)

#: Worker counters ``ClusterStats`` / ``RunStats`` forwarded by hand
#: before the rollup was derived -- the surface that must keep reading
#: the same values.
LEGACY_CLUSTER = MEANS + (
    "jobs_processed", "jobs_stolen", "prefetch_hits", "prefetch_misses",
    "cache_hits", "cache_misses", "jobs_recovered", "recovery_s", "shm_nbytes",
    "bytes_wire", "bytes_logical", "decode_s", "fold_s", "bytes_folded",
    "n_fold_calls", "n_copies", "n_failovers", "n_hedges", "hedge_wins",
    "n_fragments", "n_parity_decodes", "fragments_wasted_bytes",
) + FETCH_COUNTERS
LEGACY_RUN = (
    "jobs_processed", "jobs_stolen", "prefetch_hits", "cache_hits",
    "cache_misses", "n_failovers", "n_hedges", "hedge_wins", "n_fragments",
    "n_parity_decodes", "jobs_recovered", "recovery_s", "shm_nbytes",
    "bytes_wire", "bytes_logical", "decode_s", "fold_s", "bytes_folded",
    "n_fold_calls", "n_copies", "fragments_wasted_bytes",
) + FETCH_COUNTERS


def _field_strategy(f):
    if f.type == "bool":
        return st.booleans()
    if f.type == "int":
        return st.integers(0, 10**9)
    if f.type == "list":
        return st.lists(st.floats(0.0, 10.0, allow_nan=False), max_size=6)
    assert f.type == "float", f
    return st.floats(0.0, 1e4, allow_nan=False)


worker_stats = st.builds(
    WorkerStats,
    **{f.name: _field_strategy(f) for f in dataclasses.fields(WorkerStats)},
)


@st.composite
def cluster_stats(draw, name):
    return ClusterStats(name, name, workers=draw(st.lists(worker_stats, max_size=4)))


@st.composite
def run_stats(draw):
    rs = RunStats(total_s=draw(st.floats(0.0, 1e4, allow_nan=False)))
    for name in draw(st.sampled_from([("a",), ("a", "b"), ("a", "b", "c")])):
        rs.clusters[name] = draw(cluster_stats(name))
    rs.breakers = {
        "cloud": {"n_opened": draw(st.integers(0, 5)),
                  "n_half_opened": draw(st.integers(0, 5)),
                  "n_closed": draw(st.integers(0, 5))},
    }
    return rs


def brute_cluster(c: ClusterStats, name: str):
    total = sum(getattr(w, name) for w in c.workers)
    if name in MEANS:
        return total / len(c.workers) if c.workers else 0.0
    return total


def brute_run(rs: RunStats, name: str):
    return sum(brute_cluster(c, name) for c in rs.clusters.values())


def p95(samples):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(0.95 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


class TestRollup:
    @given(rs=run_stats())
    @settings(max_examples=60, deadline=None)
    def test_legacy_surface_is_the_brute_force_rollup(self, rs):
        for c in rs.clusters.values():
            for name in LEGACY_CLUSTER:
                assert getattr(c, name) == pytest.approx(brute_cluster(c, name)), name
        for name in LEGACY_RUN:
            assert getattr(rs, name) == pytest.approx(brute_run(rs, name)), name

    @given(rs=run_stats())
    @settings(max_examples=60, deadline=None)
    def test_every_worker_counter_rolls_up_at_both_levels(self, rs):
        """Adding a field to ``WorkerStats`` is all a new counter needs."""
        for name in WORKER_COUNTERS:
            for c in rs.clusters.values():
                assert getattr(c, name) == pytest.approx(brute_cluster(c, name)), name
            assert getattr(rs, name) == pytest.approx(brute_run(rs, name)), name

    @given(rs=run_stats())
    @settings(max_examples=60, deadline=None)
    def test_hand_written_views(self, rs):
        for c in rs.clusters.values():
            assert c.n_workers == len(c.workers)
            assert c.workers_failed == sum(1 for w in c.workers if w.failed)
            assert c.total_s == pytest.approx(sum(
                brute_cluster(c, n)
                for n in ("processing_s", "retrieval_s", "sync_s", "ipc_s", "ser_s")
            ))
            samples = [s for w in c.workers for s in w.fetch_latencies]
            assert c.fetch_latencies == samples
            assert c.fetch_p95_s == p95(samples)
        clusters = list(rs.clusters.values())
        assert rs.n_failed_workers == sum(c.workers_failed for c in clusters)
        assert rs.n_breaker_transitions == sum(rs.breakers["cloud"].values())
        pooled = [s for c in clusters for w in c.workers for s in w.fetch_latencies]
        assert rs.fetch_latencies == pooled
        assert rs.fetch_p95_s == p95(pooled)

    @given(rs=run_stats())
    @settings(max_examples=60, deadline=None)
    def test_ratios_are_one_formula_at_every_level(self, rs):
        for level in [rs, *rs.clusters.values()]:
            fetches = level.cache_hits + level.cache_misses
            assert level.cache_hit_rate == (
                level.cache_hits / fetches if fetches else 0.0
            )
            assert level.compress_ratio == (
                level.bytes_wire / level.bytes_logical if level.bytes_logical else 1.0
            )
            assert level.fold_ns_per_byte == (
                level.fold_s * 1e9 / level.bytes_folded if level.bytes_folded else 0.0
            )
        for c in rs.clusters.values():
            for w in c.workers:
                assert w.busy_s == w.processing_s + w.retrieval_s
                assert w.fold_ns_per_byte == (
                    w.fold_s * 1e9 / w.bytes_folded if w.bytes_folded else 0.0
                )

    @given(rs=run_stats())
    @settings(max_examples=40, deadline=None)
    def test_pickle_and_deepcopy_round_trip(self, rs):
        for clone in (pickle.loads(pickle.dumps(rs)), copy.deepcopy(rs), copy.copy(rs)):
            assert clone == rs
            assert clone.jobs_processed == rs.jobs_processed
            assert clone.breakdown_rows() == rs.breakdown_rows()
        for c in rs.clusters.values():
            assert pickle.loads(pickle.dumps(c)) == c
            assert copy.deepcopy(c) == c


class TestEdges:
    def test_empty_cluster_and_empty_run_read_zero(self):
        c = ClusterStats("x", "local")
        rs = RunStats()
        for name in LEGACY_CLUSTER:
            assert getattr(c, name) == 0, name
        for name in LEGACY_RUN:
            assert getattr(rs, name) == 0, name
        rs.clusters["x"] = c
        for name in LEGACY_RUN:
            assert getattr(rs, name) == 0, name
        assert (c.cache_hit_rate, c.compress_ratio, c.fold_ns_per_byte) == (0.0, 1.0, 0.0)
        assert (rs.cache_hit_rate, rs.compress_ratio, rs.fold_ns_per_byte) == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "obj", [WorkerStats(), ClusterStats("x", "local"), RunStats()],
        ids=["worker", "cluster", "run"],
    )
    def test_unknown_attribute_raises(self, obj):
        for name in ("no_such_counter", "n_copiez", "__no_such_dunder__"):
            with pytest.raises(AttributeError):
                getattr(obj, name)
            assert not hasattr(obj, name)

    def test_flags_and_timestamps_do_not_roll_up(self):
        c = ClusterStats("x", "local", workers=[WorkerStats(finished_at=2.0, failed=True)])
        c.finished_at = 5.0
        rs = RunStats(clusters={"x": c})
        assert c.finished_at == 5.0  # the cluster's own field, not a worker sum
        for name in NOT_COUNTERS:
            assert not hasattr(rs, name), name
        assert not hasattr(c, "failed")

    def test_own_fields_win_over_the_rollup(self):
        """``RunStats.total_s`` is the run's wall clock, not a cluster sum."""
        c = ClusterStats("x", "local", workers=[WorkerStats(processing_s=2.0)])
        rs = RunStats(clusters={"x": c}, total_s=7.0)
        assert rs.total_s == 7.0
        assert c.total_s == 2.0
