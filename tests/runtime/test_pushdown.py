"""Predicate pushdown at the head: planning, priority, soundness.

``plan_jobs`` sits between the index and the scheduler on every engine
(and in the simulator), so these tests pin its whole contract: pruning
only on proof, exact byte accounting, priority composition with the
locality scheduler, the ``verify`` soundness guard, and live/DES
agreement on bytes saved.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.filtered import FilteredWordCountSpec, filtered_wordcount_exact
from repro.apps.wordcount import WordCountSpec
from repro.core.api import (
    GeneralizedReductionSpec,
    has_pushdown_predicate,
    has_pushdown_priority,
    supports_pushdown,
)
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.formats import tokens_format
from repro.runtime import ClusterConfig, EngineOptions, make_engine
from repro.runtime.jobs import Job, jobs_from_index
from repro.runtime.pushdown import (
    PushdownPlan,
    PushdownSoundnessError,
    normalize_pushdown,
    plan_jobs,
)
from repro.runtime.scheduler import HeadScheduler
from repro.storage.local import MemoryStore

ENGINES = ("threaded", "process")


def sorted_token_env(n=8000, vocab=400, n_files=4, chunk_units=250):
    """Sorted tokens -> narrow per-chunk ranges -> pruning bites."""
    rng = np.random.default_rng(11)
    toks = np.sort(rng.integers(0, vocab, size=n))
    stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
    idx = write_dataset(
        toks, tokens_format(), stores["local"],
        n_files=n_files, chunk_units=chunk_units,
    )
    idx = distribute_dataset(
        idx, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
    )
    return toks, idx, stores


class TestNormalize:
    @pytest.mark.parametrize("raw,want", [
        (None, None), (False, None), ("off", None), ("", None), ("none", None),
        (True, "prune"), ("on", "prune"), ("prune", "prune"), ("PRUNE", "prune"),
        ("verify", "verify"),
    ])
    def test_canonical_forms(self, raw, want):
        assert normalize_pushdown(raw) == want

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="invalid pushdown mode"):
            normalize_pushdown("always")

    def test_engine_options_normalize(self):
        assert EngineOptions(pushdown=True).pushdown == "prune"
        assert EngineOptions(pushdown="off").pushdown is None
        with pytest.raises(ValueError):
            EngineOptions(pushdown="bogus")


class TestContractDetection:
    def test_base_spec_declares_nothing(self):
        spec = WordCountSpec()
        assert not has_pushdown_predicate(spec)
        assert not has_pushdown_priority(spec)
        assert not supports_pushdown(spec)

    def test_filtered_spec_declares_both(self):
        spec = FilteredWordCountSpec(0, 10)
        assert has_pushdown_predicate(spec)
        assert has_pushdown_priority(spec)
        assert supports_pushdown(spec)

    def test_partial_contract_counts(self):
        class OnlyRelevant(GeneralizedReductionSpec):
            def create_reduction_object(self):  # pragma: no cover
                raise NotImplementedError

            def local_reduction(self, robj, unit_group):  # pragma: no cover
                raise NotImplementedError

            def relevant(self, stats):
                return True

        spec = OnlyRelevant()
        assert has_pushdown_predicate(spec)
        assert not has_pushdown_priority(spec)
        assert supports_pushdown(spec)


class TestPlanJobs:
    def test_off_is_jobs_from_index(self):
        _toks, idx, _stores = sorted_token_env()
        plan = plan_jobs(idx, FilteredWordCountSpec(0, 10), None)
        assert plan.mode is None
        assert plan.pruned == [] and plan.n_reordered == 0
        assert [j.job_id for j in plan.jobs] == [
            j.job_id for j in jobs_from_index(idx)
        ]

    def test_no_contract_spec_passes_through(self):
        _toks, idx, _stores = sorted_token_env()
        plan = plan_jobs(idx, WordCountSpec(), "prune")
        assert plan.pruned == []
        assert len(plan.jobs) == len(idx.chunks)

    def test_prunes_only_provably_irrelevant(self):
        toks, idx, _stores = sorted_token_env()
        spec = FilteredWordCountSpec(100, 199)
        plan = plan_jobs(idx, spec, "prune")
        assert plan.mode == "prune"
        assert plan.n_pruned_chunks > 0
        assert len(plan.jobs) + plan.n_pruned_chunks == len(idx.chunks)
        for job in plan.pruned:
            st = job.chunk.stats
            assert st.maxs[0] < 100 or st.mins[0] > 199
        for job in plan.jobs:
            st = job.chunk.stats
            assert st.overlaps(0, 100, 199)

    def test_bytes_pruned_accounting(self):
        _toks, idx, _stores = sorted_token_env()
        plan = plan_jobs(idx, FilteredWordCountSpec(100, 199), "prune")
        assert plan.bytes_pruned == sum(
            j.chunk.wire_nbytes for j in plan.pruned
        )
        total = sum(c.wire_nbytes for c in idx.chunks)
        kept = sum(j.chunk.wire_nbytes for j in plan.jobs)
        assert plan.bytes_pruned + kept == total

    def test_chunks_without_stats_always_kept(self):
        rng = np.random.default_rng(12)
        toks = np.sort(rng.integers(0, 400, size=4000))
        store = MemoryStore()
        idx = write_dataset(toks, tokens_format(), store,
                            n_files=2, chunk_units=250)
        idx.chunks = [replace(c, stats=None) for c in idx.chunks]
        plan = plan_jobs(idx, FilteredWordCountSpec(0, 10), "prune")
        assert plan.pruned == []
        assert len(plan.jobs) == len(idx.chunks)

    def test_survivors_carry_priority_and_reorder_count(self):
        _toks, idx, _stores = sorted_token_env()
        spec = FilteredWordCountSpec(100, 199)
        plan = plan_jobs(idx, spec, "prune")
        assert any(j.priority > 0 for j in plan.jobs)
        assert plan.n_reordered == 0 or plan.n_reordered >= 2  # swaps pair up

    def test_verify_requires_stores(self):
        _toks, idx, _stores = sorted_token_env()
        with pytest.raises(ValueError, match="requires the stores"):
            plan_jobs(idx, FilteredWordCountSpec(100, 199), "verify")

    def test_verify_passes_for_sound_predicate(self):
        _toks, idx, stores = sorted_token_env()
        plan = plan_jobs(
            idx, FilteredWordCountSpec(100, 199), "verify", stores=stores
        )
        assert plan.mode == "verify"
        assert plan.n_pruned_chunks > 0

    def test_verify_catches_lying_predicate(self):
        class LyingSpec(FilteredWordCountSpec):
            """Prunes every chunk -- including ones that contribute."""

            def relevant(self, stats):
                return False

        _toks, idx, stores = sorted_token_env()
        with pytest.raises(PushdownSoundnessError, match="not the identity"):
            plan_jobs(idx, LyingSpec(100, 199), "verify", stores=stores)

    def test_apply_to_records_counters(self):
        from repro.runtime.stats import RunStats

        _toks, idx, _stores = sorted_token_env()
        plan = plan_jobs(idx, FilteredWordCountSpec(100, 199), "prune")
        stats = RunStats()
        plan.apply_to(stats)
        assert stats.pushdown_mode == "prune"
        assert stats.n_pruned_chunks == plan.n_pruned_chunks
        assert stats.bytes_pruned == plan.bytes_pruned
        assert stats.n_reordered == plan.n_reordered
        row = stats.pushdown_rows()[0]
        assert row["mode"] == "prune"
        assert row["n_pruned_chunks"] == plan.n_pruned_chunks


class TestSchedulerPriority:
    def _jobs_with_priorities(self, prios):
        from repro.data.index import build_index

        idx = build_index(
            tokens_format(), [3] * len(prios), chunk_units=3, location="local"
        )
        return [
            Job(j.job_id, j.chunk, priority=prios[j.file_id])
            for j in jobs_from_index(idx)
        ]

    def test_high_priority_file_served_first(self):
        jobs = self._jobs_with_priorities([0.0, 0.9, 0.5])
        sched = HeadScheduler(jobs)
        order = []
        while True:
            batch = sched.request_jobs("local", 1)
            if not batch:
                break
            order.append(batch[0].file_id)
            sched.complete(batch[0])
        assert order == [1, 2, 0]

    def test_zero_priorities_keep_legacy_order(self):
        jobs = self._jobs_with_priorities([0.0, 0.0, 0.0])
        sched = HeadScheduler(jobs)
        first = sched.request_jobs("local", 1)[0]
        assert first.file_id == 0

    def test_priority_yields_to_locality(self):
        """A cluster still takes its local data before remote
        high-priority files -- priority refines, never overrides,
        the paper's locality-first policy."""
        from repro.data.index import build_index

        idx = build_index(tokens_format(), [3, 3], chunk_units=3)
        placed = idx.with_placement({"local": 0.5, "cloud": 0.5})
        jobs = [
            Job(j.job_id, j.chunk,
                priority=0.9 if j.location == "cloud" else 0.0)
            for j in jobs_from_index(placed)
        ]
        sched = HeadScheduler(jobs)
        batch = sched.request_jobs("local", 1)
        assert batch[0].location == "local"


class TestEngineIntegration:
    @pytest.mark.parametrize("name", ENGINES)
    def test_pruned_chunks_never_fetched(self, name):
        toks, idx, stores = sorted_token_env()
        spec = FilteredWordCountSpec(100, 199)
        clusters = [
            ClusterConfig("local", "local", 2, 2),
            ClusterConfig("cloud", "cloud", 2, 2),
        ]
        off = make_engine(name, clusters, stores, batch_size=2).run(spec, idx)
        on = make_engine(
            name, clusters, stores, batch_size=2, pushdown="prune"
        ).run(spec, idx)
        ref = filtered_wordcount_exact(toks, 100, 199)
        assert off.result == ref and on.result == ref
        assert on.stats.n_pruned_chunks > 0
        assert on.stats.jobs_processed == (
            len(idx.chunks) - on.stats.n_pruned_chunks
        )
        assert on.stats.bytes_wire < off.stats.bytes_wire
        assert on.stats.bytes_wire + on.stats.bytes_pruned == off.stats.bytes_wire

    def test_sim_and_live_agree_on_bytes_pruned(self):
        from repro.sim.calibration import AppSimProfile, ResourceParams
        from repro.sim.simrun import SimClusterConfig, simulate_run

        toks, idx, stores = sorted_token_env()
        spec = FilteredWordCountSpec(100, 199)
        clusters = [
            ClusterConfig("local", "local", 2, 2),
            ClusterConfig("cloud", "cloud", 2, 2),
        ]
        live = make_engine(
            "threaded", clusters, stores, batch_size=2, pushdown="prune"
        ).run(spec, idx)
        profile = AppSimProfile(
            name="filtered-wc", unit_nbytes=8,
            compute_s_per_unit=1e-7, robj_nbytes=1024,
        )
        params = ResourceParams()
        sim_clusters = [
            SimClusterConfig("local", "local", 2),
            SimClusterConfig("cloud", "cloud", 2),
        ]
        sim = simulate_run(
            idx, sim_clusters, profile, params, pushdown=spec
        )
        assert sim.stats.n_pruned_chunks == live.stats.n_pruned_chunks
        assert sim.stats.bytes_pruned == live.stats.bytes_pruned
