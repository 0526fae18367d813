"""DES model of erasure-coded fastest-k-of-n retrieval.

The simulator must agree with the live engines on the shape of the
win: k-of-n completion masks a stalled leg (order statistics), parity
decodes happen exactly when a data leg stalls, and a clean run pays no
waste at all.
"""

import pytest

from repro.bursting.config import paper_environments
from repro.bursting.driver import paper_index
from repro.sim.calibration import APP_PROFILES, ResourceParams
from repro.sim.simrun import simulate_run
from repro.storage.faults import FaultSpec

PROFILE = APP_PROFILES["kmeans"]
PARAMS = ResourceParams()


def setup():
    env_cfg = paper_environments(PROFILE)[0]
    index = paper_index(PROFILE, env_cfg)
    return index, env_cfg.clusters(PARAMS)


STALLS = {
    loc: FaultSpec(stall_p=0.3, stall_s=5.0, seed=7)
    for loc in ("local", "cloud")
}


class TestStripedSim:
    def test_clean_run_counts_fragments_only(self):
        index, clusters = setup()
        res = simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                           stripe=(4, 2))
        assert res.stats.n_fragments == 4 * res.stats.jobs_processed
        assert res.stats.n_parity_decodes == 0
        assert res.stats.fragments_wasted_bytes == 0

    def test_stalls_trigger_parity_and_waste(self):
        index, clusters = setup()
        res = simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                           stripe=(4, 2), store_stalls=STALLS)
        assert res.stats.n_parity_decodes > 0
        assert res.stats.fragments_wasted_bytes > 0

    def test_striping_masks_stalls(self):
        index, clusters = setup()
        base = simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                            store_stalls=STALLS)
        striped = simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                               stripe=(4, 2), store_stalls=STALLS)
        assert striped.total_s < base.total_s

    def test_prefetch_composes_with_striping(self):
        index, clusters = setup()
        res = simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                           stripe=(4, 2), store_stalls=STALLS, prefetch=True)
        assert res.stats.n_parity_decodes > 0
        assert res.stats.jobs_processed > 0

    def test_deterministic(self):
        index, clusters = setup()
        runs = [
            simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                         stripe=(4, 2), store_stalls=STALLS).total_s
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("bad", [(0, 1), (1, 0), (4,), (-2, 3)])
    def test_invalid_stripe_rejected(self, bad):
        index, clusters = setup()
        with pytest.raises(ValueError):
            simulate_run(index, clusters, PROFILE, PARAMS, stripe=bad)

    @pytest.mark.parametrize(
        "bad, wording",
        [((0, 2), "stripe needs k >= 1"), ((200, 100), r"exceeds GF\(256\) limit")],
        ids=["k-zero", "wider-than-gf256"],
    )
    def test_invalid_stripe_rejected_in_the_validators_words(self, bad, wording):
        """The DES checks a stripe by the rule every layer calls, so it
        cannot model one that ``stripe_dataset`` could not write."""
        index, clusters = setup()
        with pytest.raises(ValueError, match=wording):
            simulate_run(index, clusters, PROFILE, PARAMS, stripe=bad)


class TestStripedWindow:
    """A raced stripe opens the read-ahead window without ``prefetch``,
    as the live worker's does (:func:`repro.runtime.core.window_limit`)."""

    def test_raced_stripe_reads_ahead_without_prefetch(self):
        index, clusters = setup()
        res = simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                           stripe=(4, 2))
        assert res.stats.prefetch_hits + res.stats.prefetch_misses > 0
        assert res.stats.overlap_s > 0

    def test_unraced_stripe_keeps_the_window_closed(self):
        """One data leg and no hedge: the race runs inline, live and here."""
        index, clusters = setup()
        res = simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                           stripe=(1, 1))
        assert res.stats.prefetch_hits + res.stats.prefetch_misses == 0

    def test_raced_stripe_rejects_speculation_by_name(self):
        index, clusters = setup()
        with pytest.raises(ValueError, match=r"stripe=\(4, 2\).*speculation"):
            simulate_run(index, clusters, PROFILE, PARAMS, stripe=(4, 2),
                         speculation=True)

    def test_unraced_stripe_composes_with_speculation(self):
        index, clusters = setup()
        res = simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                           stripe=(1, 1), speculation=True)
        assert res.stats.jobs_processed == len(index.chunks)
