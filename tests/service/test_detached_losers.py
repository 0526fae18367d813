"""A run resolves without waiting for its race losers.

Run A reads a striped, hedged dataset (k=4, m=2 over six stores) with
one fragment store parked behind a gate (``tests.gated.GatedStore``):
every chunk whose data fragment lives there wins its race with a parity
hedge and leaves that leg parked.  Nothing waits on those legs -- not
A's result, not the service's one finalizer, so not a later run B
either -- and A's stats, booked when each race was won, do not move
when the legs finally end.
"""

import copy
import threading
import time

from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import distribute_dataset, stripe_dataset, write_dataset
from repro.data.generator import generate_tokens
from repro.runtime import ClusterConfig
from repro.service import BurstingService
from repro.storage.health import HedgePolicy
from repro.storage.local import MemoryStore
from tests.gated import WAIT_S, GatedStore

K, M = 4, 2
RESULT_S = 5.0


def wait_for(predicate, timeout=WAIT_S):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class Rig:
    """Run A striped over six stores, one gated; run B local-only."""

    def __init__(self):
        self.before = set(threading.enumerate())
        self.gated = GatedStore("spare0")
        self.stores = {
            "local": MemoryStore("local"), "cloud": MemoryStore("cloud"),
            "spare0": self.gated,
            **{f"spare{i}": MemoryStore(f"spare{i}") for i in (1, 2, 3)},
        }
        self.spec = WordCountSpec()
        self.a_tokens = generate_tokens(6000, 300, seed=5)
        self.b_tokens = generate_tokens(2000, 100, seed=6)
        a = write_dataset(
            self.a_tokens, self.spec.fmt, self.stores["local"], n_files=2,
            chunk_units=1000, key_prefix="a",
        )
        a = distribute_dataset(
            a, self.stores, {"local": 0.5, "cloud": 0.5}, self.stores["local"]
        )
        self.a_index = stripe_dataset(a, self.stores, k=K, m=M)
        self.b_index = write_dataset(
            self.b_tokens, self.spec.fmt, self.stores["local"], n_files=2,
            chunk_units=500, key_prefix="b",
        )
        # The legs A leaves behind: its data fragments on the gated store.
        gated = [
            f for c in self.a_index.chunks for f in c.fragments
            if f.location == "spare0"
        ]
        assert len(gated) == len(self.a_index.chunks)  # one fragment per store
        self.losers = [f for f in gated if f.frag_index < K]
        assert self.losers
        self.service = BurstingService(
            [ClusterConfig("local", "local", 1, 1), ClusterConfig("cloud", "cloud", 1, 1)],
            self.stores, batch_size=1,
            hedge=HedgePolicy(min_threshold_s=0.005, max_hedges=1),
        )

    def run_a(self):
        """Submit A and return its handle once every loser is parked and
        every chunk has folded."""
        a = self.service.submit(self.spec, self.a_index)
        self.gated.wait_parked(len(self.losers))
        wait_for(lambda: a.progress()["jobs_done"] == len(self.a_index.chunks))
        return a

    def close(self):
        self.gated.open_all()
        self.service.shutdown()
        wait_for(lambda: self.gated.stats.n_detached == 0)
        wait_for(lambda: set(threading.enumerate()) <= self.before)


def test_a_later_run_does_not_wait_for_an_earlier_runs_losers():
    rig = Rig()
    try:
        a = rig.run_a()
        b = rig.service.submit(rig.spec, rig.b_index)
        assert b.result(timeout=RESULT_S).result == wordcount_exact(rig.b_tokens)
        assert a.result(timeout=RESULT_S).result == wordcount_exact(rig.a_tokens)
        assert len(rig.gated.parked) == len(rig.losers)  # still parked
    finally:
        rig.close()


def test_a_runs_stats_are_final_when_it_resolves():
    rig = Rig()
    try:
        stats = rig.run_a().result(timeout=RESULT_S).stats
        assert len(rig.gated.parked) == len(rig.losers)
        # Each loser booked by the bytes it requested when its race was won.
        assert stats.fragments_wasted_bytes == sum(f.nbytes for f in rig.losers)
        assert stats.n_parity_decodes == len(rig.losers)
        before = copy.deepcopy(stats)
        rig.gated.open_all()
        wait_for(lambda: rig.gated.stats.n_detached == 0)
        assert stats == before
    finally:
        rig.close()
