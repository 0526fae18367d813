"""A race waits on its own legs' completions.

``ParallelFetcher._race`` waits on a per-race queue that each leg's
done-callback puts its future on, through a weak reference to the
queue, with the hedge threshold as the wait's timeout.  These tests pin
what that must keep: a hedge fires at its threshold and not before a
leg lands, the queue dies with the race, so a loser detached by a won
race finds nothing to put to when it ends, and nothing the race leaves
behind is a reference cycle.
"""

import queue
import threading
import time
import weakref
from concurrent.futures import Future
from dataclasses import dataclass

import repro.storage.transfer as transfer
from repro.storage.health import HedgePolicy
from repro.storage.local import MemoryStore
from repro.storage.transfer import FetchInfo, ParallelFetcher
from tests.gated import WAIT_S, wait_for
from tests.service.test_pass_reclaim import repro_garbage, saved_garbage


@dataclass(frozen=True)
class Cand:
    i: int
    location: str = "local"


class Legs:
    """Leg ``i`` waits on ``gates[i]`` (if any), after ``delays[i]``
    seconds, then returns ``bytes([i])``; ``started[i]`` is when it began."""

    def __init__(self, gates=None, delays=None):
        self.gates = gates or {}
        self.delays = delays or {}
        self.started: dict[int, float] = {}
        self.ended: dict[int, float] = {}

    def __call__(self, cand, part):
        self.started[cand.i] = time.monotonic()
        time.sleep(self.delays.get(cand.i, 0.0))
        if cand.i in self.gates:
            assert self.gates[cand.i].wait(WAIT_S), "gate never opened"
        part.bytes_wire = 10 + cand.i
        self.ended[cand.i] = time.monotonic()
        return bytes([cand.i])


def race(fetcher, legs, n, hedge):
    books = FetchInfo()
    wins = fetcher._race(
        [Cand(i) for i in range(n)], 1, legs, books, hedge, wire=lambda c: 10 + c.i,
    )
    return wins, books


class TestHedgeThreshold:
    def test_a_stalled_leg_is_hedged_at_its_threshold(self):
        threshold = 0.1
        gate = threading.Event()
        legs = Legs(gates={0: gate})
        with ParallelFetcher({"local": MemoryStore("local")}) as fetcher:
            t0 = time.monotonic()
            wins, books = race(fetcher, legs, 2, HedgePolicy(min_threshold_s=threshold))
            gate.set()
        assert [c.i for c, *_ in wins] == [1]
        assert (books.n_hedges, books.hedge_wins) == (1, 1)
        fired = legs.started[1] - t0
        assert threshold <= fired < threshold + 1.0, fired

    def test_a_leg_that_lands_first_is_not_hedged(self):
        legs = Legs(delays={0: 0.02})
        with ParallelFetcher({"local": MemoryStore("local")}) as fetcher:
            wins, books = race(fetcher, legs, 2, HedgePolicy(min_threshold_s=5.0))
        assert [c.i for c, *_ in wins] == [0]
        assert books.n_hedges == 0 and list(legs.started) == [0]


class TestTheQueueGoesWithTheRace:
    def test_a_detached_loser_finds_the_queue_freed(self, monkeypatch):
        """The hedge wins; the stalled leg is detached and ends only after
        the race returned.  By then the race's queue is gone: its
        callback's weak reference is dead and it puts nothing."""
        calls: list[tuple[int, bool]] = []
        refs: list[weakref.ref] = []
        landed = transfer._landed

        def spy(race_ref, fut):
            refs.append(race_ref)
            calls.append((fut.result()[0][0], race_ref() is not None))
            landed(race_ref, fut)

        monkeypatch.setattr(transfer, "_landed", spy)
        gate = threading.Event()
        legs = Legs(gates={0: gate})
        store = MemoryStore("local")
        with saved_garbage() as garbage:
            with ParallelFetcher({"local": store}) as fetcher:
                wins, books = race(fetcher, legs, 2, HedgePolicy(min_threshold_s=0.001))
                assert [c.i for c, *_ in wins] == [1]
                assert books.fragments_wasted_bytes == 10  # leg 0, at the win
                assert store.stats.n_detached == 1
                assert refs and all(ref() is None for ref in refs)
                gate.set()
                wait_for(lambda: store.stats.n_detached == 0)
            del wins
            assert calls == [(1, True), (0, False)]
            assert repro_garbage(garbage) == {}
            assert not [
                o for o in garbage if isinstance(o, (queue.SimpleQueue, Future))
            ]

    def test_a_won_race_frees_its_queue_on_return(self, monkeypatch):
        refs: list[weakref.ref] = []
        landed = transfer._landed

        def spy(race_ref, fut):
            refs.append(race_ref)
            landed(race_ref, fut)

        monkeypatch.setattr(transfer, "_landed", spy)
        legs = Legs()
        with ParallelFetcher({"local": MemoryStore("local")}) as fetcher:
            for hedge in (None, HedgePolicy(min_threshold_s=5.0)):
                refs.clear()
                wins, _ = race(fetcher, legs, 2, hedge)
                assert [c.i for c, *_ in wins] == [0]
                assert refs and all(ref() is None for ref in refs)
