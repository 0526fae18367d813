"""Property tests for the k-of-n source race behind every multi-source fetch.

``ParallelFetcher._race`` serves replica failover and hedging (k = 1
over a chunk's sources) and striped retrieval (k of a stripe's
fragments).  Here it is driven with fake legs that succeed, fail with a
``FAILOVER_ERRORS`` member, or fail with a bug.  Hedged cases gate their
legs on events instead of sleeping.
"""

import threading
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.erasure import ErasureError
from repro.storage.faults import PermanentStorageError
from repro.storage.health import BreakerPolicy, HealthRegistry, HedgePolicy
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryExhausted
from repro.storage.transfer import FAILOVER_ERRORS, FetchInfo, ParallelFetcher

OK, FAIL, BUG = "ok", "fail", "bug"


class Bug(Exception):
    """An error the race must never treat as a failover."""


@dataclass(frozen=True)
class Cand:
    i: int
    location: str = "local"


def failover_error(exc_type, i):
    if exc_type is RetryExhausted:
        return RetryExhausted(f"leg {i}", OSError(), 1)
    return exc_type(f"leg {i}")


class Legs:
    """Fake race legs with scripted outcomes; tracks launches and liveness."""

    def __init__(self, outcomes, errors=None, gates=None, hooks=None):
        self.outcomes = outcomes
        self.errors = errors or {}
        self.gates = gates or {}
        self.hooks = hooks or {}
        self.launched: list[int] = []
        self.running = 0
        self._lock = threading.Lock()

    def __call__(self, cand, part):
        # Each leg books ``i`` retries in its own ledger, and a leg that
        # exhausts its retries one giveup, as the fetch path does.
        part.n_retries = cand.i
        with self._lock:
            self.launched.append(cand.i)
            self.running += 1
        try:
            if cand.i in self.hooks:
                self.hooks[cand.i]()
            if cand.i in self.gates:
                assert self.gates[cand.i].wait(10.0), "gate never opened"
            outcome = self.outcomes[cand.i]
            if outcome == FAIL:
                part.n_errors = isinstance(self.errors[cand.i], RetryExhausted)
                raise self.errors[cand.i]
            if outcome == BUG:
                raise Bug(cand.i)
            part.bytes_wire = 10 + cand.i
            return bytes([cand.i])
        finally:
            with self._lock:
                self.running -= 1


def run_race(fetcher, n, k, legs, hedge=None, n_data=None):
    """Race ``n`` candidates; leg ``i`` requests ``10 + i`` wire bytes."""
    books = FetchInfo()
    try:
        wins = fetcher._race(
            [Cand(i) for i in range(n)], k, legs, books, hedge,
            n_data=n_data, wire=lambda c: 10 + c.i,
        )
    except BaseException as exc:
        return None, exc, books
    return wins, None, books


class TestUnhedgedRace:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_outcome_books_and_liveness(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        k = data.draw(st.integers(1, n), label="k")
        outcomes = data.draw(
            st.lists(st.sampled_from([OK, FAIL, BUG]), min_size=n, max_size=n),
            label="outcomes",
        )
        errors = {
            i: failover_error(data.draw(st.sampled_from(FAILOVER_ERRORS)), i)
            for i, o in enumerate(outcomes)
            if o == FAIL
        }
        legs = Legs(outcomes, errors)
        with ParallelFetcher(MemoryStore("local")) as fetcher:
            wins, exc, books = run_race(fetcher, n, k, legs)
            # Nothing still running once the call has returned or raised.
            assert legs.running == 0
        launched = [outcomes[i] for i in legs.launched]
        assert len(set(legs.launched)) == len(legs.launched)  # each leg once
        if BUG in launched:
            assert isinstance(exc, Bug)  # a bug always propagates
            return
        assert books.n_failovers == launched.count(FAIL)
        assert books.n_hedges == books.hedge_wins == 0
        # Unhedged, no leg outlives the race: every launched leg handed
        # its ledger back, a failed-over giveup included.
        assert books.n_retries == sum(legs.launched)
        assert books.n_errors == sum(
            isinstance(errors.get(i), RetryExhausted) for i in legs.launched
        )
        if outcomes.count(OK) >= k:
            assert exc is None
            assert len(wins) == k
            assert {c.i for c, *_ in wins} <= {
                i for i, o in enumerate(outcomes) if o == OK
            }
            assert len({c.i for c, *_ in wins}) == k
            for cand, data_, info, latency in wins:
                assert data_ == bytes([cand.i]) and latency >= 0.0
        else:
            # k out of reach: a failover error that was raised propagates
            # (the last one, legs running one at a time, when k == 1).
            assert exc in errors.values()
            if k == 1:
                assert legs.launched == list(range(n))
                assert exc is errors[n - 1]

    @pytest.mark.parametrize("outcomes", [[OK, OK], [OK, FAIL], [FAIL, FAIL]])
    def test_fewer_candidates_than_k_is_an_erasure_error(self, outcomes):
        errors = {i: KeyError(i) for i, o in enumerate(outcomes) if o == FAIL}
        legs = Legs(outcomes, errors)
        with ParallelFetcher(MemoryStore("local")) as fetcher:
            wins, exc, books = run_race(fetcher, 2, 3, legs)
            assert legs.running == 0
        assert isinstance(exc, ErasureError)
        assert legs.launched == [] and books.n_failovers == 0

    def test_k1_without_hedge_runs_on_the_calling_thread(self):
        threads = []
        legs = Legs([FAIL, OK], {0: KeyError("gone")},
                    hooks={i: lambda: threads.append(threading.get_ident())
                           for i in range(2)})
        with ParallelFetcher(MemoryStore("local")) as fetcher:
            wins, exc, books = run_race(fetcher, 2, 1, legs)
            assert fetcher.pools._pools == {}
        assert exc is None and [c.i for c, *_ in wins] == [1]
        assert threads == [threading.get_ident()] * 2
        assert books.n_failovers == 1

    def test_data_candidates_launch_before_the_rest(self):
        """A stripe's parity launches only when a data leg fails."""
        legs = Legs([OK, FAIL, OK, OK], {1: ConnectionError("down")})
        with ParallelFetcher(MemoryStore("local")) as fetcher:
            wins, exc, books = run_race(fetcher, 4, 2, legs, n_data=2)
        assert exc is None
        assert sorted(c.i for c, *_ in wins) == [0, 2]
        assert sorted(legs.launched) == [0, 1, 2]


class TestHedgedRace:
    """Gated legs make every hedge deterministic: a hedge fires only
    while a gated leg is held, and the test opens gates itself."""

    def test_stalled_leg_is_hedged_and_the_hedge_wins(self):
        gate = threading.Event()
        legs = Legs([OK, OK], gates={0: gate})
        hedge = HedgePolicy(min_threshold_s=0.001, max_hedges=1)
        with ParallelFetcher(MemoryStore("local")) as fetcher:
            wins, exc, books = run_race(fetcher, 2, 1, legs, hedge)
            assert exc is None and [c.i for c, *_ in wins] == [1]
            assert (books.n_hedges, books.hedge_wins) == (1, 1)
            # Booked at the win, by the bytes it requested, while the
            # stalled leg is still parked.
            assert books.fragments_wasted_bytes == 10 and legs.running == 1
            gate.set()  # the stalled leg completes after the race

    def test_failover_is_not_a_hedge(self):
        legs = Legs([FAIL, OK], {0: PermanentStorageError("dead")})
        hedge = HedgePolicy(min_threshold_s=60.0)
        with ParallelFetcher(MemoryStore("local")) as fetcher:
            wins, exc, books = run_race(fetcher, 2, 1, legs, hedge)
        assert exc is None and [c.i for c, *_ in wins] == [1]
        assert (books.n_failovers, books.n_hedges, books.hedge_wins) == (1, 0, 0)

    def test_hedge_win_counts_only_hedge_launched_winners(self):
        """The hedge fires but the original leg still wins; ``max_hedges``
        keeps the third candidate from ever launching."""
        first, hedge_gate = threading.Event(), threading.Event()
        legs = Legs([OK, OK, OK], gates={0: first, 1: hedge_gate},
                    hooks={1: first.set})
        hedge = HedgePolicy(min_threshold_s=0.001, max_hedges=1)
        with ParallelFetcher(MemoryStore("local")) as fetcher:
            wins, exc, books = run_race(fetcher, 3, 1, legs, hedge)
            assert exc is None and [c.i for c, *_ in wins] == [0]
            assert (books.n_hedges, books.hedge_wins) == (1, 0)
            assert books.fragments_wasted_bytes == 11 and legs.running == 1
            hedge_gate.set()
        assert sorted(legs.launched) == [0, 1]

    def test_parity_hedge_joins_the_winners(self):
        gate = threading.Event()
        legs = Legs([OK, OK, OK], gates={1: gate})
        hedge = HedgePolicy(min_threshold_s=0.001, max_hedges=1)
        with ParallelFetcher(MemoryStore("local")) as fetcher:
            wins, exc, books = run_race(fetcher, 3, 2, legs, hedge, n_data=2)
            assert exc is None
            assert sorted(c.i for c, *_ in wins) == [0, 2]
            assert (books.n_hedges, books.hedge_wins) == (1, 1)
            gate.set()

    def ewmas(self, **latency_s):
        health = HealthRegistry()
        for loc, s in latency_s.items():
            health.record_success(loc, s)
        return health

    def test_replica_leg_is_judged_by_its_own_store(self):
        """A k = 1 leg on a store averaging 60 s is not late after 5 ms,
        however fast the other replica's store is."""
        gate = threading.Event()
        legs = Legs([OK, OK], gates={0: gate})
        hedge = HedgePolicy(multiplier=3.0, min_threshold_s=0.005, max_hedges=1)
        health = self.ewmas(cloud=60.0, local=1e-6)
        cands = [Cand(0, "cloud"), Cand(1, "local")]
        timer = threading.Timer(0.2, gate.set)
        with ParallelFetcher(MemoryStore("local"), health=health) as fetcher:
            timer.start()
            books = FetchInfo()
            wins = fetcher._race(cands, 1, legs, books, hedge)
        timer.join()
        assert [c.i for c, *_ in wins] == [0] and legs.launched == [0]
        assert books.n_hedges == 0

    def test_fragment_leg_is_judged_by_the_fastest_store(self):
        """The same slow store holding a stripe's data fragment is late
        against its fast siblings: the parity hedge fires."""
        gate = threading.Event()
        legs = Legs([OK, OK, OK], gates={0: gate})
        hedge = HedgePolicy(multiplier=3.0, min_threshold_s=0.005, max_hedges=1)
        health = self.ewmas(cloud=60.0, local=1e-6)
        cands = [Cand(0, "cloud"), Cand(1, "local"), Cand(2, "local")]
        with ParallelFetcher(MemoryStore("local"), health=health) as fetcher:
            books = FetchInfo()
            wins = fetcher._race(cands, 2, legs, books, hedge, n_data=2)
            assert sorted(c.i for c, *_ in wins) == [1, 2]
            assert (books.n_hedges, books.hedge_wins) == (1, 1)
            gate.set()

    def test_bug_absorbs_the_stalled_leg_and_propagates(self):
        """The hedge hits a bug and releases the stalled leg, which then
        fails over: whichever the race sees first, the bug wins."""
        gate = threading.Event()
        legs = Legs([FAIL, BUG], {0: TimeoutError("slow")},
                    gates={0: gate}, hooks={1: gate.set})
        hedge = HedgePolicy(min_threshold_s=0.001, max_hedges=1)
        with ParallelFetcher(MemoryStore("local")) as fetcher:
            wins, exc, books = run_race(fetcher, 2, 1, legs, hedge)
            assert isinstance(exc, Bug)
            assert legs.running == 0  # a failed race leaves no leg behind


class TestBreakerAdmission:
    """A candidate the race can do without launches only if its breaker
    admits it: store "half" is half-open with one probe slot, store
    "dead" is open, and every leg succeeds."""

    def health(self):
        now = [0.0]
        health = HealthRegistry(
            BreakerPolicy(fail_threshold=1, recovery_s=1.0, probes=1, close_after=9),
            clock=lambda: now[0],
        )
        health.record_failure("half")
        now[0] = 1.5  # "half" has cooled down; "dead" opens now
        health.record_failure("dead")
        return health

    def test_second_concurrent_race_is_refused_the_probe(self):
        """Race A holds the half-open probe while race B starts (from
        inside A's leg), so B passes "half" over for the last source."""
        cands = [Cand(0, "half"), Cand(1, "dead")]
        inner = []
        with ParallelFetcher(MemoryStore("local"), health=self.health()) as fetcher:

            books_a, books_b = FetchInfo(), FetchInfo()

            def race_b():
                inner.append(fetcher._race(cands, 1, legs, books_b, None))

            legs = Legs([OK, OK], hooks={0: lambda: inner or race_b()})
            wins = fetcher._race(cands, 1, legs, books_a, None)
            assert [c.i for c, *_ in wins] == [0]
            assert [c.i for c, *_ in inner[0]] == [1]
            assert legs.launched == [0, 1]
            assert fetcher.health.health("half").n_rejected == 1
            # "dead" demoted once per race, plus B's refused probe.
            assert (books_a.n_breaker_skips, books_b.n_breaker_skips) == (1, 2)
            # A's outcome released the slot: the next race gets the probe.
            again = fetcher._race(cands, 1, legs, FetchInfo(), None)
            assert [c.i for c, *_ in again] == [0]

    def test_half_open_store_has_one_leg_in_flight(self):
        """k = 2 of three "half" fragments and one "dead": one probe
        launches, the other two "half" legs are refused, and the open
        store is launched because k needs it."""
        gate = threading.Event()
        cands = [Cand(0, "half"), Cand(1, "half"), Cand(2, "half"), Cand(3, "dead")]
        legs = Legs([OK] * 4, gates={0: gate}, hooks={3: gate.set})
        with ParallelFetcher(MemoryStore("local"), health=self.health()) as fetcher:
            books = FetchInfo()
            wins = fetcher._race(cands, 2, legs, books, None)
            assert sorted(c.i for c, *_ in wins) == [0, 3]
            assert sorted(legs.launched) == [0, 3]
            assert fetcher.health.health("half").n_rejected == 2
            assert books.n_breaker_skips == 1 + 2

    def test_hedge_is_not_sent_to_an_open_store(self):
        gate = threading.Event()
        cands = [Cand(0, "local"), Cand(1, "dead")]
        legs = Legs([OK, OK], gates={0: gate})
        hedge = HedgePolicy(min_threshold_s=0.001, max_hedges=1)
        health = self.health()
        dead = health.health("dead")
        allow = dead.allow
        # The stalled leg finishes only once the hedge has been refused.
        dead.allow = lambda: (allow(), gate.set())[0]
        with ParallelFetcher(MemoryStore("local"), health=health) as fetcher:
            books = FetchInfo()
            wins = fetcher._race(cands, 1, legs, books, hedge)
        assert [c.i for c, *_ in wins] == [0] and legs.launched == [0]
        assert (books.n_hedges, books.hedge_wins) == (0, 0)
        assert dead.n_rejected == 1


@pytest.mark.parametrize("exc_type", FAILOVER_ERRORS)
def test_every_failover_error_fails_over(exc_type):
    legs = Legs([FAIL, OK], {0: failover_error(exc_type, 0)})
    with ParallelFetcher(MemoryStore("local")) as fetcher:
        wins, exc, books = run_race(fetcher, 2, 1, legs)
    assert exc is None and books.n_failovers == 1
