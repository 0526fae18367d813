"""Concurrent placement: the organizer's puts go over several connections.

``distribute_dataset``, ``replicate_dataset`` and ``stripe_dataset``
run their per-object work on up to ``PLACEMENT_CONNECTIONS`` threads.
These tests pin that the concurrency is real and bounded, that the
outcome is exactly what one-at-a-time placement produces, and what a
failed put leaves behind.  Nothing here reads a clock: concurrency is
shown with a barrier, not with timings.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.data.dataset import (
    PLACEMENT_CONNECTIONS,
    distribute_dataset,
    ordered_placements,
    read_all_units,
    replicate_dataset,
    stripe_dataset,
    write_dataset,
)
from repro.data.formats import points_format
from repro.storage.erasure import stripe_frame
from repro.storage.local import MemoryStore

FMT = points_format(4)
N_FILES = 16  # two full rounds of the placement pool


def _points(n=1600):
    return np.random.default_rng(5).normal(size=(n, 4))


def _place_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("place_")]


class Gate:
    """Holds the first ``parties`` puts until all of them are in flight.

    One-at-a-time placement never has a second put waiting, so the
    barrier breaks (``BrokenBarrierError`` after its timeout).  The gate
    also records the most puts ever in flight at once and the threads
    that issued them.
    """

    def __init__(self, parties: int = PLACEMENT_CONNECTIONS) -> None:
        self.barrier = threading.Barrier(parties, timeout=5)
        self.parties = parties
        self._lock = threading.Lock()
        self._entered = 0
        self.inflight = 0
        self.peak = 0
        self.threads: set[str] = set()

    def put(self, do_put) -> None:
        with self._lock:
            gated = self._entered < self.parties
            self._entered += 1
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
            self.threads.add(threading.current_thread().name)
        try:
            if gated:
                self.barrier.wait()
            do_put()
        finally:
            with self._lock:
                self.inflight -= 1


class GatedStore(MemoryStore):
    def __init__(self, location: str, gate: Gate) -> None:
        super().__init__(location)
        self.gate = gate

    def put(self, key, data):
        self.gate.put(lambda: MemoryStore.put(self, key, data))


class FailingStore(MemoryStore):
    """Raises on the put of any key in ``fail_keys`` (and stores nothing)."""

    def __init__(self, location: str, fail_keys=()) -> None:
        super().__init__(location)
        self.fail_keys = set(fail_keys)

    def put(self, key, data):
        if key in self.fail_keys:
            raise OSError(f"injected put failure on {key}")
        super().put(key, data)


def _contents(store: MemoryStore) -> dict[str, bytes]:
    return {k: store.get(k) for k in store.list_keys()}


def _write(stores, *, n_files=N_FILES, codec=None, chunk_units=50):
    return write_dataset(
        _points(), FMT, stores["local"], n_files=n_files,
        chunk_units=chunk_units, codec=codec,
    )


class TestConcurrencyIsReal:
    def test_distribute_puts_in_parallel(self):
        gate = Gate()
        stores = {"local": MemoryStore("local"), "cloud": GatedStore("cloud", gate)}
        idx = _write(stores)
        placed = distribute_dataset(idx, stores, {"local": 0.0, "cloud": 1.0}, stores["local"])
        assert gate.peak == PLACEMENT_CONNECTIONS
        assert all(name.startswith("place_") for name in gate.threads)
        assert np.array_equal(read_all_units(placed, stores), _points())

    def test_stripe_puts_in_parallel(self):
        gate = Gate()
        stores = {"local": MemoryStore("local")}
        stores.update({f"s{i}": GatedStore(f"s{i}", gate) for i in range(5)})
        idx = _write(stores)
        # Home-first fragments go to "local" ungated; parity and the
        # rest land on the gated spares.
        striped = stripe_dataset(idx, stores, k=4, m=2)
        assert gate.peak == PLACEMENT_CONNECTIONS
        assert np.array_equal(read_all_units(striped, stores), _points())

    def test_replicate_puts_in_parallel(self):
        gate = Gate()
        stores = {"local": MemoryStore("local"), "cloud": GatedStore("cloud", gate)}
        idx = _write(stores)
        replicated = replicate_dataset(idx, stores, n_replicas=1)
        assert gate.peak == PLACEMENT_CONNECTIONS
        assert _contents(stores["cloud"]) == _contents(stores["local"])
        assert len(replicated.chunks[0].replicas) == 1

    @pytest.mark.parametrize("n_files,cloud", [(1, 1.0), (2, 0.5)])
    def test_one_task_starts_no_thread(self, n_files, cloud):
        gate = Gate(parties=1)  # a lone put passes its own barrier
        stores = {"local": MemoryStore("local"), "cloud": GatedStore("cloud", gate)}
        idx = _write(stores, n_files=n_files)
        distribute_dataset(
            idx, stores, {"local": 1.0 - cloud, "cloud": cloud}, stores["local"]
        )
        assert len(stores["cloud"].list_keys()) == 1
        assert gate.threads == {threading.current_thread().name}

    def test_no_moves_no_thread(self):
        gate = Gate(parties=1)
        stores = {"local": GatedStore("local", gate), "cloud": MemoryStore("cloud")}
        idx = _write(stores)
        gate.threads.clear()
        placed = distribute_dataset(idx, stores, {"local": 1.0, "cloud": 0.0}, stores["local"])
        assert placed.files == idx.files
        assert gate.threads == set()
        assert stores["cloud"].list_keys() == []


class TestIdenticalOutcome:
    def test_distribute_matches_one_at_a_time(self):
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        idx = _write(stores)
        original = _contents(stores["local"])
        gets_before = stores["local"].stats.n_gets
        fractions = {"local": 0.3, "cloud": 0.7}
        placed = distribute_dataset(idx, stores, fractions, stores["local"])
        assert placed == idx.with_placement(fractions)
        n_moved = sum(f.location == "cloud" for f in placed.files)
        assert stores["local"].stats.n_gets - gets_before == n_moved
        assert stores["cloud"].stats.n_puts == n_moved
        assert stores["local"].stats.n_puts == N_FILES  # the writes only
        for name, store in stores.items():
            assert _contents(store) == {
                f.key: original[f.key] for f in placed.files if f.location == name
            }

    @pytest.mark.parametrize("codec", [None, "identity", "zlib", "lz4", "shuffle"])
    @pytest.mark.parametrize("k,m", [(2, 1), (4, 2)])
    def test_stripe_matches_one_at_a_time(self, codec, k, m):
        names = ["local", "cloud", "s0", "s1"]
        stores = {n: MemoryStore(n) for n in names}
        idx = _write(stores, codec=codec)
        idx = distribute_dataset(idx, stores, {"local": 0.5, "cloud": 0.5}, stores["local"])
        # The fragments one-at-a-time striping writes, in chunk order.
        expected = {n: {} for n in names}
        frag_rows = []
        for c in idx.chunks:
            frame = stores[c.location].get(c.key, c.wire_offset, c.wire_nbytes)
            locs = ordered_placements(
                stores, c.location, k + m, rotation=c.chunk_id,
                include_home=True, distinct=False,
            )
            row = []
            for j, (loc, data) in enumerate(zip(locs, stripe_frame(frame, k, m))):
                key = f"{c.key}.c{c.chunk_id:06d}.f{j:02d}"
                expected[loc][key] = data
                row.append((j, loc, key, len(data)))
            frag_rows.append(row)
        puts_before = {n: s.stats.n_puts for n, s in stores.items()}

        striped = stripe_dataset(idx, stores, k=k, m=m)

        assert [c.chunk_id for c in striped.chunks] == [c.chunk_id for c in idx.chunks]
        assert [
            [(f.frag_index, f.location, f.key, f.nbytes) for f in c.fragments]
            for c in striped.chunks
        ] == frag_rows
        assert all(c.stripe == (k, m) for c in striped.chunks)
        assert striped.meta["stripe"] == [k, m]
        for n, store in stores.items():
            assert _contents(store) == expected[n]  # originals deleted
            assert store.stats.n_puts - puts_before[n] == len(expected[n])
        assert np.array_equal(read_all_units(striped, stores), _points())

    def test_replicate_matches_one_at_a_time(self):
        names = ["local", "cloud", "s0"]
        stores = {n: MemoryStore(n) for n in names}
        idx = _write(stores)
        idx = distribute_dataset(idx, stores, {"local": 0.5, "cloud": 0.5}, stores["local"])
        before = {n: _contents(s) for n, s in stores.items()}
        puts_before = {n: s.stats.n_puts for n, s in stores.items()}
        replicated = replicate_dataset(idx, stores, n_replicas=2)
        expected = {n: dict(before[n]) for n in names}
        for i, f in enumerate(idx.files):
            for loc in ordered_placements(stores, f.location, 2, rotation=i):
                expected[loc][f.key] = before[f.location][f.key]
        for n, store in stores.items():
            assert _contents(store) == expected[n]
            assert store.stats.n_puts - puts_before[n] == len(expected[n]) - len(before[n])
        for c in replicated.chunks:
            locs = ordered_placements(stores, c.location, 2, rotation=c.file_id)
            assert [r.location for r in c.replicas] == locs
        assert np.array_equal(read_all_units(replicated, stores), _points())


class TestFailure:
    def test_distribute_failure_loses_no_file(self):
        idx_keys = [f"part-{i:05d}.bin" for i in range(N_FILES)]
        stores = {
            "local": MemoryStore("local"),
            "cloud": FailingStore("cloud", fail_keys={idx_keys[3], idx_keys[9]}),
        }
        idx = _write(stores)
        original = _contents(stores["local"])
        with pytest.raises(OSError, match=idx_keys[3]):  # first in file order
            distribute_dataset(idx, stores, {"local": 0.0, "cloud": 1.0}, stores["local"])
        local, cloud = _contents(stores["local"]), _contents(stores["cloud"])
        for key, data in original.items():
            assert (key in local) != (key in cloud)
            assert local.get(key, cloud.get(key)) == data
        # Every other move still ran to completion.
        assert sorted(local) == [idx_keys[3], idx_keys[9]]
        assert _place_threads() == []

    def test_stripe_failure_keeps_every_source(self):
        victim = "part-00003.bin.c000007.f03"  # two chunks per file
        stores = {"local": MemoryStore("local")}
        stores.update({f"s{i}": FailingStore(f"s{i}", {victim}) for i in range(5)})
        idx = _write(stores)
        assert idx.chunks[7].key == "part-00003.bin"
        original = _contents(stores["local"])
        with pytest.raises(OSError, match="injected put failure"):
            stripe_dataset(idx, stores, k=4, m=2)
        for key, data in original.items():
            assert stores["local"].get(key) == data
        assert _place_threads() == []

    def test_replicate_failure_propagates(self):
        stores = {
            "local": MemoryStore("local"),
            "cloud": FailingStore("cloud", fail_keys={"part-00012.bin"}),
        }
        idx = _write(stores)
        with pytest.raises(OSError, match="part-00012.bin"):
            replicate_dataset(idx, stores, n_replicas=1)
        assert len(stores["cloud"].list_keys()) == N_FILES - 1
        assert _place_threads() == []
