"""A store whose GETs finish when the test says so.

Every ``get`` parks on a gate until the test opens it, so a test decides
which fetch completes when and can read how many are in flight.  No
sleeps: each wait is on a condition, with a timeout only a bug reaches;
:func:`wait_for` polls what happens after a GET leaves the gate.
"""

from __future__ import annotations

import threading
import time

from repro.storage.faults import TransientStorageError
from repro.storage.local import MemoryStore

WAIT_S = 10.0


class GatedStore(MemoryStore):
    """In-memory store, one gate per object key.

    ``parked`` lists the keys whose GET is waiting, in arrival order.
    Stores built with one shared ``cond`` (:func:`gated_copies`) can be
    watched together (:func:`wait_parked_in`).
    ``fail_arrivals`` / ``missing_arrivals`` name GETs by arrival number
    (1 = the first ever): once released, the former raise a retryable
    error, the latter ``KeyError`` (a non-recoverable one).
    """

    def __init__(
        self,
        location: str = "local",
        *,
        gated: bool = True,
        cond: threading.Condition | None = None,
    ) -> None:
        super().__init__(location)
        self._cond = threading.Condition() if cond is None else cond
        self._open: set[str] = set()
        self._gated = gated
        self.parked: list[str] = []
        self.max_parked = 0
        self.n_arrivals = 0
        self.fail_arrivals: set[int] = set()
        self.missing_arrivals: set[int] = set()

    def get(self, key, offset=0, nbytes=None):
        with self._cond:
            self.n_arrivals += 1
            arrival = self.n_arrivals
            self.parked.append(key)
            self.max_parked = max(self.max_parked, len(self.parked))
            self._cond.notify_all()
            opened = self._cond.wait_for(
                lambda: not self._gated or key in self._open, WAIT_S
            )
            self.parked.remove(key)
            self._open.discard(key)
            self._cond.notify_all()
        assert opened, f"gate of {key} never opened"
        if arrival in self.fail_arrivals:
            raise TransientStorageError(f"modelled outage on {key}")
        if arrival in self.missing_arrivals:
            raise KeyError(key)
        return super().get(key, offset, nbytes)

    def wait_parked(self, n: int) -> list[str]:
        """Block until ``n`` GETs are waiting; returns their keys."""
        with self._cond:
            assert self._cond.wait_for(lambda: len(self.parked) >= n, WAIT_S), (
                f"only {self.parked} parked, wanted {n}"
            )
            return list(self.parked)

    def release(self, *keys: str) -> None:
        """Let the parked GET of each key through, and wait until it left."""
        with self._cond:
            self._open.update(keys)
            self._cond.notify_all()
            assert self._cond.wait_for(
                lambda: not self._open.intersection(keys), WAIT_S
            ), f"GETs of {keys} never left"

    def open_all(self) -> None:
        with self._cond:
            self._gated = False
            self._cond.notify_all()


def wait_for(predicate, timeout: float = WAIT_S) -> None:
    """Poll ``predicate`` until it holds, for what a store's GET does
    after the gate (a detached leg ending) that no condition signals."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def gated_copies(stores: dict[str, MemoryStore]) -> dict[str, GatedStore]:
    """A gated copy of every store, all behind one condition, so a
    dataset can be organized ungated and then read through gates."""
    cond = threading.Condition()
    gated = {}
    for loc, store in stores.items():
        gated[loc] = GatedStore(loc, cond=cond)
        for key in store.list_keys():
            gated[loc].put(key, store.get(key))
    return gated


def wait_parked_in(stores: dict[str, GatedStore], n: int) -> list[tuple[str, str]]:
    """Block until ``n`` GETs are waiting across ``gated_copies`` stores;
    returns their ``(location, key)`` pairs."""
    cond = next(iter(stores.values()))._cond
    with cond:
        assert cond.wait_for(
            lambda: sum(len(s.parked) for s in stores.values()) >= n, WAIT_S
        ), f"only {[s.parked for s in stores.values()]} parked, wanted {n}"
        return [(loc, key) for loc, s in stores.items() for key in s.parked]
