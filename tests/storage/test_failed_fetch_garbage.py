"""A failed fetch leaves no cyclic garbage.

An error raised out of a fetch carries a traceback, and the traceback
holds every frame it passed through and, through their callers, the
frames above them.  A frame that still holds the error -- a local that
kept it, a future that stored it, a closure cell -- makes the error, the
frames and everything they reference a reference cycle that only a
full collection frees.  Each shape here fails one fetch on a store
whose every GET raises, with the collector saving what it finds, and
finds no ``repro`` object among it.
"""

import pytest

from repro.data.chunks import ChunkInfo, ChunkSource
from repro.storage.faults import PermanentStorageError
from repro.storage.health import HealthRegistry, HedgePolicy
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryPolicy
from repro.storage.transfer import ParallelFetcher
from tests.service.test_pass_reclaim import repro_garbage, saved_garbage

PAYLOAD = bytes(64 * 1024)
CHUNK = ChunkInfo(
    chunk_id=0, file_id=0, key="obj", location="a", offset=0,
    nbytes=len(PAYLOAD), n_units=len(PAYLOAD),
    replicas=(ChunkSource("b", "obj"),),
)


class BrokenStore(MemoryStore):
    def get(self, key, offset=0, nbytes=None):
        raise PermanentStorageError(f"{self.location}/{key}")


def fetchers(**kw):
    """Fetchers over two broken stores, wired as one run's siblings."""
    out = {loc: ParallelFetcher(BrokenStore(loc), **kw) for loc in ("a", "b")}
    for f in out.values():
        f.store.put("obj", PAYLOAD)
        f.siblings = out
    return out


SHAPES = {
    "split": (dict(n_threads=4, min_part_nbytes=0), lambda f: f.fetch("obj")),
    "retry-timeout": (
        dict(retry=RetryPolicy(attempt_timeout_s=5.0)), lambda f: f.fetch("obj"),
    ),
    "replica-race": (dict(health=HealthRegistry()), lambda f: f.fetch_chunk(CHUNK)),
    "hedged-race": (
        dict(health=HealthRegistry(), hedge=HedgePolicy(min_threshold_s=0.001)),
        lambda f: f.fetch_chunk(CHUNK),
    ),
    "read-ahead": (dict(), lambda f: f.fetch_chunk_async(CHUNK).result()),
}


@pytest.mark.parametrize("kw, fetch", SHAPES.values(), ids=SHAPES)
def test_a_failed_fetch_leaves_no_cycle(kw, fetch):
    run = fetchers(**kw)
    try:
        with saved_garbage() as garbage:
            with pytest.raises(PermanentStorageError):
                fetch(run["a"])
            assert repro_garbage(garbage) == {}
    finally:
        for f in run.values():
            f.close()
