"""``legs_on_pool`` names exactly the fetches whose legs run on the leg pools.

``window_limit`` opens the read-ahead window behind a raced job on the
promise that such a fetch's legs run concurrently on the leg pools of
their stores, and asks ``legs_on_pool`` which jobs those are.  Every
chunk shape here is fetched once through ``fetch_chunk`` with pools
that count their leg submissions, and the predicate, asked the way
``window_limit`` asks it, must agree with what the race actually did.
"""

import numpy as np
import pytest

from repro.data.dataset import (
    distribute_dataset,
    replicate_dataset,
    stripe_dataset,
    write_dataset,
)
from repro.data.formats import RecordFormat
from repro.runtime.core import ClusterConfig, EngineOptions, make_cluster_fetcher
from repro.storage.health import HedgePolicy
from repro.storage.local import MemoryStore
from repro.storage.transfer import FetchPools, legs_on_pool

FMT = RecordFormat("bytes", np.uint8, ())
HEDGE = HedgePolicy(min_threshold_s=0.001, max_hedges=1)


class CountingPools(FetchPools):
    def __init__(self) -> None:
        super().__init__(range_width=0, readahead_width=1)
        self.legs = 0

    def submit(self, kind, fn, *args, at=""):
        self.legs += kind == "leg"
        return super().submit(kind, fn, *args, at=at)


def make_index(stores, *, replicas=0, stripe=None):
    units = np.arange(120, dtype=np.uint8).reshape(120, *FMT.record_shape)
    index = write_dataset(units, FMT, stores["local"], n_files=2, chunk_units=20)
    index = distribute_dataset(
        index, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
    )
    if replicas:
        index = replicate_dataset(index, stores, n_replicas=replicas)
    if stripe is not None:
        index = stripe_dataset(index, stores, k=stripe[0], m=stripe[1])
    return index


@pytest.mark.parametrize("hedge", [None, HEDGE], ids=["unhedged", "hedged"])
@pytest.mark.parametrize(
    "shape",
    [
        {},
        {"replicas": 1},
        {"replicas": 2},
        {"stripe": (1, 1)},
        {"stripe": (2, 0)},
        {"stripe": (4, 2)},
    ],
    ids=["plain", "1-replica", "2-replicas", "stripe-1-1", "stripe-2-0", "stripe-4-2"],
)
def test_legs_on_pool_iff_fetch_chunk_submits_to_the_leg_pools(shape, hedge):
    stores = {
        name: MemoryStore(name) for name in ["local", "cloud", "spare0", "spare1"]
    }
    index = make_index(stores, **shape)
    cluster = ClusterConfig("local", "local", n_workers=1, retrieval_threads=1)
    pools = CountingPools()
    fetcher = make_cluster_fetcher(
        stores, cluster, EngineOptions(hedge=hedge), pools=pools
    )
    try:
        for chunk in index.chunks:
            before = pools.legs
            data = fetcher.fetch_chunk(chunk)
            assert memoryview(data).nbytes == chunk.nbytes
            submitted = pools.legs > before
            k = chunk.stripe[0] if chunk.fragments else 0
            on_pool = bool(k or chunk.replicas) and legs_on_pool(k, hedge)
            assert on_pool == submitted, (shape, chunk.chunk_id)
    finally:
        fetcher.close()
