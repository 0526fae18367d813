"""Compressed-transfer equivalence: codecs never change answers.

Chunks fetched from a pre-compressed dataset decode to bit-identical
bytes, and every engine produces the same answers across every
placement -- compression is a transport optimization, invisible to the
reduction.  (Float
results are compared allclose: the engines' reduce order depends on
thread scheduling, never on the codec.)
"""

import numpy as np
import pytest

from repro.apps.kmeans import KMeansSpec
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.generator import generate_points, generate_tokens
from repro.runtime import ClusterConfig, make_engine
from repro.storage.local import MemoryStore
from repro.storage.s3 import S3Profile, SimulatedS3Store
from repro.storage.transfer import FetchInfo, ParallelFetcher

ENGINES = ("threaded", "process")
PLACEMENTS = {"local-only": 1.0, "hybrid": 0.5, "cloud-only": 0.0}


def build_env(units, fmt, local_fraction, codec):
    stores = {
        "local": MemoryStore("local"),
        "cloud": SimulatedS3Store(profile=S3Profile.unthrottled()),
    }
    index = write_dataset(
        units, fmt, stores["local"], n_files=4,
        chunk_units=max(1, len(units) // 12), codec=codec,
    )
    fractions = {}
    if local_fraction > 0:
        fractions["local"] = local_fraction
    if local_fraction < 1:
        fractions["cloud"] = 1.0 - local_fraction
    index = distribute_dataset(index, stores, fractions, stores["local"])
    clusters = [
        ClusterConfig("local", "local", 2, 2),
        ClusterConfig("cloud", "cloud", 2, 2),
    ]
    return stores, index, clusters


def run_engine(name, spec, stores, index, clusters):
    return make_engine(name, clusters, stores, batch_size=2).run(spec, index)


@pytest.mark.parametrize("placement", PLACEMENTS, ids=PLACEMENTS.keys())
class TestCompressedEquivalence:
    def test_wordcount_bit_identical(self, placement):
        toks = generate_tokens(9000, 250, seed=71)
        spec = WordCountSpec()
        frac = PLACEMENTS[placement]
        ref = wordcount_exact(toks)
        for name in ENGINES:
            for codec in (None, "shuffle"):
                stores, index, clusters = build_env(toks, spec.fmt, frac, codec)
                rr = run_engine(name, spec, stores, index, clusters)
                assert rr.result == ref, f"{name}/{codec} diverged"
                assert rr.stats.jobs_processed == len(index.chunks)
                if codec == "shuffle":
                    # Integer token ids shuffle-compress hard: far fewer
                    # bytes crossed the stores than the workers consumed.
                    assert rr.stats.bytes_logical == index.nbytes
                    assert rr.stats.bytes_wire < rr.stats.bytes_logical
                    assert rr.stats.decode_s >= 0.0

    def test_kmeans_chunks_bit_identical_results_converge(self, placement):
        pts = generate_points(1800, 4, n_clusters=3, spread=0.08, seed=72)
        cents = generate_points(3, 4, seed=73)
        spec = KMeansSpec(cents)
        frac = PLACEMENTS[placement]

        # Bit-identity holds at the data layer: every chunk fetched
        # from the compressed dataset decodes to exactly the bytes the
        # plain dataset serves.  (The engines' reduce order depends on
        # thread scheduling, so even two plain runs differ by ~1 ULP --
        # result equality can only be allclose.)
        stores_p, index_p, _ = build_env(pts, spec.fmt, frac, None)
        stores_c, index_c, clusters = build_env(pts, spec.fmt, frac, "shuffle")
        fetch_p, fetch_c = ParallelFetcher(stores_p), ParallelFetcher(stores_c)
        for ch_p, ch_c in zip(index_p.chunks, index_c.chunks):
            raw_p = fetch_p.fetch_chunk(ch_p)
            raw_c = fetch_c.fetch_chunk(ch_c, info := FetchInfo())
            assert raw_c == raw_p, f"chunk {ch_c.chunk_id} bytes differ"
            assert info.bytes_wire < info.bytes_logical

        results = {}
        for codec in (None, "shuffle"):
            for name in ENGINES:
                stores, index, clus = build_env(pts, spec.fmt, frac, codec)
                rr = run_engine(name, spec, stores, index, clus)
                results[(name, codec)] = rr.result
        base = results[("threaded", None)]
        for (name, codec), res in results.items():
            np.testing.assert_allclose(
                res.centroids, base.centroids,
                err_msg=f"{name}/{codec} centroids diverged",
            )
            assert int(res.counts.sum()) == len(pts)


class TestLz4Fallback:
    def test_lz4_request_degrades_gracefully(self):
        """Asking for lz4 works whether or not the package exists (the
        organizer falls back to zlib), and results are unchanged."""
        toks = generate_tokens(6000, 200, seed=75)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt, 0.5, "lz4")
        assert index.meta["codec"] in ("lz4", "zlib")
        rr = run_engine("threaded", spec, stores, index, clusters)
        assert rr.result == wordcount_exact(toks)
