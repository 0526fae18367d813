"""Pushdown ablation: metadata-first retrieval, selectivity x codec x engine.

The tentpole claim: when a query is selective and the data is clustered
on the filtered field, per-chunk min/max statistics let the head prune
most of the job pool *before any byte moves* -- the wire traffic drops
by the pruned fraction while the answer stays bit-identical.  This
benchmark runs the range-filtered wordcount over sorted tokens through
both engines:

* **selectivity** -- a narrow (~5% of the value domain), medium (~25%)
  and full-domain filter; the narrow filter must cut ``bytes_wire`` by
  at least 5x, the full-domain filter must prune nothing;
* **codec None/shuffle** -- pruning composes with compression: stats
  are computed over decoded values at write time, and ``bytes_pruned``
  accounts *encoded* (wire) bytes for coded chunks;
* **engine threaded/process** -- the pruning happens at the head,
  before job-pool creation, so all engines see identical plans;
* **DES agreement** -- the simulator consumes the same planner over the
  same index, so its predicted bytes saved must match the live threaded
  run within 10% (it is exact by construction).

Writes ``benchmarks/results/BENCH_pushdown.json``: one record per
(engine, codec, selectivity, mode) cell with wall-clock, wire bytes,
pruned bytes/chunks, and reorder counts.  ``PUSHDOWN_PROFILE=tiny``
shrinks the workload for the CI perf-smoke job; the soundness and
byte-accounting assertions hold on every profile.
"""

import os
import time

import numpy as np

from repro.apps.filtered import FilteredWordCountSpec, filtered_wordcount_exact
from repro.bursting.report import format_table
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.formats import tokens_format
from repro.runtime import ClusterConfig, make_engine
from repro.storage.local import MemoryStore

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

TINY = os.environ.get("PUSHDOWN_PROFILE", "").lower() == "tiny"

ENGINES = ("threaded", "process")
CODECS = (None, "shuffle")
N_TOKENS = 24_000 if TINY else 200_000
VOCAB = 1000
N_FILES = 8
CHUNKS_PER_FILE = 4
SEED = 47
WORKERS = 2

#: Filter ranges over the [0, VOCAB) token domain, by selectivity.
FILTERS = {
    "narrow": (0, VOCAB // 20 - 1),      # ~5% of the domain
    "medium": (0, VOCAB // 4 - 1),       # ~25%
    "full": (0, VOCAB - 1),              # everything: pruning must no-op
}


def build_env(codec):
    rng = np.random.default_rng(SEED)
    # Sorted tokens: clustered on the filtered field, so chunk min/max
    # ranges are narrow and the metadata can actually exclude chunks.
    toks = np.sort(rng.integers(0, VOCAB, size=N_TOKENS))
    stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
    index = write_dataset(
        toks, tokens_format(), stores["local"], n_files=N_FILES,
        chunk_units=-(-N_TOKENS // (N_FILES * CHUNKS_PER_FILE)), codec=codec,
    )
    index = distribute_dataset(
        index, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
    )
    clusters = [
        ClusterConfig("local", "local", WORKERS, 2),
        ClusterConfig("cloud", "cloud", WORKERS, 2),
    ]
    return toks, stores, index, clusters


def run_cell(engine, spec, stores, index, clusters, pushdown):
    t0 = time.perf_counter()
    rr = make_engine(
        engine, clusters, stores, batch_size=2, pushdown=pushdown
    ).run(spec, index)
    wall = time.perf_counter() - t0
    return wall, rr


def test_pushdown_ablation(benchmark, record_table, write_bench_json):
    envs = {codec: build_env(codec) for codec in CODECS}

    def sweep():
        rows = []
        for codec in CODECS:
            toks, stores, index, clusters = envs[codec]
            for sel, (lo, hi) in FILTERS.items():
                spec = FilteredWordCountSpec(lo, hi)
                ref = filtered_wordcount_exact(toks, lo, hi)
                for engine in ENGINES:
                    for mode in (None, "prune"):
                        wall, rr = run_cell(
                            engine, spec, stores, index, clusters, mode
                        )
                        assert rr.result == ref, (
                            f"{engine}/{codec}/{sel}/mode={mode} diverged"
                        )
                        rows.append({
                            "engine": engine,
                            "codec": codec or "none",
                            "selectivity": sel,
                            "filter": f"{lo}:{hi}",
                            "pushdown": mode or "off",
                            "wall_s": round(wall, 4),
                            "jobs": rr.stats.jobs_processed,
                            "bytes_wire": rr.stats.bytes_wire,
                            "bytes_pruned": rr.stats.bytes_pruned,
                            "n_pruned_chunks": rr.stats.n_pruned_chunks,
                            "n_reordered": rr.stats.n_reordered,
                        })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    def cell(engine, codec, sel, mode):
        return next(
            r for r in rows
            if r["engine"] == engine and r["codec"] == (codec or "none")
            and r["selectivity"] == sel and r["pushdown"] == mode
        )

    # -- DES agreement: predicted bytes saved within 10% of live --------------
    from repro.sim.calibration import AppSimProfile, ResourceParams
    from repro.sim.simrun import SimClusterConfig, simulate_run

    des_rows = []
    for codec in CODECS:
        _toks, _stores, index, _clusters = envs[codec]
        for sel, (lo, hi) in FILTERS.items():
            sim = simulate_run(
                index,
                [SimClusterConfig("local", "local", WORKERS),
                 SimClusterConfig("cloud", "cloud", WORKERS)],
                AppSimProfile(name="filtered-wc", unit_nbytes=8,
                              compute_s_per_unit=1e-7, robj_nbytes=8 * VOCAB),
                ResourceParams(),
                pushdown=FilteredWordCountSpec(lo, hi),
            )
            live = cell("threaded", codec, sel, "prune")
            des_rows.append({
                "codec": codec or "none",
                "selectivity": sel,
                "sim_bytes_pruned": sim.stats.bytes_pruned,
                "live_bytes_pruned": live["bytes_pruned"],
                "sim_n_pruned": sim.stats.n_pruned_chunks,
                "live_n_pruned": live["n_pruned_chunks"],
            })
            tol = 0.10 * max(live["bytes_pruned"], 1)
            assert abs(sim.stats.bytes_pruned - live["bytes_pruned"]) <= tol, (
                f"{codec}/{sel}: DES predicted {sim.stats.bytes_pruned} "
                f"pruned bytes, live saved {live['bytes_pruned']}"
            )

    payload = {
        "workload": {
            "app": "filtered-wordcount", "tokens": N_TOKENS, "vocab": VOCAB,
            "files": N_FILES, "chunks_per_file": CHUNKS_PER_FILE,
            "seed": SEED, "sorted": True,
            "filters": {k: f"{lo}:{hi}" for k, (lo, hi) in FILTERS.items()},
        },
        "cells": rows,
        "des_agreement": des_rows,
    }
    write_bench_json("pushdown", payload, profile="tiny" if TINY else "full")
    record_table(
        "BENCH_pushdown",
        format_table(
            rows,
            f"Metadata-first retrieval -- filtered wordcount, {N_TOKENS} "
            f"sorted tokens, {N_FILES} files x {CHUNKS_PER_FILE} chunks",
        ),
    )

    # -- acceptance: >=5x wire reduction at high selectivity, all engines -----
    for engine in ENGINES:
        for codec in CODECS:
            off = cell(engine, codec, "narrow", "off")
            on = cell(engine, codec, "narrow", "prune")
            assert on["n_pruned_chunks"] > 0, f"{engine}/{codec}: no pruning"
            assert off["bytes_wire"] >= 5 * on["bytes_wire"], (
                f"{engine}/{codec}: narrow filter moved {on['bytes_wire']} "
                f"wire bytes vs {off['bytes_wire']} unpruned -- less than "
                "the 5x acceptance bar"
            )
            # Byte conservation: pruned + fetched == unpruned wire total.
            assert on["bytes_wire"] + on["bytes_pruned"] == off["bytes_wire"]
    # -- pruning only on proof: the full-domain filter keeps every chunk ------
    for engine in ENGINES:
        for codec in CODECS:
            full = cell(engine, codec, "full", "prune")
            assert full["n_pruned_chunks"] == 0
            assert full["bytes_wire"] == cell(
                engine, codec, "full", "off"
            )["bytes_wire"]
