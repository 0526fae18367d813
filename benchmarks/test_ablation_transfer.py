"""Transfer-layer ablation: codecs on real bytes, fixed fan-out in the DES.

Two halves:

1. **Real engine, real bytes.**  The threaded engine runs wordcount over
   a dataset organized with each codec, at three placements.  The codec
   changes only what crosses the stores -- the answer is fixed -- so the
   interesting columns are bytes-on-wire and the compress ratio.  The
   shuffle codec (byte-transpose then deflate) must at least halve the
   hybrid run's wire bytes versus its logical bytes.

2. **DES, paper scale.**  With a compressed dataset the retrieval
   fan-out that saturates the WAN changes.  We sweep fixed
   ``retrieval_threads`` in {1, 2, 4, 8, 16} for the retrieval-dominated
   knn hybrid: every doubling of the per-connection-capped WAN fan-out
   must shorten the run.

Writes ``benchmarks/results/BENCH_transfer.json`` plus a rendered table.
"""

import json
import os

from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.bursting.config import EnvironmentConfig
from repro.bursting.driver import paper_index
from repro.bursting.report import format_table
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.generator import generate_tokens
from repro.runtime import ClusterConfig, make_engine
from repro.sim.calibration import APP_PROFILES, ResourceParams
from repro.sim.simrun import simulate_run
from repro.sim.topology import TransferSimModel
from repro.storage.local import MemoryStore

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

CODECS = (None, "zlib", "shuffle")
PLACEMENTS = {"local-only": 1.0, "hybrid": 0.5, "cloud-only": 0.0}
FIXED_THREADS = (1, 2, 4, 8, 16)
N_TOKENS, VOCAB = 60_000, 400


def run_real(codec, local_fraction, toks, spec, ref):
    stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
    index = write_dataset(
        toks, spec.fmt, stores["local"], n_files=4,
        chunk_units=N_TOKENS // 24, codec=codec,
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
    rr = make_engine("threaded", clusters, stores, batch_size=2).run(spec, index)
    assert rr.result == ref, f"{codec} changed the wordcount answer"
    return {
        "codec": codec or "identity",
        "bytes_logical": rr.stats.bytes_logical,
        "bytes_wire": rr.stats.bytes_wire,
        "compress_ratio": round(rr.stats.compress_ratio, 4),
        "decode_s": round(rr.stats.decode_s, 4),
    }


def test_codec_ablation_real_bytes(record_table, write_bench_json):
    toks = generate_tokens(N_TOKENS, VOCAB, seed=31)
    spec = WordCountSpec()
    ref = wordcount_exact(toks)
    rows = []
    for pname, frac in PLACEMENTS.items():
        for codec in CODECS:
            row = run_real(codec, frac, toks, spec, ref)
            row["placement"] = pname
            rows.append(row)
    by = {(r["placement"], r["codec"]): r for r in rows}

    # Identity is the control: the full logical payload crosses.
    for pname in PLACEMENTS:
        ident = by[(pname, "identity")]
        assert ident["bytes_wire"] == ident["bytes_logical"]
        # Both deflate codecs shrink the wire; shuffle shrinks it most.
        assert (
            by[(pname, "shuffle")]["bytes_wire"]
            < by[(pname, "zlib")]["bytes_wire"]
            < ident["bytes_wire"]
        )
    # Acceptance: shuffle at least halves hybrid's wire bytes.
    hyb = by[("hybrid", "shuffle")]
    assert hyb["bytes_wire"] < 0.5 * hyb["bytes_logical"]

    # The DES half appends to the same payload file.
    write_bench_json("transfer", {"real_bytes": rows})
    record_table(
        "BENCH_transfer_codecs",
        format_table(
            rows,
            f"Codec ablation -- threaded wordcount, {N_TOKENS} tokens, "
            "3 placements",
        ),
    )


def test_fixed_threads_sweep_sim(record_table, write_bench_json):
    env = EnvironmentConfig("hybrid", 0.5, 16, 16)
    profile = APP_PROFILES["knn"]
    params = ResourceParams()
    model = TransferSimModel.for_codec("shuffle")
    index = paper_index(profile, env)

    rows = []
    for n in FIXED_THREADS:
        res = simulate_run(
            index, env.clusters(params, retrieval_threads=n), profile,
            params, transfer=model,
        )
        rows.append({
            "retrieval": f"fixed-{n}",
            "total_s": round(res.total_s, 2),
            "bytes_wire": res.stats.bytes_wire,
        })
    walls = [r["total_s"] for r in rows]
    # Acceptance: the WAN is per-connection capped, so each doubling of
    # the fan-out still pays; the fan-out never changes the wire bytes.
    assert walls == sorted(walls, reverse=True) and len(set(walls)) == len(walls), walls
    assert len({r["bytes_wire"] for r in rows}) == 1
    best_fixed = min(walls)

    path = os.path.join(RESULTS_DIR, "BENCH_transfer.json")
    payload = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        # Re-stamped below; keep only the measurement sections.
        for key in ("schema_version", "bench", "profile", "run"):
            payload.pop(key, None)
    payload["sim_retrieval_sweep"] = {
        "app": "knn", "env": "hybrid-50/50", "codec": "shuffle",
        "rows": rows,
        "best_fixed_s": best_fixed,
    }
    write_bench_json("transfer", payload)
    record_table(
        "BENCH_transfer_fanout",
        format_table(
            rows,
            "Retrieval fan-out -- knn hybrid DES, shuffle codec: fixed sweep",
        ),
    )
