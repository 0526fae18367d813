"""Chaos ablation: erasure-coded striping vs replication.

Compares the robustness ladder's two redundancy rungs end to end
through the real threaded middleware on the *identical* seeded stall
schedule:

* **baseline+stall** -- single copy, the cloud store stalls every read:
  the unprotected p95;
* **2x replication + hedge** -- one full extra copy (2.0x storage);
  hedging races the healthy replica past the stall;
* **(k=4, m=2) striping + hedge** -- fragments spread over six stores
  (1.5x storage); fastest-4-of-6 completion masks the stalled leg at
  lower overhead than replication;
* **striping, m stores down + breaker** -- two entire stores dead after
  placement; parity decodes mask the outage with zero failed workers.

Also runs the striped outage on both engines (results must be
bit-identical) and the DES counterpart on the same seeded-stall idea
(simulated striped run must beat the simulated baseline), so the
ablation and the simulator agree on the shape of the win.

Writes ``benchmarks/results/BENCH_erasure.json``; ``ERASURE_PROFILE=
tiny`` shrinks the workload for the CI perf-smoke job.  The completion,
overhead, and p95 assertions hold on every profile.
"""

import os
import time

from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.bursting.config import paper_environments
from repro.bursting.driver import paper_index, run_threaded_bursting
from repro.bursting.report import format_table
from repro.data.generator import generate_tokens
from repro.sim.calibration import APP_PROFILES, ResourceParams
from repro.sim.simrun import simulate_run
from repro.storage.faults import FaultInjectingStore, FaultSpec
from repro.storage.health import BreakerPolicy, HedgePolicy
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryPolicy

TINY = os.environ.get("ERASURE_PROFILE", "").lower() == "tiny"

N_TOKENS = 20_000 if TINY else 120_000
VOCAB = 500
N_FILES = 6
SEED = 45
K, M = 4, 2
SPARES = ("s1", "s2", "s3", "s4")
RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.001, max_delay_s=0.001)
DOWN = FaultSpec(permanent_keys=("part",))
STALL = FaultSpec(stall_p=1.0, stall_s=0.02 if TINY else 0.05, seed=7)
HEDGE = HedgePolicy(multiplier=3.0, min_threshold_s=0.005, max_hedges=2)
BREAKER = BreakerPolicy(fail_threshold=2, recovery_s=60.0)

PAPER_NOTES = """\
Replication vs erasure coding (the redundancy rungs):
  - 2x replication masks one lost store at 2.0x storage; (4, 2) striping
    masks two lost stores at 1.5x -- more failures for less space
  - fastest-k-of-n turns a stalled fragment leg into a race the healthy
    legs win, so the striped p95 under seeded stalls stays at or below
    the replication+hedging p95 on the identical schedule
  - losing m entire stores is a rerouting event: parity decodes rebuild
    every affected chunk with zero failed workers"""


def stored_nbytes(stores):
    return sum(s.size(key) for s in stores.values() for key in s.list_keys())


def run_scenario(toks, ref, *, engine="threaded", stall_cloud=False,
                 dead=(), spares=(), replicas=0, stripe=None,
                 hedge=None, breaker=None):
    stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
    for name in spares:
        stores[name] = MemoryStore(name)
    injectors = []
    if stall_cloud:
        stores["cloud"] = FaultInjectingStore(stores["cloud"], STALL, armed=False)
        injectors.append(stores["cloud"])
    for name in dead:
        stores[name] = FaultInjectingStore(stores[name], DOWN, armed=False)
        injectors.append(stores[name])
    t0 = time.perf_counter()
    rr = run_threaded_bursting(
        WordCountSpec(), toks, stores, engine=engine, local_fraction=0.5,
        local_workers=2, cloud_workers=2, n_files=N_FILES,
        retrieval_threads=2, retry=RETRY,
        replicas=replicas, stripe=stripe, hedge=hedge, breaker=breaker,
    )
    wall = time.perf_counter() - t0
    assert rr.result == ref, "chaos must never change the answer"
    injected = sum(
        sum(inj.injection_counts().values()) for inj in injectors
    )
    return wall, rr, stored_nbytes(stores), injected


def test_erasure_ablation(benchmark, record_table, write_bench_json):
    toks = generate_tokens(N_TOKENS, VOCAB, seed=SEED)
    ref = wordcount_exact(toks)

    def run_all():
        scenarios = [
            ("single-copy", {}),
            ("single-copy+stall", {"stall_cloud": True}),
            ("2x-rep+stall+hedge",
             {"stall_cloud": True, "replicas": 1, "hedge": HEDGE}),
            ("stripe-4+2+stall+hedge",
             {"stall_cloud": True, "spares": SPARES, "stripe": (K, M),
              "hedge": HEDGE}),
            ("stripe-4+2+2-stores-down",
             {"spares": SPARES, "dead": ("s1", "s2"), "stripe": (K, M),
              "breaker": BREAKER}),
        ]
        rows = []
        base_nbytes = None
        for name, kwargs in scenarios:
            wall, rr, nbytes, injected = run_scenario(toks, ref, **kwargs)
            if base_nbytes is None:
                base_nbytes = nbytes
            stats = rr.stats
            rows.append({
                "scenario": name,
                "wall_s": round(wall, 4),
                "jobs": stats.jobs_processed,
                "failed_workers": stats.n_failed_workers,
                "storage_x": round(nbytes / base_nbytes, 3),
                "fetch_p95_ms": round(1e3 * stats.fetch_p95_s, 2),
                "n_fragments": stats.n_fragments,
                "n_parity_decodes": stats.n_parity_decodes,
                "wasted_frag_kb": round(stats.fragments_wasted_bytes / 1024, 1),
                "n_failovers": stats.n_failovers,
                "n_hedges": stats.n_hedges,
                "breaker_skips": stats.n_breaker_skips,
                "injected": injected,
            })
        # -- engine agreement: striped outage, both engines ---------------
        engine_rows = []
        for engine in ("threaded", "process"):
            _, rr, _, _ = run_scenario(
                toks, ref, engine=engine, spares=SPARES, dead=("s1", "s2"),
                stripe=(K, M), breaker=BREAKER,
            )
            engine_rows.append({
                "engine": engine,
                "jobs": rr.stats.jobs_processed,
                "failed_workers": rr.stats.n_failed_workers,
                "n_parity_decodes": rr.stats.n_parity_decodes,
                "bit_identical": rr.result == ref,
            })
        # -- DES agreement: same stall idea through the simulator ---------
        profile = APP_PROFILES["kmeans"]
        params = ResourceParams()
        env_cfg = paper_environments(profile)[0]
        index = paper_index(profile, env_cfg)
        clusters = env_cfg.clusters(params)
        stalls = {
            loc: FaultSpec(stall_p=0.3, stall_s=5.0, seed=7)
            for loc in ("local", "cloud")
        }
        sim_base = simulate_run(index, clusters, profile, params, seed=1,
                                store_stalls=stalls)
        sim_striped = simulate_run(index, clusters, profile, params, seed=1,
                                   stripe=(K, M), store_stalls=stalls)
        sim_rows = [
            {"scenario": "sim-baseline+stall",
             "total_s": round(sim_base.total_s, 2),
             "n_parity_decodes": 0},
            {"scenario": "sim-stripe-4+2+stall",
             "total_s": round(sim_striped.total_s, 2),
             "n_parity_decodes": sim_striped.stats.n_parity_decodes},
        ]
        return rows, engine_rows, sim_rows

    rows, engine_rows, sim_rows = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    by_name = {r["scenario"]: r for r in rows}

    payload = {
        "workload": {
            "app": "wordcount", "tokens": N_TOKENS, "vocab": VOCAB,
            "files": N_FILES, "seed": SEED, "k": K, "m": M,
            "stall_s": STALL.stall_s, "retry_attempts": RETRY.max_attempts,
            "profile": "tiny" if TINY else "full",
        },
        "cpus": os.cpu_count() or 1,
        "scenarios": rows,
        "engines": engine_rows,
        "sim": sim_rows,
    }
    write_bench_json("erasure", payload, profile="tiny" if TINY else "full")
    record_table(
        "BENCH_erasure",
        format_table(
            rows,
            f"Erasure-coded striping vs replication -- wordcount, "
            f"{N_TOKENS} tokens, stall {STALL.stall_s * 1e3:.0f} ms",
        )
        + "\n\n" + format_table(engine_rows, "striped outage, engine matrix")
        + "\n" + format_table(sim_rows, "DES agreement")
        + "\n\n" + PAPER_NOTES,
    )

    # -- completion: chaos never costs a job or a worker ----------------------
    n_jobs = by_name["single-copy"]["jobs"]
    for r in rows:
        assert r["jobs"] == n_jobs, f"{r['scenario']} lost jobs"
        assert r["failed_workers"] == 0, f"{r['scenario']} failed workers"
    # -- storage overhead: striping beats replication -------------------------
    rep, striped = by_name["2x-rep+stall+hedge"], by_name["stripe-4+2+stall+hedge"]
    assert 1.9 <= rep["storage_x"] <= 2.1, rep["storage_x"]
    assert 1.45 <= striped["storage_x"] <= 1.6, striped["storage_x"]
    # -- m dead stores are masked by parity, not fatal ------------------------
    outage = by_name["stripe-4+2+2-stores-down"]
    assert outage["injected"] > 0, "the outage never fired"
    assert outage["n_parity_decodes"] > 0, "no parity decode ever ran"
    assert outage["n_failovers"] > 0, "no fragment failover recorded"
    assert outage["storage_x"] < rep["storage_x"], (
        "striping must mask the outage at lower overhead than replication"
    )
    # -- fastest-k-of-n holds the p95 line vs replication+hedging -------------
    stalled = by_name["single-copy+stall"]
    assert stalled["injected"] > 0
    assert striped["fetch_p95_ms"] <= rep["fetch_p95_ms"] * 1.1, (
        f"striped p95 {striped['fetch_p95_ms']} ms above replication+hedge "
        f"p95 {rep['fetch_p95_ms']} ms"
    )
    assert striped["fetch_p95_ms"] < stalled["fetch_p95_ms"], (
        "striping must beat the unprotected stall p95"
    )
    # -- engine matrix: identical answers, zero failed workers ----------------
    for r in engine_rows:
        assert r["bit_identical"], f"{r['engine']} diverged"
        assert r["failed_workers"] == 0
        assert r["n_parity_decodes"] > 0
    # -- DES agreement: the simulator sees the same win -----------------------
    assert sim_rows[1]["total_s"] < sim_rows[0]["total_s"]
    assert sim_rows[1]["n_parity_decodes"] > 0
