"""Command-line interface.

Exposes the reproduction's main entry points without writing Python::

    python -m repro sweep --app knn            # Figure-3 environments
    python -m repro scalability --app kmeans   # Figure-4 core doublings
    python -m repro simulate --app pagerank --local-cores 16 \\
        --cloud-cores 16 --local-fraction 0.33  # one configuration
    python -m repro provision --app knn --local-cores 16 \\
        --local-fraction 0.17 --deadline 60     # cost-aware sizing
    python -m repro evaluate                    # every paper artifact
    python -m repro demo                        # threaded wordcount demo
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, NamedTuple, Sequence

from repro.bursting.config import EnvironmentConfig
from repro.bursting.driver import (
    run_paper_sweep,
    run_scalability_sweep,
    simulate_environment,
)
from repro.bursting.report import (
    average_slowdown_pct,
    fig3_rows,
    fig4_rows,
    format_table,
    table1_rows,
    table2_rows,
)
from repro.cost.provisioning import (
    cheapest_meeting_deadline,
    fastest_within_budget,
    pareto_frontier,
    tradeoff_curve,
)
from repro.runtime import ENGINES
from repro.sim.calibration import APP_PROFILES
from repro.storage.cache import ChunkCache
from repro.storage.codecs import CODEC_NAMES
from repro.storage.health import BreakerPolicy, HedgePolicy
from repro.storage.retry import RetryPolicy

__all__ = ["main", "build_parser", "OPTION_FLAGS"]

PAPER_APPS = tuple(APP_PROFILES)
CODEC_CHOICES = tuple(CODEC_NAMES)


def _cache_from_mb(mb: float) -> ChunkCache | None:
    if mb < 0:
        raise ValueError("--cache-mb must be non-negative")
    return ChunkCache(int(mb * (1 << 20))) if mb else None


def _nbytes_from_kb(kb: float) -> int:
    if kb < 0:
        raise ValueError("--min-part-kb must be non-negative")
    return int(kb * 1024)


def _crash_plan(specs: list[str]) -> dict[str, int]:
    plan: dict[str, int] = {}
    for text in specs:
        name, _, n_text = text.rpartition(":")
        if not name:
            raise ValueError(
                f"bad --crash-worker spec {text!r} (expected NAME:N, e.g. cloud-w0:2)"
            )
        plan[name] = int(n_text)
    return plan


class OptionFlag(NamedTuple):
    """How one :class:`~repro.runtime.core.EngineOptions` field is spelled
    on the command line and parsed into the field's value."""

    flag: str
    parse: Callable[[Any], Any]
    kwargs: dict[str, Any]  # for ``add_argument``


#: Every EngineOptions field the CLI exposes, keyed by field name.  A
#: flag left unset leaves its field at the EngineOptions default.
OPTION_FLAGS: dict[str, OptionFlag] = {
    "prefetch": OptionFlag("--prefetch", bool, dict(
        action=argparse.BooleanOptionalAction,
        help="every worker reads ahead of the job it is processing: two jobs "
             "for chunks of 1.4 MB or more, up to eight for smaller ones "
             "(threaded workers always do behind striped chunks)")),
    "chunk_cache": OptionFlag("--cache-mb", _cache_from_mb, dict(
        type=float, metavar="MB",
        help="chunk-cache budget in MB shared by all fetchers (0 = no cache)")),
    "retry": OptionFlag("--retry", lambda t: RetryPolicy.parse(t) if t else None, dict(
        metavar="SPEC",
        help='retry policy for the fetch path, e.g. "max=5,base=0.01,deadline=30"')),
    "hedge": OptionFlag("--hedge", HedgePolicy.parse, dict(
        metavar="SPEC", nargs="?", const="",
        help="race a replica when a fetch exceeds the store's adaptive "
             'latency threshold; optional SPEC like "mult=3,min=0.05,max=1" '
             "(bare --hedge = defaults)")),
    "breaker": OptionFlag("--breaker", BreakerPolicy.parse, dict(
        metavar="SPEC", nargs="?", const="",
        help="per-store circuit breaker: skip stores that keep failing until "
             'their cooldown elapses; optional SPEC like "fails=3,recovery=1.0,'
             'probes=1,close=1,error=0.5" (bare --breaker = defaults)')),
    "crash_plan": OptionFlag("--crash-worker", _crash_plan, dict(
        action="append", metavar="NAME:N",
        help="crash worker NAME (e.g. cloud-w0) after it has processed N "
             "jobs (repeatable); the crash is contained and its in-flight "
             "job re-executed")),
    "min_part_nbytes": OptionFlag("--min-part-kb", _nbytes_from_kb, dict(
        type=float, metavar="KB",
        help="floor on parallel sub-range size in KiB; smaller fetches "
             "coalesce into fewer GETs (default 4)")),
    "pushdown": OptionFlag("--pushdown", str, dict(
        metavar="MODE", nargs="?", const="prune", choices=("prune", "verify"),
        help="metadata-first retrieval: prune chunks the index statistics "
             'prove irrelevant before any fetch (bare --pushdown = "prune"; '
             '"verify" also fetches pruned chunks once and asserts they '
             "contribute nothing)")),
}

#: The option flags ``service run`` takes; ``demo`` takes them all.
SERVICE_OPTION_FLAGS = ("crash_plan", "chunk_cache")


def _add_option_flags(parser: argparse.ArgumentParser, fields) -> None:
    for name in fields:
        opt = OPTION_FLAGS[name]
        parser.add_argument(opt.flag, dest=name, default=None, **opt.kwargs)


def _option_fields(args, fields) -> dict[str, Any]:
    """The EngineOptions fields whose flags were given; ValueError on a bad one."""
    return {
        name: OPTION_FLAGS[name].parse(value)
        for name in fields
        if (value := getattr(args, name)) is not None
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Data-intensive computing with cloud bursting (SC 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run the Figure-3 environment sweep for one app")
    p.add_argument("--app", choices=PAPER_APPS, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("scalability", help="run the Figure-4 core-doubling sweep")
    p.add_argument("--app", choices=PAPER_APPS, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate", help="simulate one custom configuration")
    p.add_argument("--app", choices=PAPER_APPS, required=True)
    p.add_argument("--local-cores", type=int, default=16)
    p.add_argument("--cloud-cores", type=int, default=16)
    p.add_argument("--local-fraction", type=float, default=0.5,
                   help="fraction of dataset bytes stored locally (0..1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prefetch", action="store_true",
                   help="pipeline each core: fetch the next jobs under compute of "
                        "job N (two for chunks of 1.4 MB or more, up to eight)")
    p.add_argument("--cache-mb", type=float, default=0.0,
                   help="per-cluster chunk-cache budget in MB (0 = no cache)")
    p.add_argument("--iterations", type=int, default=1,
                   help="iterative passes; 2+ reuse the chunk caches across passes")
    p.add_argument("--fail", action="append", default=[], metavar="CLUSTER:N@T",
                   help="kill N workers of CLUSTER at simulated time T seconds "
                        "(repeatable); their in-flight jobs are reassigned")
    p.add_argument("--codec", choices=CODEC_CHOICES, default=None,
                   help="model a pre-compressed dataset: only encoded bytes "
                        "cross the links, each chunk pays its decode cost")

    p = sub.add_parser("provision", help="time/cost-aware cloud-core sizing")
    p.add_argument("--app", choices=PAPER_APPS, required=True)
    p.add_argument("--local-cores", type=int, default=16)
    p.add_argument("--local-fraction", type=float, default=1 / 6)
    p.add_argument("--deadline", type=float, default=None, help="seconds")
    p.add_argument("--budget", type=float, default=None, help="US dollars")
    p.add_argument("--options", type=int, nargs="+", default=[0, 4, 8, 16, 32, 64],
                   help="candidate cloud core counts")

    p = sub.add_parser("place", help="data-placement advisor for one app")
    p.add_argument("--app", choices=PAPER_APPS, required=True)
    p.add_argument("--local-cores", type=int, default=16)
    p.add_argument("--cloud-cores", type=int, default=16)
    p.add_argument("--objective", choices=("time", "cost"), default="time")

    p = sub.add_parser("trace", help="ASCII Gantt timeline of one configuration")
    p.add_argument("--app", choices=PAPER_APPS, required=True)
    p.add_argument("--local-cores", type=int, default=8)
    p.add_argument("--cloud-cores", type=int, default=8)
    p.add_argument("--local-fraction", type=float, default=1 / 6)
    p.add_argument("--width", type=int, default=96)
    p.add_argument("--seed", type=int, default=0)

    sub.add_parser("evaluate", help="regenerate every paper table and figure")

    p = sub.add_parser("demo", help="run the wordcount quickstart")
    p.add_argument("--tokens", type=int, default=100_000)
    p.add_argument("--vocab", type=int, default=2_000)
    p.add_argument("--engine", choices=sorted(ENGINES), default="threaded",
                   help="execution engine: worker threads (default) or one "
                        "OS process per slave with shared-memory data "
                        "handoff; both engines accept all options below")
    p.add_argument("--inject-fault", metavar="SPEC", default=None,
                   help="wrap the cloud store in a deterministic fault injector, "
                        'e.g. "transient:p=0.3,seed=7", "permanent:key=f3", '
                        '"latency:p=0.1,s=0.05", "stall:p=0.2,s=0.05" '
                        "(clauses joined by +)")
    p.add_argument("--replicas", type=int, default=0, metavar="N",
                   help="copy every chunk to N additional stores after "
                        "placement; the fetch path fails over to a replica "
                        "when a source store is down (0 = no replication)")
    p.add_argument("--stripe", metavar="K:M", default=None,
                   help="erasure-code every chunk after placement into K data "
                        "+ M parity fragments spread round-robin over all "
                        "stores (storage overhead (K+M)/K); the fetch path "
                        "races fragments fastest-K-of-N and masks up to M "
                        "lost fragments per chunk (mutually exclusive with "
                        "--replicas)")
    p.add_argument("--spares", type=int, default=0, metavar="N",
                   help="add N extra in-memory spare stores before placement "
                        "so --replicas/--stripe spread over more sites")
    p.add_argument("--codec", choices=CODEC_CHOICES, default=None,
                   help="write the dataset pre-compressed; fetches move "
                        "encoded bytes and decode after reassembly (lz4 "
                        "falls back to zlib if the package is missing)")
    p.add_argument("--filter", metavar="LO:HI", default=None,
                   help="count only token ids in the inclusive range LO:HI "
                        "(runs the range-filtered wordcount variant; the "
                        "demo sorts the tokens so chunk min/max statistics "
                        "make pruning effective)")
    _add_option_flags(p, OPTION_FLAGS)

    p = sub.add_parser(
        "service",
        help="multi-tenant bursting service: concurrent jobs on one fleet",
    )
    ssub = p.add_subparsers(dest="service_command", required=True)
    pr = ssub.add_parser(
        "run",
        help="serve N concurrent jobs (mixed wordcount + kmeans, two "
             "tenants) over one shared slave fleet and verify every result",
    )
    pr.add_argument("--jobs", type=int, default=4,
                    help="concurrent jobs to submit (alternating apps and "
                         "tenants)")
    pr.add_argument("--engine", choices=sorted(ENGINES), default="threaded",
                    help="threaded interleaves jobs chunk-by-chunk on one "
                         "fleet; process executes each admitted job whole "
                         "(admission-level sharing)")
    pr.add_argument("--tokens", type=int, default=60_000,
                    help="wordcount dataset size")
    pr.add_argument("--points", type=int, default=12_000,
                    help="kmeans dataset size")
    pr.add_argument("--vocab", type=int, default=1_000)
    pr.add_argument("--tenants", default="analytics:2,ingest:1",
                    metavar="NAME:WEIGHT,...",
                    help="tenant fair-share weights; submissions round-robin "
                         "over these tenants")
    pr.add_argument("--max-inflight", type=int, default=None,
                    help="per-tenant cap on concurrently running jobs "
                         "(excess submissions queue FIFO)")
    _add_option_flags(pr, SERVICE_OPTION_FLAGS)
    pr.add_argument("--status-json", default=None, metavar="PATH",
                    help="write the final per-job service rows to PATH "
                         "(readable later with 'repro service status')")
    ps = ssub.add_parser(
        "submit",
        help="one-shot: submit a single job to a fresh service and wait",
    )
    ps.add_argument("--app", choices=("wordcount", "kmeans"),
                    default="wordcount")
    ps.add_argument("--tenant", default="default")
    ps.add_argument("--engine", choices=sorted(ENGINES), default="threaded")
    ps.add_argument("--tokens", type=int, default=60_000)
    ps.add_argument("--points", type=int, default=12_000)
    ps.add_argument("--vocab", type=int, default=1_000)
    ps.add_argument("--status-json", default=None, metavar="PATH")
    pt = ssub.add_parser(
        "status",
        help="print the service rows recorded by a previous run "
             "--status-json",
    )
    pt.add_argument("path", help="JSON file written by run/submit "
                                 "--status-json")
    return parser


def _cmd_sweep(args) -> int:
    results = run_paper_sweep(args.app, seed=args.seed)
    print(format_table(fig3_rows(results), f"Figure 3 -- {args.app} breakdown"))
    print()
    print(format_table(table1_rows(results), f"Table I -- job assignment ({args.app})"))
    print()
    print(format_table(table2_rows(results), f"Table II -- slowdowns ({args.app})"))
    return 0


def _cmd_scalability(args) -> int:
    results = run_scalability_sweep(args.app, seed=args.seed)
    print(format_table(fig4_rows(results), f"Figure 4 -- {args.app} scalability"))
    return 0


def _parse_failures(specs: list[str]):
    """Parse repeated ``CLUSTER:N@T`` flags into FailureSpec objects."""
    from repro.sim.simrun import FailureSpec

    failures = []
    for text in specs:
        try:
            cluster, _, rest = text.partition(":")
            n_text, _, t_text = rest.partition("@")
            failures.append(FailureSpec(cluster, int(n_text), float(t_text)))
        except ValueError as exc:
            raise ValueError(
                f"bad --fail spec {text!r} (expected CLUSTER:N@T, "
                f"e.g. cloud:2@40): {exc}"
            ) from None
    return failures


def _cmd_simulate(args) -> int:
    if not 0.0 <= args.local_fraction <= 1.0:
        print("error: --local-fraction must be in [0, 1]", file=sys.stderr)
        return 2
    if args.local_cores <= 0 and args.cloud_cores <= 0:
        print("error: need at least one core somewhere", file=sys.stderr)
        return 2
    if args.iterations <= 0:
        print("error: --iterations must be positive", file=sys.stderr)
        return 2
    if args.cache_mb < 0:
        print("error: --cache-mb must be non-negative", file=sys.stderr)
        return 2
    try:
        failures = _parse_failures(args.fail)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = EnvironmentConfig(
        "custom", args.local_fraction, args.local_cores, args.cloud_cores
    )
    cache_nbytes = int(args.cache_mb * (1 << 20))
    caches = None
    res = None
    for it in range(1, args.iterations + 1):
        res = simulate_environment(
            args.app, env, seed=args.seed, prefetch=args.prefetch,
            cache_nbytes=cache_nbytes, caches=caches,
            failures=failures or None,
            codec=args.codec,
        )
        caches = res.caches
        if args.iterations > 1:
            hit = res.stats.cache_hit_rate
            print(f"iteration {it}: {res.total_s:.2f}s"
                  f"   cache hit rate: {hit:.0%}")
    print(format_table(
        res.stats.breakdown_rows(),
        f"{args.app}: {args.local_cores} local + {args.cloud_cores} cloud cores, "
        f"{args.local_fraction:.0%} of data local",
    ))
    if args.prefetch or cache_nbytes:
        print()
        print(format_table(res.stats.pipeline_rows(), "pipeline decomposition"))
    if args.codec:
        print()
        print(format_table(res.stats.transfer_rows(), "transfer layer"))
    if failures:
        print()
        print(format_table(res.stats.fault_rows(), "fault recovery"))
        print(f"workers failed: {res.stats.n_failed_workers}   "
              f"jobs requeued: {res.stats.n_requeued_jobs}")
    print(f"total: {res.total_s:.2f}s   "
          f"global reduction: {res.stats.global_reduction_s:.2f}s   "
          f"jobs stolen: {res.stats.jobs_stolen}")
    return 0


def _cmd_provision(args) -> int:
    points = tradeoff_curve(
        args.app,
        local_cores=args.local_cores,
        local_data_fraction=args.local_fraction,
        cloud_core_options=args.options,
    )
    print(format_table([p.to_dict() for p in points], "time/cost trade-off"))
    frontier = pareto_frontier(points)
    print("\nPareto frontier:",
          ", ".join(f"{p.cloud_cores}c/{p.time_s:.0f}s/${p.cost_usd:.2f}" for p in frontier))
    if args.deadline is not None:
        pick = cheapest_meeting_deadline(points, args.deadline)
        if pick is None:
            print(f"deadline {args.deadline:.0f}s: infeasible with these options")
            return 1
        print(f"deadline {args.deadline:.0f}s -> {pick.cloud_cores} cloud cores "
              f"({pick.time_s:.1f}s, ${pick.cost_usd:.3f})")
    if args.budget is not None:
        pick = fastest_within_budget(points, args.budget)
        if pick is None:
            print(f"budget ${args.budget:.2f}: infeasible with these options")
            return 1
        print(f"budget ${args.budget:.2f} -> {pick.cloud_cores} cloud cores "
              f"({pick.time_s:.1f}s, ${pick.cost_usd:.3f})")
    return 0


def _cmd_place(args) -> int:
    from repro.cost.placement import best_placement, placement_curve

    points = placement_curve(
        args.app, local_cores=args.local_cores, cloud_cores=args.cloud_cores
    )
    print(format_table([p.to_dict() for p in points], "placement sweep"))
    best = best_placement(points, objective=args.objective)
    print(f"\nbest ({args.objective}): {best.local_fraction:.0%} of data local "
          f"-> {best.time_s:.1f}s, ${best.cost.total_usd:.3f}")
    return 0


def _cmd_trace(args) -> int:
    from repro.bursting.driver import paper_index
    from repro.sim.calibration import ResourceParams
    from repro.sim.simrun import simulate_run
    from repro.sim.trace import Tracer, render_gantt

    env = EnvironmentConfig(
        "trace", args.local_fraction, args.local_cores, args.cloud_cores
    )
    profile = APP_PROFILES[args.app]
    params = ResourceParams()
    tracer = Tracer()
    res = simulate_run(
        paper_index(profile, env), env.clusters(params), profile, params,
        seed=args.seed, tracer=tracer,
    )
    print(f"{args.app}: {res.total_s:.1f}s, {res.stats.jobs_stolen} stolen, "
          f"utilization {tracer.utilization():.0%}\n")
    print(render_gantt(tracer, width=args.width))
    return 0


def _cmd_evaluate(_args) -> int:
    sweeps = {}
    for app in PAPER_APPS:
        sweeps[app] = run_paper_sweep(app)
        print(format_table(fig3_rows(sweeps[app]), f"Figure 3 -- {app}"))
        print()
        print(format_table(table1_rows(sweeps[app]), f"Table I -- {app}"))
        print()
        print(format_table(table2_rows(sweeps[app]), f"Table II -- {app}"))
        print()
    for app in PAPER_APPS:
        print(format_table(fig4_rows(run_scalability_sweep(app)), f"Figure 4 -- {app}"))
        print()
    print(f"Average hybrid slowdown: {average_slowdown_pct(sweeps):.2f}% (paper: 15.55%)")
    return 0


def _cmd_demo(args) -> int:
    import numpy as np

    from repro.apps.filtered import FilteredWordCountSpec, filtered_wordcount_exact
    from repro.apps.wordcount import WordCountSpec, wordcount_exact
    from repro.bursting.driver import run_threaded_bursting
    from repro.data.generator import generate_tokens
    from repro.storage.faults import FaultInjectingStore, FaultSpec
    from repro.storage.local import MemoryStore
    from repro.storage.s3 import SimulatedS3Store

    try:
        fault_spec = (
            FaultSpec.parse(args.inject_fault) if args.inject_fault else None
        )
        fields = _option_fields(args, OPTION_FLAGS)
        if args.replicas < 0:
            raise ValueError("--replicas must be non-negative")
        if args.spares < 0:
            raise ValueError("--spares must be non-negative")
        stripe: tuple[int, int] | None = None
        if args.stripe is not None:
            k_text, sep, m_text = args.stripe.partition(":")
            if not sep:
                raise ValueError(
                    f"bad --stripe spec {args.stripe!r} (expected K:M, e.g. 4:2)"
                )
            stripe = (int(k_text), int(m_text))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    token_range: tuple[int, int] | None = None
    if args.filter is not None:
        try:
            lo_text, _, hi_text = args.filter.partition(":")
            token_range = (int(lo_text), int(hi_text))
            if token_range[0] > token_range[1]:
                raise ValueError("LO must not exceed HI")
        except ValueError as exc:
            print(f"error: bad --filter spec {args.filter!r} "
                  f"(expected LO:HI, e.g. 100:199): {exc}", file=sys.stderr)
            return 2
    tokens = generate_tokens(args.tokens, args.vocab, seed=7)
    if token_range is not None:
        # Clustered data is what makes min/max pruning bite: sorted
        # tokens give each chunk a narrow value range.
        tokens = np.sort(tokens)
    cloud: Any = SimulatedS3Store()
    if fault_spec is not None:
        # Dormant until the driver arms it: faults model a store that
        # degrades after placement, so prep (incl. replication) is clean.
        cloud = FaultInjectingStore(cloud, fault_spec, armed=False)
    stores = {"local": MemoryStore("local"), "cloud": cloud}
    for i in range(args.spares):
        # Spare sites widen the fragment/replica spread; they hold no
        # primary placement, so workers only fetch from them.
        stores[f"spare{i}"] = MemoryStore(f"spare{i}")
    if token_range is not None:
        spec: Any = FilteredWordCountSpec(*token_range)
        expected = filtered_wordcount_exact(tokens, *token_range)
        what = f"wordcount[{token_range[0]}:{token_range[1]}]"
    else:
        spec = WordCountSpec()
        expected = wordcount_exact(tokens)
        what = "wordcount"
    try:
        rr = run_threaded_bursting(
            spec, tokens, stores, engine=args.engine, local_fraction=0.5,
            codec=args.codec, replicas=args.replicas, stripe=stripe, **fields,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = rr.result == expected
    print(f"{what} over {args.tokens} tokens across 2 sites "
          f"({args.engine} engine): "
          f"{'OK' if ok else 'MISMATCH'}; "
          f"{rr.stats.jobs_processed} jobs ({rr.stats.jobs_stolen} stolen), "
          f"{rr.stats.total_s:.3f}s wall")
    if args.pushdown is not None:
        from repro.bursting.report import format_table

        print(format_table(rr.stats.pushdown_rows(), "metadata-first retrieval"))
    if args.engine == "process":
        from repro.bursting.report import format_table

        print(format_table(rr.stats.ipc_rows(), "cross-process data movement"))
    if args.codec:
        from repro.bursting.report import format_table

        print(format_table(rr.stats.transfer_rows(), "transfer layer"))
    if fault_spec is not None or fields.get("retry") or fields.get("crash_plan"):
        parts = [
            f"retries: {rr.stats.n_retries}",
            f"giveups: {rr.stats.n_errors}",
            f"requeued jobs: {rr.stats.n_requeued_jobs}",
            f"failed workers: {rr.stats.n_failed_workers}",
        ]
        if fault_spec is not None:
            inj = cloud.injection_counts()
            parts.append(
                "injected: "
                + "/".join(f"{k}={v}" for k, v in sorted(inj.items()))
            )
        print("fault tolerance: " + "   ".join(parts))
    if args.replicas or stripe is not None or {"hedge", "breaker"} & fields.keys():
        parts = [
            f"failovers: {rr.stats.n_failovers}",
            f"hedges: {rr.stats.n_hedges}",
            f"hedge wins: {rr.stats.hedge_wins}",
            f"breaker skips: {rr.stats.n_breaker_skips}",
            f"breaker transitions: {rr.stats.n_breaker_transitions}",
        ]
        if stripe is not None:
            parts += [
                f"fragments: {rr.stats.n_fragments}",
                f"parity decodes: {rr.stats.n_parity_decodes}",
                f"wasted frag bytes: {rr.stats.fragments_wasted_bytes}",
            ]
        p95 = rr.stats.fetch_p95_s
        if p95:
            parts.append(f"fetch p95: {p95 * 1e3:.1f}ms")
        print("retrieval robustness: " + "   ".join(parts))
        for loc, snap in rr.stats.breakers.items():
            if snap["n_opened"]:
                print(f"  breaker[{loc}]: {snap['state']}  "
                      f"opened={snap['n_opened']} half_opened={snap['n_half_opened']} "
                      f"closed={snap['n_closed']} rejected={snap['n_rejected']}")
    # A planned crash that never fired, or a transient fault no ledger
    # booked as a retry or a giveup: checked where each fault fails one
    # booked attempt (no hedge detaches a loser, no timeout abandons one).
    died = {f"{c.name}-w{i}" for c in rr.stats.clusters.values()
            for i, w in enumerate(c.workers) if w.failed}
    unfired = sorted(set(fields.get("crash_plan", {})) - died)
    booked = rr.stats.n_retries + rr.stats.n_errors
    retry = fields.get("retry")
    lost = fault_spec is not None and "hedge" not in fields and not (
        fault_spec.permanent_keys or fault_spec.latency_p or fault_spec.stall_p
        or (retry is not None and retry.attempt_timeout_s is not None)
    ) and booked != cloud.n_transient
    if unfired:
        print(f"error: planned crash never fired: {', '.join(unfired)}", file=sys.stderr)
    if lost:
        print(f"error: retries + giveups = {booked}, but {cloud.n_transient} "
              "transient faults were injected", file=sys.stderr)
    ok = ok and not unfired and not lost
    return 0 if ok else 1


def _service_env(args):
    """Shared dataset/cluster construction for the service subcommands."""
    from repro.apps.kmeans import KMeansSpec, lloyd_step
    from repro.apps.wordcount import WordCountSpec, wordcount_exact
    from repro.data.dataset import distribute_dataset, write_dataset
    from repro.data.generator import generate_points, generate_tokens
    from repro.runtime import ClusterConfig
    from repro.storage.local import MemoryStore
    from repro.storage.s3 import S3Profile, SimulatedS3Store

    stores = {
        "local": MemoryStore("local"),
        "cloud": SimulatedS3Store(profile=S3Profile.unthrottled()),
    }
    clusters = [
        ClusterConfig("local", "local", 2, 2),
        ClusterConfig("cloud", "cloud", 2, 2),
    ]
    toks = generate_tokens(args.tokens, args.vocab, seed=7)
    wspec = WordCountSpec()
    windex = write_dataset(
        toks, wspec.fmt, stores["local"], n_files=4,
        chunk_units=max(1, args.tokens // 12), key_prefix="wc",
    )
    windex = distribute_dataset(
        windex, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
    )
    pts = generate_points(args.points, 4, n_clusters=3, spread=0.1, seed=8)
    cents = pts[:3].copy()
    kspec = KMeansSpec(cents)
    kindex = write_dataset(
        pts, kspec.fmt, stores["local"], n_files=4,
        chunk_units=max(1, args.points // 12), key_prefix="km",
    )
    kindex = distribute_dataset(
        kindex, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
    )
    apps = {
        "wordcount": (wspec, windex, wordcount_exact(toks)),
        "kmeans": (kspec, kindex, lloyd_step(pts, cents)),
    }
    return stores, clusters, apps


def _verify_service_result(name, rr, expected) -> bool:
    import numpy as np

    if name == "wordcount":
        return rr.result == expected
    return bool(
        np.allclose(rr.result.centroids, expected.centroids)
        and np.array_equal(rr.result.counts, expected.counts)
    )


def _write_status_json(path, rows) -> None:
    import json

    with open(path, "w") as f:
        json.dump(rows, f, indent=2)


def _cmd_service(args) -> int:
    from repro.bursting.report import format_table

    if args.service_command == "status":
        import json

        with open(args.path) as f:
            rows = json.load(f)
        print(format_table(rows, "bursting service -- jobs"))
        return 0

    from repro.service import BurstingService, TenantConfig

    if args.service_command == "submit":
        stores, clusters, apps = _service_env(args)
        spec, index, expected = apps[args.app]
        service = BurstingService(clusters, stores, engine=args.engine,
                                  batch_size=2)
        try:
            handle = service.submit(spec, index, tenant=args.tenant)
            rr = handle.result()
        finally:
            service.shutdown()
        ok = _verify_service_result(args.app, rr, expected)
        print(f"{handle.run_id} ({args.app}, tenant {args.tenant}): "
              f"{'OK' if ok else 'MISMATCH'}; "
              f"{rr.stats.jobs_processed} jobs, {rr.stats.total_s:.3f}s wall")
        if args.status_json:
            _write_status_json(args.status_json, service.service_rows())
        return 0 if ok else 1

    # service run: N concurrent jobs, mixed apps, round-robin tenants.
    try:
        tenants: dict[str, TenantConfig] = {}
        for part in args.tenants.split(","):
            name, sep, w_text = part.strip().partition(":")
            if not name or not sep:
                raise ValueError(
                    f"bad --tenants entry {part!r} (expected NAME:WEIGHT)"
                )
            tenants[name] = TenantConfig(
                weight=float(w_text), max_inflight=args.max_inflight
            )
        fields = _option_fields(args, SERVICE_OPTION_FLAGS)
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if fields.get("crash_plan"):
        fields["min_part_nbytes"] = 0
    stores, clusters, apps = _service_env(args)
    service = BurstingService(
        clusters, stores, engine=args.engine, tenants=tenants,
        batch_size=2, **fields,
    )
    tenant_names = list(tenants)
    app_names = list(apps)
    handles = []
    try:
        for i in range(args.jobs):
            app = app_names[i % len(app_names)]
            tenant = tenant_names[i % len(tenant_names)]
            spec, index, _ = apps[app]
            handles.append((app, service.submit(spec, index, tenant=tenant)))
        n_ok = 0
        for app, handle in handles:
            rr = handle.result()
            ok = _verify_service_result(app, rr, apps[app][2])
            n_ok += ok
            print(f"{handle.run_id} ({app}, tenant {handle.tenant}): "
                  f"{'OK' if ok else 'MISMATCH'}; "
                  f"{rr.stats.jobs_processed} jobs "
                  f"({rr.stats.jobs_stolen} stolen, "
                  f"{rr.stats.n_failed_workers} workers failed, "
                  f"{rr.stats.jobs_recovered} recovered), "
                  f"{rr.stats.total_s:.3f}s wall")
        rows = service.service_rows()
        report = service.tenant_report()
    finally:
        service.shutdown()
    print(format_table(rows, "bursting service -- jobs"))
    print("tenants: " + "   ".join(
        f"{name}: weight={t['weight']} served={t['served_chunks']}"
        for name, t in sorted(report.items())
    ))
    if args.status_json:
        _write_status_json(args.status_json, rows)
    all_ok = n_ok == len(handles)
    print(f"service: {n_ok}/{len(handles)} jobs OK "
          f"({'OK' if all_ok else 'MISMATCH'})")
    return 0 if all_ok else 1


_COMMANDS = {
    "sweep": _cmd_sweep,
    "scalability": _cmd_scalability,
    "simulate": _cmd_simulate,
    "provision": _cmd_provision,
    "place": _cmd_place,
    "trace": _cmd_trace,
    "evaluate": _cmd_evaluate,
    "demo": _cmd_demo,
    "service": _cmd_service,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
