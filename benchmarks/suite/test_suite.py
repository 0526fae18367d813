"""Tests of the suite itself.  Run with ``pytest benchmarks/suite`` (not tier-1).

The slow part is one module-scoped fixture that runs the ``--quick``
profile twice with one seed (about 30 s each on two cores).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro import (  # noqa: E402
    FilteredWordCountSpec,
    KMeansSpec,
    WordCountSpec,
    pagerank_step,
    supports_batch_fold,
    supports_pushdown,
)
from repro.core import uses_default_global_reduction  # noqa: E402

from benchmarks.suite import compare  # noqa: E402
from benchmarks.suite.measure import measure  # noqa: E402
from benchmarks.suite.spans import Span, Tracer, self_times, to_chrome, union_s  # noqa: E402
from benchmarks.suite.workloads import WORKLOADS  # noqa: E402
from benchmarks.suite.wrappers import Plain, Traced, timed_spec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "benchmarks/suite/run.py")]


# -- spans ---------------------------------------------------------------------


def _span(name, start, end, parent=None):
    return Span(name, start, end, "t", 0, parent)


def test_union_counts_overlaps_once():
    assert union_s([(0, 2), (1, 3), (5, 6), (6, 6)]) == pytest.approx(4.0)
    assert union_s([]) == 0.0


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        _span("pass", 0, 10),          # 0
        _span("fetch", 1, 4, 0),       # 1
        _span("fetch", 3, 6, 0),       # 2: overlaps span 1, counted once
        _span("fold", 8, 12, 0),       # 3: clipped to its parent's end
        _span("get", 2, 3, 1),         # 4: grandchild, only its parent pays
        _span("orphan", 20, 21),       # 5
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0, 1.0])


def test_tracer_parents_same_thread_and_ambient():
    import threading

    tracer = Tracer()
    with tracer.span("suite.pass", ambient=True):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        th = threading.Thread(target=lambda: tracer.span("worker").__enter__())
        th.start()
        th.join()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].parent == 0
    assert tracer.spans[by_name["inner"].parent].name == "outer"
    assert by_name["worker"].parent == 0  # no span open on its own thread


def test_chrome_export_has_one_tid_per_thread():
    spans = [Span("a", 1.0, 1.5, "w0", 3, None, {"nbytes": 7}), Span("b", 1.2, 1.3, "w1", 3, None)]
    events = to_chrome(spans, pid=4, process_name="wl")
    xs = [e for e in events if e["ph"] == "X"]
    assert {e["pid"] for e in events} == {4}
    assert len({e["tid"] for e in xs}) == 2
    assert xs[0]["ts"] == 0 and xs[0]["dur"] == pytest.approx(5e5)
    assert xs[0]["args"] == {"pass": 3, "nbytes": 7}
    json.dumps(events)


# -- wrappers ------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    KMeansSpec(np.zeros((3, 2))), WordCountSpec(), FilteredWordCountSpec(0, 10),
])
def test_timed_spec_keeps_what_the_runtimes_introspect(spec):
    timed = timed_spec(spec, Tracer())
    assert type(timed) is type(spec)
    assert supports_batch_fold(timed) == supports_batch_fold(spec)
    assert uses_default_global_reduction(timed) == uses_default_global_reduction(spec)
    assert supports_pushdown(timed) == supports_pushdown(spec)


def test_timed_spec_records_one_span_per_batch_fold():
    tracer = Tracer()
    spec = timed_spec(WordCountSpec(), tracer)
    robj = spec.create_reduction_object()
    spec.local_reduction_batch(robj, np.arange(10))
    assert [s.name for s in tracer.spans] == ["core.fold"]
    assert tracer.spans[0].args == {"nbytes": 80}


def test_traced_run_sees_every_fold_the_program_reports():
    wl = WORKLOADS["knn-hybrid-wan"](0.02)
    units, state = wl.generate(1)
    org = wl.organize(units, 1)
    tracer = Tracer()
    instr = Traced(tracer)
    rr = wl.open(org, instr).run(instr.spec(wl.make_spec(state)))
    unwrapped = wl.open(org, Plain()).run(wl.make_spec(state))
    assert wl.matches(rr.result, wl.reference(units, state))
    assert len(tracer.named("core.fold")) == unwrapped.stats.n_fold_calls > 0
    assert rr.stats.n_fold_calls == unwrapped.stats.n_fold_calls
    gets = tracer.named("storage.get")
    assert sum(s.args["nbytes"] for s in gets) == rr.stats.bytes_wire


# -- correctness is checked, against the right thing -----------------------------


def test_wrong_reference_counts_every_pass_as_failed():
    class Wrong(WORKLOADS["kmeans-local"]):
        def reference(self, units, state):
            expected = super().reference(units, state)
            expected.centroids[0, 0] += 1.0
            return expected

    with pytest.raises(RuntimeError, match="no warm pass succeeded"):
        measure(Wrong(0.02), 1, 0.1)
    record = measure(WORKLOADS["kmeans-local"](0.02), 1, 0.1)
    assert record.failed == 0 and record.attempted >= 2


def test_pagerank_fast_reference_is_pagerank_step():
    wl = WORKLOADS["pagerank-process-iter"](0.01)
    edges, ranks = wl.generate(2)
    for _ in range(3):
        expected = pagerank_step(edges, ranks, wl.outdeg)
        assert wl.matches(wl.reference(edges, ranks), expected)
        ranks = expected


# -- compare -------------------------------------------------------------------


def test_judge_verdicts():
    base = [1.00, 1.01, 0.99]
    assert compare.judge(base, [1.02, 1.01, 1.03], "lower", 0.07)["verdict"] == "same"
    assert compare.judge(base, [1.20, 1.21, 1.19], "lower", 0.07)["verdict"] == "worse"
    assert compare.judge(base, [0.80, 0.81, 0.79], "lower", 0.07)["verdict"] == "better"
    assert compare.judge(base, [0.80, 0.81, 0.79], "higher", 0.07)["verdict"] == "worse"
    # noisy and overlapping: a 10% move cannot be told from the spread
    assert compare.judge([1.0, 1.3, 0.8], [1.1, 1.4, 0.9], "lower", 0.07)["verdict"] == "unresolved"
    # just as noisy, but every new run beats every old run: decided
    assert compare.judge([1.0, 1.3, 1.1], [0.5, 0.7, 0.9], "lower", 0.07)["verdict"] == "better"


def _result(values, *, oversubscribed=False, failed=0):
    runs = [
        {"metrics": {m["name"]: v for m in SPEC["end_to_end"]}, "failed": failed, "attempted": 10}
        for v in values
    ]
    return {"workloads": {"w": {"oversubscribed": oversubscribed, "runs": runs}}}


def test_compare_flags_worse_and_refuses_oversubscribed():
    rows, problems = compare.compare(_result([1, 1, 1]), _result([2, 2, 2]), SPEC)
    verdicts = {r["metric"]: r.get("verdict") for r in rows}
    assert verdicts["pass_s"] == "worse" and verdicts["agg_MBps"] == "better"
    assert any("pass_s" in p for p in problems)
    rows, problems = compare.compare(
        _result([1, 1, 1], oversubscribed=True), _result([2, 2, 2]), SPEC)
    verdicts = {r["metric"]: r.get("verdict") for r in rows}
    assert verdicts["pass_s"] == "refused" and verdicts["peak_rss_mb"] == "worse"
    assert not any("pass_s" in p for p in problems)
    _, problems = compare.compare(_result([1, 1]), _result([1, 1], failed=1), SPEC)
    assert any("fail ratio rose" in p for p in problems)


def test_compare_skips_alias_rows_and_counts_a_dead_run_as_failed():
    rows, _ = compare.compare(_result([1, 1, 1]), _result([1, 1, 1]), SPEC)
    assert {"jobs_per_s", "job_p50_ms"}.isdisjoint(r["metric"] for r in rows)
    assert compare.is_alias("service-mixed", "pass_s")
    assert not compare.is_alias("service-mixed", "job_p50_ms")
    dead = _result([1, 1])
    dead["workloads"]["w"]["runs"].append({"metrics": None, "failed": 1, "attempted": 1})
    rows, problems = compare.compare(_result([1, 1]), dead, SPEC)
    assert {r["metric"]: r.get("verdict") for r in rows}["pass_s"] == "same"
    assert any("fail ratio rose" in p for p in problems)


def test_compare_fails_on_an_exact_count_that_differs():
    def traced(get_n):
        metrics = dict.fromkeys(compare.EXACT_COUNTS, 0.0) | {"storage.get_n": get_n}
        return {"workloads": {"kmeans-local": {"traced": {"seed": 1, "metrics": metrics}}}}

    lines, problems = compare._exact_counts(traced(32.0), traced(32.0))
    assert len(lines) == 1 and not problems  # 0 == 0 rows are a check of nothing
    _, problems = compare._exact_counts(traced(32.0), traced(33.0))
    assert problems and "storage.get_n" in problems[0]


# -- the whole suite, quick profile -----------------------------------------------


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """Two ``--quick`` runs of all five workloads with the same seed."""
    out = tmp_path_factory.mktemp("quick")
    files = []
    for tag in "ab":
        path = out / f"{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.suite", "--quick", "--seed", "5",
             "--out", str(path), "--trace-out", str(out / f"trace-{tag}")],
            cwd=ROOT, env={**__import__("os").environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        files.append(path)
    return out, [json.loads(p.read_text()) for p in files], files


def test_quick_reports_every_declared_metric_and_no_failure(quick):
    _, (a, _b), _ = quick
    assert set(a["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert {"nproc", "load1_at_start", "python", "numpy", "blas", "thread_env",
            "git_sha"} <= set(a["host"])
    for name, entry in a["workloads"].items():
        assert entry["oversubscribed"] == (a["host"]["nproc"] < entry["workers"])
        for run in entry["runs"] + [entry["traced"]]:
            assert run["failed"] == 0 and run["attempted"] >= 1, name
        assert set(entry["runs"][0]["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(entry["traced"]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        assert all(v > 0 for v in entry["runs"][0]["metrics"].values()), name


def test_run_py_last_line_is_the_contract(quick):
    proc = subprocess.run(
        RUN + ["--workload", "service-mixed", "--seed", "5", "--seconds", "0.5",
               "--scale", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name in units:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)


def test_run_py_leaves_no_process_behind():
    """The process engine's resource tracker outlives its parent unless stopped."""
    proc = subprocess.Popen(
        RUN + ["--workload", "pagerank-process-iter", "--seed", "5", "--seconds", "0.5",
               "--scale", "0.1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    _out, err = proc.communicate()
    assert proc.returncode == 0, err
    left = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:  # field 6 of /proc/<pid>/stat, counted after the "(comm)"
                session = int((entry / "stat").read_text().rsplit(")", 1)[1].split()[3])
            except OSError:
                continue  # gone between the listing and the read
            if session == proc.pid:
                left.append(entry.name)
    assert not left


def test_exact_counts_repeat_for_a_seed_and_follow_the_seed(quick):
    _, (a, b), _ = quick
    for name in compare.EXACT_WORKLOADS:
        for metric in compare.EXACT_COUNTS:
            va = a["workloads"][name]["traced"]["metrics"][metric]
            vb = b["workloads"][name]["traced"]["metrics"][metric]
            assert va == vb, (name, metric)
    # the shuffle codec's frame sizes depend on the data, so on the seed
    proc = subprocess.run(
        RUN + ["--workload", "knn-hybrid-wan", "--seed", "6", "--seconds", "0.5",
               "--scale", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    other = json.loads(proc.stdout.splitlines()[-1])["metrics"]["storage.get_bytes"]["value"]
    assert other != a["workloads"]["knn-hybrid-wan"]["traced"]["metrics"]["storage.get_bytes"]


def test_workloads_stress_different_layers(quick):
    _, (a, _b), _ = quick
    kmeans = a["workloads"]["kmeans-local"]["traced"]["metrics"]
    knn = a["workloads"]["knn-hybrid-wan"]["traced"]["metrics"]
    assert kmeans["runtime.fold_share"] > kmeans["runtime.get_share"]
    assert knn["runtime.get_share"] > 0.5 > knn["runtime.fold_share"]


def test_trace_out_is_chrome_trace_json(quick):
    out, _, _ = quick
    for w in SPEC["workloads"]:
        events = json.loads((out / "trace-a" / f"{w['name']}.trace.json").read_text())["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "suite.pass" for e in events)
        assert len({e["pid"] for e in events}) == 1


def test_compare_two_quick_sets_runs(quick, capsys):
    _, _, (fa, fb) = quick
    code = compare.main([str(fa), str(fb)])
    printed = capsys.readouterr().out
    assert code in (0, 1)  # 1 s windows are too short to hold the bounds
    assert "identical" in printed and "DIFFERS" not in printed
    assert "fail_ratio" in printed
