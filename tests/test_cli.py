"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.runtime import EngineOptions


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--app", "nosuch"])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["sweep", "--app", "knn"],
            ["scalability", "--app", "kmeans"],
            ["simulate", "--app", "pagerank"],
            ["provision", "--app", "knn", "--deadline", "60"],
            ["evaluate"],
            ["demo"],
        ):
            assert parser.parse_args(argv).command == argv[0]


class TestCommands:
    def test_sweep_prints_tables(self, capsys):
        assert main(["sweep", "--app", "knn"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "Table I" in out
        assert "Table II" in out
        assert "env-17/83" in out

    def test_scalability_prints_efficiencies(self, capsys):
        assert main(["scalability", "--app", "knn"]) == 0
        out = capsys.readouterr().out
        assert "(32,32)" in out
        assert "efficiency_pct" in out

    def test_simulate_custom_config(self, capsys):
        rc = main([
            "simulate", "--app", "knn",
            "--local-cores", "4", "--cloud-cores", "4",
            "--local-fraction", "0.25",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 local + 4 cloud cores" in out
        assert "total:" in out

    def test_simulate_invalid_fraction(self, capsys):
        assert main(["simulate", "--app", "knn", "--local-fraction", "1.5"]) == 2

    def test_simulate_no_cores(self, capsys):
        rc = main([
            "simulate", "--app", "knn",
            "--local-cores", "0", "--cloud-cores", "0",
        ])
        assert rc == 2

    def test_provision_with_deadline(self, capsys):
        rc = main([
            "provision", "--app", "knn", "--local-cores", "16",
            "--deadline", "1000000", "--options", "0", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "deadline" in out

    def test_provision_infeasible_deadline(self, capsys):
        rc = main([
            "provision", "--app", "knn", "--deadline", "0.001",
            "--options", "0", "8",
        ])
        assert rc == 1
        assert "infeasible" in capsys.readouterr().out

    def test_provision_with_budget(self, capsys):
        rc = main([
            "provision", "--app", "knn", "--budget", "1000",
            "--options", "0", "8",
        ])
        assert rc == 0
        assert "budget" in capsys.readouterr().out

    def test_demo_runs_real_middleware(self, capsys):
        rc = main(["demo", "--tokens", "5000", "--vocab", "100"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_demo_with_codec_and_min_part(self, capsys):
        rc = main([
            "demo", "--tokens", "5000", "--vocab", "100",
            "--codec", "shuffle", "--min-part-kb", "16",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "transfer layer" in out

    def test_demo_filter_with_pushdown(self, capsys):
        rc = main([
            "demo", "--tokens", "5000", "--vocab", "200",
            "--filter", "50:99", "--pushdown",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wordcount[50:99]" in out
        assert "OK" in out
        assert "metadata-first retrieval" in out
        assert "prune" in out

    def test_demo_filter_verify_mode(self, capsys):
        rc = main([
            "demo", "--tokens", "5000", "--vocab", "200",
            "--filter", "50:99", "--pushdown", "verify",
        ])
        assert rc == 0
        assert "verify" in capsys.readouterr().out

    def test_demo_rejects_bad_filter(self, capsys):
        assert main(["demo", "--filter", "99:50"]) == 2
        assert main(["demo", "--filter", "abc"]) == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--pushdown", "always"])

    def test_demo_rejects_bad_codec_and_negative_min_part(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--codec", "gzip"])
        assert main(["demo", "--min-part-kb", "-1"]) == 2

    @pytest.mark.parametrize("flag, spec, field", [
        ("--retry", "max=none", "max_attempts"),
        ("--retry", "base=none", "base_delay_s"),
        ("--retry", "base=nan", "base_delay_s"),
        ("--retry", "timeout=nan", "attempt_timeout_s"),
        ("--hedge", "mult=nan", "multiplier"),
        ("--breaker", "recovery=nan", "recovery_s"),
    ])
    def test_demo_rejects_nan_and_none_policies(self, capsys, flag, spec, field):
        assert main(["demo", flag, spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("engine", ["threaded", "process"])
    def test_demo_books_every_transient_fault(self, capsys, engine):
        rc = main(["demo", "--tokens", "20000", "--engine", engine,
                   "--inject-fault", "transient:p=0.3,seed=7", "--retry", "max=5"])
        out = capsys.readouterr()
        assert rc == 0 and "OK" in out.out and out.err == ""

    def test_demo_fails_when_a_planned_crash_never_fires(self, capsys):
        rc = main(["demo", "--tokens", "5000", "--crash-worker", "cloud-w0:999"])
        assert rc == 1
        assert "planned crash never fired: cloud-w0" in capsys.readouterr().err

    def test_demo_attempt_timeout_is_not_a_lost_fault(self, capsys, monkeypatch):
        """A timed-out attempt is retried with no fault injected, so the
        retries outnumber the injected faults and the run is still sound."""
        import threading
        import time

        from repro.storage import s3

        class SlowFirstGet(s3.SimulatedS3Store):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.seen, self.lock = set(), threading.Lock()

            def get(self, key, *args, **kwargs):
                with self.lock:
                    first = key not in self.seen
                    self.seen.add(key)
                if first:
                    time.sleep(0.05)  # outlasts the attempt timeout
                return super().get(key, *args, **kwargs)

        monkeypatch.setattr(s3, "SimulatedS3Store", SlowFirstGet)
        rc = main(["demo", "--tokens", "20000",
                   "--inject-fault", "transient:p=0.1,seed=7",
                   "--retry", "max=5,base=0,timeout=0.01"])
        out = capsys.readouterr()
        assert rc == 0 and "OK" in out.out and out.err == ""
        retries = int(out.out.split("retries: ")[1].split()[0])
        injected = int(out.out.split("transient=")[1].split()[0])
        assert retries > injected

    def test_bad_crash_worker_same_error_everywhere(self, capsys):
        assert main(["demo", "--crash-worker", "bad"]) == 2
        demo_err = capsys.readouterr().err
        assert main(["service", "run", "--crash-worker", "bad"]) == 2
        assert capsys.readouterr().err == demo_err
        assert "bad --crash-worker spec 'bad'" in demo_err

    def test_option_flags_parse_into_fields(self):
        from repro.cli import _option_fields

        ns = build_parser().parse_args([
            "demo", "--cache-mb", "2", "--crash-worker", "cloud-w0:1",
            "--crash-worker", "local-w1:3", "--min-part-kb", "8", "--hedge",
        ])
        fields = _option_fields(ns, ("chunk_cache", "crash_plan",
                                     "min_part_nbytes", "hedge", "retry"))
        assert fields["chunk_cache"].capacity_nbytes == 2 << 20
        assert fields["crash_plan"] == {"cloud-w0": 1, "local-w1": 3}
        assert fields["min_part_nbytes"] == 8192
        assert "retry" not in fields  # unset flag: field not given
        EngineOptions(**fields)  # every parsed value is a valid field value

    def test_simulate_with_codec_prints_transfer_table(self, capsys):
        rc = main([
            "simulate", "--app", "knn",
            "--local-cores", "4", "--cloud-cores", "4",
            "--codec", "shuffle",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "transfer layer" in out
        assert "compress_ratio" in out

    def test_transfer_flags_parse(self):
        parser = build_parser()
        assert parser.parse_args(["demo", "--codec", "zlib"]).codec == "zlib"
        ns = parser.parse_args(["simulate", "--app", "knn", "--codec", "lz4"])
        assert ns.codec == "lz4"

    def test_place_advisor(self, capsys):
        rc = main(["place", "--app", "knn", "--local-cores", "8",
                   "--cloud-cores", "8", "--objective", "time"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "placement sweep" in out
        assert "best (time)" in out

    def test_trace_gantt(self, capsys):
        rc = main(["trace", "--app", "knn", "--local-cores", "4",
                   "--cloud-cores", "4", "--width", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# compute" in out
        assert "|" in out
