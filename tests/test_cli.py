"""The command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core.schedule import RateSchedule
from repro.traffic import FrameTrace, generate_starwars_trace


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "trace.npz"
    generate_starwars_trace(num_frames=2400, seed=9).save(path)
    return str(path)


class TestGenerate:
    def test_writes_npz(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        code = main(["generate", str(out), "--frames", "480", "--seed", "1"])
        assert code == 0
        trace = FrameTrace.load(out)
        assert trace.num_frames == 480
        assert "480 frames" in capsys.readouterr().out

    def test_writes_text(self, tmp_path):
        out = tmp_path / "t.txt"
        main(["generate", str(out), "--frames", "100", "--seed", "1"])
        trace = FrameTrace.load_text(out)
        assert trace.num_frames == 100

    def test_custom_mean(self, tmp_path):
        out = tmp_path / "t.npz"
        main(["generate", str(out), "--frames", "480", "--mean-kbps", "1000"])
        assert FrameTrace.load(out).mean_rate == pytest.approx(1_000_000.0)


class TestAnalyze:
    def test_basic_stats(self, trace_file, capsys):
        assert main(["analyze", trace_file]) == 0
        out = capsys.readouterr().out
        assert "mean rate" in out
        assert "peak frame rate" in out

    def test_sigma_rho(self, trace_file, capsys):
        assert main(["analyze", trace_file, "--sigma-rho",
                     "--loss-target", "1e-3"]) == 0
        assert "(sigma, rho)" in capsys.readouterr().out

    def test_missing_file(self):
        with pytest.raises(SystemExit):
            main(["analyze", "/nonexistent/file.npz"])


class TestSchedule:
    def test_optimal_writes_schedule(self, trace_file, tmp_path, capsys):
        out = tmp_path / "sched.json"
        code = main([
            "schedule", trace_file, "--method", "optimal",
            "--granularity-kbps", "128", "--alpha", "2e6",
            "--output", str(out),
        ])
        assert code == 0
        schedule = RateSchedule.load(out)
        assert schedule.num_segments >= 1
        assert "bandwidth efficiency" in capsys.readouterr().out

    def test_online_method(self, trace_file, capsys):
        assert main(["schedule", trace_file, "--method", "online"]) == 0
        assert "renegotiations" in capsys.readouterr().out

    def test_gop_method(self, trace_file, capsys):
        assert main(["schedule", trace_file, "--method", "gop"]) == 0
        assert "renegotiations" in capsys.readouterr().out


class TestAdmit:
    def test_calculator(self, trace_file, tmp_path, capsys):
        sched = tmp_path / "s.json"
        main(["schedule", trace_file, "--method", "online",
              "--output", str(sched)])
        capsys.readouterr()
        assert main(["admit", str(sched), "--capacity-kbps", "8000"]) == 0
        out = capsys.readouterr().out
        assert "max calls" in out

    def test_handwritten_schedule(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({
            "name": "x", "duration": 100.0,
            "start_times": [0.0, 50.0], "rates": [100_000.0, 300_000.0],
        }))
        assert main(["admit", str(sched), "--capacity-kbps", "1000"]) == 0


class TestFit:
    def test_fit_prints_classes(self, trace_file, capsys):
        assert main(["fit", trace_file, "--classes", "3"]) == 0
        out = capsys.readouterr().out
        assert "scene classes" in out
        assert "GOP length" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestExperiment:
    def test_sigma_rho_experiment(self, capsys):
        assert main(["experiment", "sigma-rho", "--frames", "2400",
                     "--seed", "1", "--loss-target", "1e-3"]) == 0
        assert "x mean" in capsys.readouterr().out

    def test_experiment_with_trace_file(self, trace_file, capsys):
        assert main(["experiment", "sigma-rho", "--trace", trace_file]) == 0
        assert "x mean" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "frobnicate"])

    def test_tradeoff_experiment(self, capsys):
        assert main(["experiment", "tradeoff", "--frames", "2400",
                     "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "OPT (alpha sweep):" in out
        assert "AR(1) heuristic" in out

    def test_smg_experiment(self, capsys):
        assert main(["experiment", "smg", "--frames", "2400",
                     "--seed", "2", "--loss-target", "1e-2"]) == 0
        out = capsys.readouterr().out
        assert "CBR" in out and "RCBR" in out


class TestChaos:
    def test_chaos_trial_runs(self, capsys):
        assert main(["chaos", "--policy", "downgrade", "--deny-rate", "0.2",
                     "--cell-loss", "0.05", "--slots", "600",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "chaos trial (policy=downgrade, seed=3):" in out
        assert "fingerprint:" in out

    def test_chaos_retry_knobs(self, capsys):
        assert main(["chaos", "--policy", "backoff", "--deny-rate", "0.2",
                     "--cell-loss", "0.1", "--slots", "600",
                     "--timeout", "0.05", "--retries", "3",
                     "--retry-backoff", "2.0", "--retry-jitter", "0.3",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "retries" in out

    def test_chaos_is_reproducible(self, capsys):
        main(["chaos", "--slots", "600", "--seed", "9"])
        first = capsys.readouterr().out
        main(["chaos", "--slots", "600", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--policy", "frobnicate", "--slots", "600"])


class TestServe:
    def test_serve_prints_accounting(self, capsys):
        assert main(["serve", "--duration", "5", "--frames", "400",
                     "--load", "0.8", "--initial-calls", "6",
                     "--capacity-multiple", "30", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert ("RCBR gateway (controller=always, "
                "source=starwars-like, seed=3):") in out
        assert "renegotiations:" in out
        assert "fingerprint:" in out

    def test_serve_writes_report(self, tmp_path, capsys):
        report = tmp_path / "server.json"
        assert main(["serve", "--duration", "4", "--frames", "400",
                     "--initial-calls", "5", "--snapshot-every", "1",
                     "--controller", "memoryless",
                     "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["config"]["controller"] == "memoryless"
        assert len(payload["snapshots"]) == 4
        assert payload["fingerprint"]

    def test_serve_inline_fault_plan(self, capsys):
        assert main(["serve", "--duration", "4", "--frames", "400",
                     "--initial-calls", "8", "--capacity-multiple", "20",
                     "--fault-plan", '{"denial": {"rate": 0.4}}',
                     "--fault-seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "injected" in out

    def test_serve_fault_plan_file(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"cell_loss": {"probability": 0.1}}')
        assert main(["serve", "--duration", "4", "--frames", "400",
                     "--initial-calls", "8",
                     "--fault-plan", str(plan)]) == 0
        assert "signaling:" in capsys.readouterr().out

    def test_serve_is_reproducible(self, capsys):
        argv = ["serve", "--duration", "4", "--frames", "400",
                "--initial-calls", "6", "--seed", "5"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_serve_bench_writes_records(self, tmp_path, capsys):
        out = tmp_path / "BENCH_server.json"
        assert main(["serve", "--bench", "--bench-calls", "100",
                     "--bench-epochs", "3", "--bench-warmup", "2",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "server benchmark (100 concurrent calls, in-process):" in text
        assert "realtime factor:" in text
        payload = json.loads(out.read_text())
        assert payload["context"]["realtime_factor"] > 0
        assert any(r["name"] == "server/run" for r in payload["records"])

    def test_serve_rejects_unknown_controller(self):
        with pytest.raises(SystemExit):
            main(["serve", "--controller", "frobnicate"])


class TestServeCheckpoint:
    """`repro serve` checkpoint/resume: the CLI face of DESIGN.md §15."""

    BASE = ["serve", "--frames", "400", "--initial-calls", "6",
            "--seed", "5", "--snapshot-every", "1"]

    @staticmethod
    def fingerprint(out):
        for line in out.splitlines():
            if "fingerprint:" in line:
                return line.split()[-1]
        raise AssertionError(f"no fingerprint in output:\n{out}")

    def test_resume_reproduces_uninterrupted_fingerprint(
        self, tmp_path, capsys
    ):
        ckpt = tmp_path / "serve.ckpt"
        assert main(self.BASE + ["--duration", "8"]) == 0
        expected = self.fingerprint(capsys.readouterr().out)

        assert main(self.BASE + ["--duration", "4",
                                 "--checkpoint-every", "20",
                                 "--checkpoint-path", str(ckpt)]) == 0
        capsys.readouterr()
        assert ckpt.exists()

        assert main(self.BASE + ["--duration", "8",
                                 "--resume-from", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert self.fingerprint(out) == expected

    def test_resume_past_duration_is_an_error(self, tmp_path, capsys):
        ckpt = tmp_path / "serve.ckpt"
        main(self.BASE + ["--duration", "4", "--checkpoint-every", "30",
                          "--checkpoint-path", str(ckpt)])
        capsys.readouterr()
        assert main(self.BASE + ["--duration", "1",
                                 "--resume-from", str(ckpt)]) == 1
        assert "nothing left" in capsys.readouterr().out

    def test_resume_refuses_different_config(self, tmp_path, capsys):
        from repro.server.checkpoint import StaleCheckpointError

        ckpt = tmp_path / "serve.ckpt"
        main(self.BASE + ["--duration", "4", "--checkpoint-every", "30",
                          "--checkpoint-path", str(ckpt)])
        capsys.readouterr()
        argv = [arg if arg != "5" else "6" for arg in self.BASE]
        with pytest.raises(StaleCheckpointError, match="config hash"):
            main(argv + ["--duration", "8", "--resume-from", str(ckpt)])


class TestServeSource:
    """`repro serve --source` runs the gateway off a sampled model."""

    @pytest.mark.parametrize(
        "source", ["starwars", "markov", "multiscale", "onoff"]
    )
    def test_synthetic_sources_smoke(self, source, capsys):
        assert main(["serve", "--source", source, "--source-slots", "300",
                     "--duration", "4", "--load", "0.6",
                     "--initial-calls", "4", "--capacity-multiple", "30",
                     "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "source=" in out
        assert "renegotiations:" in out
        assert "fingerprint:" in out

    def test_trace_source_replays_file(self, trace_file, capsys):
        assert main(["serve", "--source", "trace", "--trace", trace_file,
                     "--source-slots", "300", "--duration", "4",
                     "--initial-calls", "4"]) == 0
        assert "fingerprint:" in capsys.readouterr().out

    def test_source_runs_are_reproducible(self, capsys):
        argv = ["serve", "--source", "markov", "--source-slots", "240",
                "--duration", "4", "--initial-calls", "4", "--seed", "6"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_rejects_unknown_source(self):
        with pytest.raises(SystemExit):
            main(["serve", "--source", "fractal"])


class TestServeOverload:
    """`repro serve --overload-policy` wires the control plane."""

    ARGS = ["serve", "--duration", "6", "--frames", "400",
            "--load", "1.5", "--controller", "always",
            "--initial-calls", "25", "--capacity-multiple", "20",
            "--seed", "13"]

    def test_downgrade_reports_plane_and_classes(self, capsys):
        assert main(self.ARGS + ["--overload-policy", "downgrade",
                                 "--downgrade-ladder", "1.0,0.6,0.3"]) == 0
        out = capsys.readouterr().out
        assert "overload plane:  policy=downgrade" in out
        assert "class treatment:" in out

    def test_sacrifice_accepts_queue_knobs(self, capsys):
        assert main(self.ARGS + ["--overload-policy", "sacrifice",
                                 "--sacrifice-queue", "8",
                                 "--sacrifice-max-per-epoch", "1"]) == 0
        assert "policy=sacrifice" in capsys.readouterr().out

    def test_block_prints_no_plane_section(self, capsys):
        assert main(self.ARGS) == 0
        assert "overload plane:" not in capsys.readouterr().out

    def test_rejects_bad_ladder(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--overload-policy", "downgrade",
                              "--downgrade-ladder", "1.0,oops"])

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["serve", "--overload-policy", "panic"])


class TestSupervisionFlags:
    """The sweep subcommands expose the supervision knobs."""

    def test_sweep_parsers_accept_supervision_flags(self, tmp_path):
        from repro.cli import build_parser

        parser = build_parser()
        for name in ("mbac", "smg", "tradeoff"):
            args = parser.parse_args([
                "sweep", name, "--timeout", "120", "--retries", "3",
                "--journal", str(tmp_path / "j.jsonl"), "--resume",
                "--report", str(tmp_path / "report.json"),
            ])
            assert args.timeout == 120.0
            assert args.retries == 3
            assert args.resume
            assert args.journal.endswith("j.jsonl")
            assert args.report.endswith("report.json")

    def test_bench_has_no_supervision_flags(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "bench", "--resume"])
