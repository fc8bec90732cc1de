"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure4_defaults(self):
        args = build_parser().parse_args(["figure4"])
        assert args.country == "us"
        assert args.task == "linear"
        # Execution flags default to None so REPRO_* env vars can fill
        # them in; the policy resolver's CLI base supplies smoke scale.
        assert args.scale is None
        assert args.runtime is None
        assert args.executor is None

    def test_env_only_configuration(self, capsys, monkeypatch):
        """REPRO_* variables alone configure a figure run end to end."""
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        monkeypatch.setenv("REPRO_TILE_SIZE", "1")
        monkeypatch.setenv("REPRO_RUNTIME", "batched")
        assert main(["figure4", "--task", "linear"]) == 0
        out = capsys.readouterr().out
        assert "mean square error vs dimensionality" in out

    def test_removed_env_variable_refused(self, capsys, monkeypatch):
        """A stale REPRO_* variable of a removed field stops the run, named."""
        monkeypatch.setenv("REPRO_SHARDS", "4")
        assert main(["figure5", "--task", "linear"]) == 2
        assert "REPRO_SHARDS" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure4", "--scale", "galactic"])

    @pytest.mark.parametrize(
        "entry, argv",
        [
            ("repro", ["figure6", "--stream-version", "2"]),
            ("check", ["--data-dir", "d", "--report", "r", "--stream-version", "2"]),
        ],
        ids=["repro", "serve-check"],
    )
    def test_stream_version_flag_is_gone(self, capsys, entry, argv):
        # One stream derivation; a stale --stream-version fails loudly.
        from repro.serve.check import main as check_main

        with pytest.raises(SystemExit) as exit_info:
            (main if entry == "repro" else check_main)(argv)
        assert exit_info.value.code == 2
        assert "--stream-version" in capsys.readouterr().err


class TestCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "sampling rates" in out
        assert "0.1" in out and "3.2" in out

    def test_figure2(self, capsys):
        assert main(["figure2", "--epsilon", "1.0", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "2.06" in out and "argmin" in out

    def test_figure3(self, capsys):
        assert main(["figure3"]) == 0
        assert "f^_D(w)" in capsys.readouterr().out

    def test_figure4_smoke(self, capsys):
        assert main(["figure4", "--scale", "smoke", "--task", "linear"]) == 0
        out = capsys.readouterr().out
        assert "mean square error vs dimensionality" in out
        assert "ordering flags" in out

    def test_figure6_logistic_smoke(self, capsys):
        assert (
            main(["figure6", "--scale", "smoke", "--task", "logistic",
                  "--country", "brazil"]) == 0
        )
        out = capsys.readouterr().out
        assert "misclassification rate" in out
        assert "Truncated" in out

    def test_figure7_smoke(self, capsys):
        assert main(["figure7", "--scale", "smoke"]) == 0
        assert "computation time" in capsys.readouterr().out

    def test_convergence(self, capsys):
        assert main(["convergence", "--task", "linear"]) == 0
        assert "noise/signal" in capsys.readouterr().out


class TestEngineCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["engine"])
        assert args.task == "linear"
        assert args.epsilons == "0.1,0.2,0.4,0.8,1.6,3.2"
        assert args.cache_dir is None

    def test_linear_sweep_smoke(self, capsys):
        assert main(["engine", "--task", "linear", "--epsilons", "0.1,1,10",
                     "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "one pass, 3 budgets" in out
        assert "mean square error" in out

    def test_logistic_sweep_with_error_bars(self, capsys):
        assert main(["engine", "--task", "logistic", "--epsilons", "0.5,2",
                     "--scale", "smoke", "--repeats", "3"]) == 0
        out = capsys.readouterr().out
        assert "misclassification rate" in out
        assert "coef std" in out

    def test_cache_round_trip(self, capsys, tmp_path):
        argv = ["engine", "--epsilons", "1.0", "--scale", "smoke",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache hit" not in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        # Identical statistics + seed => identical metric and ||omega||
        # (the trailing solve-time column is wall clock, so exclude it).
        assert first.splitlines()[-2].split()[:3] == second.splitlines()[-2].split()[:3]

    def test_bad_epsilons_exit_code(self, capsys):
        assert main(["engine", "--epsilons", "abc"]) == 2

    def test_nonpositive_epsilons_exit_code(self, capsys):
        assert main(["engine", "--epsilons", "0.5,-1"]) == 2
        assert "positive budget" in capsys.readouterr().err

    def test_shards_flag_is_gone(self, capsys):
        # Ingestion is one accumulator pass; a stale --shards fails loudly.
        with pytest.raises(SystemExit) as exit_info:
            main(["engine", "--shards", "4"])
        assert exit_info.value.code == 2
        assert "--shards" in capsys.readouterr().err


class TestTelemetryFlags:
    def test_trace_flag_writes_valid_jsonl(self, capsys, tmp_path):
        from repro.obs import load_trace

        path = tmp_path / "fig4.jsonl"
        assert main(["figure4", "--scale", "smoke", "--trace", str(path)]) == 0
        assert "trace written" in capsys.readouterr().out
        lines = load_trace(path)  # raises on schema violations
        assert lines[0]["policy"]["telemetry"] == "trace"
        assert any(l.get("name") == "session.figure" for l in lines)

    def test_trace_with_telemetry_off_rejected(self, capsys, tmp_path):
        argv = ["figure4", "--scale", "smoke", "--telemetry", "off",
                "--trace", str(tmp_path / "t.jsonl")]
        assert main(argv) == 2
        assert "--trace" in capsys.readouterr().err

    def test_engine_trace(self, capsys, tmp_path):
        from repro.obs import load_trace

        path = tmp_path / "engine.jsonl"
        assert main(["engine", "--epsilons", "1.0", "--scale", "smoke",
                     "--trace", str(path)]) == 0
        lines = load_trace(path)
        assert lines[0]["entry_point"] == "engine"
        names = {l.get("name") for l in lines}
        assert "engine.ingest" in names
        assert "engine.sweep_batched" in names

    def test_trace_summarize_command(self, capsys, tmp_path):
        path = tmp_path / "fig4.jsonl"
        assert main(["figure4", "--scale", "smoke", "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mode=trace" in out
        assert "session.figure" in out
        assert "runner.laplace_draws" in out or "counter" in out

    def test_trace_summarize_missing_file(self, capsys, tmp_path):
        assert main(["trace", "summarize", str(tmp_path / "absent.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_telemetry_off_unchanged_output(self, capsys):
        """Same figure, telemetry on vs off: identical printed table."""
        assert main(["figure4", "--scale", "smoke"]) == 0
        plain = capsys.readouterr().out
        assert main(["figure4", "--scale", "smoke", "--telemetry", "trace"]) == 0
        traced = capsys.readouterr().out
        assert plain == traced
