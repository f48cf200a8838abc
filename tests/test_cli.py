"""Tests for the command-line interface (fast deployments only)."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            "run", "pilot", "table1", "table2", "fig8", "fig9",
            "budget", "chaos", "diagnose", "trace", "bench", "supervise",
        ):
            argv = [command, "--seed", "5"]
            if command == "supervise":
                argv += ["--checkpoint", "c.ckpt", "--journal", "c.journal"]
            args = parser.parse_args(argv)
            assert args.seed == 5
            assert callable(args.func)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_full_flag(self):
        args = build_parser().parse_args(["run", "--full"])
        assert args.full is True

    def test_run_durable_flags(self):
        argv = [
            "run", "--checkpoint", "c.ckpt", "--journal", "c.journal",
            "--resume", "--cycles", "3", "--crash-at", "cqc:1:0:kill",
            "--crash-at", "post:2", "--digest-file", "d.txt",
        ]
        args = build_parser().parse_args(argv)
        assert args.resume is True
        assert args.cycles == 3
        assert args.crash_at == ["cqc:1:0:kill", "post:2"]
        # Every record is fsynced and every cycle checkpointed.
        for removed in (["--fsync", "rotate"], ["--checkpoint-every", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + removed)

    def test_supervise_requires_journal_and_checkpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["supervise"])

    def test_chaos_crash_flag(self):
        args = build_parser().parse_args(["chaos", "--crash"])
        assert args.crash is True

    def test_serve_and_loadgen_registered(self):
        parser = build_parser()
        for command in ("serve", "loadgen"):
            args = parser.parse_args([command, "--seed", "5"])
            assert args.seed == 5
            assert callable(args.func)

    def test_serve_flags(self):
        args = build_parser().parse_args([
            "serve", "--events", "4", "--capacity", "6",
            "--policy", "deadline", "--max-backlog", "2",
            "--serve-dir", "fleet", "--resume",
            "--crash-at-tick", "9", "--digest-file", "d.txt",
        ])
        assert args.events == 4
        assert args.capacity == 6
        assert args.policy == "deadline"
        assert args.max_backlog == 2
        assert args.serve_dir == "fleet"
        assert args.resume is True
        assert args.crash_at_tick == 9
        assert args.digest_file == "d.txt"
        for command in ("serve", "loadgen"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--fsync", "rotate"])

    def test_loadgen_flags(self):
        args = build_parser().parse_args([
            "loadgen", "--events", "2", "--policy", "priority",
            "--burst-images", "20", "--burst-seed", "7",
            "--output", "out.json", "--check", "--p99-gate", "2.5",
        ])
        assert args.events == 2
        assert args.policy == "priority"
        assert args.burst_images == 20
        assert args.burst_seed == 7
        assert args.output == "out.json"
        assert args.check is True
        assert args.p99_gate == 2.5

    def test_unknown_admission_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "round-robin"])


class TestCommands:
    """Each command runs end-to-end on the fast deployment."""

    def test_run(self, capsys):
        assert main(["run", "--seed", "61"]) == 0
        out = capsys.readouterr().out
        assert "CrowdLearn:" in out
        assert "crowd delay" in out
        assert "run digest " in out

    def test_pilot(self, capsys):
        assert main(["pilot", "--seed", "61"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "Figure 6" in out

    def test_table1(self, capsys):
        assert main(["table1", "--seed", "61"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_fig8(self, capsys):
        assert main(["fig8", "--seed", "61"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_chaos(self, capsys):
        assert main(["chaos", "--seed", "61"]) == 0
        out = capsys.readouterr().out
        assert "fault intensity" in out
        assert "CrowdLearn-naive" in out

    def test_diagnose(self, capsys):
        assert main(["diagnose", "--seed", "61"]) == 0
        out = capsys.readouterr().out
        assert "Failure report: VGG16" in out
        assert "Failure report: DDM" in out

    def test_trace(self, capsys, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        prom = tmp_path / "metrics.prom"
        assert main([
            "trace", "--seed", "61",
            "--jsonl", str(jsonl), "--prometheus", str(prom),
        ]) == 0
        out = capsys.readouterr().out
        assert "per-stage wall time" in out
        assert "cycle.qss" in out
        assert "cycle.mic.retrain" in out
        assert "crowd spend (cents)" in out

        import json

        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert any(
            r["type"] == "span" and r["name"] == "cycle" for r in records
        )
        assert "queries_posted_total" in prom.read_text()

    def test_trace_leaves_process_default_clean(self):
        from repro.telemetry import NULL_TELEMETRY, get_telemetry

        assert main(["trace", "--seed", "61"]) == 0
        assert get_telemetry() is NULL_TELEMETRY

    def test_bench(self, capsys, tmp_path):
        import json

        artifact = tmp_path / "BENCH_cycle.json"
        assert main([
            "bench", "--seed", "61", "--check",
            "--output", str(artifact), "--repeats", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "closed loop:" in out
        assert "holdout scoring" in out
        report = json.loads(artifact.read_text())
        assert report["loop"]["cycles"] > 0
        assert "cycle.committee" in report["loop"]["stages"]
        score = report["holdout_score"]
        assert score["cached_best_seconds"] <= score["uncached_best_seconds"]
        # --check gated on the median of one journaled run per repeat.
        assert len(report["journal"]["runs"]) == 2

    def test_bench_rejects_fast_and_full(self, capsys):
        assert main(["bench", "--fast", "--full"]) == 2

    def test_run_resume_requires_paths(self, capsys):
        assert main(["run", "--resume", "--seed", "61"]) == 2
        assert "--resume requires" in capsys.readouterr().err

    def test_run_crash_at_requires_journal(self, capsys):
        assert main(["run", "--crash-at", "cqc:0", "--seed", "61"]) == 2
        assert "--crash-at requires --journal" in capsys.readouterr().err

    def test_run_journal_requires_checkpoint(self, tmp_path, capsys):
        """A journal never rotated spans cycles a resume cannot replay."""
        journal = tmp_path / "j.journal"
        assert main([
            "run", "--seed", "61", "--journal", str(journal),
            "--crash-at", "cqc:1:0:raise",
        ]) == 2
        assert "--journal requires --checkpoint" in capsys.readouterr().err
        assert not journal.exists()

    def test_run_resume_corrupt_checkpoint_exits_3(self, tmp_path, capsys):
        ckpt = tmp_path / "c.ckpt"
        ckpt.write_bytes(b"garbage")
        assert main([
            "run", "--seed", "61", "--resume",
            "--checkpoint", str(ckpt),
            "--journal", str(tmp_path / "c.journal"),
        ]) == 3
        err = capsys.readouterr().err
        assert "corrupt checkpoint" in err
        assert "format check failed" in err

    def test_run_resume_corrupt_journal_middle_exits_3(
        self, tmp_path, capsys
    ):
        ckpt, jrn = tmp_path / "c.ckpt", tmp_path / "c.journal"
        durable = ["--checkpoint", str(ckpt), "--journal", str(jrn)]
        assert main([
            "run", "--seed", "61", "--cycles", "2", *durable,
            "--crash-at", "cqc:1:0:raise",
        ]) == 75
        lines = jrn.read_bytes().split(b"\n")
        assert len([line for line in lines if line]) > 3
        lines[2] = lines[2].replace(b'"stage"', b'"stagE"')
        jrn.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["run", "--seed", "61", "--resume", *durable]) == 3
        assert "corrupt journal record at line 3" in capsys.readouterr().err
        # The intact records after the bad line are still there.
        assert jrn.read_bytes() == b"\n".join(lines)

    def test_serve_resume_corrupt_serve_journal_middle_exits_3(
        self, tmp_path, capsys
    ):
        """The serve journal follows the event journal's tail rules: one
        overwritten byte inside line 2 is corruption, not a torn tail."""
        serve_dir = tmp_path / "fleet"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        killed = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve", "--seed", "61",
                "--events", "2", "--serve-dir", str(serve_dir),
                "--crash-at-tick", "4",
            ],
            env=env, capture_output=True, timeout=600,
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        journal = serve_dir / "serve.journal"
        data = bytearray(journal.read_bytes())
        lines = data.split(b"\n")
        assert len([line for line in lines if line]) > 2
        index = len(lines[0]) + 1 + len(lines[1]) // 2
        data[index] = ord("#") if data[index] != ord("#") else ord("$")
        journal.write_bytes(bytes(data))
        assert main(["serve", "--serve-dir", str(serve_dir), "--resume"]) == 3
        assert "corrupt journal record at line 2" in capsys.readouterr().err
        assert journal.read_bytes() == bytes(data)

    @pytest.mark.parametrize(
        "argv, ignored",
        [
            (["--cycles", "3"], "--cycles"),
            (["--crash-at", "post:1"], "--crash-at"),
            (["--crash", "--workers", "2"], "--workers"),
            (["--crash", "--scheduler"], "--scheduler"),
            (["--workers", "2", "--scheduler"], "--scheduler"),
            (["--workers", "2", "--cycles", "3"], "--cycles"),
        ],
        ids=[
            "cycles-without-crash", "crash-at-without-crash",
            "crash-with-workers", "crash-with-scheduler",
            "workers-with-scheduler", "workers-with-cycles",
        ],
    )
    def test_chaos_rejects_ignored_flags(self, argv, ignored, capsys):
        assert main(["chaos", "--seed", "61", *argv]) == 2
        err = capsys.readouterr().err
        assert ignored in err
        assert "cannot be combined" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["serve", "--capacity", "-1"], "--capacity"),
            (["serve", "--max-backlog", "-2"], "--max-backlog"),
            (["serve", "--events", "-1"], "--events"),
            (["loadgen", "--events", "0"], "--events"),
            (["run", "--cycles", "0"], "--cycles"),
            (["run", "--cycles", "-1"], "--cycles"),
            (["supervise", "--cycles", "0", "--checkpoint", "c.ckpt",
              "--journal", "c.journal"], "--cycles"),
            (["chaos", "--crash", "--cycles", "0"], "--cycles"),
            (["chaos", "--workers", "0"], "--workers"),
            (["bench", "--repeats", "0"], "--repeats"),
            (["run", "--cycles", "2.5"], "--cycles"),
        ],
        ids=[
            "serve-capacity-negative", "serve-max-backlog-negative",
            "serve-events-negative", "loadgen-events-0", "run-cycles-0",
            "run-cycles-negative", "supervise-cycles-0", "chaos-crash-cycles-0",
            "chaos-workers-0", "bench-repeats-0", "run-cycles-not-integer",
        ],
    )
    def test_bad_numeric_flag_exits_2(self, argv, flag, capsys):
        """One usage error before any work starts, not a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--seed", "61"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be an integer >=" in err
        assert "Traceback" not in err

    def test_serve_resume_requires_dir(self, capsys):
        assert main(["serve", "--resume", "--seed", "61"]) == 2
        assert "--resume requires --serve-dir" in capsys.readouterr().err

    def test_loadgen_resume_requires_dir(self, capsys):
        assert main(["loadgen", "--resume", "--seed", "61"]) == 2
        assert "--resume requires --serve-dir" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--watchdog", "nan"), ("--watchdog", "inf"), ("--backoff", "nan"),
         ("--backoff", "inf")],
    )
    def test_supervise_rejects_non_finite_settings(
        self, flag, value, tmp_path, capsys
    ):
        """A NaN watchdog would never fire; a NaN backoff crashes sleep."""
        rc = main([
            "supervise", "--seed", "61",
            "--checkpoint", str(tmp_path / "c.ckpt"),
            "--journal", str(tmp_path / "c.journal"),
            flag, value,
        ])
        assert rc == 2
        field = {"--watchdog": "watchdog_seconds", "--backoff": "backoff_base_seconds"}[flag]
        assert field in capsys.readouterr().err
        assert not (tmp_path / "c.journal").exists()  # no child launched

    def test_serve(self, capsys, tmp_path):
        digest_file = tmp_path / "digest.txt"
        assert main([
            "serve", "--seed", "61", "--events", "1",
            "--digest-file", str(digest_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "event-01: F1" in out
        assert "serve digest" in out
        assert len(digest_file.read_text().strip()) == 64

    def test_loadgen(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_serve.json"
        assert main([
            "loadgen", "--seed", "61", "--events", "2",
            "--output", str(out_path), "--check",
        ]) == 0
        captured = capsys.readouterr()
        assert "serve loadgen" in captured.out
        assert "loadgen check passed" in captured.err
        import json

        report = json.loads(out_path.read_text())
        assert report["pool"]["conserved"]
        assert report["service"]["drained"]

    def test_chaos_workers(self, capsys):
        assert main(["chaos", "--seed", "61", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "chaos-arm-0.00" in out
        assert "macro-F1" in out
