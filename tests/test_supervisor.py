"""Tests for the supervising watchdog (synthetic children keep these fast;

one end-to-end SIGKILL recovery through the real CLI rides in
TestSuperviseEndToEnd).
"""

import json
import sys
import textwrap

import pytest

from repro.eval.journal import load_recovery_info
from repro.eval.supervisor import (
    SupervisorConfig,
    SupervisorOutcome,
    render_recovery_table,
    supervise,
)

#: A scriptable child: reads a JSON "plan" file listing one behaviour per
#: launch ("ok", "crash", or "hang"), pops the head, and acts it out.
CHILD = textwrap.dedent("""
    import json, os, sys, time
    plan_path = sys.argv[1]
    plan = json.loads(open(plan_path).read())
    action = plan.pop(0) if plan else "ok"
    open(plan_path, "w").write(json.dumps(plan))
    hb = os.environ.get("REPRO_HEARTBEAT")
    resumed = "--resume" in sys.argv
    open(plan_path + ".log", "a").write(action + ("+resume" if resumed else "") + "\\n")
    if action == "crash":
        if hb: open(hb, "w").write("")
        sys.exit(75)
    if action == "hang":
        time.sleep(3600)  # never beats: the watchdog must kill us
    if hb: open(hb, "w").write("")
    sys.exit(0)
""")


@pytest.fixture()
def child(tmp_path):
    script = tmp_path / "child.py"
    script.write_text(CHILD)

    def launch_plan(*actions):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(list(actions)))
        return [sys.executable, str(script), str(plan)], plan

    return launch_plan


def fast_config(**overrides):
    defaults = dict(
        watchdog_seconds=1.0,
        max_restarts=3,
        backoff_base_seconds=0.05,
        poll_seconds=0.05,
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


class TestSupervise:
    def test_clean_child_no_restarts(self, child, tmp_path):
        argv, _ = child("ok")
        outcome = supervise(argv, tmp_path / "hb", config=fast_config())
        assert outcome.ok
        assert outcome.restarts == 0
        assert outcome.child_exits == [0]

    def test_crash_restarts_with_resume(self, child, tmp_path):
        argv, plan = child("crash", "ok")
        outcome = supervise(argv, tmp_path / "hb", config=fast_config())
        assert outcome.ok
        assert outcome.restarts == 1
        assert outcome.crashes_detected == 1
        assert outcome.child_exits == [75, 0]
        log = (str(plan) + ".log")
        launches = open(log).read().splitlines()
        assert launches == ["crash", "ok+resume"]

    def test_hang_detected_and_killed(self, child, tmp_path):
        argv, _ = child("hang", "ok")
        outcome = supervise(argv, tmp_path / "hb", config=fast_config())
        assert outcome.ok
        assert outcome.hangs_detected == 1
        assert outcome.restarts == 1

    def test_restart_budget_exhausted(self, child, tmp_path):
        argv, _ = child("crash", "crash", "crash", "crash", "crash")
        outcome = supervise(
            argv, tmp_path / "hb", config=fast_config(max_restarts=2)
        )
        assert not outcome.ok
        assert outcome.gave_up
        assert outcome.returncode == 75
        assert outcome.restarts == 2  # budget, not the failed final exit
        assert len(outcome.child_exits) == 3  # initial + 2 restarts

    def test_sidecar_records_supervisor_counters(self, child, tmp_path):
        argv, _ = child("crash", "ok")
        journal = tmp_path / "j.journal"
        supervise(
            argv, tmp_path / "hb", config=fast_config(), journal_path=journal
        )
        info = load_recovery_info(journal)
        assert info["supervisor_crashes"] == 1
        assert info["supervisor_gave_up"] is False

    def test_crash_env_only_on_first_launch(self, child, tmp_path):
        probe = tmp_path / "crash-env.log"
        script = tmp_path / "env_child.py"
        script.write_text(textwrap.dedent(f"""
            import os, sys
            with open({str(probe)!r}, "a") as fh:
                fh.write(os.environ.get("REPRO_CRASH_AT", "-") + "\\n")
            sys.exit(0 if "--resume" in sys.argv else 75)
        """))
        outcome = supervise(
            [sys.executable, str(script)],
            tmp_path / "hb",
            config=fast_config(),
            first_launch_env={"REPRO_CRASH_AT": "cqc:1:0:kill"},
        )
        assert outcome.ok
        assert probe.read_text().splitlines() == ["cqc:1:0:kill", "-"]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"watchdog_seconds": 0},
            {"max_restarts": -1},
            {"backoff_base_seconds": -0.1},
            {"poll_seconds": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "field",
        ["watchdog_seconds", "backoff_base_seconds", "backoff_max_seconds",
         "poll_seconds"],
    )
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            SupervisorConfig(**{field: value})

    def test_rejects_negative_backoff_cap(self):
        with pytest.raises(ValueError, match="backoff_max_seconds"):
            SupervisorConfig(backoff_max_seconds=-1.0)

    def test_backoff_doubles_and_caps(self):
        config = SupervisorConfig(
            backoff_base_seconds=1.0, backoff_max_seconds=5.0
        )
        assert config.backoff(1) == 1.0
        assert config.backoff(2) == 2.0
        assert config.backoff(3) == 4.0
        assert config.backoff(4) == 5.0  # capped


class TestRecoveryTable:
    def test_renders_counters_and_audit(self, tmp_path):
        from repro.eval.journal import update_recovery_info

        journal = tmp_path / "j.journal"
        update_recovery_info(
            journal,
            recovery_restarts=2,
            recovery_replayed_records=9,
            recovery_requeries_avoided_cents=40.0,
            audit={"ok": True, "checks": {"ledger_conservation": True}},
        )
        outcome = SupervisorOutcome(
            returncode=0, restarts=2, crashes_detected=2, child_exits=[75, 75, 0]
        )
        table = render_recovery_table(journal, outcome)
        assert "Recovery" in table
        assert "restarts" in table
        assert "9" in table
        assert "0.40 USD" in table
        assert "passed" in table

    def test_flags_failed_audit(self, tmp_path):
        from repro.eval.journal import update_recovery_info

        journal = tmp_path / "j.journal"
        update_recovery_info(
            journal,
            audit={"ok": False, "checks": {"ledger_books_balance": False}},
        )
        table = render_recovery_table(
            journal, SupervisorOutcome(returncode=0)
        )
        assert "FAILED" in table
        assert "ledger_books_balance" in table


class TestSuperviseEndToEnd:
    def test_sigkill_mid_post_recovers_to_reference_digest(self, tmp_path):
        """One real deployment: SIGKILL at a post boundary, supervised
        restart, byte-identical digest vs an uninterrupted run."""
        import subprocess

        def run_cli(*extra):
            base = [
                sys.executable, "-m", "repro",
            ]
            return subprocess.run(
                list(base) + list(extra), capture_output=True, text=True,
                cwd=str(tmp_path),
                env={**__import__("os").environ,
                     "PYTHONPATH": str(
                         __import__("pathlib").Path(__file__)
                         .resolve().parent.parent / "src"
                     )},
            )

        ref = run_cli(
            "run", "--seed", "11", "--cycles", "2",
            "--checkpoint", "ref.ckpt", "--journal", "ref.journal",
            "--digest-file", "ref.digest",
        )
        assert ref.returncode == 0, ref.stderr
        sup = run_cli(
            "supervise", "--seed", "11", "--cycles", "2",
            "--checkpoint", "sup.ckpt", "--journal", "sup.journal",
            "--digest-file", "sup.digest",
            "--crash-at", "post:1:0:kill",
            "--backoff", "0.1", "--max-restarts", "2",
        )
        assert sup.returncode == 0, sup.stderr + sup.stdout
        assert "Recovery" in sup.stdout
        ref_digest = (tmp_path / "ref.digest").read_text()
        sup_digest = (tmp_path / "sup.digest").read_text()
        assert ref_digest == sup_digest
        info = load_recovery_info(tmp_path / "sup.journal")
        assert info["recovery_restarts"] == 1
        assert info["recovery_requeries_avoided_cents"] > 0
        assert info["audit"]["ok"]
