import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from pvdyn.cli import main
from pvdyn.bench import CSV_HEADER


@pytest.fixture
def runner():
    return CliRunner()


class TestInfo:
    def test_humanoid(self, runner):
        result = runner.invoke(main, ["info", "--model", "humanoid"])
        assert result.exit_code == 0
        assert "dofs (n): 38" in result.output
        assert "base: floating" in result.output

    def test_chain(self, runner):
        result = runner.invoke(main, ["info", "--model", "chain:12"])
        assert result.exit_code == 0
        assert "dofs (n): 12" in result.output
        assert "depth (d): 12" in result.output

    def test_urdf_file(self, runner, tmp_path):
        from pvdyn import generate_tree, serialize_urdf
        path = tmp_path / "robot.urdf"
        path.write_text(serialize_urdf(generate_tree(6, 2, seed=1)))
        result = runner.invoke(main, ["info", "--model", str(path)])
        assert result.exit_code == 0
        assert "dofs (n): 6" in result.output

    def test_bad_model_is_usage_error(self, runner):
        result = runner.invoke(main, ["info", "--model", "bogus:7"])
        assert result.exit_code == 2


class TestCheck:
    def test_quick_check_passes(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["check", "--sizes", "8", "--instances", "3",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output
        report = json.loads(out.read_text())
        assert all(r["passed"] for r in report)


class TestCheckFailureExit:
    def test_failing_report_exits_one(self, runner, monkeypatch):
        from pvdyn.checks import CheckReport, CheckResult
        import pvdyn.cli as cli_mod

        def fake_suite(seed=0, sizes=(), instance_count=0):
            return CheckReport([CheckResult("broken", False, 1.0, 1e-8)])

        monkeypatch.setattr(cli_mod.checks, "run_check_suite", fake_suite)
        result = runner.invoke(main, ["check"])
        assert result.exit_code == 1
        assert "FAIL" in result.output


class TestCheckUsage:
    def test_bad_sizes_is_usage_error(self, runner):
        result = runner.invoke(main, ["check", "--sizes", "12,x"])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert "--sizes" in result.output

    @pytest.mark.parametrize("args, option", [
        (["--sizes", "0,5"], "--sizes"), (["--sizes", "12,-3"], "--sizes"),
        (["--instances", "0"], "--instances")])
    def test_count_below_one_is_usage_error(self, runner, args, option):
        result = runner.invoke(main, ["check", *args])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert option in result.output
        assert "PASS" not in result.output


class TestBench:
    def test_csv_output(self, runner, tmp_path):
        out = tmp_path / "bench.csv"
        result = runner.invoke(main, [
            "bench", "--model", "chain:6,chain:10", "--solver", "pv,caba",
            "--m", "3", "--reps", "30", "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5

    def test_json_output(self, runner, tmp_path):
        out = tmp_path / "bench.json"
        result = runner.invoke(main, [
            "bench", "--model", "chain:4", "--solver", "aba", "--m", "0",
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = json.loads(out.read_text())
        assert rows[0]["algorithm"] == "aba"

    def test_unknown_solver_usage_error(self, runner):
        result = runner.invoke(main, ["bench", "--model", "chain:4",
                                      "--solver", "sorcery"])
        assert result.exit_code == 2

    def test_singular_dual_is_usage_error(self, runner):
        # humanoid with the standard m=24 rows is rank deficient (18 of 24)
        result = runner.invoke(main, ["bench", "--model", "humanoid",
                                      "--solver", "pv", "--m", "24"])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert "SingularDual" in result.output
        assert "model humanoid, solver pv, m=24" in result.output

    def test_failed_cell_keeps_the_other_rows(self, runner, tmp_path):
        from pvdyn.bench import load_json
        out = tmp_path / "bench.json"
        result = runner.invoke(main, ["bench", "--model", "humanoid",
                                      "--solver", "caba,pv", "--m", "24",
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        rows = [line.split(",") for line in result.output.splitlines()
                if line.startswith(("caba,", "pv,"))]
        assert [(r[0], r[-1]) for r in rows] == [("caba", "ok"), ("pv", "SingularDual")]
        caba, pv = load_json(str(out))
        assert caba.status == "ok" and caba.flops > 0 and caba.min_ns > 0
        assert pv.status == "SingularDual" and pv.flops == 0
        assert all(math.isnan(x) for x in (pv.mean_ns, pv.std_ns, pv.min_ns))

    def test_m_list_names_the_model_of_each_failed_cell(self, runner, tmp_path):
        from pvdyn.bench import load_json
        out = tmp_path / "bench.json"
        result = runner.invoke(main, ["bench", "--model", "chain:8,humanoid",
                                      "--solver", "pv", "--m", "6,24", "--out", str(out)])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        rows = load_json(str(out))
        assert [(r.n, r.m, r.status) for r in rows] == [
            (8, 6, "ok"), (38, 6, "ok"), (8, 24, "SingularDual"), (38, 24, "SingularDual")]
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == ["Error: model chain:8, solver pv, m=24: SingularDual",
                          "Error: model humanoid, solver pv, m=24: SingularDual"]

    def test_bad_m_list_is_usage_error(self, runner):
        result = runner.invoke(main, ["bench", "--model", "chain:4", "--solver", "aba",
                                      "--m", "0,x"])
        assert result.exit_code == 2
        assert "Traceback" not in result.output

    def test_negative_m_is_usage_error(self, runner):
        # no row is printed for m = -4
        result = runner.invoke(main, ["bench", "--model", "chain:8", "--solver", "pv",
                                      "--m", "-4"])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert "m must be non-negative" in result.output
        assert not any(line.startswith("pv,") for line in result.output.splitlines())

    def test_low_reps_usage_error(self, runner):
        result = runner.invoke(main, ["bench", "--model", "chain:4",
                                      "--solver", "pv", "--reps", "3"])
        assert result.exit_code == 2


class TestBlasThreadNote:
    COMMANDS = {"check": ["check", "--sizes", "8", "--instances", "1"],
                "bench": ["bench", "--model", "chain:4", "--solver", "aba", "--m", "0"]}

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unset_thread_counts_are_noted_once_on_stderr(self, runner, monkeypatch, command):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        result = runner.invoke(main, self.COMMANDS[command])
        assert result.exit_code == 0, result.output
        notes = [line for line in result.stderr.splitlines() if "OPENBLAS_NUM_THREADS" in line]
        assert len(notes) == 1 and "OMP_NUM_THREADS" in notes[0]
        assert "OPENBLAS_NUM_THREADS" not in result.stdout

    @pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_either_setting_silences_the_note(self, runner, monkeypatch, command, variable):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv(variable, "1")
        result = runner.invoke(main, self.COMMANDS[command])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""


class TestRollout:
    def test_free_fall_summary(self, runner, tmp_path):
        out = tmp_path / "roll.json"
        result = runner.invoke(main, [
            "rollout", "--model", "tree:4:2", "--solver", "aba", "--dt", "1e-3",
            "--steps", "50", "--out", str(out)])
        assert result.exit_code == 0, result.output
        summary = json.loads(out.read_text())
        assert summary["steps"] == 50

    def test_constrained_rollout(self, runner):
        result = runner.invoke(main, [
            "rollout", "--model", "chain:8", "--solver", "caba", "--m", "3",
            "--steps", "20", "--seed", "5", "--baumgarte", "10,100"])
        assert result.exit_code == 0, result.output

    def test_unknown_solver(self, runner):
        result = runner.invoke(main, ["rollout", "--model", "chain:4",
                                      "--solver", "nope"])
        assert result.exit_code == 2

    def test_missing_model_usage_error(self, runner):
        result = runner.invoke(main, ["rollout"])
        assert result.exit_code == 2

    def test_bad_baumgarte_is_usage_error(self, runner):
        result = runner.invoke(main, ["rollout", "--model", "chain:4", "--baumgarte", "1",
                                      "--steps", "2"])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert "--baumgarte" in result.output

    def test_negative_m_is_usage_error(self, runner):
        result = runner.invoke(main, ["rollout", "--model", "chain:8", "--m", "-4",
                                      "--steps", "2"])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert "m must be non-negative" in result.output

    def test_nan_dt_is_usage_error(self, runner):
        result = runner.invoke(main, ["rollout", "--model", "chain:4", "--m", "3",
                                      "--dt", "nan"])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert "final_v_norm" not in result.output

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_steps_below_one_is_usage_error(self, runner, steps):
        result = runner.invoke(main, ["rollout", "--model", "chain:4", "--steps", steps])
        assert result.exit_code == 2
        assert "--steps" in result.output
        assert "steps:" not in result.output

    # the blow-up overflows in the sweeps before a state turns non-finite
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_diverged_rollout_is_usage_error(self, runner):
        # dt = 10 s blows the chain up within 200 steps; the first state
        # holding a NaN or an infinity stops the rollout
        result = runner.invoke(main, ["rollout", "--model", "chain:8", "--m", "3",
                                      "--dt", "10", "--steps", "200", "--seed", "3"])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert "NonFiniteInput" in result.output
        assert "final_v_norm" not in result.output

    def test_singular_dual_is_usage_error(self, runner):
        result = runner.invoke(main, ["rollout", "--model", "humanoid", "--solver", "pv",
                                      "--m", "24", "--steps", "1"])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert "model humanoid, solver pv, m=24: SingularDual" in result.output


def test_module_entry_point_runs():
    # `python -m pvdyn` from a source checkout, without an installed script
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-m", "pvdyn", "--help"], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "Usage: pvdyn" in result.stdout
