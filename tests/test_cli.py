"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main
from repro.experiments import registry
from repro.experiments.artifacts import ExperimentResult


class TestListInfo:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in registry.names():
            assert name in out
        assert "quick, full, paper" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "28.0 m" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1


class TestRun:
    def test_run_table(self, capsys):
        assert main(["run", "table2_resources"]) == 0
        out = capsys.readouterr().out
        assert "==== table2_resources ====" in out
        assert "133364" in out
        assert "note:" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "fig99_nope"]) == 2
        assert "fig99_nope" in capsys.readouterr().err

    def test_run_seed_on_deterministic_experiment(self, capsys):
        assert main(["run", "table2_resources", "--seed", "3"]) == 2
        assert "no --seed" in capsys.readouterr().err

    def test_run_writes_artifact_and_show_rerenders(self, capsys, tmp_path):
        assert main([
            "run", "fig15_occlusion", "--preset", "quick",
            "--seed", "7", "--out", str(tmp_path),
        ]) == 0
        run_out = capsys.readouterr().out
        path = tmp_path / "fig15_occlusion.json"
        assert f"artifact: {path}" in run_out

        doc = json.loads(path.read_text())
        assert doc["name"] == "fig15_occlusion"
        assert doc["preset"] == "quick"
        assert doc["params"]["seed"] == 7

        assert main(["show", str(path)]) == 0
        show_out = capsys.readouterr().out
        assert show_out == run_out.replace(f"artifact: {path}\n", "")

    def test_show_rejects_garbage(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["show", str(bad)]) == 2
        assert main(["show", str(tmp_path / "missing.json")]) == 2


class TestSeedBound:
    """--seed must survive a JSON/shell round trip: 0 <= seed < 2**64."""

    @pytest.mark.parametrize("bad", ["-1", str(2**64), str(-(2**70))])
    @pytest.mark.parametrize("command", ["run", "run-all", "serve"])
    def test_out_of_range_seed_is_a_usage_error(self, capsys, command, bad):
        argv = {
            "run": ["run", "fig15_occlusion", "--seed", bad],
            "run-all": ["run-all", "--preset", "quick", "--seed", bad],
            "serve": ["serve", "--max-packets", "1", "--seed", bad],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "0 <= seed < 2**64" in err
        assert "--seed" in err

    def test_boundary_seed_accepted(self, capsys):
        assert main([
            "serve", "--tags", "1", "--max-packets", "2",
            "--seed", str(2**64 - 1),
        ]) == 0


class TestServe:
    def test_smoke_clean_drain(self, capsys):
        assert main([
            "serve", "--tags", "2", "--subscribers", "2",
            "--max-packets", "6", "--rate", "200.0", "--require-clean",
        ]) == 0
        out = capsys.readouterr().out
        assert "packets 6" in out
        assert "drained clean: True" in out
        assert "delivered per subscriber" in out

    def test_bad_policy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--policy", "yolo"])

    @pytest.mark.parametrize(
        ("flag", "value", "field"),
        [
            ("--decode-batch", "0", "decode_batch"),
            ("--queue-maxlen", "0", "queue_maxlen"),
            ("--decode-workers", "-1", "decode_workers"),
            ("--keepalive-timeout", "0", "keepalive_timeout_s"),
            ("--drain-timeout", "-1", "drain_timeout_s"),
            ("--time-scale", "-1", "time_scale"),
            ("--duration", "-1", "duration_s"),
            ("--tags", "-1", "--tags"),
            ("--subscribers", "-1", "--subscribers"),
            ("--rate", "-1", "--rate"),
            ("--max-packets", "-1", "max_packets"),
            # NaN fails every range check; schedule and rate must be
            # finite (an infinite time scale would sleep forever).
            ("--keepalive-timeout", "nan", "keepalive_timeout_s"),
            ("--drain-timeout", "nan", "drain_timeout_s"),
            ("--time-scale", "nan", "time_scale"),
            ("--time-scale", "inf", "time_scale"),
            ("--duration", "nan", "duration_s"),
            ("--duration", "inf", "duration_s"),
            ("--rate", "nan", "--rate"),
            ("--rate", "inf", "--rate"),
            # A NaN goal compared as met and picked the best carrier.
            ("--goal-kbps", "nan", "--goal-kbps"),
            ("--goal-kbps", "inf", "--goal-kbps"),
            ("--goal-kbps", "-1", "--goal-kbps"),
        ],
    )
    def test_bad_gateway_setting_is_a_usage_error(self, capsys, flag, value, field):
        assert main(["serve", flag, value]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestRunAll:
    @pytest.fixture
    def two_experiment_registry(self, monkeypatch):
        keep = ("table2_resources", "table5_idpower")
        monkeypatch.setattr(
            registry, "_SPECS", {k: registry._SPECS[k] for k in keep}
        )
        return keep

    def test_run_all_pass(self, capsys, tmp_path, two_experiment_registry):
        assert main(["run-all", "--preset", "quick", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for name in two_experiment_registry:
            assert f"PASS  {name}" in out
            assert (tmp_path / f"{name}.json").is_file()

    def test_run_all_reports_failure(self, capsys, monkeypatch, two_experiment_registry):
        def boom(params):
            raise RuntimeError("deliberate test failure")

        registry.get_spec("table5_idpower")._resolve()  # populate _IMPLS
        monkeypatch.setitem(registry._IMPLS, "table5_idpower", boom)
        assert main(["run-all", "--preset", "quick"]) == 1
        captured = capsys.readouterr()
        assert "PASS  table2_resources" in captured.out
        assert "FAIL  table5_idpower" in captured.out
        assert "deliberate test failure" in captured.out
        assert "1 failed" in captured.err

    def test_run_all_parallel(self, capsys, tmp_path, monkeypatch, two_experiment_registry):
        # The parallel path forks workers; results must match serial.
        # main() publishes --workers via REPRO_WORKERS; monkeypatch
        # restores the environment after the test.
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert main([
            "run-all", "--preset", "quick", "--workers", "2",
            "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2
        for name in two_experiment_registry:
            loaded = ExperimentResult.load(tmp_path / f"{name}.json")
            assert loaded.to_json() == registry.get_spec(name).run("quick").to_json()


class TestBlasThreadPolicy:
    """``python -m repro`` pins one BLAS/OpenMP thread where the caller
    left the count unset, before numpy is first imported."""

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    # Runs the package's __main__ as ``-m`` does and records the three
    # variables at the moment numpy is first looked up.
    PROBE = textwrap.dedent(
        """
        import json, os, runpy, sys
        VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        seen = {}

        class Spy:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and not seen:
                    seen.update({v: os.environ.get(v) for v in VARS})

        sys.meta_path.insert(0, Spy())
        sys.argv = ["repro", "run", "table2_resources"]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit:
            pass
        print(json.dumps(seen))
        """
    )

    def _probe(self, **env_vars):
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env.update(env_vars)
        out = subprocess.run(
            [sys.executable, "-c", self.PROBE],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    def test_unset_counts_become_one(self):
        assert self._probe() == {v: "1" for v in self.VARS}

    def test_caller_values_are_kept(self):
        seen = self._probe(OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="3")
        assert seen == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                        "MKL_NUM_THREADS": "3"}
