"""Crash-safe artifacts, run manifests, and resumable ``run-all``.

The contract under test: a run directory can be killed at any point --
including mid-``save`` -- and (a) never holds a truncated artifact,
(b) records exactly which experiments completed in ``manifest.json``,
and (c) finishes via ``run-all --resume`` with artifacts byte-identical
to an uninterrupted run.
"""

import json

import pytest

from repro import cli
from repro.core.atomicio import TMP_SUFFIX, atomic_write_text
from repro.experiments import registry
from repro.experiments.artifacts import ArtifactError, ExperimentResult
from repro.experiments.manifest import (
    MANIFEST_FILENAME,
    ManifestError,
    RunManifest,
)
from repro.sim import faults
from tools import check_artifacts


@pytest.fixture(autouse=True)
def _no_inherited_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)


@pytest.fixture
def small_registry(monkeypatch):
    """Restrict the catalog to cheap deterministic experiments."""
    keep = ("table2_resources", "table3_power", "table5_idpower")
    monkeypatch.setattr(
        registry, "_SPECS", {k: registry._SPECS[k] for k in keep}
    )
    return keep


class TestAtomicWrite:
    def test_writes_and_creates_parents(self, tmp_path):
        out = atomic_write_text(tmp_path / "a" / "b.json", "payload")
        assert out.read_text() == "payload"

    def test_no_temp_leftovers_on_success(self, tmp_path):
        atomic_write_text(tmp_path / "x.txt", "data")
        assert list(tmp_path.glob(f"*{TMP_SUFFIX}")) == []

    def test_crash_mid_save_preserves_old_content(self, tmp_path, monkeypatch):
        target = tmp_path / "x.txt"
        atomic_write_text(target, "old")
        monkeypatch.setenv(faults.ENV_VAR, "raise:site=save,name=x.txt")
        with pytest.raises(faults.FaultInjected):
            atomic_write_text(target, "new")
        assert target.read_text() == "old"
        assert list(tmp_path.glob(f"*{TMP_SUFFIX}")) == []

    def test_crash_before_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        target = tmp_path / "fresh.txt"
        monkeypatch.setenv(faults.ENV_VAR, "raise:site=save,name=fresh")
        with pytest.raises(faults.FaultInjected):
            atomic_write_text(target, "data")
        assert not target.exists()
        assert list(tmp_path.glob(f"*{TMP_SUFFIX}")) == []

    def test_fsync_opt_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FSYNC", "1")
        out = atomic_write_text(tmp_path / "y.txt", "data")
        assert out.read_text() == "data"


class TestArtifactCrashSafety:
    def test_save_crash_leaves_no_partial_file(self, tmp_path, monkeypatch):
        result = ExperimentResult(name="demo", data={"v": 1.0})
        monkeypatch.setenv(faults.ENV_VAR, "raise:site=save,name=demo")
        with pytest.raises(faults.FaultInjected):
            result.save_in(tmp_path)
        assert not (tmp_path / "demo.json").exists()
        assert list(tmp_path.glob(f"*{TMP_SUFFIX}")) == []

    def test_truncated_artifact_names_path(self, tmp_path):
        result = ExperimentResult(name="demo", data={"v": 1.0})
        path = result.save_in(tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ArtifactError) as excinfo:
            ExperimentResult.load(path)
        assert str(path) in str(excinfo.value)

    def test_missing_file_still_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ExperimentResult.load(tmp_path / "absent.json")


class TestRunManifest:
    def test_create_load_round_trip(self, tmp_path):
        created = RunManifest.create(
            tmp_path, preset="quick", seed=7, names=["a", "b"]
        )
        loaded = RunManifest.load(tmp_path)
        assert loaded.to_json() == created.to_json()
        assert loaded.preset == "quick"
        assert loaded.seed == 7
        assert loaded.pending() == ("a", "b")
        assert loaded.completed() == ()

    def test_mark_done_hashes_artifact(self, tmp_path):
        manifest = RunManifest.create(
            tmp_path, preset="quick", seed=None, names=["a"]
        )
        artifact = tmp_path / "a.json"
        artifact.write_text("{}")
        manifest.mark_done("a", artifact)
        loaded = RunManifest.load(tmp_path)
        assert loaded.completed() == ("a",)
        assert loaded.pending() == ()

    def test_tampered_artifact_counts_as_pending(self, tmp_path):
        manifest = RunManifest.create(
            tmp_path, preset="quick", seed=None, names=["a"]
        )
        artifact = tmp_path / "a.json"
        artifact.write_text("{}")
        manifest.mark_done("a", artifact)
        artifact.write_text("{tampered}")
        assert RunManifest.load(tmp_path).pending() == ("a",)

    def test_mark_failed_records_error(self, tmp_path):
        manifest = RunManifest.create(
            tmp_path, preset="quick", seed=None, names=["a"]
        )
        manifest.mark_failed("a", "ValueError: boom")
        loaded = RunManifest.load(tmp_path)
        assert loaded.entries["a"].status == "failed"
        assert loaded.entries["a"].error == "ValueError: boom"
        assert loaded.pending() == ("a",)

    def test_unknown_experiment_rejected(self, tmp_path):
        manifest = RunManifest.create(
            tmp_path, preset="quick", seed=None, names=["a"]
        )
        with pytest.raises(ManifestError, match="nope"):
            manifest.mark_failed("nope", "x")

    def test_load_errors(self, tmp_path):
        with pytest.raises(ManifestError, match="no manifest"):
            RunManifest.load(tmp_path / "void")
        bad = tmp_path / MANIFEST_FILENAME
        bad.write_text("{not json")
        with pytest.raises(ManifestError, match="not valid JSON"):
            RunManifest.load(tmp_path)
        bad.write_text('{"manifest": "other"}')
        with pytest.raises(ManifestError, match="not a"):
            RunManifest.load(tmp_path)
        bad.write_text(
            '{"manifest": "repro.run-manifest", "schema_version": 99}'
        )
        with pytest.raises(ManifestError, match="schema_version"):
            RunManifest.load(tmp_path)
        bad.write_text(
            '{"manifest": "repro.run-manifest", "schema_version": 1, '
            '"preset": "quick", "seed": null, '
            '"experiments": {"a": {"status": "odd"}}}'
        )
        with pytest.raises(ManifestError, match="status"):
            RunManifest.load(tmp_path)


class TestResumeCli:
    def _run_all(self, *argv):
        return cli.main(["run-all", "--preset", "quick", *argv])

    def test_fresh_run_writes_complete_manifest(
        self, tmp_path, capsys, small_registry
    ):
        assert self._run_all("--out", str(tmp_path)) == 0
        manifest = RunManifest.load(tmp_path)
        assert manifest.names() == small_registry
        assert manifest.completed() == small_registry

    def test_crash_then_resume_is_byte_identical(
        self, tmp_path, capsys, monkeypatch, small_registry
    ):
        fresh = tmp_path / "fresh"
        crashy = tmp_path / "crashy"
        assert self._run_all("--out", str(fresh)) == 0

        monkeypatch.setenv(
            faults.ENV_VAR, "raise:site=save,name=table3_power"
        )
        assert self._run_all("--out", str(crashy)) == 1
        err = capsys.readouterr().err
        assert f"--resume {crashy}" in err
        assert not (crashy / "table3_power.json").exists()
        failed = RunManifest.load(crashy)
        assert failed.entries["table3_power"].status == "failed"
        assert set(failed.pending()) == {"table3_power"}

        # A SIGKILL mid-save (no cleanup handler runs) also strands the
        # temp file; plant one and require resume to sweep it.
        (crashy / f"table3_power.json.k1ll{TMP_SUFFIX}").write_text("junk")

        monkeypatch.delenv(faults.ENV_VAR)
        assert cli.main(["run-all", "--resume", str(crashy)]) == 0
        out = capsys.readouterr().out
        assert "already complete" in out
        assert "leftover temporary" in out
        fresh_files = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in crashy.iterdir()) == fresh_files
        for name in fresh_files:
            assert (crashy / name).read_bytes() == (fresh / name).read_bytes()

    def test_resume_reruns_tampered_artifact(
        self, tmp_path, capsys, small_registry
    ):
        assert self._run_all("--out", str(tmp_path)) == 0
        good = (tmp_path / "table5_idpower.json").read_bytes()
        (tmp_path / "table5_idpower.json").write_text('{"broken": true}')
        assert cli.main(["run-all", "--resume", str(tmp_path)]) == 0
        assert (tmp_path / "table5_idpower.json").read_bytes() == good

    def test_resume_with_nothing_pending(self, tmp_path, capsys, small_registry):
        assert self._run_all("--out", str(tmp_path)) == 0
        assert cli.main(["run-all", "--resume", str(tmp_path)]) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_resume_usage_errors(self, tmp_path, capsys, small_registry):
        # --resume without a manifest
        assert cli.main(["run-all", "--resume", str(tmp_path / "void")]) == 2
        # --resume + --out
        assert cli.main(
            ["run-all", "--resume", str(tmp_path), "--out", str(tmp_path)]
        ) == 2
        # conflicting --preset
        assert self._run_all("--out", str(tmp_path)) == 0
        assert cli.main(
            ["run-all", "--resume", str(tmp_path), "--preset", "paper"]
        ) == 2
        # conflicting --seed
        assert cli.main(
            ["run-all", "--resume", str(tmp_path), "--seed", "9"]
        ) == 2

    def test_resume_rejects_catalog_mismatch(
        self, tmp_path, capsys, small_registry, monkeypatch
    ):
        assert self._run_all("--out", str(tmp_path)) == 0
        monkeypatch.setattr(
            registry,
            "_SPECS",
            {k: registry._SPECS[k] for k in small_registry[:2]},
        )
        assert cli.main(["run-all", "--resume", str(tmp_path)]) == 2
        assert "catalog" in capsys.readouterr().err

    def test_invalid_workers_flag_is_usage_error(self, capsys, small_registry):
        assert cli.main(["run-all", "--workers", "0"]) == 2
        assert "n_workers" in capsys.readouterr().err


class TestCheckArtifacts:
    def test_complete_run_dir_passes(self, tmp_path, capsys, small_registry):
        assert cli.main(
            ["run-all", "--preset", "quick", "--out", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        assert check_artifacts.main([str(tmp_path), "--expect-all"]) == 0
        out = capsys.readouterr().out
        # the manifest is audited, not treated as an artifact
        assert f"ok    {MANIFEST_FILENAME}" not in out

    def test_leftover_tmp_file_flagged(self, tmp_path, capsys, small_registry):
        assert cli.main(
            ["run-all", "--preset", "quick", "--out", str(tmp_path)]
        ) == 0
        (tmp_path / f"table3_power.json.abc123{TMP_SUFFIX}").write_text("junk")
        capsys.readouterr()
        assert check_artifacts.main([str(tmp_path)]) == 1
        assert "leftover temporary file" in capsys.readouterr().out

    def test_failed_manifest_entry_flagged(self, tmp_path, capsys, small_registry):
        assert cli.main(
            ["run-all", "--preset", "quick", "--out", str(tmp_path)]
        ) == 0
        RunManifest.load(tmp_path).mark_failed("table3_power", "boom")
        capsys.readouterr()
        assert check_artifacts.main([str(tmp_path)]) == 1
        assert "records a failure" in capsys.readouterr().out

    def test_hash_mismatch_flagged(self, tmp_path, capsys, small_registry):
        assert cli.main(
            ["run-all", "--preset", "quick", "--out", str(tmp_path)]
        ) == 0
        artifact = tmp_path / "table5_idpower.json"
        doc = json.loads(artifact.read_text())
        doc["notes"] = ["tampered"]
        artifact.write_text(json.dumps(doc, indent=2) + "\n")
        capsys.readouterr()
        assert check_artifacts.main([str(tmp_path)]) == 1
        assert "sha256" in capsys.readouterr().out
