"""Registry contract tests, parametrized over every declared spec.

These pin the declarative-experiment contract: completeness of the
catalog, a claim test in ``tests/paper/`` per experiment, the
three-preset rule, quick-preset runnability with
per-experiment structural assertions, artifact round-trip byte
stability, lazy listing, and centralized bounds validation.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.artifacts import ExperimentResult
from repro.experiments.registry import (
    PRESET_NAMES,
    RegistryError,
    UnknownExperimentError,
)
from repro.phy.protocols import Protocol

ALL_NAMES = (
    "fig04_rectifier",
    "fig05_envelope_id",
    "fig07_ordered",
    "fig08_sampling",
    "fig09_baseline_flaws",
    "fig12_tradeoffs",
    "fig13_los",
    "fig14_nlos",
    "fig15_occlusion",
    "fig16_collisions",
    "fig17_refmod",
    "fig18_diversity",
    "validation_ber",
    "table2_resources",
    "table3_power",
    "table4_energy",
    "table5_idpower",
)

#: Structural assertions carried over from the old per-module smoke
#: tests, now run against the quick-preset registry results.
_CHECKS = {
    "fig04_rectifier": lambda r: r["downlink_range_m"] > 0,
    "fig05_envelope_id": lambda r: (40, 120) in r["grid_reports"],
    "fig07_ordered": lambda r: set(r["thresholds"]) == set(Protocol),
    "fig08_sampling": lambda r: len(r["reports"]) == 3,
    "fig09_baseline_flaws": lambda r: set(r["bers"]) == {"hitchhike", "freerider"},
    "fig12_tradeoffs": lambda r: len(r["table"]) == 12,  # 4 protocols x 3 modes
    "fig13_los": lambda r: set(r["per_protocol"]) == set(Protocol),
    "fig14_nlos": lambda r: set(r["per_protocol"]) == set(Protocol),
    "fig15_occlusion": lambda r: r["hitchhike_kbps"] >= 0,
    "fig16_collisions": lambda r: r["time_collision"]["ble_clean_kbps"] > 0,
    "fig17_refmod": lambda r: len(r["wifi_b"]) == 3 and len(r["wifi_n"]) == 3,
    "fig18_diversity": lambda r: r["picked"] in set(Protocol) | {None},
    "validation_ber": lambda r: len(r["rows"]) == 4,  # 4 protocols x 1 Eb/N0
    "table2_resources": lambda r: r["naive_total_dffs"] > r["nano_impl_dffs"],
    "table3_power": lambda r: r["total_mw"] > 0,
    "table4_energy": lambda r: set(r["table"]) == set(Protocol),
    "table5_idpower": lambda r: r["reduction_factor"] > 100,
}


@pytest.fixture(scope="module")
def quick_results():
    """Each experiment run once at quick scale, shared across tests."""
    return {name: registry.run_preset(name, "quick") for name in ALL_NAMES}


class TestCatalog:
    def test_complete(self):
        assert registry.names() == ALL_NAMES

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_spec_contract(self, name):
        spec = registry.get_spec(name)
        assert spec.preset_names() == PRESET_NAMES
        assert spec.paper_ref and spec.description
        assert spec.module == f"repro.experiments.{name}"
        for preset in PRESET_NAMES:
            assert isinstance(spec.params(preset), spec.params_type)

    def test_every_experiment_has_a_claim_test(self):
        # The paper-vs-measured assertions run in tier-1: each
        # experiment has test_<name> in tests/paper/test_<name>.py, and
        # the four tables share test_tables.py.
        paper = Path(__file__).resolve().parents[1] / "paper"
        missing = []
        for name in registry.names():
            path = paper / f"test_{'tables' if name.startswith('table') else name}.py"
            body = ast.parse(path.read_text()).body if path.is_file() else []
            if f"test_{name}" not in {n.name for n in body if isinstance(n, ast.FunctionDef)}:
                missing.append(f"{name} (expected test_{name} in tests/paper/{path.name})")
        assert not missing, missing

    def test_unknown_experiment(self):
        with pytest.raises(UnknownExperimentError, match="fig99_nope"):
            registry.get_spec("fig99_nope")

    def test_unknown_preset(self):
        with pytest.raises(RegistryError, match="no preset"):
            registry.get_spec("fig13_los").params("huge")


class TestQuickRuns:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_runs_renders_and_checks(self, quick_results, name):
        result = quick_results[name]
        assert isinstance(result, ExperimentResult)
        assert result.name == name
        assert result.preset == "quick"
        assert result.params is not None
        assert result.notes
        text = result.render()
        assert isinstance(text, str) and len(text) > 20
        assert _CHECKS[name](result)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_artifact_round_trip(self, quick_results, name):
        s1 = quick_results[name].to_json()
        restored = ExperimentResult.from_json(s1)
        assert restored.to_json() == s1
        assert restored.render() == quick_results[name].render()

    @pytest.mark.parametrize(
        "name", ["fig12_tradeoffs", "fig15_occlusion", "table4_energy"]
    )
    def test_rerun_byte_identical(self, quick_results, name):
        # Determinism end to end: a fresh run serializes to the same bytes.
        again = registry.run_preset(name, "quick")
        assert again.to_json() == quick_results[name].to_json()

    def test_seed_override(self):
        base = registry.run_preset("fig15_occlusion", "quick")
        other = registry.run_preset("fig15_occlusion", "quick", seed=99)
        assert other.params["seed"] == 99
        assert base.to_json() != other.to_json()

    def test_result_name_must_match_spec(self):
        spec = registry.get_spec("table2_resources")
        impl = spec._resolve()
        registry._IMPLS["table2_resources"] = lambda **kw: ExperimentResult(name="oops")
        try:
            with pytest.raises(RegistryError, match="named 'oops'"):
                spec.run("quick")
        finally:
            registry._IMPLS["table2_resources"] = impl


class TestBounds:
    @pytest.mark.parametrize(
        "name, field", [("fig16_collisions", "n_trials"), ("fig15_occlusion", "n_packets")]
    )
    def test_zero_count_rejected(self, name, field):
        with pytest.raises(ValueError, match=field):
            registry.run_preset(name, "quick", **{field: 0})

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            registry.run_preset("fig05_envelope_id", "quick", n_workers=0)


class TestLazyListing:
    def test_list_imports_no_implementation(self):
        # `python -m repro list` must never touch NumPy-heavy modules.
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['list']) == 0\n"
            "heavy = [m for m in sys.modules if m == 'numpy'\n"
            "         or (m.startswith('repro.experiments.')\n"
            "             and m.rsplit('.', 1)[-1] not in ('registry', 'params'))]\n"
            "assert not heavy, heavy\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
