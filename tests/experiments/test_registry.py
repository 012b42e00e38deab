"""Registry contract tests, parametrized over every declared spec.

These pin the declarative-experiment contract: completeness of the
catalog, a claim test in ``tests/paper/`` per experiment, the
three-preset rule, quick-preset runnability with
per-experiment structural assertions, an absolute digest of every
quick-preset artifact, artifact round-trip byte stability, lazy
listing, and centralized bounds validation.
"""

import ast
import hashlib
import inspect
import json
import subprocess
import sys
import typing
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


#: sha256 of each quick-preset artifact at the default seed, as saved
#: (``to_json() + "\n"``).  A change here is a change in an
#: experiment's numbers.  Computed on Python 3.11 with numpy 2.4.6 and
#: scipy 1.17.1 (``ci/constraints.txt``, which both CI legs, Python 3.11
#: and 3.12, install).  docs/PERFORMANCE.md ("Numeric stack") shows how
#: to regenerate them.
QUICK_SHA256 = {
    "fig04_rectifier": "a0c8c62824f14b44249138a45a360eb07fc60908e0c57351ef6f7a453a7d339d",
    "fig05_envelope_id": "eb3909cff8d67734dca80fcead9d41833b61f0399eaed61228741463d8df3ee2",
    "fig07_ordered": "253d9da27b12a210e9b144fe65ab974640af00edd8a1a73a16b783bcaadac4ad",
    "fig08_sampling": "0c413dddd4e0864b5182be362cf2d88ced64ad3c13b3323e361b2f64fc15d7f2",
    "fig09_baseline_flaws": "7347fc2e52991af485a4534f33f6956ee0857d07d422f68bc65694f30ab5fbe7",
    "fig12_tradeoffs": "fe07622efc94b1edff2b10c2501545253e25ca3829a8e59c90b4e943817d56a8",
    "fig13_los": "198b04d7ac71c16721c02689b3660d8c59814c86cff34ad77a4746beef097306",
    "fig14_nlos": "55fc23407c8fc53333860e567853a56f1769c70cc852f9c7d926c29002deedd8",
    "fig15_occlusion": "d923e2ee242ccafafc564115fe12849d61ead85b172cc974f9723c844b656364",
    "fig16_collisions": "18c0ec125e035c430b770133dd523557444cbf668e1a3e912a547eb428e72bff",
    "fig17_refmod": "356db44c5e870bbe5d1935640899bfe142fba1ecb8589b958a08d245d23b8b3d",
    "fig18_diversity": "249ab96a9d282fc46c508e8a6b2a1b0b631f8e5dd5717d032b5ee61b37dd4a43",
    "validation_ber": "642581d92c8b71cd996748833d4796e3041e359194d3e31bb1b5685d7842f85c",
    "table2_resources": "335c73c66ad7701495345b8ef680b9d6d88b506a1ec0f665679d5f1a71581469",
    "table3_power": "2619faa049571a3e8a5b2d54ae0fcc605a0a0959f85d50ca8ec79e5726cd5c10",
    "table4_energy": "f1b3fd5dedc3b74b1486ed72bd0c7aceed0229d7d9d8770a8105918cf101ad5b",
    "table5_idpower": "b772cd6b1128079067c9e42867f1f5535e74fc7d2d814a1934e9f473e7f52309",
}


@pytest.fixture(scope="module")
def quick_results():
    """Each experiment run once at quick scale, shared across tests."""
    return {name: registry.get_spec(name).run("quick") for name in ALL_NAMES}


class TestCatalog:
    def test_complete(self):
        assert registry.names() == ALL_NAMES

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_spec_contract(self, name):
        spec = registry.get_spec(name)
        assert tuple(spec.presets) == PRESET_NAMES
        assert spec.paper_ref and spec.description
        assert spec.module == f"repro.experiments.{name}"
        for preset in PRESET_NAMES:
            assert isinstance(spec.params(preset), spec.params_type)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_implementation_takes_its_params(self, name):
        # A parameter's name, type and default live only in its params
        # dataclass: the implementation takes the instance, nothing else.
        spec = registry.get_spec(name)
        impl = spec._resolve()
        (param,) = inspect.signature(impl).parameters.values()
        assert param.kind is param.POSITIONAL_OR_KEYWORD
        assert param.default is param.empty
        assert typing.get_type_hints(impl)[param.name] is spec.params_type

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

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_artifact_digest(self, quick_results, name):
        data = (quick_results[name].to_json() + "\n").encode()
        assert hashlib.sha256(data).hexdigest() == QUICK_SHA256[name]

    @pytest.mark.parametrize(
        "name", ["fig12_tradeoffs", "fig15_occlusion", "table4_energy"]
    )
    def test_rerun_byte_identical(self, quick_results, name):
        # Determinism end to end: a fresh run serializes to the same bytes.
        again = registry.get_spec(name).run("quick")
        assert again.to_json() == quick_results[name].to_json()

    def test_seed_override(self):
        base = registry.get_spec("fig15_occlusion").run("quick")
        other = registry.get_spec("fig15_occlusion").run("quick", seed=99)
        assert other.params["seed"] == 99
        assert base.to_json() != other.to_json()

    def test_result_name_must_match_spec(self):
        spec = registry.get_spec("table2_resources")
        impl = spec._resolve()
        registry._IMPLS["table2_resources"] = lambda params: ExperimentResult(name="oops")
        try:
            with pytest.raises(RegistryError, match="named 'oops'"):
                spec.run("quick")
        finally:
            registry._IMPLS["table2_resources"] = impl


class TestPaperPresetDigests:
    """Every paper-preset artifact at the default seed against the digest
    ``perfbench/expected.json`` records for the campaign benchmark, so
    the bytes the benchmark checks are checked on every test run too."""

    EXPECTED = Path(__file__).resolve().parents[2] / "perfbench" / "expected.json"

    def test_covers_every_experiment(self):
        digests = json.loads(self.EXPECTED.read_text())["campaign_sha256"]
        assert set(digests) == set(ALL_NAMES)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_artifact_digest(self, name):
        want = json.loads(self.EXPECTED.read_text())["campaign_sha256"][name]
        data = (registry.get_spec(name).run("paper").to_json() + "\n").encode()
        assert hashlib.sha256(data).hexdigest() == want


class TestBounds:
    @pytest.mark.parametrize(
        "name, field", [("fig16_collisions", "n_trials"), ("fig15_occlusion", "n_packets")]
    )
    def test_zero_count_rejected(self, name, field):
        with pytest.raises(ValueError, match=field):
            registry.get_spec(name).run("quick", **{field: 0})

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            registry.get_spec("fig05_envelope_id").run("quick", n_workers=0)


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
