"""Self-tests for the reproflow units-and-purity dataflow analyzer.

Mirrors the reprolint test layout: every shipped rule gets known-bad
fixtures (must fire) and known-good fixtures (must stay silent), plus
pragma suppression, the baseline round-trip, the CLI contract, the
annotated call graph, and the repo-wide self-check that ``src/repro``
analyzes clean.
"""

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from tools.reproflow import RULES, analyze_paths, build_report
from tools.reproflow.bytecode import check_tracked_bytecode
from tools.reproflow.model import Baseline, Finding
from tools.reproflow.project import ProjectIndex, module_name_for
from tools.reproflow.purity import reachable_functions, worker_roots

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def _write(tmp_path: pathlib.Path, source: str, name: str = "mod.py") -> pathlib.Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def _codes(tmp_path: pathlib.Path, source: str, **kwargs) -> list[str]:
    _write(tmp_path, source)
    result = analyze_paths([str(tmp_path)], check_bytecode=False, **kwargs)
    return [f.code for f in result.findings]


# ----------------------------------------------------------------------
# U001: incompatible-unit arithmetic / comparison / assignment
# ----------------------------------------------------------------------
class TestU001:
    def test_time_scale_mix_fires(self, tmp_path):
        src = """\
            def f(window_us: float, duration_s: float) -> float:
                return window_us + duration_s
        """
        assert _codes(tmp_path, src) == ["U001"]

    def test_count_vs_rate_fires(self, tmp_path):
        src = """\
            def f(n_samples: int, chip_rate_hz: float) -> float:
                return n_samples - chip_rate_hz
        """
        assert _codes(tmp_path, src) == ["U001"]

    def test_same_unit_ok(self, tmp_path):
        src = """\
            def f(start_us: float, stop_us: float) -> float:
                return stop_us - start_us
        """
        assert _codes(tmp_path, src) == []

    def test_literal_transparent(self, tmp_path):
        src = """\
            def f(l_p: int) -> int:
                return l_p + 2
        """
        assert _codes(tmp_path, src) == []

    def test_unknown_absorbs(self, tmp_path):
        # noise_floor pattern: known + unknown stays silent.
        src = """\
            def noise_floor(thermal_dbm_per_hz: float, bw_term, nf_db: float):
                return thermal_dbm_per_hz + bw_term + nf_db
        """
        assert _codes(tmp_path, src) == []

    def test_dbm_plus_dbm_fires_minus_ok(self, tmp_path):
        src = """\
            def bad(p1_dbm: float, p2_dbm: float) -> float:
                return p1_dbm + p2_dbm

            def good(rx_dbm: float, tx_dbm: float) -> float:
                loss_db = tx_dbm - rx_dbm
                return loss_db
        """
        assert _codes(tmp_path, src) == ["U001"]

    def test_dbm_plus_db_gain_ok(self, tmp_path):
        src = """\
            def f(tx_dbm: float, gain_db: float) -> float:
                return tx_dbm + gain_db
        """
        assert _codes(tmp_path, src) == []

    def test_comparison_fires(self, tmp_path):
        src = """\
            def f(timeout_us: float, elapsed_s: float) -> bool:
                return elapsed_s > timeout_us
        """
        assert _codes(tmp_path, src) == ["U001"]

    def test_assignment_to_conflicting_name_fires(self, tmp_path):
        src = """\
            def f(rate_hz: float):
                delay_us = rate_hz
                return delay_us
        """
        assert _codes(tmp_path, src) == ["U001"]

    def test_multiplication_resets_unit(self, tmp_path):
        src = """\
            def f(duration_s: float, sample_rate_hz: float) -> float:
                n = duration_s * sample_rate_hz
                return n + 3
        """
        assert _codes(tmp_path, src) == []

    def test_propagates_through_locals(self, tmp_path):
        src = """\
            def f(window_us: float, span_s: float) -> float:
                w = window_us
                return w + span_s
        """
        assert _codes(tmp_path, src) == ["U001"]

    def test_annotation_alias_seeds_unit(self, tmp_path):
        src = """\
            from repro.types.units import Microseconds, Seconds

            def f(window: Microseconds, span: Seconds) -> float:
                return window + span
        """
        assert _codes(tmp_path, src) == ["U001"]


# ----------------------------------------------------------------------
# U002: log-domain vs linear mixing
# ----------------------------------------------------------------------
class TestU002:
    def test_dbm_plus_mw_fires(self, tmp_path):
        src = """\
            def f(p_dbm: float, p_mw: float) -> float:
                return p_dbm + p_mw
        """
        assert _codes(tmp_path, src) == ["U002"]

    def test_db_plus_volts_fires(self, tmp_path):
        src = """\
            def f(gain_db: float, out_v: float) -> float:
                return gain_db - out_v
        """
        assert _codes(tmp_path, src) == ["U002"]

    def test_linear_power_math_ok(self, tmp_path):
        src = """\
            def f(p1_mw: float, p2_mw: float) -> float:
                return p1_mw + p2_mw
        """
        assert _codes(tmp_path, src) == []


# ----------------------------------------------------------------------
# U003: call-boundary unit mismatches
# ----------------------------------------------------------------------
class TestU003:
    def test_positional_mismatch_fires(self, tmp_path):
        src = """\
            def helper(window_us: float) -> float:
                return window_us

            def caller(span_s: float) -> float:
                return helper(span_s)
        """
        assert _codes(tmp_path, src) == ["U003"]

    def test_keyword_mismatch_fires(self, tmp_path):
        src = """\
            def helper(*, cutoff_hz: float) -> float:
                return cutoff_hz

            def caller(period_s: float) -> float:
                return helper(cutoff_hz=period_s)
        """
        assert _codes(tmp_path, src) == ["U003"]

    def test_matching_units_ok(self, tmp_path):
        src = """\
            def helper(window_us: float) -> float:
                return window_us

            def caller(span_us: float) -> float:
                return helper(span_us)
        """
        assert _codes(tmp_path, src) == []

    def test_literal_and_unknown_args_ok(self, tmp_path):
        src = """\
            def helper(window_us: float) -> float:
                return window_us

            def caller(x) -> float:
                return helper(8.0) + helper(x)
        """
        assert _codes(tmp_path, src) == []

    def test_cross_module_call_fires(self, tmp_path):
        _write(
            tmp_path,
            """\
            def helper(window_us: float) -> float:
                return window_us
            """,
            name="lib.py",
        )
        src = """\
            from lib import helper

            def caller(span_s: float) -> float:
                return helper(span_s)
        """
        assert _codes(tmp_path, src) == ["U003"]

    def test_dataclass_constructor_fires(self, tmp_path):
        src = """\
            from dataclasses import dataclass

            @dataclass
            class Config:
                sample_rate_hz: float

            def build(period_s: float) -> Config:
                return Config(sample_rate_hz=period_s)
        """
        assert _codes(tmp_path, src) == ["U003"]

    def test_return_unit_flows_through_calls(self, tmp_path):
        src = """\
            def rate() -> float:
                ...

            def span_us() -> float:
                ...

            def f(total_s: float) -> float:
                return total_s + span_us()
        """
        assert _codes(tmp_path, src) == ["U001"]


# ----------------------------------------------------------------------
# U004: unit-ambiguous public parameters / fields
# ----------------------------------------------------------------------
class TestU004:
    def test_bare_rate_param_fires(self, tmp_path):
        src = """\
            def resample(new_rate: float) -> float:
                return new_rate
        """
        assert _codes(tmp_path, src, strict_unit_dirs=("",)) == ["U004"]

    def test_suffixed_param_ok(self, tmp_path):
        src = """\
            def resample(new_rate_hz: float) -> float:
                return new_rate_hz
        """
        assert _codes(tmp_path, src, strict_unit_dirs=("",)) == []

    def test_annotated_param_ok(self, tmp_path):
        src = """\
            from repro.types.units import Hertz

            def resample(new_rate: Hertz) -> float:
                return new_rate
        """
        assert _codes(tmp_path, src, strict_unit_dirs=("",)) == []

    def test_private_function_ok(self, tmp_path):
        src = """\
            def _resample(new_rate: float) -> float:
                return new_rate
        """
        assert _codes(tmp_path, src, strict_unit_dirs=("",)) == []

    def test_dataclass_field_fires(self, tmp_path):
        src = """\
            from dataclasses import dataclass

            @dataclass
            class Params:
                template_size: int = 120
        """
        assert _codes(tmp_path, src, strict_unit_dirs=("",)) == ["U004"]

    def test_non_numeric_annotation_ok(self, tmp_path):
        src = """\
            def parse(rate: str) -> str:
                return rate
        """
        assert _codes(tmp_path, src, strict_unit_dirs=("",)) == []

    def test_outside_strict_dirs_ok(self, tmp_path):
        src = """\
            def resample(new_rate: float) -> float:
                return new_rate
        """
        # default strict dirs do not match the tmp fixture path
        assert _codes(tmp_path, src) == []


# ----------------------------------------------------------------------
# F001: worker-reachable global mutation
# ----------------------------------------------------------------------
class TestF001:
    def test_submit_worker_mutating_global_fires(self, tmp_path):
        src = """\
            _STATE = {}

            def worker(trial: int) -> int:
                _STATE[trial] = 1
                return trial

            def launch(pool):
                pool.submit(worker, 1)
        """
        assert _codes(tmp_path, src) == ["F001"]

    def test_map_worker_transitive_fires(self, tmp_path):
        src = """\
            _LOG = []

            def inner():
                _LOG.append(1)

            def worker(trial: int) -> int:
                inner()
                return trial

            def launch(pool):
                pool.map(worker, [1, 2])
        """
        assert _codes(tmp_path, src) == ["F001"]

    def test_implements_root_fires(self, tmp_path):
        src = """\
            from repro.experiments.registry import implements

            _CACHE = {}

            @implements("fig99")
            def run(*, seed: int = 0):
                _CACHE["last"] = seed
        """
        assert _codes(tmp_path, src) == ["F001"]

    def test_montecarlo_run_is_not_a_root(self, tmp_path):
        # MonteCarlo runs trials serially in the caller's process, so a
        # trial that appends to a module global is no fork hazard.
        src = """\
            from repro.sim.runner import MonteCarlo

            _HITS = []

            def trial(rng):
                _HITS.append(1)

            def experiment():
                mc = MonteCarlo(n_trials=8, seed=1)
                return mc.run(trial)
        """
        assert _codes(tmp_path, src) == []

    def test_global_statement_rebind_fires(self, tmp_path):
        src = """\
            _COUNT = 0

            def worker(trial: int) -> int:
                global _COUNT
                _COUNT = _COUNT + 1
                return trial

            def launch(pool):
                pool.submit(worker, 1)
        """
        assert _codes(tmp_path, src) == ["F001"]

    def test_local_shadow_ok(self, tmp_path):
        src = """\
            _STATE = {}

            def worker(trial: int) -> int:
                _STATE = {}
                _STATE[trial] = 1
                return trial

            def launch(pool):
                pool.submit(worker, 1)
        """
        assert _codes(tmp_path, src) == []

    def test_os_environ_ok(self, tmp_path):
        src = """\
            import os

            def worker(trial: int) -> int:
                os.environ["REPRO_WORKERS"] = "1"
                return trial

            def launch(pool):
                pool.submit(worker, 1)
        """
        assert _codes(tmp_path, src) == []

    def test_unreachable_mutation_ok(self, tmp_path):
        src = """\
            _REGISTRY = {}

            def register(name: str):
                _REGISTRY[name] = True
        """
        assert _codes(tmp_path, src) == []


# ----------------------------------------------------------------------
# F002: wavecache writes outside the locked API
# ----------------------------------------------------------------------
class TestF002:
    def test_clear_caches_from_worker_fires(self, tmp_path):
        src = """\
            from repro.core.wavecache import clear_caches

            def worker(trial: int) -> int:
                clear_caches()
                return trial

            def launch(pool):
                pool.submit(worker, 1)
        """
        assert _codes(tmp_path, src) == ["F002"]

    def test_module_attr_call_fires(self, tmp_path):
        src = """\
            from repro.core import wavecache

            def worker(trial: int) -> int:
                wavecache.register_functools_cache("f", None)
                return trial

            def launch(pool):
                pool.submit(worker, 1)
        """
        assert _codes(tmp_path, src) == ["F002"]

    def test_lru_put_on_module_instance_fires(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "wavecache.py").write_text(
            textwrap.dedent(
                """\
                class LruCache:
                    def get_or_create(self, key, factory):
                        ...

                    def put(self, key, value):
                        ...
                """
            )
        )
        (pkg / "user.py").write_text(
            textwrap.dedent(
                """\
                from repro.core.wavecache import LruCache

                _CACHE = LruCache()

                def worker(trial: int) -> int:
                    _CACHE.put(trial, trial)
                    return trial

                def launch(pool):
                    pool.submit(worker, 1)
                """
            )
        )
        result = analyze_paths([str(tmp_path)], check_bytecode=False)
        assert [f.code for f in result.findings] == ["F002"]

    def test_get_or_create_ok(self, tmp_path):
        src = """\
            from repro.core.wavecache import LruCache

            _CACHE = LruCache(maxsize=4)

            def worker(trial: int) -> int:
                return _CACHE.get_or_create(trial, lambda: trial)

            def launch(pool):
                pool.submit(worker, 1)
        """
        assert _codes(tmp_path, src) == []


# ----------------------------------------------------------------------
# B001/B002: tracked bytecode and packaging metadata
# ----------------------------------------------------------------------
class TestB001:
    def _git(self, cwd, *args):
        subprocess.run(
            ["git", *args], cwd=cwd, check=True, capture_output=True
        )

    def test_tracked_pyc_fires(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        cache = tmp_path / "pkg" / "__pycache__"
        cache.mkdir(parents=True)
        (cache / "mod.cpython-311.pyc").write_bytes(b"\x00")
        self._git(tmp_path, "add", "-f", ".")
        findings = check_tracked_bytecode(str(tmp_path))
        assert [f.code for f in findings] == ["B001"]
        assert "mod.cpython-311.pyc" in findings[0].path

    def test_tracked_egg_info_fires(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        egg = tmp_path / "src" / "pkg.egg-info"
        egg.mkdir(parents=True)
        (egg / "PKG-INFO").write_text("Metadata-Version: 2.1\n")
        (egg / "SOURCES.txt").write_text("pkg/__init__.py\n")
        self._git(tmp_path, "add", "-f", ".")
        findings = check_tracked_bytecode(str(tmp_path))
        assert [f.code for f in findings] == ["B002", "B002"]
        assert all("egg-info" in f.path for f in findings)
        assert "egg-info" in findings[0].message

    def test_tracked_pyc_and_egg_info_both_fire(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "mod.cpython-311.pyc").write_bytes(b"\x00")
        egg = tmp_path / "pkg.egg-info"
        egg.mkdir()
        (egg / "top_level.txt").write_text("pkg\n")
        self._git(tmp_path, "add", "-f", ".")
        codes = sorted(f.code for f in check_tracked_bytecode(str(tmp_path)))
        assert codes == ["B001", "B002"]

    def test_clean_repo_ok(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        (tmp_path / "mod.py").write_text("x = 1\n")
        self._git(tmp_path, "add", ".")
        assert check_tracked_bytecode(str(tmp_path)) == []

    def test_untracked_egg_info_ok(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        (tmp_path / "mod.py").write_text("x = 1\n")
        egg = tmp_path / "pkg.egg-info"
        egg.mkdir()
        (egg / "PKG-INFO").write_text("Metadata-Version: 2.1\n")
        self._git(tmp_path, "add", "mod.py")
        assert check_tracked_bytecode(str(tmp_path)) == []

    def test_not_a_repo_silently_ok(self, tmp_path):
        assert check_tracked_bytecode(str(tmp_path)) == []


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------
class TestPragmas:
    def test_line_pragma_suppresses(self, tmp_path):
        src = """\
            def f(window_us: float, duration_s: float) -> float:
                return window_us + duration_s  # reproflow: disable=U001
        """
        assert _codes(tmp_path, src) == []

    def test_line_pragma_wrong_code_keeps(self, tmp_path):
        src = """\
            def f(window_us: float, duration_s: float) -> float:
                return window_us + duration_s  # reproflow: disable=U003
        """
        assert _codes(tmp_path, src) == ["U001"]

    def test_file_pragma_suppresses(self, tmp_path):
        src = """\
            # reproflow: disable-file=U001
            def f(window_us: float, duration_s: float) -> float:
                return window_us + duration_s
        """
        assert _codes(tmp_path, src) == []

    def test_file_pragma_after_line_10_ignored(self, tmp_path):
        filler = "\n" * 11
        src = (
            filler
            + "# reproflow: disable-file=U001\n"
            + "def f(window_us: float, duration_s: float) -> float:\n"
            + "    return window_us + duration_s\n"
        )
        assert _codes(tmp_path, src) == ["U001"]

    def test_disable_all(self, tmp_path):
        src = """\
            def f(p_dbm: float, p_mw: float) -> float:
                return p_dbm + p_mw  # reproflow: disable=all
        """
        assert _codes(tmp_path, src) == []


# ----------------------------------------------------------------------
# select + baseline
# ----------------------------------------------------------------------
class TestSelectAndBaseline:
    SRC = """\
        def f(window_us: float, duration_s: float, p_dbm: float, p_mw: float):
            a = window_us + duration_s
            b = p_dbm + p_mw
            return a, b
    """

    def test_select_filters(self, tmp_path):
        assert _codes(tmp_path, self.SRC, select=("U002",)) == ["U002"]
        assert _codes(tmp_path, self.SRC, select=("U",)) == ["U001", "U002"]

    def test_baseline_round_trip(self, tmp_path):
        _write(tmp_path, self.SRC)
        first = analyze_paths([str(tmp_path)], check_bytecode=False)
        assert len(first.findings) == 2
        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(first.findings).write(str(baseline_path))
        loaded = Baseline.load(str(baseline_path))
        again = analyze_paths(
            [str(tmp_path)], check_bytecode=False, baseline=loaded
        )
        assert again.findings == []
        assert len(again.baselined) == 2

    def test_fingerprint_survives_line_shift(self, tmp_path):
        _write(tmp_path, self.SRC)
        before = analyze_paths([str(tmp_path)], check_bytecode=False)
        _write(tmp_path, "# a new leading comment\n" + textwrap.dedent(self.SRC))
        after = analyze_paths([str(tmp_path)], check_bytecode=False)
        assert {f.fingerprint() for f in before.findings} == {
            f.fingerprint() for f in after.findings
        }

    def test_new_finding_not_baselined(self, tmp_path):
        _write(tmp_path, self.SRC)
        first = analyze_paths([str(tmp_path)], check_bytecode=False)
        baseline = Baseline.from_findings(first.findings[:1])
        again = analyze_paths(
            [str(tmp_path)], check_bytecode=False, baseline=baseline
        )
        assert len(again.findings) == 1
        assert len(again.baselined) == 1

    def test_bad_baseline_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError):
            Baseline.load(str(path))


# ----------------------------------------------------------------------
# call graph / report
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_module_name_derivation(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "adc.py").write_text("x = 1\n")
        assert module_name_for(str(pkg / "adc.py")) == "repro.core.adc"

    def test_roots_and_reachability(self, tmp_path):
        _write(
            tmp_path,
            """\
            def leaf():
                ...

            def worker(trial):
                leaf()

            def launch(pool):
                pool.submit(worker, 1)
            """,
        )
        index = ProjectIndex.build([str(tmp_path)])
        roots = worker_roots(index)
        assert any(fq.endswith(".worker") for fq in roots)
        reach = reachable_functions(index, roots)
        assert any(fq.endswith(".leaf") for fq in reach)
        assert not any(fq.endswith(".launch") for fq in reach)

    def test_run_in_executor_callable_is_second_argument(self, tmp_path):
        # loop.run_in_executor(pool, fn, *args): the executor sits at
        # position 0, the shipped callable at position 1.
        _write(
            tmp_path,
            """\
            def leaf():
                ...

            def worker(payloads):
                leaf()

            async def launch(loop, pool):
                await loop.run_in_executor(pool, worker, [1])

            async def degenerate(loop, pool):
                await loop.run_in_executor(pool)
            """,
        )
        index = ProjectIndex.build([str(tmp_path)])
        roots = worker_roots(index)
        assert any(fq.endswith(".worker") for fq in roots)
        # The executor argument is never mistaken for the callable.
        assert not any(fq.endswith(".launch") for fq in roots)
        reach = reachable_functions(index, roots)
        assert any(fq.endswith(".leaf") for fq in reach)

    def test_report_structure(self, tmp_path):
        _write(
            tmp_path,
            """\
            def f(sample_rate_hz: float) -> float:
                return sample_rate_hz
            """,
        )
        result = analyze_paths([str(tmp_path)], check_bytecode=False)
        report = build_report(result)
        assert report["tool"] == "reproflow"
        assert report["summary"]["findings"] == 0
        (fq,) = [k for k in report["call_graph"] if k.endswith(".f")]
        assert report["call_graph"][fq]["params"]["sample_rate_hz"] == "Hz"


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------
class TestCli:
    def _run(self, *args, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "tools.reproflow", *args],
            capture_output=True,
            text=True,
            cwd=cwd or _REPO_ROOT,
        )

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for code in RULES:
            assert code in proc.stdout

    def test_clean_file_exits_zero(self, tmp_path):
        _write(tmp_path, "def f(window_us: float) -> float:\n    return window_us\n")
        proc = self._run(str(tmp_path), "--no-bytecode-check")
        assert proc.returncode == 0, proc.stderr

    def test_findings_exit_one(self, tmp_path):
        _write(
            tmp_path,
            "def f(window_us: float, span_s: float):\n    return window_us + span_s\n",
        )
        proc = self._run(str(tmp_path), "--no-bytecode-check")
        assert proc.returncode == 1
        assert "U001" in proc.stdout

    def test_json_format(self, tmp_path):
        _write(
            tmp_path,
            "def f(window_us: float, span_s: float):\n    return window_us + span_s\n",
        )
        proc = self._run(str(tmp_path), "--no-bytecode-check", "--format=json")
        doc = json.loads(proc.stdout)
        assert doc["summary"]["findings"] == 1
        assert doc["findings"][0]["code"] == "U001"
        assert "call_graph" in doc

    def test_write_and_use_baseline(self, tmp_path):
        _write(
            tmp_path,
            "def f(window_us: float, span_s: float):\n    return window_us + span_s\n",
        )
        baseline = tmp_path / "baseline.json"
        wrote = self._run(
            str(tmp_path), "--no-bytecode-check", "--write-baseline", str(baseline)
        )
        assert wrote.returncode == 0
        gated = self._run(
            str(tmp_path), "--no-bytecode-check", "--baseline", str(baseline)
        )
        assert gated.returncode == 0
        assert "baselined" in gated.stderr


# ----------------------------------------------------------------------
# repo-wide self-checks
# ----------------------------------------------------------------------
class TestRepoClean:
    def test_src_repro_is_clean(self):
        result = analyze_paths(
            [str(_REPO_ROOT / "src" / "repro")], repo_root=str(_REPO_ROOT)
        )
        assert [f.render() for f in result.findings] == []
        assert result.baselined == []  # no baseline shipped: zero suppressions

    def test_worker_surfaces_are_roots(self):
        result = analyze_paths([str(_REPO_ROOT / "src" / "repro")])
        assert "repro.experiments.common._build_trace" in result.roots
        assert "repro.cli._run_all_worker" in result.roots
        assert any(r.startswith("repro.experiments.") for r in result.roots)

    def test_no_tracked_bytecode_in_repo(self):
        assert check_tracked_bytecode(str(_REPO_ROOT)) == []
