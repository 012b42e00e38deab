"""Self-tests for the reprolint determinism/dtype linter.

Each rule gets known-bad fixtures (must flag) and known-good fixtures
(must stay silent), plus the ``# reprolint: disable=`` escape hatches,
directory walking, and the check that ``src/`` lints clean.  The CLI
contract shared by all four analyzers is written once in
``cli_contract.py``; ``TestCli`` binds it to reprolint.
"""

import pathlib
import textwrap

from tools.reprolint import RULES, lint_paths, lint_source

from tests.tools import cli_contract

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def _codes(source: str, path: str = "src/repro/phy/mod.py") -> list[str]:
    return [v.code for v in lint_source(textwrap.dedent(source), path)]


# ----------------------------------------------------------------------
# R001: global-state / time-seeded RNG
# ----------------------------------------------------------------------
class TestR001:
    def test_np_random_global_call_flagged(self):
        assert "R001" in _codes("x = np.random.uniform(0, 1)")
        assert "R001" in _codes("np.random.seed(42)")
        assert "R001" in _codes("bits = np.random.randint(0, 2, 64)")

    def test_unseeded_default_rng_flagged(self):
        assert "R001" in _codes("rng = np.random.default_rng()")

    def test_seeded_default_rng_ok(self):
        assert _codes("rng = np.random.default_rng(1234)\n") == []
        assert _codes("rng = np.random.default_rng(seed)\n") == []

    def test_time_seeded_rng_flagged(self):
        assert "R001" in _codes("rng = np.random.default_rng(time.time_ns())")

    def test_legacy_randomstate_flagged(self):
        assert "R001" in _codes("rng = np.random.RandomState(0)")

    def test_generator_and_seedsequence_ok(self):
        src = """\
            ss = np.random.SeedSequence(7)
            rng = np.random.Generator(np.random.PCG64(ss))
        """
        assert _codes(src) == []

    def test_stdlib_random_global_flagged(self):
        assert "R001" in _codes("x = random.random()")
        assert "R001" in _codes("random.shuffle(items)")

    def test_unseeded_stdlib_random_instance_flagged(self):
        assert "R001" in _codes("r = random.Random()")

    def test_seeded_stdlib_random_instance_ok(self):
        assert _codes("r = random.Random(99)\n") == []


# ----------------------------------------------------------------------
# R002: float/complex equality
# ----------------------------------------------------------------------
class TestR002:
    def test_float_literal_eq_flagged(self):
        assert "R002" in _codes("ok = rate == 5.5")
        assert "R002" in _codes("ok = 1.0 != x")

    def test_arraylike_eq_nonint_flagged(self):
        assert "R002" in _codes("mask = np.abs(ref) == threshold")

    def test_arraylike_eq_integer_literal_ok(self):
        assert _codes("mask = np.abs(ref) == 0\n") == []

    def test_integer_comparison_ok(self):
        assert _codes("ok = n_sym == 64\n") == []

    def test_ordering_comparison_ok(self):
        assert _codes("ok = snr_db >= 5.5\n") == []


# ----------------------------------------------------------------------
# R003: implicit dtype at complex boundaries
# ----------------------------------------------------------------------
class TestR003:
    def test_complex_array_without_dtype_flagged(self):
        assert "R003" in _codes("c = np.array([1.0, 1j])")

    def test_complex_array_with_dtype_ok(self):
        assert _codes("c = np.array([1.0, 1j], dtype=np.complex128)\n") == []

    def test_real_array_without_dtype_ok(self):
        assert _codes("c = np.array([1.0, 2.0])\n") == []

    def test_mixed_width_arithmetic_flagged(self):
        src = "y = x.astype(np.complex64) * h.astype(np.complex128)"
        assert "R003" in _codes(src)

    def test_same_width_arithmetic_ok(self):
        src = "y = x.astype(np.complex128) * h.astype(np.complex128)\n"
        assert _codes(src) == []


# ----------------------------------------------------------------------
# R004: mutable default arguments
# ----------------------------------------------------------------------
class TestR004:
    def test_list_default_flagged(self):
        assert "R004" in _codes("def f(xs=[]):\n    return xs\n", path="anywhere.py")

    def test_dict_and_set_defaults_flagged(self):
        assert "R004" in _codes("def f(d={}):\n    return d\n", path="anywhere.py")
        assert "R004" in _codes("def f(s=set()):\n    return s\n", path="anywhere.py")

    def test_none_default_ok(self):
        src = "def f(xs=None):\n    return xs or []\n"
        assert _codes(src, path="anywhere.py") == []

    def test_kwonly_mutable_default_flagged(self):
        src = "def f(*, xs=[]):\n    return xs\n"
        assert "R004" in _codes(src, path="anywhere.py")


# ----------------------------------------------------------------------
# R005: return annotations, scoped to strict directories
# ----------------------------------------------------------------------
class TestR005:
    def test_missing_annotation_in_phy_flagged(self):
        src = "def modulate(bits):\n    return bits\n"
        assert "R005" in _codes(src, path="src/repro/phy/mod.py")
        assert "R005" in _codes(src, path="src/repro/core/mod.py")

    def test_annotated_function_ok(self):
        src = "def modulate(bits) -> None:\n    return None\n"
        assert _codes(src, path="src/repro/phy/mod.py") == []

    def test_outside_strict_dirs_ignored(self):
        src = "def plot(fig):\n    return fig\n"
        assert _codes(src, path="src/repro/experiments/fig01.py") == []


# ----------------------------------------------------------------------
# R006: NaN-unsafe range guards on floats
# ----------------------------------------------------------------------
class TestR006:
    @staticmethod
    def _r006(src: str) -> list[str]:
        return [
            v.message
            for v in lint_source(textwrap.dedent(src), "src/repro/experiments/m.py")
            if v.code == "R006"
        ]

    def test_each_comparison_flagged_with_its_nan_safe_form(self):
        for op, safe in (("<=", ">"), ("<", ">="), (">=", "<"), (">", "<=")):
            src = f"""\
                def f(x_hz: float) -> None:
                    if x_hz {op} 0:
                        raise ValueError("x_hz")
            """
            (message,) = self._r006(src)
            assert f"`not x_hz {safe} 0`" in message

    def test_unit_alias_string_annotation_and_local_flagged(self):
        src = """\
            def f(rate: Hertz, level: "DbmPower") -> None:
                gain: float = rate * 2
                if rate <= 0:
                    raise ValueError("rate")
                if level > 30:
                    raise ValueError("level")
                if gain < rate:
                    raise ValueError("gain")
        """
        assert len(self._r006(src)) == 3

    def test_nan_safe_and_integer_guards_ok(self):
        src = """\
            def f(x: float, n: int, k: Samples, y) -> None:
                if not x > 0:
                    raise ValueError("x")
                if not 0 < x < 1:
                    raise ValueError("x")
                if n < 1 or k < 1:
                    raise ValueError("n")
                if y <= 0:
                    raise ValueError("y")
                if x <= 0:
                    x = 1.0
        """
        assert self._r006(src) == []


# ----------------------------------------------------------------------
# escape hatches + select + syntax errors
# ----------------------------------------------------------------------
class TestSuppression:
    def test_line_pragma_suppresses(self):
        src = "np.random.seed(0)  # reprolint: disable=R001\n"
        assert _codes(src) == []

    def test_line_pragma_is_code_specific(self):
        src = "np.random.seed(0)  # reprolint: disable=R002\n"
        assert "R001" in _codes(src)

    def test_line_pragma_multiple_codes(self):
        src = "c = np.array([1j]) == np.random.uniform()  # reprolint: disable=R001,R002,R003\n"
        assert _codes(src) == []

    def test_disable_all(self):
        src = "np.random.seed(0)  # reprolint: disable=all\n"
        assert _codes(src) == []

    def test_file_pragma_suppresses_everywhere(self):
        src = "# reprolint: disable-file=R001\nnp.random.seed(0)\nx = random.random()\n"
        assert _codes(src) == []

    def test_file_pragma_only_honored_in_header(self):
        filler = "\n".join(f"x{i} = {i}" for i in range(12))
        src = filler + "\n# reprolint: disable-file=R001\nnp.random.seed(0)\n"
        assert "R001" in _codes(src)


class TestSelectAndErrors:
    def test_select_restricts_rules(self):
        src = "np.random.seed(0)\nok = rate == 5.5\n"
        only_r002 = lint_source(src, "src/repro/phy/m.py", select=["R002"])
        assert [v.code for v in only_r002] == ["R002"]

    def test_syntax_error_reported_as_e999(self):
        out = lint_source("def broken(:\n", "bad.py")
        assert [v.code for v in out] == ["E999"]

    def test_render_format(self):
        (v,) = lint_source("np.random.seed(0)\n", "src/x.py")
        assert v.render() == f"src/x.py:1:0: R001 {v.message}"

    def test_rule_catalog_complete(self):
        assert set(RULES) == {"R001", "R002", "R003", "R004", "R005", "R006"}


# ----------------------------------------------------------------------
# CLI: exit codes and directory walking
# ----------------------------------------------------------------------
class TestCli:
    tool = cli_contract.TOOLS["reprolint"]

    def test_clean_tree_exits_zero(self, tmp_path):
        cli_contract.check_clean_exits_zero(self.tool, tmp_path)
        result = cli_contract.run(self.tool, "src/")
        assert (result.returncode, result.stdout) == (0, ""), result.stderr

    def test_bad_fixture_exits_nonzero(self, tmp_path):
        cli_contract.check_findings_exit_one(self.tool, tmp_path)

    def test_not_utf8_exits_two(self, tmp_path):
        cli_contract.check_not_utf8_exits_two(self.tool, tmp_path)

    def test_parse_error_exits_two(self, tmp_path):
        cli_contract.check_parse_error_exits_two(self.tool, tmp_path)

    def test_list_rules(self):
        cli_contract.check_list_rules(self.tool)

    def test_lint_paths_walks_directories(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("np.random.seed(0)\n")
        (pkg / "b.py").write_text("x = 1\n")
        findings = lint_paths([str(pkg)])
        assert [f.code for f in findings] == ["R001"]
        assert findings[0].path.endswith("a.py")
