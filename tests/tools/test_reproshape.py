"""Self-tests for the reproshape symbolic shape/dtype verifier.

Mirrors the reprolint/reproflow test layout: every S-rule gets
known-bad fixtures (must fire) and known-good fixtures (must stay
silent), plus the symbolic algebra itself, pragma suppression,
``select``, the JSON report with its shape table, and the repo-wide
self-check that ``src/repro`` verifies clean.  The CLI contract
shared by all four analyzers is written once in ``cli_contract.py``;
``TestCli`` binds it to reproshape.
"""

import ast
import json
import pathlib
import textwrap

import pytest

from tools.reproshape import RULES, analyze_paths, build_report
from tools.reproshape.contracts_index import classify_annotation
from tools.reproshape.symbolic import SymDim, sym_from_dim, unify_dims

from tests.tools import cli_contract

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def _write(tmp_path: pathlib.Path, source: str, name: str = "mod.py") -> pathlib.Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def _analyze(tmp_path: pathlib.Path, source: str, *, strict: bool = False, **kwargs):
    # ``strict`` plants the fixture under repro/phy/ so the strict-dir
    # rule (S004) applies to it.
    name = "repro/phy/mod.py" if strict else "mod.py"
    _write(tmp_path, source, name=name)
    return analyze_paths([str(tmp_path)], **kwargs)


def _codes(tmp_path, source, *, strict: bool = False, **kwargs) -> list[str]:
    return [f.code for f in _analyze(tmp_path, source, strict=strict, **kwargs).findings]


# ----------------------------------------------------------------------
# the symbolic dimension algebra
# ----------------------------------------------------------------------
class TestSymDim:
    def test_arithmetic_identities_canonicalize(self):
        n = SymDim.atom("n")
        assert n * SymDim.const(8) + n * SymDim.const(3) == n * SymDim.const(11)
        assert (n + SymDim.const(1)) * (n - SymDim.const(1)) == n * n - SymDim.const(1)

    def test_provably_ne_needs_one_sign(self):
        n = SymDim.atom("n")
        # n*2 - n = n >= 1: provably nonzero.
        assert (n * SymDim.const(2)).provably_ne(n)
        # 2n - 64 has mixed signs: 2n == 64 is satisfiable, stay silent.
        assert not (n * SymDim.const(2)).provably_ne(SymDim.const(64))
        assert not n.provably_ne(SymDim.atom("m"))
        assert SymDim.const(3).provably_ne(SymDim.const(4))

    def test_floordiv_exact_vs_opaque(self):
        n = SymDim.atom("n")
        assert (n * SymDim.const(8)).floordiv(SymDim.const(4)) == n * SymDim.const(2)
        opaque = n.floordiv(SymDim.const(4))
        assert opaque.atoms() == {"(n)//(4)"}
        # The same expression canonicalizes to the same opaque atom.
        assert opaque == n.floordiv(SymDim.const(4))

    def test_subst(self):
        expr = sym_from_dim("n*2+1", lambda s: SymDim.atom(s))
        assert expr is not None
        assert expr.subst({"n": SymDim.const(5)}) == SymDim.const(11)

    def test_unify_rank_mismatch(self):
        binding: dict[str, SymDim] = {}
        msg = unify_dims(("n", "64"), (SymDim.atom("a"),), binding)
        assert msg is not None and "rank mismatch" in msg

    def test_unify_binds_then_checks(self):
        a = SymDim.atom("a")
        binding: dict[str, SymDim] = {}
        assert unify_dims(("n",), (a,), binding) is None
        assert binding["n"] == a
        # Second use of n must now be consistent with the binding.
        msg = unify_dims(("n*2",), (a * SymDim.const(3),), binding)
        assert msg is not None and "axis 0" in msg


class TestClassifyAnnotation:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("np.ndarray", "array"),
            ("BitArray", "array"),
            ("np.ndarray | list[int]", "array"),
            ("Sequence[np.ndarray]", "seq"),
            ("Sequence[np.ndarray] | np.ndarray", "seq"),
            ("list[int]", "other"),
            ("int", "other"),
            ("Optional[np.ndarray]", "array"),
        ],
    )
    def test_kinds(self, text, expected):
        node = ast.parse(text, mode="eval").body
        assert classify_annotation(node) == expected

    def test_unannotated_is_unknown(self):
        assert classify_annotation(None) == "unknown"


# ----------------------------------------------------------------------
# S001: call-site shape incompatibility
# ----------------------------------------------------------------------
class TestS001:
    def test_literal_axis_mismatch_fires(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("n,64 ->")
            def callee(x: np.ndarray) -> None:
                ...

            @contracts.shapes("m,32 ->")
            def caller(x: np.ndarray) -> None:
                callee(x)
        """
        result = _analyze(tmp_path, src)
        assert [f.code for f in result.findings] == ["S001"]
        (finding,) = result.findings
        assert "callee()" in finding.message
        assert "(m, 32)" in finding.message  # symbolic caller shape named

    def test_arity_mismatch_fires(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("n ; n ->")
            def callee(a: np.ndarray, b: np.ndarray) -> None:
                ...

            @contracts.shapes("m ->")
            def caller(x: np.ndarray) -> None:
                callee(x, 3)
        """
        result = _analyze(tmp_path, src)
        assert [f.code for f in result.findings] == ["S001"]
        assert "declares 2 array argument(s), call passes 1" in result.findings[0].message

    def test_symbol_binding_consistency_fires(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("p ; p*3 ->")
            def callee(a: np.ndarray, b: np.ndarray) -> None:
                ...

            @contracts.shapes("m ; m*2 ->")
            def caller(a: np.ndarray, b: np.ndarray) -> None:
                callee(a, b)
        """
        assert _codes(tmp_path, src) == ["S001"]

    def test_matching_shapes_ok(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("n,64 ->")
            def callee(x: np.ndarray) -> None:
                ...

            @contracts.shapes("m,64 ->")
            def caller(x: np.ndarray) -> None:
                callee(x)
        """
        assert _codes(tmp_path, src) == []

    def test_out_spec_propagates_through_locals(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("m -> m*2")
            def grow(x: np.ndarray) -> np.ndarray:
                ...

            @contracts.shapes("p ; p*3 ->")
            def eat(a: np.ndarray, b: np.ndarray) -> None:
                ...

            @contracts.shapes("n ->")
            def caller(x: np.ndarray) -> None:
                y = grow(x)
                eat(x, y)
        """
        result = _analyze(tmp_path, src)
        assert [f.code for f in result.findings] == ["S001"]
        # The propagated symbolic shape appears in the message.
        assert "2*n" in result.findings[0].message

    def test_rebound_in_branch_degrades_to_unknown(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("n,64 ->")
            def callee(x: np.ndarray) -> None:
                ...

            @contracts.shapes("m,32 ->")
            def caller(x: np.ndarray, flag: int) -> None:
                if flag:
                    x = make()
                callee(x)
        """
        assert _codes(tmp_path, src) == []

    def test_loop_rebinding_kills_shape(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("n,64 ->")
            def callee(x: np.ndarray) -> None:
                ...

            @contracts.shapes("m,32 ->")
            def caller(x: np.ndarray, items: list) -> None:
                for x in items:
                    pass
                callee(x)
        """
        assert _codes(tmp_path, src) == []

    def test_wildcard_dim_absorbs(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("_,64 ->")
            def callee(x: np.ndarray) -> None:
                ...

            @contracts.shapes("m,64 ->")
            def caller(x: np.ndarray) -> None:
                callee(x)
        """
        assert _codes(tmp_path, src) == []


# ----------------------------------------------------------------------
# S002: call-site dtype mismatch / widening
# ----------------------------------------------------------------------
class TestS002:
    def _src(self, caller_dtype: str, callee_dtype: str) -> str:
        return f"""\
            import numpy as np
            from repro.core import contracts

            @contracts.dtypes(np.{callee_dtype})
            def callee(x: np.ndarray) -> None:
                ...

            @contracts.dtypes(np.{caller_dtype})
            def caller(x: np.ndarray) -> None:
                callee(x)
        """

    def test_mismatch_fires(self, tmp_path):
        assert _codes(tmp_path, self._src("uint8", "float64")) == ["S002"]

    def test_widening_fires_and_is_named(self, tmp_path):
        result = _analyze(tmp_path, self._src("float32", "float64"))
        assert [f.code for f in result.findings] == ["S002"]
        assert "widening" in result.findings[0].message

    def test_exact_match_ok(self, tmp_path):
        assert _codes(tmp_path, self._src("uint8", "uint8")) == []


# ----------------------------------------------------------------------
# S004: contract coverage on public entry points
# ----------------------------------------------------------------------
class TestS004:
    SRC = """\
        import numpy as np

        def modulate(payload: np.ndarray) -> None:
            ...
    """

    def test_uncontracted_entry_point_fires(self, tmp_path):
        result = _analyze(tmp_path, self.SRC, strict=True)
        assert [f.code for f in result.findings] == ["S004"]
        assert "modulate()" in result.findings[0].message

    def test_outside_strict_dirs_silent(self, tmp_path):
        assert _codes(tmp_path, self.SRC) == []

    def test_contract_satisfies(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.dtypes(np.uint8)
            def modulate(payload: np.ndarray) -> None:
                ...
        """
        assert _codes(tmp_path, src, strict=True) == []

    def test_no_array_params_exempt(self, tmp_path):
        src = """\
            def modulate(config: int) -> None:
                ...
        """
        assert _codes(tmp_path, src, strict=True) == []


# ----------------------------------------------------------------------
# S005: contract-derivable in-function shape errors
# ----------------------------------------------------------------------
class TestS005:
    def test_impossible_reshape_fires(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("4,8 ->")
            def f(x: np.ndarray):
                return x.reshape(3, 11)
        """
        result = _analyze(tmp_path, src)
        assert [f.code for f in result.findings] == ["S005"]
        assert "32" in result.findings[0].message and "33" in result.findings[0].message

    def test_valid_reshape_ok(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("4,8 ->")
            def f(x: np.ndarray):
                return x.reshape(2, 16)
        """
        assert _codes(tmp_path, src) == []

    def test_symbolic_reshape_undecidable_stays_silent(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("n,3 ->")
            def f(x: np.ndarray):
                return x.reshape(-1, 4)
        """
        assert _codes(tmp_path, src) == []

    def test_stack_axis_disagreement_fires(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("n,4 ; n,5 ->")
            def f(a: np.ndarray, b: np.ndarray):
                return np.stack([a, b])
        """
        assert _codes(tmp_path, src) == ["S005"]

    def test_matmul_inner_dims_fire(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("n,4 ; 5,m ->")
            def f(a: np.ndarray, b: np.ndarray):
                return a @ b
        """
        assert _codes(tmp_path, src) == ["S005"]

    def test_matmul_symbol_match_ok(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("n,k ; k,m ->")
            def f(a: np.ndarray, b: np.ndarray):
                return a @ b
        """
        assert _codes(tmp_path, src) == []

    def test_return_contradicts_own_contract(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("n -> n*2")
            def f(x: np.ndarray):
                return x
        """
        result = _analyze(tmp_path, src)
        assert [f.code for f in result.findings] == ["S005"]
        assert "own contract" in result.findings[0].message


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------
class TestPragmas:
    BAD_CALL = """\
        import numpy as np
        from repro.core import contracts

        @contracts.shapes("n,64 ->")
        def callee(x: np.ndarray) -> None:
            ...

        @contracts.shapes("m,32 ->")
        def caller(x: np.ndarray) -> None:
            callee(x){pragma}
    """

    def test_line_pragma_suppresses(self, tmp_path):
        src = self.BAD_CALL.format(pragma="  # reproshape: disable=S001")
        assert _codes(tmp_path, src) == []

    def test_wrong_code_keeps(self, tmp_path):
        src = self.BAD_CALL.format(pragma="  # reproshape: disable=S005")
        assert _codes(tmp_path, src) == ["S001"]

    def test_file_pragma_suppresses(self, tmp_path):
        src = "# reproshape: disable-file=S001\n" + textwrap.dedent(
            self.BAD_CALL.format(pragma="")
        )
        _write(tmp_path, src)
        assert [f.code for f in analyze_paths([str(tmp_path)]).findings] == []

    def test_other_tools_pragmas_ignored(self, tmp_path):
        src = self.BAD_CALL.format(pragma="  # reproflow: disable=S001")
        assert _codes(tmp_path, src) == ["S001"]


# ----------------------------------------------------------------------
# select
# ----------------------------------------------------------------------
class TestSelect:
    SRC = """\
        import numpy as np
        from repro.core import contracts

        @contracts.shapes("n -> n*2")
        def stretch(x: np.ndarray) -> np.ndarray:
            return x

        def modulate(payload: np.ndarray) -> None:
            ...
    """

    def test_select_filters(self, tmp_path):
        assert _codes(tmp_path, self.SRC, strict=True, select=("S005",)) == ["S005"]
        assert sorted(_codes(tmp_path, self.SRC, strict=True, select=("S",))) == [
            "S004",
            "S005",
        ]

# ----------------------------------------------------------------------
# the JSON report and its shape table
# ----------------------------------------------------------------------
class TestReport:
    def test_report_structure(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("n -> n*2")
            @contracts.dtypes(np.uint8, out=np.uint8)
            def stretch(x: np.ndarray) -> np.ndarray:
                ...
        """
        result = _analyze(tmp_path, src)
        report = build_report(result)
        assert report["tool"] == "reproshape"
        assert set(report["rules"]) == set(RULES)
        assert report["summary"]["findings"] == 0
        assert report["summary"]["functions_contracted"] == 1
        (entry,) = report["shape_table"]
        assert entry["function"].endswith(".stretch")
        assert entry["shapes"] == "n -> n*2"
        assert entry["args"] == [{"dims": ["n"]}]
        assert entry["out"] == ["n*2"]
        assert entry["dtypes"] == {"args": ["uint8"], "out": "uint8"}
        assert entry["params"] == ["x"]
        json.dumps(report)  # must be serializable as-is

    def test_unparsable_contract_spec_is_an_error(self, tmp_path):
        src = """\
            import numpy as np
            from repro.core import contracts

            @contracts.shapes("n -> [b]")
            def f(x: np.ndarray):
                return x
        """
        result = _analyze(tmp_path, src)
        ((path, line, _),) = result.errors
        assert path.endswith("mod.py") and line == 4
        assert build_report(result)["summary"]["errors"] == 1


# ----------------------------------------------------------------------
# CLI: exit codes and the JSON report
# ----------------------------------------------------------------------
class TestCli:
    tool = cli_contract.TOOLS["reproshape"]

    def test_list_rules(self):
        cli_contract.check_list_rules(self.tool)

    def test_clean_file_exits_zero(self, tmp_path):
        cli_contract.check_clean_exits_zero(self.tool, tmp_path)

    def test_findings_exit_one(self, tmp_path):
        cli_contract.check_findings_exit_one(self.tool, tmp_path)

    def test_not_utf8_exits_two(self, tmp_path):
        cli_contract.check_not_utf8_exits_two(self.tool, tmp_path)

    def test_parse_error_exits_two(self, tmp_path):
        cli_contract.check_parse_error_exits_two(self.tool, tmp_path)
        # a contract spec that does not parse is a parse error too
        spec_error = cli_contract.SHAPE_FIRING.replace("n -> n*2", "n -> [b]")
        spec_dir = cli_contract.fixture(tmp_path / "spec", spec_error)
        proc = cli_contract.run(self.tool, spec_dir)
        assert proc.returncode == 2
        assert "parse error" in proc.stderr

    def test_json_format(self, tmp_path):
        cli_contract.check_json_report(self.tool, tmp_path)


# ----------------------------------------------------------------------
# repo-wide self-checks
# ----------------------------------------------------------------------
class TestRepoClean:
    @pytest.fixture(scope="class")
    def result(self):
        return analyze_paths([str(_REPO_ROOT / "src" / "repro")])

    def test_src_repro_verifies_clean(self, result):
        assert [f.render() for f in result.findings] == []
        assert result.errors == []

    def test_shape_table_covers_known_kernels(self, result):
        by_fn = {e["function"]: e for e in result.table}
        assert by_fn["repro.phy.wifi_b._cck_codewords"]["out"] == ["n", "8"]
