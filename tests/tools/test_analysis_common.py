"""Self-tests for the shared analyzer scaffolding in tools/analysis_common.

All four analyzers build on these primitives, so the semantics pinned
here (pragma grammar, the select/pragma filter, exit codes, --select
parsing) are load-bearing for every CLI at once.
"""

from tools.analysis_common import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    FILE_PRAGMA_MAX_LINE,
    Finding,
    filter_findings,
    is_code_suppressed,
    parse_select,
    parse_suppressions,
    selected_by_prefix,
)


class TestParseSuppressions:
    def test_line_pragma(self):
        per_line, per_file = parse_suppressions(
            "x = 1\ny = 2  # mytool: disable=X001,X002\n", "mytool"
        )
        assert per_line == {2: {"X001", "X002"}}
        assert per_file == set()

    def test_file_pragma_within_header(self):
        per_line, per_file = parse_suppressions(
            "# mytool: disable-file=X001\nx = 1\n", "mytool"
        )
        assert per_file == {"X001"}

    def test_file_pragma_after_header_ignored(self):
        source = "\n" * FILE_PRAGMA_MAX_LINE + "# mytool: disable-file=X001\n"
        _, per_file = parse_suppressions(source, "mytool")
        assert per_file == set()

    def test_tool_marker_is_exact(self):
        per_line, per_file = parse_suppressions(
            "x = 1  # othertool: disable=X001\n", "mytool"
        )
        assert per_line == {} and per_file == set()

    def test_combined_clauses_on_one_line(self):
        per_line, per_file = parse_suppressions(
            "import os  # mytool: disable=X001 disable-file=X002\n", "mytool"
        )
        assert per_line == {1: {"X001"}}
        assert per_file == {"X002"}


class TestIsCodeSuppressed:
    def test_per_line_and_per_file(self):
        per_line = {3: {"X001"}}
        assert is_code_suppressed("X001", 3, per_line, set())
        assert not is_code_suppressed("X001", 4, per_line, set())
        assert not is_code_suppressed("X002", 3, per_line, set())
        assert is_code_suppressed("X002", 9, {}, {"X002"})

    def test_disable_all(self):
        assert is_code_suppressed("X777", 5, {5: {"all"}}, set())
        assert is_code_suppressed("X777", 1, {}, {"all"})


class TestFilterFindings:
    def test_select_pragmas_and_order(self):
        late = Finding("src/a.py", 9, 0, "X001", "late")
        silenced = Finding("src/a.py", 2, 0, "X001", "silenced")
        unselected = Finding("src/a.py", 3, 0, "Y001", "unselected")
        elsewhere = Finding("src/b.py", 1, 4, "X002", "no source, no pragmas")
        sources = {"src/a.py": "\nx = 1  # mytool: disable=X001\n"}
        kept = filter_findings(
            [elsewhere, late, silenced, unselected], "mytool", sources, ("X",)
        )
        assert kept == [late, elsewhere]


class TestCliHelpers:
    def test_exit_codes(self):
        assert (EXIT_CLEAN, EXIT_FINDINGS, EXIT_ERROR) == (0, 1, 2)

    def test_parse_select(self):
        assert parse_select(None) is None
        assert parse_select("") is None
        assert parse_select("X001") == ("X001",)
        assert parse_select(" X001 , X002 ") == ("X001", "X002")

    def test_selected_by_prefix(self):
        assert selected_by_prefix("X001", None)
        assert selected_by_prefix("X001", ("X",))
        assert selected_by_prefix("X001", ("X001",))
        assert not selected_by_prefix("X001", ("Y",))
