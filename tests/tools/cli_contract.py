"""The CLI contract all four analyzers share (tools/analysis_common/cli.py).

Written once here and bound per tool by each tool's ``TestCli``:
``--list-rules`` prints the whole rule catalog; a clean fixture exits 0,
a firing one exits 1 and names its rule, a file that does not parse
or is not UTF-8 exits 2; and for the analyzers with a JSON report, ``--format=json``
carries the finding, no suppression bookkeeping, and the tool's own
structures (call graph, shape table, proofs).
"""

import json
import pathlib
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

from tools import reproasync, reproflow, reprolint, reproshape

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


@dataclass(frozen=True)
class Tool:
    name: str
    rules: dict[str, str]
    clean: str
    firing: str
    #: the one rule ``firing`` trips
    code: str
    #: tool-specific checks of the ``--format=json`` report; ``None``
    #: for reprolint, which has no JSON report
    check_report: Callable[[dict], None] | None = None


def _reproflow_report(doc: dict) -> None:
    (fq,) = [k for k in doc["call_graph"] if k.endswith(".f")]
    assert doc["call_graph"][fq]["params"] == {"window_us": "us", "span_s": "s"}
    assert doc["worker_roots"] == []


def _reproshape_report(doc: dict) -> None:
    (entry,) = doc["shape_table"]
    assert entry["function"].endswith(".f")
    assert entry["shapes"] == "n -> n*2"
    assert doc["summary"]["functions_contracted"] == 1


def _reproasync_report(doc: dict) -> None:
    assert doc["summary"]["by_code"] == {"C001": 1}
    assert doc["call_graph"]["mod.f"]["is_async"] is True
    assert doc["proofs"] == []


SHAPE_FIRING = """\
import numpy as np
from repro.core import contracts

@contracts.shapes("n -> n*2")
def f(x: np.ndarray):
    return x
"""

TOOLS = {
    tool.name: tool
    for tool in (
        Tool(
            "reprolint",
            reprolint.RULES,
            clean="x = 1\n",
            firing="import numpy as np\nnp.random.seed(0)\n",
            code="R001",
        ),
        Tool(
            "reproflow",
            reproflow.RULES,
            clean="def f(window_us: float) -> float:\n    return window_us\n",
            firing="def f(window_us: float, span_s: float):\n    return window_us + span_s\n",
            code="U001",
            check_report=_reproflow_report,
        ),
        Tool(
            "reproshape",
            reproshape.RULES,
            clean="import numpy as np\n\ndef f(x: np.ndarray):\n    return x\n",
            firing=SHAPE_FIRING,
            code="S005",
            check_report=_reproshape_report,
        ),
        Tool(
            "reproasync",
            reproasync.RULES,
            clean="import asyncio\n\nasync def f():\n    await asyncio.sleep(0)\n",
            firing="import time\n\nasync def f():\n    time.sleep(1)\n",
            code="C001",
            check_report=_reproasync_report,
        ),
    )
}


def run(tool: Tool, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", f"tools.{tool.name}", *args],
        capture_output=True,
        text=True,
        cwd=_REPO_ROOT,
    )


def fixture(tmp_path: pathlib.Path, source: str) -> str:
    """A package directory holding one ``mod.py`` with ``source``."""
    pkg = tmp_path / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(source, encoding="utf-8")
    return str(pkg)


def check_list_rules(tool: Tool) -> None:
    listed = run(tool, "--list-rules")
    assert listed.returncode == 0
    assert [ln.split()[0] for ln in listed.stdout.splitlines()] == sorted(tool.rules)


def check_clean_exits_zero(tool: Tool, tmp_path: pathlib.Path) -> None:
    clean = run(tool, fixture(tmp_path, tool.clean))
    assert (clean.returncode, clean.stdout) == (0, ""), clean.stderr


def check_findings_exit_one(tool: Tool, tmp_path: pathlib.Path) -> None:
    firing = run(tool, fixture(tmp_path, tool.firing))
    assert firing.returncode == 1, firing.stderr
    assert f" {tool.code} " in firing.stdout


def check_parse_error_exits_two(tool: Tool, tmp_path: pathlib.Path) -> None:
    broken = run(tool, fixture(tmp_path, "def broken(:\n"))
    assert broken.returncode == 2
    assert "mod.py:1:1: parse error:" in broken.stderr


def check_not_utf8_exits_two(tool: Tool, tmp_path: pathlib.Path) -> None:
    pkg = pathlib.Path(fixture(tmp_path, tool.clean))
    (pkg / "latin.py").write_bytes('"""Latin-1."""\nx = "caf\u00e9"\n'.encode("latin-1"))
    proc = run(tool, str(pkg))
    assert proc.returncode == 2, proc.stderr
    assert "latin.py:2:1: parse error:" in proc.stderr
    assert "not valid UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


def check_json_report(tool: Tool, tmp_path: pathlib.Path) -> None:
    assert tool.check_report is not None
    proc = run(tool, fixture(tmp_path, tool.firing), "--format=json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["tool"] == tool.name
    assert doc["rules"] == tool.rules
    assert [f["code"] for f in doc["findings"]] == [tool.code]
    assert doc["summary"]["findings"] == 1
    assert "baselined" not in doc and "baselined" not in doc["summary"]
    assert all("fingerprint" not in f for f in doc["findings"])
    tool.check_report(doc)
