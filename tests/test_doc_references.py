"""Every ``repro`` name the prose docs cite resolves in the package.

Checked: each backticked dotted name that starts with ``repro.``, each
``from repro... import ...`` line, and each attribute a python code
block (or a ``python - <<'EOF'`` heredoc) uses on a ``repro`` module it
imports, in README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md.  A doc
that names a deleted module, class or function fails here instead of
misleading a reader.
"""

from __future__ import annotations

import ast
import importlib
import re
import textwrap
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_DOCS = [_ROOT / n for n in ("README.md", "DESIGN.md", "EXPERIMENTS.md")] + sorted(
    (_ROOT / "docs").glob("*.md")
)

_BACKTICKED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")
_FROM_IMPORT = re.compile(r"^\s*from (repro(?:\.\w+)*) import ([^#\n]+)", re.MULTILINE)
_CODE_BLOCK = re.compile(r"^( *)```(?:python|py)\n(.*?)^\1```", re.MULTILINE | re.DOTALL)
_HEREDOC = re.compile(r"python3? - <<'(\w+)'\n(.*?)^\1$", re.MULTILINE | re.DOTALL)


def _code_blocks(text: str) -> list[tuple[int, str]]:
    """``(line, source)`` of each python code block and heredoc of one doc."""
    blocks = [(m, textwrap.dedent(m.group(2))) for m in _CODE_BLOCK.finditer(text)]
    blocks += [(m, m.group(2)) for m in _HEREDOC.finditer(text)]
    return [(text.count("\n", 0, m.start()) + 1, source) for m, source in blocks]


def _is_module(dotted: str) -> bool:
    try:
        importlib.import_module(dotted)
    except ModuleNotFoundError:
        return False
    return True


def _module_attributes(tree: ast.AST) -> list[str]:
    """Dotted names of the attributes ``tree`` uses on the ``repro``
    modules it imports (``registry.get_spec`` after ``from
    repro.experiments import registry``)."""
    modules: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    bound = alias.asname or "repro"
                    modules[bound] = alias.name if alias.asname else "repro"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                if _is_module(f"{node.module}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts = []
            value: ast.expr = node
            while isinstance(value, ast.Attribute):
                parts.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in modules:
                names.append(".".join([modules[value.id], *reversed(parts)]))
    return names


def _scan() -> tuple[list[tuple[str, str]], list[str]]:
    """``(where, dotted name)`` for every cited name, and where each
    python code block that does not parse starts."""
    refs, unparsed = [], []
    for path in _DOCS:
        text = path.read_text(encoding="utf-8")
        for match in _BACKTICKED.finditer(text):
            refs.append((path.name, match.group(1)))
        for match in _FROM_IMPORT.finditer(text):
            names = match.group(2).strip().strip("()")
            for name in names.split(","):
                name = name.split(" as ")[0].strip()
                if name:
                    refs.append((path.name, f"{match.group(1)}.{name}"))
        for line, source in _code_blocks(text):
            try:
                tree = compile(
                    source, path.name, "exec",
                    ast.PyCF_ONLY_AST | ast.PyCF_ALLOW_TOP_LEVEL_AWAIT,
                )
            except SyntaxError:
                unparsed.append(f"{path.name}:{line}")
                continue
            refs.extend((path.name, name) for name in _module_attributes(tree))
    return refs, unparsed


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                # ``from pkg import sub`` names a submodule not yet imported.
                try:
                    obj = importlib.import_module(f"{obj.__name__}.{attr}")
                except (AttributeError, ModuleNotFoundError):
                    return False
            else:
                obj = getattr(obj, attr)
        return True
    return False


_REFS, _UNPARSED = _scan()


def test_docs_cite_repro_names():
    assert len(_REFS) > 50


def test_python_code_blocks_parse():
    # A block that does not parse hides its module attributes from the scan.
    assert not _UNPARSED, f"python code blocks that do not parse: {', '.join(_UNPARSED)}"


def test_code_blocks_are_scanned():
    # Only the code-block scan sees API.md's ``registry.get_spec(...)``
    # call, so a scan that read no block fails here.
    assert ("API.md", "repro.experiments.registry.get_spec") in _REFS


@pytest.mark.parametrize(("where", "dotted"), sorted(set(_REFS)))
def test_reference_resolves(where, dotted):
    assert _resolves(dotted), f"{where} names {dotted}, which does not exist"
