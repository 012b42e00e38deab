"""Every module under ``src/repro`` is reachable from a real consumer.

The static import graph is built with :mod:`ast` (imports inside
functions count too) from the program's entry points: the CLI, the
gateway, every registered experiment module, the examples, the
benchmark harness and the paper-claim tests.  A module outside that
graph is code the program never runs; delete it rather than keep it
alive through its unit tests alone.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.experiments import registry

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"

_ENTRY_MODULES = ("repro.cli", "repro.__main__", "repro.gateway")
_ENTRY_GLOBS = ("examples/*.py", "perfbench/*.py", "tests/paper/*.py")


def _module_files() -> dict[str, Path]:
    files = {}
    for path in sorted((_SRC / "repro").rglob("*.py")):
        parts = path.relative_to(_SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def _imported_names(path: Path, module: str | None, is_package: bool) -> set[str]:
    """Dotted names that ``path`` imports, at any nesting depth."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = (module or "").split(".")
                if not is_package:
                    package = package[:-1]
                package = package[: len(package) - (node.level - 1)]
                base = ".".join(package + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _reachable(files: dict[str, Path]) -> set[str]:
    def known(names: set[str]) -> set[str]:
        # Importing ``a.b.c`` runs ``a`` and ``a.b`` first.
        out = set()
        for name in names:
            parts = name.split(".")
            out.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        return out & files.keys()

    roots = set(_ENTRY_MODULES) | {spec.module for spec in registry.specs()}
    for pattern in _ENTRY_GLOBS:
        for path in sorted(_ROOT.glob(pattern)):
            roots |= _imported_names(path, None, False)
    seen: set[str] = set()
    todo = known(roots)
    while todo:
        module = todo.pop()
        seen.add(module)
        path = files[module]
        names = _imported_names(path, module, path.name == "__init__.py")
        todo |= known(names) - seen
    return seen


def test_every_module_is_reachable_from_an_entry_point():
    files = _module_files()
    unreached = sorted(files.keys() - _reachable(files))
    assert not unreached, (
        "modules no entry point imports (delete them, or import them from "
        f"a real consumer): {', '.join(unreached)}"
    )


def test_entry_points_exist():
    files = _module_files()
    assert set(_ENTRY_MODULES) <= files.keys()
    for pattern in _ENTRY_GLOBS:
        assert list(_ROOT.glob(pattern)), pattern
