"""Every module and public name under ``src/repro`` has a real consumer.

The static import graph is built with :mod:`ast` (imports inside
functions count too) from the program's entry points: the CLI, the
gateway, every registered experiment module, the examples, the
benchmark harness, the tools and the paper-claim tests.  A module
outside that graph, or a public name none of them reaches, is code the
program never runs; delete it rather than keep it alive through its
unit tests alone.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

from repro.experiments import registry

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"

_ENTRY_MODULES = ("repro.cli", "repro.__main__", "repro.gateway")
_ENTRY_GLOBS = ("examples/*.py", "perfbench/*.py", "tools/**/*.py", "tests/paper/*.py")

#: Public names no entry point uses that stay on purpose, with why.
_UNUSED_ON_PURPOSE = {
    "repro.core.contracts.checked": (
        "the contract tests' always-on wrapper; the program's own "
        "contracts are the REPRO_CONTRACTS-gated decorators"
    ),
}


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


def _defined(stmt: ast.stmt) -> set[str]:
    """Names a module-level statement defines (imports do not count)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _registers(stmt: ast.stmt) -> bool:
    """Is ``stmt`` an experiment the registry runs (``@implements(...)``)?"""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "implements"
        for d in getattr(stmt, "decorator_list", ())
    )


def _walk_code(node: ast.AST):
    """:func:`ast.walk` without annotation subtrees (argument, return and
    variable annotations, string annotations included): a name the
    program only names as a type never runs."""
    todo = [node]
    while todo:
        node = todo.pop()
        yield node
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            if isinstance(value, ast.AST):
                todo.append(value)
            elif isinstance(value, list):
                todo.extend(v for v in value if isinstance(v, ast.AST))


def _type_only(stmt: ast.stmt) -> bool:
    """Is ``stmt`` a definition that exists for annotations alone: a
    ``TypeVar`` or a module-level ``A | B`` alias?"""
    if not isinstance(stmt, ast.Assign):
        return False
    value = stmt.value
    if isinstance(value, ast.Call):
        func = value.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")) == "TypeVar"
    return isinstance(value, ast.BinOp) and isinstance(value.op, ast.BitOr)


def _uses(stmts: list[ast.stmt], in_init: bool) -> tuple[set[str], set[str]]:
    """``(names, anywhere)`` that ``stmts`` use: bare-name loads, which a
    module's own definition of that name shadows, and attribute names,
    dotted-identifier strings and the original names of aliased imports,
    which count for every definition so named.  ``__all__`` entries, a
    package ``__init__``'s imports and annotations are not uses."""
    names: set[str] = set()
    anywhere: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            continue
        for node in _walk_code(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                anywhere.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    anywhere.update(parts)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and not in_init:
                anywhere.update(a.name.rsplit(".", 1)[-1] for a in node.names if a.asname)
    return names, anywhere


@functools.lru_cache(maxsize=1)
def _unused_public_names() -> tuple[str, ...]:
    files = _module_files()
    trees = {m: ast.parse(path.read_text(encoding="utf-8")) for m, path in files.items()}
    own = {m: set().union(*map(_defined, tree.body)) for m, tree in trees.items()}
    by_name: dict[str, set[str]] = {}
    for module, names in own.items():
        for name in names:
            by_name.setdefault(name, set()).add(module)

    def targets(module: str | None, local: set[str], uses: tuple[set[str], set[str]]):
        names, anywhere = uses
        out = {(module, n) for n in names & local}
        for n in (names - local) | anywhere:
            out.update((m, n) for m in by_name.get(n, ()))
        return out

    todo: set[tuple[str | None, str]] = set()
    for pattern in _ENTRY_GLOBS:
        for path in sorted(_ROOT.glob(pattern)):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            local = set().union(*map(_defined, tree.body))
            todo |= targets(None, local, _uses(tree.body, False))
    for module, tree in trees.items():
        # Module-level code runs on import; registered experiments run
        # from the registry.
        roots = [s for s in tree.body if not _defined(s) or _registers(s)]
        in_init = files[module].name == "__init__.py"
        todo |= targets(module, own[module], _uses(roots, in_init))
        todo |= {(module, n) for s in roots if _registers(s) for n in _defined(s)}
    # A definition's body counts only once something uses the name.
    live: set[tuple[str | None, str]] = set()
    while todo:
        key = todo.pop()
        live.add(key)
        module, name = key
        if module is None:
            continue
        stmts = [s for s in trees[module].body if name in _defined(s)]
        in_init = files[module].name == "__init__.py"
        todo |= targets(module, own[module], _uses(stmts, in_init)) - live
    type_only = {
        (m, n)
        for m, tree in trees.items()
        for stmt in tree.body
        if _type_only(stmt)
        for n in _defined(stmt)
    }
    return tuple(sorted(
        f"{m}.{n}"
        for m, names in own.items()
        for n in names
        if not n.startswith("_") and (m, n) not in live | type_only
    ))


def test_every_public_name_has_a_user():
    """A module-level public function, class or constant under
    ``src/repro`` that no entry point reaches is dead code.

    A name is reached when an entry point's code, or the body of a name
    already reached, loads it outside an annotation; a module's own
    definition of a name shadows every other module's.  Type-only
    definitions (a ``TypeVar``, an ``A | B`` alias) are exempt as a kind,
    since annotations are their only use.  Methods are not guarded: their
    names collide across classes (every PHY has a ``modulate``), so an
    attribute use cannot tell which class it reaches.
    """
    unused = [n for n in _unused_public_names() if n not in _UNUSED_ON_PURPOSE]
    assert not unused, (
        "public names no entry point uses (delete them, or use them from "
        f"a real consumer): {', '.join(unused)}"
    )


def test_names_unused_on_purpose_are_few_and_still_unused():
    assert len(_UNUSED_ON_PURPOSE) <= 2
    assert set(_UNUSED_ON_PURPOSE) <= set(_unused_public_names())
