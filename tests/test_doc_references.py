"""Every ``repro`` name the prose docs cite resolves in the package.

Checked: each backticked dotted name that starts with ``repro.`` and
each ``from repro... import ...`` line in README.md, DESIGN.md,
EXPERIMENTS.md and docs/*.md.  A doc that names a deleted module,
class or function fails here instead of misleading a reader.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_DOCS = [_ROOT / n for n in ("README.md", "DESIGN.md", "EXPERIMENTS.md")] + sorted(
    (_ROOT / "docs").glob("*.md")
)

_BACKTICKED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")
_FROM_IMPORT = re.compile(r"^\s*from (repro(?:\.\w+)*) import ([^#\n]+)", re.MULTILINE)


def _references() -> list[tuple[str, str]]:
    """``(where, dotted name)`` for every cited name."""
    refs = []
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
    return refs


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


_REFS = _references()


def test_docs_cite_repro_names():
    assert len(_REFS) > 50


@pytest.mark.parametrize(("where", "dotted"), sorted(set(_REFS)))
def test_reference_resolves(where, dotted):
    assert _resolves(dotted), f"{where} names {dotted}, which does not exist"
