"""Every value the program stores under ``src/repro`` has a reader.

A stored value is a dataclass field or an attribute a method assigns
on ``self``.  It is read when the program or one of its entry points
(the examples, the benchmark harness, the tools and the paper-claim
tests; see :mod:`tests.test_reachability`) loads an attribute of that
name or passes the name to ``getattr``.  A value only tests read is
work every run pays for and nothing uses: delete it, together with the
computation that only fed it.

Two kinds of class are exempt: the experiment parameter dataclasses,
which the registry reads field by field through ``dataclasses.fields``,
and the dataclasses the artifact codec serializes the same way
(``artifacts._DATACLASS_TYPES``).

Blind spots: reads are matched by name alone, so a field is missed
when any class reads an attribute of the same name (a result's
``rate_mbps`` reads as used while ``WifiBConfig.rate_mbps`` is read),
when the field's only reader is its own update
(``self.x = self.x + 1``), and when its only load mutates it
(``self.seen.append(x)``).  An augmented assignment (``self.x += 1``)
is a store, not a read.
"""

from __future__ import annotations

import ast
import functools

from repro.experiments import artifacts, registry
from tests.test_config_setters import _is_dataclass, _program_files
from tests.test_reachability import _SRC

#: Classes whose unread fields stay on purpose, with why.
_UNREAD_ON_PURPOSE = {
    "PacketEvent": (
        "the gateway's published record: its readers are the subscribers, "
        "outside the program"
    ),
    "ControlEvent": (
        "the control plane's published record: its readers are the "
        "subscribers, outside the program"
    ),
    "GatewayStats": (
        "what serve returns to its caller; the caller reads the counters"
    ),
}


def _self_stores(method: ast.AST) -> set[str]:
    """Attribute names ``method`` assigns on ``self``."""
    names = set()
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
    return names


def _stored() -> dict[str, set[str]]:
    """Every class under ``src/repro``: name -> the values it stores."""
    out: dict[str, set[str]] = {}
    for path in sorted((_SRC / "repro").rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            fields = out.setdefault(cls.name, set())
            if _is_dataclass(cls):
                fields.update(
                    stmt.target.id
                    for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)
                )
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fields |= _self_stores(stmt)
    return out


def _read_names() -> set[str]:
    """Attribute names the program and its entry points load."""
    names = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                names.add(node.args[1].value)
    return names


def _exempt() -> set[str]:
    return {spec.params_type.__name__ for spec in registry.specs()} | set(
        artifacts._DATACLASS_TYPES
    )


@functools.lru_cache(maxsize=1)
def _unread() -> tuple[str, ...]:
    read = _read_names()
    exempt = _exempt()
    return tuple(
        f"{cls}.{name}"
        for cls, fields in sorted(_stored().items())
        if cls not in exempt
        for name in sorted(fields - read)
    )


def test_every_stored_value_has_a_reader():
    unread = [f for f in _unread() if f.split(".")[0] not in _UNREAD_ON_PURPOSE]
    assert not unread, (
        "values the program stores but never reads (delete them and the work "
        f"that feeds them, or read them from a real consumer): {', '.join(unread)}"
    )


def test_classes_unread_on_purpose_are_few_and_still_unread():
    assert len(_UNREAD_ON_PURPOSE) <= 3
    owners = {f.split(".")[0] for f in _unread()}
    assert set(_UNREAD_ON_PURPOSE) <= owners
