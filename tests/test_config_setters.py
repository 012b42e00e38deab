"""Every field of a ``*Config`` dataclass under ``src/repro`` has a setter.

A field that neither the program nor any of its entry points (the
examples, the benchmark harness, the tools and the paper-claim tests;
see :mod:`tests.test_reachability`) ever passes is a setting that
selects nothing: the value it holds is a constant, and every branch on
another value is code the program never runs.  Fold such a field into
a module constant rather than keep it alive through unit tests alone.

A field counts as set when a call passes it by keyword or by position
to the class (``cls(...)`` in its own classmethods included), or by
keyword to ``dataclasses.replace``.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

from tests.test_reachability import _ENTRY_GLOBS, _ROOT, _SRC

#: Fields no entry point sets that stay on purpose, with why.
_UNSET_ON_PURPOSE = {
    "GatewayConfig.keepalive_interval_s": (
        "fault detection: the sweep's period; the gateway tests shorten it "
        "so a silenced tag is evicted within a test"
    ),
    "GatewayConfig.stall_timeout_s": (
        "fault detection: how long a blocked subscriber may stall the "
        "publisher before it is evicted"
    ),
    "GatewayConfig.decode_timeout_s": (
        "recovery: the budget after which a hung decode worker is replaced; "
        "the fault tests set it to catch an injected hang"
    ),
    "GatewayConfig.decode_retries": (
        "recovery: resubmissions a decode batch gets after a worker crash "
        "or hang; the fault tests exhaust it"
    ),
}


def _program_files() -> list[Path]:
    files = sorted((_SRC / "repro").rglob("*.py"))
    for pattern in _ENTRY_GLOBS:
        files += sorted(_ROOT.glob(pattern))
    return files


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", "")
        if name == "dataclass":
            return True
    return False


def _configs() -> dict[str, list[str]]:
    """Every ``*Config`` dataclass under ``src/repro``: name -> fields."""
    out = {}
    for path in sorted((_SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                if _is_dataclass(node):
                    out[node.name] = [
                        stmt.target.id
                        for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    ]
    return out


def _callee(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


@functools.lru_cache(maxsize=1)
def _unset_fields() -> tuple[str, ...]:
    configs = _configs()
    set_fields: set[tuple[str, str]] = set()

    def record(cls_name: str, call: ast.Call) -> None:
        fields = configs[cls_name]
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            if i < len(fields):
                set_fields.add((cls_name, fields[i]))
        set_fields.update((cls_name, kw.arg) for kw in call.keywords if kw.arg)

    for path in _program_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own_class = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name in configs:
                for node in ast.walk(cls):
                    own_class[id(node)] = cls.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node.func)
            if name in configs:
                record(name, node)
            elif name == "cls" and id(node) in own_class:
                record(own_class[id(node)], node)
            elif name == "replace":
                for kw in node.keywords:
                    set_fields.update((c, kw.arg) for c, f in configs.items() if kw.arg in f)
    return tuple(
        f"{c}.{f}" for c, fields in sorted(configs.items()) for f in fields
        if (c, f) not in set_fields
    )


def test_every_config_field_has_a_setter():
    unset = [f for f in _unset_fields() if f not in _UNSET_ON_PURPOSE]
    assert not unset, (
        "config fields nothing but tests set (make each a module constant, or "
        f"set it from a real consumer): {', '.join(unset)}"
    )


def test_fields_unset_on_purpose_are_still_unset():
    assert set(_UNSET_ON_PURPOSE) <= set(_unset_fields())
