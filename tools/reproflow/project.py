"""Whole-program index: modules, functions, classes, imports, call graph.

Everything downstream (unit dataflow, purity/fork-safety) consumes
this index.  Resolution is deliberately *conservative*: a call edge is
recorded only when the callee can be identified syntactically —
module-level functions, ``from``-imports, ``module.func`` attribute
calls, ``self.method`` within a class, and methods on locals assigned
from a known project-class constructor.  Unresolvable calls simply
produce no edge (a linter must under-approximate, not guess).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from tools.analysis_common import read_source
from tools.reproflow.unitlattice import (
    ALIAS_UNITS,
    UnitTok,
    seed_from_name,
)

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "ProjectIndex",
    "unit_from_annotation",
    "module_name_for",
]

#: Unit suffixes trusted on *function* names (return-unit seeds).  A
#: conversion like ``bits_from_symbols`` must not inherit ``_symbols``,
#: so only value-noun suffixes are honored here.
_RETURN_SEED_SUFFIXES = (
    "_db",
    "_dbm",
    "_hz",
    "_khz",
    "_mhz",
    "_ghz",
    "_mw",
    "_w",
    "_v",
    "_mv",
    "_m",
    "_km",
    "_j",
    "_uj",
    "_kbps",
    "_mbps",
    "_us",
)

#: Marker constant names usable inline: ``Annotated[float, HZ]``.
_MARKER_NAMES: dict[str, str] = {
    "HZ": "Hertz",
    "S": "Seconds",
    "US": "Microseconds",
    "SAMPLES": "Samples",
    "CHIPS": "Chips",
    "SYMBOLS": "Symbols",
    "BITS": "Bits",
    "BYTES": "Bytes",
    "DB": "Decibels",
    "DBM": "DbmPower",
    "MILLIWATTS": "Milliwatts",
    "WATTS": "Watts",
    "VOLTS": "Volts",
    "METERS": "Meters",
    "RATIO": "Ratio",
}


def unit_from_annotation(node: ast.expr | None) -> UnitTok | None:
    """Extract a unit from an annotation expression, if any.

    Recognizes the alias names (``Hertz``, ``units.Hertz``), optional
    forms (``Hertz | None``, ``Optional[Hertz]``), and inline
    ``Annotated[float, HZ]`` with a marker constant.
    """
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return ALIAS_UNITS.get(node.id)
    if isinstance(node, ast.Attribute):
        return ALIAS_UNITS.get(node.attr)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: cheap textual match on the alias name.
        text = node.value.strip()
        for alias, unit in ALIAS_UNITS.items():
            if text == alias or text.startswith(alias + " |") or text.endswith("." + alias):
                return unit
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return unit_from_annotation(node.left) or unit_from_annotation(node.right)
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else ""
        )
        if base_name == "Optional":
            return unit_from_annotation(node.slice)
        if base_name == "Annotated":
            sl = node.slice
            if isinstance(sl, ast.Tuple) and len(sl.elts) >= 2:
                marker = sl.elts[1]
                marker_name = marker.id if isinstance(marker, ast.Name) else (
                    marker.attr if isinstance(marker, ast.Attribute) else ""
                )
                alias = _MARKER_NAMES.get(marker_name)
                if alias is not None:
                    return ALIAS_UNITS.get(alias)
    return None


def _dotted(node: ast.expr) -> str:
    """``a.b.c`` attribute chains -> the dotted string ('' otherwise)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def module_name_for(path: str) -> str:
    """Dotted module name by ascending while ``__init__.py`` exists."""
    path = os.path.abspath(path)
    directory, filename = os.path.split(path)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        parts.append(pkg)
    return ".".join(reversed(parts)) or stem


@dataclass
class FunctionInfo:
    """One function or method (nested defs included)."""

    module: str
    qualname: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None
    param_units: dict[str, UnitTok | None] = field(default_factory=dict)
    param_order: list[str] = field(default_factory=list)
    has_vararg: bool = False
    has_kwarg: bool = False
    return_unit: UnitTok | None = None
    decorators: list[str] = field(default_factory=list)
    #: resolved project callees (fully-qualified names)
    calls: list[str] = field(default_factory=list)
    #: project functions referenced as bare names (callback closure)
    references: list[str] = field(default_factory=list)
    #: worker-pool fan-out targets seen inside this function
    spawn_targets: list[str] = field(default_factory=list)

    @property
    def fq(self) -> str:
        return f"{self.module}.{self.qualname}"

    @property
    def is_method(self) -> bool:
        return self.cls is not None


@dataclass
class ClassInfo:
    module: str
    name: str
    node: ast.ClassDef
    path: str
    methods: set[str] = field(default_factory=set)
    is_dataclass: bool = False
    #: ordered dataclass/annotated fields -> unit
    fields: list[tuple[str, UnitTok | None]] = field(default_factory=list)

    @property
    def fq(self) -> str:
        return f"{self.module}.{self.name}"

    def field_unit(self, name: str) -> UnitTok | None:
        for fname, unit in self.fields:
            if fname == name:
                return unit
        return None


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    source: str
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: local alias -> dotted target ("np" -> "numpy",
    #: "score_capture" -> "repro.core.matching.score_capture")
    imports: dict[str, str] = field(default_factory=dict)
    #: names bound at module scope (assignment targets)
    module_level_names: set[str] = field(default_factory=set)
    #: module-scope ``NAME = SomeClass(...)`` -> class fq
    module_instances: dict[str, str] = field(default_factory=dict)


class ProjectIndex:
    """All modules under the analyzed paths, cross-linked."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.errors: list[tuple[str, int, str]] = []

    def sources(self) -> dict[str, str]:
        """Path -> source text of every indexed module (for pragmas)."""
        return {mod.path: mod.source for mod in self.modules.values()}

    # ------------------------------------------------------------- build
    @classmethod
    def build(cls, paths: list[str]) -> "ProjectIndex":
        index = cls()
        for path in _iter_py_files(paths):
            index._add_file(path)
        for mod in index.modules.values():
            _CallCollector(index, mod).run()
        return index

    def _add_file(self, path: str) -> None:
        try:
            source = read_source(path)
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.errors.append((path, exc.lineno or 1, exc.msg or "syntax error"))
            return
        name = module_name_for(path)
        mod = ModuleInfo(name=name, path=path, tree=tree, source=source)
        _index_module(mod)
        self.modules[name] = mod
        for fn in mod.functions.values():
            self.functions[fn.fq] = fn
        for ci in mod.classes.values():
            self.classes[ci.fq] = ci

    # --------------------------------------------------------- resolution
    def resolve_symbol(self, mod: ModuleInfo, dotted: str) -> str | None:
        """Map a dotted name used in ``mod`` to a project fq name."""
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        target = mod.imports.get(head)
        if target is None:
            if head in mod.functions or head in mod.classes:
                target = f"{mod.name}.{head}"
            else:
                return None
        return f"{target}.{rest}" if rest else target

    def function_at(self, fq: str | None) -> FunctionInfo | None:
        """Function for ``fq``; class fqs resolve to ``__init__``."""
        if fq is None:
            return None
        fn = self.functions.get(fq)
        if fn is not None:
            return fn
        ci = self.classes.get(fq)
        if ci is not None:
            return self.functions.get(f"{fq}.__init__")
        return None

    def class_at(self, fq: str | None) -> ClassInfo | None:
        return self.classes.get(fq) if fq else None


# ----------------------------------------------------------------------
# module indexing
# ----------------------------------------------------------------------
def _iter_py_files(paths: list[str]) -> list[str]:
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = sorted(d for d in dirs if d not in {"__pycache__", ".git"})
                files.extend(
                    os.path.join(root, n) for n in sorted(names) if n.endswith(".py")
                )
        elif p.endswith(".py"):
            files.append(p)
    return files


def _function_info(
    mod: ModuleInfo,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    cls: str | None,
) -> FunctionInfo:
    args = node.args
    ordered = [*args.posonlyargs, *args.args]
    param_units: dict[str, UnitTok | None] = {}
    param_order: list[str] = []
    for a in ordered:
        unit = unit_from_annotation(a.annotation) or seed_from_name(a.arg)
        param_units[a.arg] = unit
        param_order.append(a.arg)
    for a in args.kwonlyargs:
        param_units[a.arg] = unit_from_annotation(a.annotation) or seed_from_name(a.arg)
    return_unit = unit_from_annotation(node.returns)
    if return_unit is None:
        low = node.name.lower()
        for suffix in _RETURN_SEED_SUFFIXES:
            if low.endswith(suffix) and len(low) > len(suffix):
                return_unit = seed_from_name(low)
                break
    decorators = [d for d in (_dotted(_decorator_base(dec)) for dec in node.decorator_list) if d]
    return FunctionInfo(
        module=mod.name,
        qualname=qualname,
        path=mod.path,
        node=node,
        cls=cls,
        param_units=param_units,
        param_order=param_order,
        has_vararg=args.vararg is not None,
        has_kwarg=args.kwarg is not None,
        return_unit=return_unit,
        decorators=decorators,
    )


def _decorator_base(dec: ast.expr) -> ast.expr:
    """``@implements("x")`` -> the ``implements`` expression."""
    return dec.func if isinstance(dec, ast.Call) else dec


def _index_module(mod: ModuleInfo) -> None:
    # imports
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                mod.imports[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                mod.imports[local] = f"{node.module}.{alias.name}"

    def add_function(
        node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str, cls: str | None
    ) -> None:
        fn = _function_info(mod, node, qualname, cls)
        mod.functions[qualname] = fn
        for child in node.body:
            _walk_nested(child, qualname, cls)

    def _walk_nested(node: ast.stmt, parent_qual: str, cls: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, f"{parent_qual}.{node.name}", cls)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    _walk_nested(child, parent_qual, cls)

    for node in mod.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, node.name, None)
        elif isinstance(node, ast.ClassDef):
            ci = ClassInfo(module=mod.name, name=node.name, node=node, path=mod.path)
            ci.is_dataclass = any(
                _dotted(_decorator_base(d)).split(".")[-1] == "dataclass"
                for d in node.decorator_list
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    ci.methods.add(item.name)
                    add_function(item, f"{node.name}.{item.name}", node.name)
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    unit = unit_from_annotation(item.annotation) or seed_from_name(
                        item.target.id
                    )
                    ci.fields.append((item.target.id, unit))
            mod.classes[node.name] = ci
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for t in targets:
                for leaf in ast.walk(t):
                    if isinstance(leaf, ast.Name):
                        mod.module_level_names.add(leaf.id)
        elif isinstance(node, (ast.For, ast.With, ast.If, ast.Try)):
            # conservative: names bound in module-level blocks
            for leaf in ast.walk(node):
                if isinstance(leaf, (ast.Assign, ast.AnnAssign)):
                    tgts = leaf.targets if isinstance(leaf, ast.Assign) else [leaf.target]
                    for t in tgts:
                        for n in ast.walk(t):
                            if isinstance(n, ast.Name):
                                mod.module_level_names.add(n.id)


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------
class _CallCollector:
    """Fills in calls / references / spawn targets / module instances."""

    def __init__(self, index: ProjectIndex, mod: ModuleInfo) -> None:
        self.index = index
        self.mod = mod

    def run(self) -> None:
        # module-scope instances: NAME = SomeClass(...)
        for node in self.mod.tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                fq = self.index.resolve_symbol(self.mod, _dotted(node.value.func))
                if fq in self.index.classes:
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            self.mod.module_instances[t.id] = fq
        for fn in self.mod.functions.values():
            self._collect(fn)

    # -- per-function -----------------------------------------------------
    def _collect(self, fn: FunctionInfo) -> None:
        local_instances = local_instance_map(self.index, self.mod, fn)
        for node in walk_function_body(fn.node):
            if isinstance(node, ast.Call):
                target = resolve_call(
                    self.index, self.mod, fn, node, local_instances
                )
                if target is not None:
                    fn.calls.append(target.fq)
                self._spawn_targets(fn, node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                ref = self._function_ref(fn, node.id)
                if ref is not None:
                    fn.references.append(ref)

    def _function_ref(self, fn: FunctionInfo, name: str) -> str | None:
        """A bare name that denotes a project function (callback)."""
        nested = f"{fn.qualname}.{name}"
        if nested in self.mod.functions:
            return self.mod.functions[nested].fq
        fq = self.index.resolve_symbol(self.mod, name)
        if fq is not None and fq in self.index.functions:
            return fq
        return None

    def _spawn_targets(self, fn: FunctionInfo, node: ast.Call) -> None:
        """Record worker-pool entry points fanned out from this call."""
        func = node.func
        if not isinstance(func, ast.Attribute) or not node.args:
            return
        if func.attr not in {"submit", "map", "run_in_executor"}:
            return
        # loop.run_in_executor(pool, fn, *args) is the asyncio hop into
        # a pool: the callable rides second, behind the executor.
        callable_pos = 1 if func.attr == "run_in_executor" else 0
        if len(node.args) <= callable_pos:
            return
        first = node.args[callable_pos]
        target: str | None = None
        if isinstance(first, ast.Name):
            target = self._function_ref(fn, first.id)
        elif isinstance(first, ast.Attribute):
            fq = self.index.resolve_symbol(self.mod, _dotted(first))
            if fq in self.index.functions:
                target = fq
        if target is not None:
            fn.spawn_targets.append(target)


def walk_function_body(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.AST]:
    """All nodes in a function, excluding nested def bodies (lambdas
    stay — they execute in the enclosing function's context)."""
    out: list[ast.AST] = []
    stack: list[ast.AST] = [child for stmt in node.body for child in [stmt]]
    while stack:
        current = stack.pop()
        out.append(current)
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # annotation/default expressions still run here; bodies don't
            stack.extend(current.args.defaults)
            stack.extend(d for d in current.args.kw_defaults if d is not None)
            continue
        stack.extend(ast.iter_child_nodes(current))
    return out


def local_instance_map(
    index: ProjectIndex, mod: ModuleInfo, fn: FunctionInfo
) -> dict[str, str]:
    """Locals assigned from a project-class constructor -> class fq.

    Seeds ``self`` with the enclosing class so ``self.method()``
    resolves, and parameters annotated with a project class resolve
    too (``def f(bank: TemplateBank)``).
    """
    out: dict[str, str] = {}
    if fn.cls is not None:
        out["self"] = f"{fn.module}.{fn.cls}"
        out["cls"] = f"{fn.module}.{fn.cls}"
    for a in [*fn.node.args.posonlyargs, *fn.node.args.args, *fn.node.args.kwonlyargs]:
        ann = a.annotation
        if ann is not None:
            fq = index.resolve_symbol(mod, _dotted(_strip_optional(ann)))
            if fq in index.classes:
                out[a.arg] = fq
    for node in walk_function_body(fn.node):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            fq = index.resolve_symbol(mod, _dotted(node.value.func))
            if fq in index.classes:
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        out[t.id] = fq
    return out


def _strip_optional(node: ast.expr) -> ast.expr:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = node.left
        if isinstance(left, ast.Constant) and left.value is None:
            return node.right
        return _strip_optional(left)
    if isinstance(node, ast.Subscript):
        base = node.value
        name = base.id if isinstance(base, ast.Name) else ""
        if name == "Optional":
            return node.slice
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node  # string annotation: handled by caller via _dotted -> ''
    return node


def resolve_call(
    index: ProjectIndex,
    mod: ModuleInfo,
    fn: FunctionInfo | None,
    node: ast.Call,
    local_instances: dict[str, str],
) -> FunctionInfo | None:
    """Resolve a call site to a project function, or ``None``."""
    func = node.func
    if isinstance(func, ast.Name):
        if fn is not None:
            nested = f"{fn.qualname}.{func.id}"
            if nested in mod.functions:
                return mod.functions[nested]
        return index.function_at(index.resolve_symbol(mod, func.id))
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name):
            cls_fq = local_instances.get(base.id) or mod.module_instances.get(base.id)
            if cls_fq is not None:
                return index.function_at(f"{cls_fq}.{func.attr}")
            dotted = _dotted(func)
            if dotted:
                return index.function_at(index.resolve_symbol(mod, dotted))
        elif isinstance(base, ast.Call):
            base_fq = index.resolve_symbol(mod, _dotted(base.func))
            if base_fq in index.classes:
                return index.function_at(f"{base_fq}.{func.attr}")
    return None
