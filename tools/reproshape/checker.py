"""The S-rules: symbolic shape/dtype verification over the call graph.

``check_project`` runs two passes over a
:class:`tools.reproshape.contracts_index.ContractIndex`:

* **Coverage (S004)** — public entry points in the strict contract
  directories must declare a contract.
* **Abstract interpretation (S001/S002/S005)** — each function body is
  walked once with a symbolic environment seeded from its own
  contract; project call sites are unified against the callee's
  contract, callee output specs propagate shapes forward, and locally
  decidable operations (``reshape``, ``@``, ``np.stack``, ``return``)
  are checked against what the contracts imply.

Every check is *conservative*: a finding is only emitted when the
contracts prove a mismatch for all admissible dimension values
(atoms >= 1); anything undecidable stays silent.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.core.contracts import ArgSpec

from tools.reproflow.project import (
    ModuleInfo,
    ProjectIndex,
    _dotted,
    local_instance_map,
    resolve_call,
)
from tools.reproshape.contracts_index import ContractIndex, ContractInfo
from tools.analysis_common import Finding
from tools.reproshape.symbolic import (
    SymDim,
    SymShape,
    render_shape,
    sym_from_dim,
    unify_dims,
)

__all__ = [
    "STRICT_CONTRACT_DIRS",
    "ENTRY_POINT_NAMES",
    "check_project",
    "shape_table",
]

#: Path fragments (posix form) where S004 is enforced.
STRICT_CONTRACT_DIRS: tuple[str, ...] = ("repro/phy/", "repro/core/matching")

#: Public entry-point names S004 requires a contract on.
ENTRY_POINT_NAMES: frozenset[str] = frozenset(
    {
        "modulate",
        "demodulate",
        "decode",
        "decode_soft",
        "score_capture",
    }
)

#: Builtins whose call result is never an ndarray.
_SCALAR_BUILTINS = frozenset(
    {"len", "int", "float", "bool", "str", "min", "max", "sum", "round", "range"}
)

#: (actual, expected) dtype pairs that are implicit narrow->wide widenings.
_WIDENINGS = frozenset({("float32", "float64"), ("complex64", "complex128")})


def in_strict_dirs(path: str) -> bool:
    norm = path.replace("\\", "/")
    return any(fragment in norm for fragment in STRICT_CONTRACT_DIRS)


# ----------------------------------------------------------------------
# S004: contract coverage on public entry points
# ----------------------------------------------------------------------
def check_coverage(cindex: ContractIndex) -> list[Finding]:
    findings: list[Finding] = []
    for fq, info in sorted(cindex.by_fq.items()):
        fn = info.fn
        if (
            "." in fn.qualname  # methods / nested defs are out of scope
            or fn.qualname not in ENTRY_POINT_NAMES
            or not in_strict_dirs(fn.path)
        ):
            continue
        if not info.array_param_names():
            continue  # Waveform-level API; contracts have nothing to grab
        if not info.has_contract:
            findings.append(
                Finding(
                    path=fn.path,
                    line=fn.node.lineno,
                    col=fn.node.col_offset + 1,
                    code="S004",
                    message=(
                        f"public entry point {fn.qualname}() takes array "
                        "argument(s) but declares no shapes/dtypes contract"
                    ),
                    symbol=fq,
                )
            )
    return findings


# ----------------------------------------------------------------------
# S001/S002/S005: abstract interpretation of function bodies
# ----------------------------------------------------------------------
@dataclass
class _Abstract:
    """Classification of one expression: arrayness + shape + dtype."""

    kind: str  # "array" | "nonarray" | "unknown"
    shape: SymShape | None = None  # known only for kind == "array"
    dtype: str | None = None


_UNKNOWN = _Abstract("unknown")
_NONARRAY = _Abstract("nonarray")


@dataclass
class _Env:
    shapes: dict[str, _Abstract] = field(default_factory=dict)

    def copy(self) -> "_Env":
        return _Env(shapes=dict(self.shapes))

    def kill(self, name: str) -> None:
        self.shapes.pop(name, None)


def _assigned_names(node: ast.AST) -> set[str]:
    out: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                child.targets if isinstance(child, ast.Assign) else [child.target]
            )
            for t in targets:
                for leaf in ast.walk(t):
                    if isinstance(leaf, ast.Name):
                        out.add(leaf.id)
        elif isinstance(child, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(child.target):
                if isinstance(leaf, ast.Name):
                    out.add(leaf.id)
        elif isinstance(child, ast.withitem) and child.optional_vars is not None:
            for leaf in ast.walk(child.optional_vars):
                if isinstance(leaf, ast.Name):
                    out.add(leaf.id)
        elif isinstance(child, ast.NamedExpr) and isinstance(child.target, ast.Name):
            out.add(child.target.id)
    return out


class _BodyChecker:
    """One function's abstract interpretation (program order, branch-safe)."""

    def __init__(
        self,
        project: ProjectIndex,
        mod: ModuleInfo,
        cindex: ContractIndex,
        info: ContractInfo,
        findings: list[Finding],
    ) -> None:
        self.project = project
        self.mod = mod
        self.cindex = cindex
        self.info = info
        self.fn = info.fn
        self.findings = findings
        self.env = _Env()
        self.local_instances = local_instance_map(project, mod, info.fn)
        #: call nodes already checked (an expression can be both visited
        #: as a statement child and re-inferred as an assignment value)
        self._checked: dict[int, _Abstract] = {}
        self._seed()

    # ------------------------------------------------------------- setup
    def _seed(self) -> None:
        spec_for: dict[str, ArgSpec] = {}
        if self.info.shape is not None and self.info.shape_params is not None:
            spec_for = dict(zip(self.info.shape_params, self.info.shape.args))
        dtype_for: dict[str, str] = {}
        if self.info.dtype_args is not None and self.info.dtype_params is not None:
            dtype_for = {
                name: dt
                for name, dt in zip(self.info.dtype_params, self.info.dtype_args)
                if dt is not None
            }
        for name, kind in self.info.params:
            if kind == "array":
                spec = spec_for.get(name)
                shape: SymShape | None = None
                if spec is not None:
                    shape = tuple(sym_from_dim(d, self._own_atom) for d in spec.dims)
                self.env.shapes[name] = _Abstract(
                    "array", shape=shape, dtype=dtype_for.get(name)
                )
            elif kind == "other":
                self.env.shapes[name] = _NONARRAY
            # "seq" and "unknown" stay unknown: the runtime matcher may
            # or may not consume them depending on the value's type

    @staticmethod
    def _own_atom(symbol: str) -> SymDim:
        return SymDim.atom(symbol)

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.fn.path,
                line=getattr(node, "lineno", self.fn.node.lineno),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
                symbol=self.fn.fq,
            )
        )

    # ----------------------------------------------------- statement walk
    def run(self) -> None:
        self._stmts(self.fn.node.body)

    def _stmts(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes execute elsewhere
        if isinstance(stmt, ast.Assign):
            self._scan_exprs(stmt.value)
            value = self._infer(stmt.value)
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                self.env.shapes[stmt.targets[0].id] = value
            else:
                for t in stmt.targets:
                    for leaf in ast.walk(t):
                        if isinstance(leaf, ast.Name):
                            self.env.kill(leaf.id)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_exprs(stmt.value)
                if isinstance(stmt.target, ast.Name):
                    self.env.shapes[stmt.target.id] = self._infer(stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            self._scan_exprs(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.env.kill(stmt.target.id)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_exprs(stmt.value)
                self._check_return(stmt)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_exprs(stmt.iter)
            self._branch_bodies([stmt.body, stmt.orelse], loop_node=stmt)
            return
        if isinstance(stmt, ast.While):
            self._scan_exprs(stmt.test)
            self._branch_bodies([stmt.body, stmt.orelse], loop_node=stmt)
            return
        if isinstance(stmt, ast.If):
            self._scan_exprs(stmt.test)
            self._branch_bodies([stmt.body, stmt.orelse])
            return
        if isinstance(stmt, ast.Try):
            handler_bodies = [h.body for h in stmt.handlers]
            self._branch_bodies(
                [stmt.body, *handler_bodies, stmt.orelse, stmt.finalbody]
            )
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_exprs(item.context_expr)
            for name in _assigned_names(stmt):
                self.env.kill(name)
            self._stmts(stmt.body)
            return
        if isinstance(stmt, ast.Delete):
            for t in stmt.targets:
                for leaf in ast.walk(t):
                    if isinstance(leaf, ast.Name):
                        self.env.kill(leaf.id)
            return
        # default: check every expression the statement contains
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_exprs(child)

    def _branch_bodies(
        self, bodies: list[list[ast.stmt]], loop_node: ast.stmt | None = None
    ) -> None:
        """Interpret alternative bodies on env snapshots, then keep only
        the facts that survive every path (plus pre-state for empty
        branches).  Loop bodies additionally kill every name they
        assign — the snapshot models iteration one only."""
        entry = self.env.copy()
        if isinstance(loop_node, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(loop_node.target):
                if isinstance(leaf, ast.Name):
                    entry.kill(leaf.id)
        exits: list[_Env] = []
        for body in bodies:
            if not body:
                exits.append(entry.copy())
                continue
            self.env = entry.copy()
            self._stmts(body)
            exits.append(self.env)
        merged = _Env()
        if exits:
            first = exits[0]
            for name, value in first.shapes.items():
                if all(e.shapes.get(name) == value for e in exits[1:]):
                    merged.shapes[name] = value
        self.env = merged
        if loop_node is not None:
            for name in _assigned_names(loop_node):
                self.env.kill(name)

    def _scan_exprs(self, expr: ast.expr) -> None:
        """Check every call/matmul in an expression tree.

        Names bound by lambdas, comprehensions, or walrus expressions
        inside the tree shadow (or rebind) enclosing locals, so their
        env entries are dropped for the duration of the scan — checks
        under a shadowed name degrade to "unknown" instead of using a
        stale shape.
        """
        shadowed: set[str] = set()
        rebound: set[str] = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Lambda):
                a = node.args
                shadowed.update(
                    p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)
                )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    shadowed.update(
                        leaf.id
                        for leaf in ast.walk(gen.target)
                        if isinstance(leaf, ast.Name)
                    )
            elif isinstance(node, ast.NamedExpr) and isinstance(
                node.target, ast.Name
            ):
                rebound.add(node.target.id)
        saved = {
            name: self.env.shapes.pop(name)
            for name in shadowed | rebound
            if name in self.env.shapes
        }
        try:
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    self._call(node)
                elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                    self._check_matmul(node)
        finally:
            # lambda/comprehension shadowing ends with the expression;
            # walrus targets were genuinely rebound and stay unknown
            self.env.shapes.update(
                {name: v for name, v in saved.items() if name not in rebound}
            )

    # ------------------------------------------------------ call checking
    def _call(self, node: ast.Call) -> _Abstract:
        cached = self._checked.get(id(node))
        if cached is not None:
            return cached
        result = self._check_call(node)
        self._checked[id(node)] = result
        return result

    def _check_call(self, node: ast.Call) -> _Abstract:
        func = node.func
        # ndarray.reshape(...): locally decidable element-count check
        if isinstance(func, ast.Attribute) and func.attr == "reshape":
            return self._check_reshape(node)
        dotted = _dotted(func)
        if dotted.split(".")[-1] in _SCALAR_BUILTINS and "." not in dotted:
            return _NONARRAY
        if dotted in ("np.stack", "numpy.stack"):
            self._check_stack(node)
            return _Abstract("array")
        if dotted.split(".")[-1] in ("asarray", "ascontiguousarray", "asfortranarray"):
            inner = self._infer(node.args[0]) if node.args else _UNKNOWN
            return _Abstract("array", shape=inner.shape if inner.kind == "array" else None)

        callee = resolve_call(self.project, self.mod, self.fn, node, self.local_instances)
        if callee is None:
            return _UNKNOWN
        cinfo = self.cindex.get(callee.fq)
        if cinfo is None or not cinfo.has_contract:
            return _UNKNOWN
        if any(isinstance(a, ast.Starred) for a in node.args):
            return _UNKNOWN
        classified = [self._infer(a) for a in node.args]
        if any(c.kind == "unknown" for c in classified):
            return _UNKNOWN
        arrays = [
            (i, c) for i, c in enumerate(classified) if c.kind == "array"
        ]

        binding: dict[str, SymDim] = {}
        if cinfo.shape is not None:
            if len(arrays) != len(cinfo.shape.args):
                self._emit(
                    node,
                    "S001",
                    f"{callee.qualname}() contract {cinfo.shapes_spec!r} declares "
                    f"{len(cinfo.shape.args)} array argument(s), call passes "
                    f"{len(arrays)}",
                )
                return _UNKNOWN
            for spec, (i, abstract) in zip(cinfo.shape.args, arrays):
                if abstract.shape is None:
                    continue
                mismatch = unify_dims(spec.dims, abstract.shape, binding)
                if mismatch is not None:
                    self._emit(
                        node,
                        "S001",
                        f"array argument {i} of {callee.qualname}() has shape "
                        f"{render_shape(abstract.shape)}, incompatible with "
                        f"contract {cinfo.shapes_spec!r}: {mismatch}",
                    )
        if cinfo.dtype_args is not None:
            for (i, abstract), expected in zip(arrays, cinfo.dtype_args):
                if expected is None or abstract.dtype is None:
                    continue
                if abstract.dtype != expected:
                    widen = (
                        " (implicit narrow-to-wide widening)"
                        if (abstract.dtype, expected) in _WIDENINGS
                        else ""
                    )
                    self._emit(
                        node,
                        "S002",
                        f"array argument {i} of {callee.qualname}() has dtype "
                        f"{abstract.dtype}, contract expects {expected}{widen}",
                    )

        out_shape: SymShape | None = None
        if cinfo.shape is not None and cinfo.shape.out_dims is not None:
            out_shape = tuple(
                sym_from_dim(d, binding.get) for d in cinfo.shape.out_dims
            )
        if cinfo.shape is not None and cinfo.shape.out_dims is not None:
            return _Abstract("array", shape=out_shape, dtype=cinfo.dtype_out)
        if cinfo.dtype_out is not None:
            return _Abstract("array", dtype=cinfo.dtype_out)
        return _UNKNOWN

    # --------------------------------------------------- local S005 checks
    def _reshape_target(self, node: ast.Call) -> list[ast.expr] | None:
        args = list(node.args)
        if len(args) == 1 and isinstance(args[0], ast.Tuple):
            args = list(args[0].elts)
        return args or None

    def _check_reshape(self, node: ast.Call) -> _Abstract:
        assert isinstance(node.func, ast.Attribute)
        base = self._infer(node.func.value)
        args = self._reshape_target(node)
        if args is None:
            return _Abstract("array", dtype=base.dtype)
        target: list[SymDim | None] = []
        negative_one = False
        for a in args:
            if (
                isinstance(a, ast.UnaryOp)
                and isinstance(a.op, ast.USub)
                and isinstance(a.operand, ast.Constant)
                and a.operand.value == 1
            ):
                negative_one = True
                target.append(None)
            elif isinstance(a, ast.Constant) and isinstance(a.value, int):
                target.append(SymDim.const(a.value))
            else:
                target.append(None)
        result_shape: SymShape = tuple(target)
        if (
            base.kind == "array"
            and base.shape is not None
            and all(d is not None for d in base.shape)
            and not negative_one
            and all(d is not None for d in target)
        ):
            src = SymDim.const(1)
            for d in base.shape:
                assert d is not None
                src = src * d
            dst = SymDim.const(1)
            for d in target:
                assert d is not None
                dst = dst * d
            if src.provably_ne(dst):
                self._emit(
                    node,
                    "S005",
                    f"reshape of {render_shape(base.shape)} ({src} elements) "
                    f"to {render_shape(result_shape)} ({dst} elements) can "
                    "never succeed",
                )
        return _Abstract("array", shape=result_shape, dtype=base.dtype)

    def _check_stack(self, node: ast.Call) -> None:
        if not node.args or not isinstance(node.args[0], (ast.List, ast.Tuple)):
            return
        shapes = [self._infer(e) for e in node.args[0].elts]
        known = [s.shape for s in shapes if s.kind == "array" and s.shape is not None]
        for i in range(1, len(known)):
            a, b = known[0], known[i]
            if len(a) != len(b):
                self._emit(
                    node,
                    "S005",
                    f"np.stack() operands have different ranks: "
                    f"{render_shape(a)} vs {render_shape(b)}",
                )
                return
            for axis, (da, db) in enumerate(zip(a, b)):
                if da is not None and db is not None and da.provably_ne(db):
                    self._emit(
                        node,
                        "S005",
                        f"np.stack() operands disagree on axis {axis}: "
                        f"{render_shape(a)} vs {render_shape(b)}",
                    )
                    return

    def _check_matmul(self, node: ast.BinOp) -> None:
        left, right = self._infer(node.left), self._infer(node.right)
        if (
            left.kind != "array"
            or right.kind != "array"
            or left.shape is None
            or right.shape is None
            or not left.shape
            or not right.shape
        ):
            return
        inner_l = left.shape[-1]
        inner_r = right.shape[-2] if len(right.shape) >= 2 else right.shape[-1]
        if inner_l is not None and inner_r is not None and inner_l.provably_ne(inner_r):
            self._emit(
                node,
                "S005",
                f"matmul inner dimensions can never match: "
                f"{render_shape(left.shape)} @ {render_shape(right.shape)} "
                f"({inner_l} vs {inner_r})",
            )

    def _check_return(self, stmt: ast.Return) -> None:
        if self.info.shape is None or self.info.shape.out_dims is None:
            return
        assert stmt.value is not None
        value = self._infer(stmt.value)
        if value.kind != "array" or value.shape is None:
            return
        out = self.info.shape.out_dims
        if len(out) != len(value.shape):
            self._emit(
                stmt,
                "S005",
                f"return value has rank {len(value.shape)} "
                f"{render_shape(value.shape)}, own contract "
                f"{self.info.shapes_spec!r} declares {len(out)}-D output",
            )
            return
        for axis, (dim, have) in enumerate(zip(out, value.shape)):
            if have is None:
                continue
            want = sym_from_dim(dim, self._own_atom)
            if want is not None and want.provably_ne(have):
                self._emit(
                    stmt,
                    "S005",
                    f"return axis {axis} is {have}, own contract "
                    f"{self.info.shapes_spec!r} declares {dim!r} = {want}",
                )

    # ----------------------------------------------------------- inference
    def _infer(self, expr: ast.expr) -> _Abstract:
        if isinstance(expr, ast.Name):
            return self.env.shapes.get(expr.id, _UNKNOWN)
        if isinstance(expr, ast.Constant):
            return _NONARRAY
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set, ast.Dict, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.JoinedStr)):
            return _NONARRAY  # not ndarrays; plain-spec matching skips these
        if isinstance(expr, ast.UnaryOp):
            inner = self._infer(expr.operand)
            if isinstance(expr.op, ast.Not):
                return _NONARRAY
            return inner
        if isinstance(expr, ast.BinOp):
            if isinstance(expr.op, ast.MatMult):
                left = self._infer(expr.left)
                return _Abstract("array") if left.kind == "array" else _UNKNOWN
            left, right = self._infer(expr.left), self._infer(expr.right)
            kinds = {left.kind, right.kind}
            if kinds == {"nonarray"}:
                return _NONARRAY
            if "array" in kinds:
                if left.kind == "array" and right.kind == "nonarray":
                    return _Abstract("array", shape=left.shape, dtype=left.dtype)
                if right.kind == "array" and left.kind == "nonarray":
                    return _Abstract("array", shape=right.shape, dtype=right.dtype)
                if (
                    left.kind == "array"
                    and right.kind == "array"
                    and left.shape is not None
                    and left.shape == right.shape
                ):
                    return _Abstract("array", shape=left.shape)
                return _Abstract("array")
            return _UNKNOWN
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Subscript):
            base = self._infer(expr.value)
            if base.kind != "array" or base.shape is None:
                return _UNKNOWN
            index = expr.slice
            if isinstance(index, ast.Slice):
                return _Abstract(
                    "array", shape=(None, *base.shape[1:]), dtype=base.dtype
                )
            if isinstance(index, ast.Tuple):
                return _UNKNOWN
            # single integer index drops the leading axis
            if len(base.shape) == 1:
                return _NONARRAY
            return _Abstract("array", shape=base.shape[1:], dtype=base.dtype)
        if isinstance(expr, ast.Attribute):
            if expr.attr in ("shape", "size", "ndim", "dtype"):
                base = self._infer(expr.value)
                if base.kind == "array":
                    return _NONARRAY
            return _UNKNOWN
        if isinstance(expr, ast.Compare):
            return _UNKNOWN  # could be a boolean mask array
        if isinstance(expr, ast.IfExp):
            a, b = self._infer(expr.body), self._infer(expr.orelse)
            return a if a == b else _UNKNOWN
        return _UNKNOWN


def check_bodies(project: ProjectIndex, cindex: ContractIndex) -> list[Finding]:
    findings: list[Finding] = []
    for mod in project.modules.values():
        for fn in mod.functions.values():
            info = cindex.get(fn.fq)
            if info is None:
                continue
            _BodyChecker(project, mod, cindex, info, findings).run()
    return findings


# ----------------------------------------------------------------------
# the symbolic shape table (--format=json)
# ----------------------------------------------------------------------
def shape_table(cindex: ContractIndex) -> list[dict[str, object]]:
    """Per-function symbolic shape/dtype summary for contracted functions."""
    table: list[dict[str, object]] = []
    for fq, info in sorted(cindex.by_fq.items()):
        if not info.has_contract:
            continue
        entry: dict[str, object] = {
            "function": fq,
            "path": info.fn.path.replace("\\", "/"),
            "line": info.fn.node.lineno,
        }
        if info.shapes_spec is not None:
            entry["shapes"] = info.shapes_spec
        if info.shape is not None:
            entry["args"] = [{"dims": list(a.dims)} for a in info.shape.args]
            entry["out"] = (
                list(info.shape.out_dims) if info.shape.out_dims is not None else None
            )
        if info.dtype_args is not None:
            entry["dtypes"] = {
                "args": list(info.dtype_args),
                "out": info.dtype_out,
            }
        if info.shape_params is not None:
            entry["params"] = info.shape_params
        if info.notes:
            entry["notes"] = info.notes
        table.append(entry)
    return table


def check_project(project: ProjectIndex, cindex: ContractIndex) -> list[Finding]:
    """All S-rules, sorted by location."""
    findings = check_coverage(cindex)
    findings.extend(check_bodies(project, cindex))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
