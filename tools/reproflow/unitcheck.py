"""U-series rules: unit dataflow within and across functions.

U001  arithmetic / comparison / assignment mixing incompatible units
U002  log-domain (dB/dBm) quantity combined with linear power/voltage
U003  call argument unit vs. callee parameter unit
U004  unit-ambiguous public parameter / dataclass field

Inference is flow-through: parameters seed local units (annotation
first, name convention second), assignments propagate, and every
expression is inferred exactly once so a single bad subexpression
yields a single finding.  Unknown absorbs — if either operand's unit
cannot be established, no finding is produced.
"""

from __future__ import annotations

import ast

from tools.analysis_common import Finding
from tools.reproflow.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    local_instance_map,
    resolve_call,
    unit_from_annotation,
)
from tools.reproflow.unitlattice import (
    LITERAL,
    UnitTok,
    combine_additive,
    seed_from_name,
)

__all__ = ["check_units", "check_ambiguous_params", "STRICT_UNIT_DIRS"]

#: Path fragments where U004 (ambiguous public parameters) applies.
STRICT_UNIT_DIRS: tuple[str, ...] = (
    "src/repro/phy/",
    "src/repro/core/",
    "src/repro/channel/",
    "src/repro/sim/",
    "experiments/params.py",
)

#: Final name components that demand a unit when used for a number.
AMBIGUOUS_BASES = frozenset(
    {
        "rate",
        "freq",
        "frequency",
        "duration",
        "period",
        "interval",
        "delay",
        "size",
        "time",
        "bandwidth",
        "wavelength",
    }
)

#: builtins that preserve the unit of their first argument
_PASSTHROUGH_NAMES = frozenset({"int", "float", "round", "abs"})
#: numpy attribute calls that preserve the unit of their first argument
_PASSTHROUGH_ATTRS = frozenset(
    {"floor", "ceil", "round", "rint", "abs", "absolute", "asarray", "copy"}
)

_ADDITIVE_OPS: dict[type, str] = {ast.Add: "+", ast.Sub: "-", ast.Mod: "%"}
_ORDER_CMPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _is_known(unit: UnitTok | None) -> bool:
    return unit is not None and unit is not LITERAL


class _FunctionUnits(ast.NodeVisitor):
    """Infer units through one function body and emit U001–U003."""

    def __init__(
        self,
        index: ProjectIndex,
        mod: ModuleInfo,
        fn: FunctionInfo,
        findings: list[Finding],
    ) -> None:
        self.index = index
        self.mod = mod
        self.fn = fn
        self.findings = findings
        self.local_units: dict[str, UnitTok | None] = dict(fn.param_units)
        self.local_instances = local_instance_map(index, mod, fn)
        #: fields of the enclosing class, for ``self.x`` inference
        self.self_fields: ClassInfo | None = (
            index.classes.get(f"{fn.module}.{fn.cls}") if fn.cls else None
        )

    # ------------------------------------------------------------ report
    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.mod.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
                symbol=self.fn.fq,
            )
        )

    def _problem(self, node: ast.AST, problem: str | None, lu: UnitTok, ru: UnitTok, op: str) -> None:
        if problem == "mismatch":
            self._report(
                node,
                "U001",
                f"'{op}' combines {lu.symbol} with {ru.symbol}",
            )
        elif problem == "dbm-sum":
            self._report(
                node,
                "U001",
                "adding two absolute dBm powers; convert to linear (mW) first",
            )
        elif problem == "db-linear":
            self._report(
                node,
                "U002",
                f"'{op}' mixes log-domain {lu.symbol} with linear {ru.symbol}",
            )

    # ------------------------------------------------------------- infer
    def infer(self, node: ast.expr | None) -> UnitTok | None:
        if node is None:
            return None
        method = getattr(self, f"_infer_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # default: infer children, result unknown
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.infer(child)
        return None

    def _infer_Constant(self, node: ast.Constant) -> UnitTok | None:
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            return LITERAL
        return None

    def _infer_Name(self, node: ast.Name) -> UnitTok | None:
        if node.id in self.local_units:
            return self.local_units[node.id]
        return seed_from_name(node.id)

    def _infer_Attribute(self, node: ast.Attribute) -> UnitTok | None:
        base = node.value
        if isinstance(base, ast.Name):
            cls_fq = self.local_instances.get(base.id) or self.mod.module_instances.get(
                base.id
            )
            ci = self.index.classes.get(cls_fq) if cls_fq else None
            if ci is not None:
                unit = ci.field_unit(node.attr)
                if unit is not None:
                    return unit
                # property with an annotated/seeded return
                prop = self.index.functions.get(f"{ci.fq}.{node.attr}")
                if prop is not None and prop.return_unit is not None:
                    return prop.return_unit
        else:
            self.infer(base)
        return seed_from_name(node.attr)

    def _infer_UnaryOp(self, node: ast.UnaryOp) -> UnitTok | None:
        return self.infer(node.operand)

    def _infer_BinOp(self, node: ast.BinOp) -> UnitTok | None:
        lu = self.infer(node.left)
        ru = self.infer(node.right)
        op = _ADDITIVE_OPS.get(type(node.op))
        if op is None:
            return None  # * / // ** change dimension; result unknown
        result, problem = combine_additive(lu, ru, op)
        if problem is not None and _is_known(lu) and _is_known(ru):
            self._problem(node, problem, lu, ru, op)
        return result

    def _infer_Compare(self, node: ast.Compare) -> UnitTok | None:
        left_unit = self.infer(node.left)
        for op, comparator in zip(node.ops, node.comparators):
            right_unit = self.infer(comparator)
            if isinstance(op, _ORDER_CMPS) and _is_known(left_unit) and _is_known(
                right_unit
            ):
                _, problem = combine_additive(left_unit, right_unit, "compare")
                if problem is not None:
                    self._problem(node, problem, left_unit, right_unit, "compare")
            left_unit = right_unit
        return None

    def _infer_BoolOp(self, node: ast.BoolOp) -> UnitTok | None:
        for value in node.values:
            self.infer(value)
        return None

    def _infer_IfExp(self, node: ast.IfExp) -> UnitTok | None:
        self.infer(node.test)
        body = self.infer(node.body)
        orelse = self.infer(node.orelse)
        if body == orelse:
            return body
        if body is LITERAL:
            return orelse
        if orelse is LITERAL:
            return body
        return None

    def _infer_Subscript(self, node: ast.Subscript) -> UnitTok | None:
        unit = self.infer(node.value)
        self.infer(node.slice)
        return unit

    def _infer_Starred(self, node: ast.Starred) -> UnitTok | None:
        return self.infer(node.value)

    def _infer_Lambda(self, node: ast.Lambda) -> UnitTok | None:
        self.infer(node.body)
        return None

    def _infer_Call(self, node: ast.Call) -> UnitTok | None:
        callee = resolve_call(self.index, self.mod, self.fn, node, self.local_instances)
        arg_units = self._check_call_args(node, callee)
        if callee is not None:
            return callee.return_unit
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _PASSTHROUGH_NAMES and arg_units:
                return arg_units[0]
            if func.id in {"min", "max"} and arg_units:
                known = {u for u in arg_units if _is_known(u)}
                if len(known) == 1 and all(u is not None for u in arg_units):
                    return known.pop()
                return None
            # constructor of a project dataclass handled via _check_call_args
            fq = self.index.resolve_symbol(self.mod, func.id)
            if fq is not None and fq in self.index.classes:
                return None
        elif isinstance(func, ast.Attribute):
            if func.attr in _PASSTHROUGH_ATTRS and arg_units:
                return arg_units[0]
        return None

    # --------------------------------------------------- U003 call check
    def _callee_params(
        self, node: ast.Call, callee: FunctionInfo | None
    ) -> tuple[list[tuple[str, UnitTok | None]], dict[str, UnitTok | None], bool] | None:
        """(positional params, name->unit, has_vararg) for the call."""
        if callee is not None:
            order = list(callee.param_order)
            if order and order[0] in {"self", "cls"}:
                order = order[1:]
            positional = [(name, callee.param_units.get(name)) for name in order]
            return positional, dict(callee.param_units), callee.has_vararg
        # dataclass constructor without an explicit __init__
        func = node.func
        dotted = (
            func.id
            if isinstance(func, ast.Name)
            else (func.attr if isinstance(func, ast.Attribute) else "")
        )
        fq = self.index.resolve_symbol(self.mod, dotted) if dotted else None
        ci = self.index.classes.get(fq) if fq else None
        if ci is not None and ci.is_dataclass and "__init__" not in ci.methods:
            return list(ci.fields), dict(ci.fields), False
        return None

    def _check_call_args(
        self, node: ast.Call, callee: FunctionInfo | None
    ) -> list[UnitTok | None]:
        signature = self._callee_params(node, callee)
        if callee is not None:
            display = callee.qualname
        else:
            func = node.func
            display = (
                func.id
                if isinstance(func, ast.Name)
                else (func.attr if isinstance(func, ast.Attribute) else "")
            )
        arg_units: list[UnitTok | None] = []
        positional = signature[0] if signature else []
        by_name = signature[1] if signature else {}
        has_vararg = signature[2] if signature else True
        saw_star = False
        for i, arg in enumerate(node.args):
            unit = self.infer(arg)
            arg_units.append(unit)
            if isinstance(arg, ast.Starred):
                saw_star = True
                continue
            if signature and not saw_star and i < len(positional):
                pname, punit = positional[i]
                self._flag_arg(node, arg, display, pname, punit, unit)
            elif signature and not saw_star and not has_vararg:
                pass  # too many args: a runtime error, not a unit problem
        for kw in node.keywords:
            unit = self.infer(kw.value)
            if kw.arg is None or not signature:
                continue
            punit = by_name.get(kw.arg)
            self._flag_arg(node, kw.value, display, kw.arg, punit, unit)
        return arg_units

    def _flag_arg(
        self,
        call: ast.Call,
        arg: ast.expr,
        callee_name: str,
        pname: str,
        punit: UnitTok | None,
        unit: UnitTok | None,
    ) -> None:
        if not (_is_known(punit) and _is_known(unit)):
            return
        if punit == unit:
            return
        where = callee_name or "callee"
        self._report(
            arg,
            "U003",
            f"argument '{pname}' of {where}() expects {punit.symbol}, got {unit.symbol}",
        )

    # --------------------------------------------------------- statements
    def check(self) -> None:
        self._stmts(self.fn.node.body)

    def _stmts(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are checked as their own functions
        if isinstance(stmt, ast.Assign):
            rhs = self.infer(stmt.value)
            for target in stmt.targets:
                self._bind(target, rhs, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            declared = unit_from_annotation(stmt.annotation)
            rhs = self.infer(stmt.value) if stmt.value is not None else None
            if isinstance(stmt.target, ast.Name):
                unit = declared or seed_from_name(stmt.target.id)
                if _is_known(unit) and _is_known(rhs) and unit != rhs:
                    self._report(
                        stmt,
                        "U001",
                        f"assigns {rhs.symbol} value to "
                        f"'{stmt.target.id}' declared as {unit.symbol}",
                    )
                self.local_units[stmt.target.id] = unit if _is_known(unit) else rhs
        elif isinstance(stmt, ast.AugAssign):
            target_unit = (
                self.infer(stmt.target)
                if isinstance(stmt.target, (ast.Name, ast.Attribute, ast.Subscript))
                else None
            )
            rhs = self.infer(stmt.value)
            op = _ADDITIVE_OPS.get(type(stmt.op))
            if op is not None:
                result, problem = combine_additive(target_unit, rhs, op)
                if problem is not None and _is_known(target_unit) and _is_known(rhs):
                    self._problem(stmt, problem, target_unit, rhs, op + "=")
                if isinstance(stmt.target, ast.Name) and _is_known(result):
                    self.local_units[stmt.target.id] = result
        elif isinstance(stmt, ast.Return):
            rhs = self.infer(stmt.value)
            expected = self.fn.return_unit
            if _is_known(expected) and _is_known(rhs) and expected != rhs:
                self._report(
                    stmt,
                    "U001",
                    f"returns {rhs.symbol} from a function whose "
                    f"return is {expected.symbol}",
                )
        elif isinstance(stmt, ast.Expr):
            self.infer(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.infer(stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self.infer(stmt.iter)
            for name in _names_in(stmt.target):
                self.local_units.pop(name, None)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.infer(item.context_expr)
                if item.optional_vars is not None:
                    for name in _names_in(item.optional_vars):
                        self.local_units.pop(name, None)
            self._stmts(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._stmts(stmt.body)
            for handler in stmt.handlers:
                self._stmts(handler.body)
            self._stmts(stmt.orelse)
            self._stmts(stmt.finalbody)
        elif isinstance(stmt, ast.Assert):
            self.infer(stmt.test)
        elif isinstance(stmt, ast.Raise):
            self.infer(stmt.exc)
        elif isinstance(stmt, (ast.Delete, ast.Global, ast.Nonlocal, ast.Pass)):
            pass
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.infer(child)
                elif isinstance(child, ast.stmt):
                    self._stmt(child)

    def _bind(self, target: ast.expr, rhs: UnitTok | None, stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            declared = seed_from_name(target.id)
            if _is_known(declared) and _is_known(rhs) and declared != rhs:
                _, problem = combine_additive(declared, rhs, "=")
                kind = "U002" if problem == "db-linear" else "U001"
                detail = (
                    f"assigns {rhs.symbol} value to '{target.id}', "
                    f"which names a {declared.symbol} quantity"
                )
                self._report(stmt, kind, detail)
                self.local_units[target.id] = rhs
            elif _is_known(rhs):
                self.local_units[target.id] = rhs
            elif rhs is LITERAL:
                self.local_units.pop(target.id, None)  # fall back to name seed
            else:
                self.local_units[target.id] = None
        elif isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id in {
                "self",
                "cls",
            } and self.self_fields is not None:
                declared = self.self_fields.field_unit(target.attr)
                if _is_known(declared) and _is_known(rhs) and declared != rhs:
                    self._report(
                        stmt,
                        "U001",
                        f"assigns {rhs.symbol} value to field "
                        f"'{target.attr}' declared as {declared.symbol}",
                    )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for name in _names_in(target):
                self.local_units.pop(name, None)


def _names_in(target: ast.expr) -> list[str]:
    return [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def check_units(index: ProjectIndex) -> list[Finding]:
    """Run U001–U003 over every function in the index."""
    findings: list[Finding] = []
    for mod in index.modules.values():
        for fn in mod.functions.values():
            _FunctionUnits(index, mod, fn, findings).check()
    return findings


def _in_strict_dirs(path: str, strict_dirs: tuple[str, ...]) -> bool:
    norm = path.replace("\\", "/")
    return any(fragment in norm for fragment in strict_dirs)


def _numeric_annotation(node: ast.expr | None) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in {"float", "int"}
    if isinstance(node, ast.Attribute):
        return node.attr in {"float", "int"}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        return text in {"float", "int"} or text.startswith(("float |", "int |"))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _numeric_annotation(node.left) or _numeric_annotation(node.right)
    if isinstance(node, ast.Subscript):
        base = node.value
        name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else ""
        )
        if name == "Optional":
            return _numeric_annotation(node.slice)
    return False


def _ambiguous(name: str) -> bool:
    return name.rsplit("_", 1)[-1].lower() in AMBIGUOUS_BASES


def check_ambiguous_params(
    index: ProjectIndex, strict_dirs: tuple[str, ...] | None = None
) -> list[Finding]:
    """U004: public numeric params/fields whose name demands a unit."""
    dirs = STRICT_UNIT_DIRS if strict_dirs is None else strict_dirs
    findings: list[Finding] = []
    for mod in index.modules.values():
        if not _in_strict_dirs(mod.path, dirs):
            continue
        for fn in mod.functions.values():
            name = fn.qualname.rsplit(".", 1)[-1]
            if name.startswith("_") and name != "__init__":
                continue
            if fn.cls is not None and fn.cls.startswith("_"):
                continue
            args = fn.node.args
            all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            for a in all_args:
                if a.arg in {"self", "cls"} or a.arg.startswith("_"):
                    continue
                if fn.param_units.get(a.arg) is not None:
                    continue
                if not _numeric_annotation(a.annotation):
                    continue
                if not _ambiguous(a.arg):
                    continue
                findings.append(
                    Finding(
                        path=mod.path,
                        line=a.lineno,
                        col=a.col_offset + 1,
                        code="U004",
                        message=(
                            f"parameter '{a.arg}' of {fn.qualname}() is "
                            "unit-ambiguous; add a unit suffix or a "
                            "repro.types.units annotation"
                        ),
                        symbol=fn.fq,
                    )
                )
        for ci in mod.classes.values():
            if ci.name.startswith("_"):
                continue
            for item in ci.node.body:
                if not (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                ):
                    continue
                fname = item.target.id
                if fname.startswith("_"):
                    continue
                if ci.field_unit(fname) is not None:
                    continue
                if not _numeric_annotation(item.annotation):
                    continue
                if not _ambiguous(fname):
                    continue
                findings.append(
                    Finding(
                        path=mod.path,
                        line=item.lineno,
                        col=item.col_offset + 1,
                        code="U004",
                        message=(
                            f"field '{fname}' of {ci.name} is unit-ambiguous; "
                            "add a unit suffix or a repro.types.units annotation"
                        ),
                        symbol=ci.fq,
                    )
                )
    return findings
