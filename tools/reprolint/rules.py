"""Rule implementations for reprolint (stdlib ``ast`` only).

Each rule has a stable code, a one-line message template, and a
rationale tied to the reproduction's determinism / dtype invariants
(see docs/STATIC_ANALYSIS.md for the full catalog):

R001  global-state RNG (``np.random.<fn>``, ``random.<fn>``, unseeded
      or time-seeded ``default_rng``) — breaks bit-identical
      parallel Monte-Carlo.
R002  float/complex ``==`` / ``!=`` on array-like expressions —
      breaks decision-identical template matching across platforms.
R003  implicit dtype at complex boundaries (complex constructors
      without an explicit dtype; arithmetic mixing explicit narrow
      and wide widths) — silently upcasts waveform arrays.
R004  mutable default arguments — cross-call state, the classic
      hidden-nondeterminism footgun.
R005  missing return annotation (only in configured strict
      directories) — the typing pass's enforcement half.
R006  NaN-unsafe range guard: ``if x <= c: raise`` (or ``<``, ``>=``,
      ``>``) on a float-annotated name — NaN fails every comparison,
      so it slips past the guard; write ``if not x > c: raise``.

Suppression: append ``# reprolint: disable=R001`` (comma-separate for
several codes, or ``disable=all``) to the offending line, or put a
``# reprolint: disable-file=R001`` comment in the first ten lines of
the file.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.analysis_common import Finding, filter_findings

__all__ = [
    "RULES",
    "STRICT_RETURN_DIRS",
    "lint_source",
    "parse_error",
]

#: code -> short description (the rule catalog shown by ``--list-rules``).
RULES: dict[str, str] = {
    "R001": "global-state or time-seeded RNG; thread np.random.Generator/SeedSequence instead",
    "R002": "float/complex ==/!= on array-like expression; use np.isclose/np.allclose or integer dtypes",
    "R003": "implicit dtype at complex64/complex128 boundary; make the dtype explicit",
    "R004": "mutable default argument; use None and create inside the function",
    "R005": "missing return annotation in strict-typed directory",
    "R006": "range guard on a float lets NaN through; raise on the negated opposite comparison",
}

#: path fragments where R005 (missing return annotation) is enforced.
STRICT_RETURN_DIRS: tuple[str, ...] = ("src/repro/phy/", "src/repro/core/")

#: np.random attributes that are *not* global-state (constructors and
#: types that thread explicit state).
_NP_RANDOM_OK = frozenset(
    {
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
        "default_rng",
    }
)

#: stdlib ``random`` module functions that hit the hidden global Mersenne
#: Twister.  ``random.Random`` (explicit instance) is allowed when seeded.
_STDLIB_RANDOM_GLOBAL = frozenset(
    {
        "random",
        "seed",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "lognormvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "triangular",
        "getrandbits",
        "randbytes",
    }
)

#: Annotation names that mean a float: ``float`` and the float unit
#: aliases of ``repro.types.units`` (its int aliases are exempt).
_FLOAT_ANNOTATIONS = frozenset(
    {
        "float",
        "Hertz",
        "Seconds",
        "Microseconds",
        "Decibels",
        "DbmPower",
        "Milliwatts",
        "Watts",
        "Volts",
        "Meters",
        "Ratio",
    }
)

#: A raising guard's comparison -> the NaN-safe comparison to negate.
_NAN_SAFE_NEGATION = {ast.Lt: ">=", ast.LtE: ">", ast.Gt: "<=", ast.GtE: "<"}

_NARROW_DTYPES = frozenset({"complex64", "float32", "float16", "half", "single", "csingle"})
_WIDE_DTYPES = frozenset({"complex128", "float64", "double", "cdouble"})

_ARRAY_CONSTRUCTORS = frozenset(
    {"array", "asarray", "zeros", "ones", "empty", "full", "full_like", "zeros_like", "ones_like"}
)

#: np functions that return arrays — used as "array-like" evidence for R002.
_NP_ARRAY_FUNCS = frozenset(
    {
        "abs",
        "angle",
        "real",
        "imag",
        "conj",
        "conjugate",
        "sign",
        "round",
        "exp",
        "log",
        "sqrt",
        "mean",
        "sum",
        "cumsum",
        "diff",
        "where",
        "concatenate",
        "stack",
        "dot",
        "matmul",
        "correlate",
        "convolve",
    }
    | _ARRAY_CONSTRUCTORS
)


def _dotted(node: ast.expr) -> str:
    """``np.random.default_rng`` -> that string; '' for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_time_call(node: ast.expr) -> bool:
    """True for ``time.time()`` / ``time.time_ns()`` style expressions."""
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        return name in {"time.time", "time.time_ns", "time.monotonic", "time.perf_counter"}
    return False


def _dtype_evidence(node: ast.expr) -> set[str]:
    """Explicit dtype-width names mentioned anywhere in a subtree."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in (_NARROW_DTYPES | _WIDE_DTYPES):
            found.add(sub.attr)
        elif isinstance(sub, ast.Name) and sub.id in (_NARROW_DTYPES | _WIDE_DTYPES):
            found.add(sub.id)
    return found


def _has_complex_literal(node: ast.expr) -> bool:
    return any(
        isinstance(sub, ast.Constant) and isinstance(sub.value, complex)
        for sub in ast.walk(node)
    )


def _is_float_literal(node: ast.expr) -> bool:
    """A float/complex constant, possibly under a unary minus."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))


def _is_arraylike(node: ast.expr) -> bool:
    """Heuristic: does this expression plausibly evaluate to an ndarray?

    Evidence: a call to a known array-returning ``np.*`` function, a
    method call or subscript/slice on such a call, or arithmetic whose
    operands are array-like.
    """
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name.startswith(("np.", "numpy.")):
            leaf = name.rsplit(".", 1)[-1]
            return leaf in _NP_ARRAY_FUNCS
        # method on an array-like receiver, e.g. arr.mean(), arr.astype(...)
        if isinstance(node.func, ast.Attribute):
            return _is_arraylike(node.func.value)
        return False
    if isinstance(node, ast.BinOp):
        return _is_arraylike(node.left) or _is_arraylike(node.right)
    if isinstance(node, ast.Subscript):
        return _is_arraylike(node.value)
    return False


def _is_float_annotation(node: ast.expr | None) -> bool:
    """Does an annotation (string annotations included) name a float?"""
    if node is None:
        return False
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return False
    for sub in ast.walk(node):
        name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
        if name in _FLOAT_ANNOTATIONS:
            return True
    return False


def _float_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """A function's float-annotated parameters and annotated locals."""
    args = node.args
    names = {
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        if _is_float_annotation(a.annotation)
    }
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.AnnAssign)
            and isinstance(sub.target, ast.Name)
            and _is_float_annotation(sub.annotation)
        ):
            names.add(sub.target.id)
    return names


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, strict_return: bool) -> None:
        self.path = path
        self.strict_return = strict_return
        self.findings: list[Finding] = []
        #: Float-annotated names of the enclosing function, innermost last.
        self._float_scopes: list[set[str]] = []

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
            )
        )

    # ---------------------------------------------------------- R001
    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        leaf = name.rsplit(".", 1)[-1] if name else ""

        if name.startswith(("np.random.", "numpy.random.")):
            if leaf == "RandomState":
                self._emit(node, "R001", "legacy np.random.RandomState; use np.random.default_rng(seed)")
            elif leaf == "default_rng":
                if not node.args and not node.keywords:
                    self._emit(
                        node,
                        "R001",
                        "unseeded np.random.default_rng() is time-seeded; pass a seed or thread a Generator",
                    )
                elif any(_is_time_call(a) for a in node.args):
                    self._emit(node, "R001", "time-seeded RNG; derive seeds from np.random.SeedSequence")
            elif leaf not in _NP_RANDOM_OK:
                self._emit(
                    node,
                    "R001",
                    f"np.random.{leaf}() uses hidden global RNG state; thread a np.random.Generator",
                )
        elif name.startswith("random.") and name.count(".") == 1:
            if leaf in _STDLIB_RANDOM_GLOBAL:
                self._emit(
                    node,
                    "R001",
                    f"random.{leaf}() uses the global Mersenne Twister; thread a seeded RNG",
                )
            elif leaf == "Random" and not node.args and not node.keywords:
                self._emit(node, "R001", "unseeded random.Random() is time-seeded; pass a seed")
        elif name in {"Generator", "SeedSequence"} or leaf in {"SeedSequence"}:
            if any(_is_time_call(a) for a in node.args):
                self._emit(node, "R001", "time-seeded RNG; use a fixed or threaded seed")

        # R003(a): complex data constructed without an explicit dtype.
        if name.startswith(("np.", "numpy.")) and leaf in _ARRAY_CONSTRUCTORS:
            has_dtype = any(k.arg == "dtype" for k in node.keywords) or len(node.args) >= 2
            if not has_dtype and node.args and _has_complex_literal(node.args[0]):
                self._emit(
                    node,
                    "R003",
                    f"np.{leaf}() builds complex data without an explicit dtype; pass dtype=np.complex128",
                )

        self.generic_visit(node)

    # ---------------------------------------------------------- R002
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        has_eq = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        if has_eq:
            floaty = any(_is_float_literal(o) for o in operands)
            arrayish = any(_is_arraylike(o) for o in operands)
            int_literal = any(
                isinstance(o, ast.Constant)
                and isinstance(o.value, int)
                and not isinstance(o.value, bool)
                for o in operands
            )
            # Two triggers: an exact float/complex literal on either
            # side of ==/!= (hazardous for scalars and arrays alike),
            # or an array-valued expression equality-compared against
            # anything but an integer literal.
            if floaty or (arrayish and not int_literal):
                self._emit(
                    node,
                    "R002",
                    "float/complex ==/!= comparison; use np.isclose/np.allclose or compare integers",
                )
        self.generic_visit(node)

    # ---------------------------------------------------------- R003(b)
    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.MatMult)):
            left = _dtype_evidence(node.left)
            right = _dtype_evidence(node.right)
            if left and right:
                mixed = (left & _NARROW_DTYPES and right & _WIDE_DTYPES) or (
                    left & _WIDE_DTYPES and right & _NARROW_DTYPES
                )
                if mixed:
                    self._emit(
                        node,
                        "R003",
                        "arithmetic mixes narrow and wide dtypes; insert an explicit .astype at the boundary",
                    )
        self.generic_visit(node)

    # ---------------------------------------------------------- R004/R005
    def _check_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults = list(node.args.defaults) + [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in {"list", "dict", "set", "bytearray"}
            )
            if mutable:
                self._emit(
                    default,
                    "R004",
                    f"mutable default argument in {node.name}(); use None and build inside",
                )
        if self.strict_return and node.returns is None:
            self._emit(
                node,
                "R005",
                f"function {node.name}() lacks a return annotation (strict-typed directory)",
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self._float_scopes.append(_float_names(node))
        self.generic_visit(node)
        self._float_scopes.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self._float_scopes.append(_float_names(node))
        self.generic_visit(node)
        self._float_scopes.pop()

    # ---------------------------------------------------------- R006
    def visit_If(self, node: ast.If) -> None:
        test = node.test
        floats = self._float_scopes[-1] if self._float_scopes else set()
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and type(test.ops[0]) in _NAN_SAFE_NEGATION
            and any(
                isinstance(o, ast.Name) and o.id in floats
                for o in (test.left, *test.comparators)
            )
            and any(isinstance(stmt, ast.Raise) for stmt in node.body)
        ):
            safe = _NAN_SAFE_NEGATION[type(test.ops[0])]
            left, right = ast.unparse(test.left), ast.unparse(test.comparators[0])
            self._emit(
                test,
                "R006",
                f"NaN passes the guard `{ast.unparse(test)}`; raise on "
                f"`not {left} {safe} {right}` instead",
            )
        self.generic_visit(node)


def parse_error(path: str, exc: SyntaxError) -> Finding:
    """The ``E999`` finding for a file that does not parse."""
    return Finding(
        path=path,
        line=exc.lineno or 1,
        col=exc.offset or 0,
        code="E999",
        message=f"syntax error: {exc.msg}",
    )


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Iterable[str] | None = None,
    strict_return_dirs: tuple[str, ...] = STRICT_RETURN_DIRS,
) -> list[Finding]:
    """Lint one module's source text; returns surviving findings.

    ``select`` restricts checking to the given rule codes or code
    prefixes; ``path`` is used both for reporting and for R005's
    directory scoping (posix or native separators both work).  A file
    that does not parse yields one ``E999`` finding.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [parse_error(path, exc)]
    norm = path.replace("\\", "/")
    strict = any(fragment in norm for fragment in strict_return_dirs)
    linter = _Linter(path=path, strict_return=strict)
    linter.visit(tree)
    return filter_findings(
        linter.findings,
        "reprolint",
        {path: source},
        tuple(select) if select is not None else None,
    )

