"""Lightweight runtime array contracts for PHY/matcher entry points.

The reproduction's invariants are *shape and dtype* invariants: a
ZigBee symbol is exactly 32 chips, a waveform is 1-D ``complex128``,
an on-air bit array is ``uint8``.  The :func:`shapes` and
:func:`dtypes` decorators make those contracts executable without
taxing the hot path:

* **Disabled (the default)** the decorators return the wrapped
  function *unchanged* — zero wrapper, zero overhead, byte-identical
  behavior.  Enable by setting ``REPRO_CONTRACTS=1`` in the
  environment before import; the switch is read once, at import
  (tests use :func:`checked` instead, which always validates).
* **Enabled** each call validates ndarray positional arguments (and
  optionally the return value) and raises :class:`ContractError` with
  the offending argument, expected and actual shape/dtype.

Shape mini-language (``shapes``)::

    @shapes("n_sym,64 -> n_sym*80")     # (n_sym, 64) in, (n_sym*80,) out
    @shapes("n ; n -> n")               # two 1-D inputs of equal length
    @shapes("n_bits ->")                # input-only contract

Dimensions are integer literals (checked exactly), symbol names (bound
on first sight, checked for consistency after), ``_`` (wildcard), or
arithmetic over previously-bound symbols (``n_sym*80``, ``n+2``) —
expressions are evaluated with the bound symbols once all inputs are
seen, so they are most useful on the output side.  ``;`` separates
consecutive ndarray positional arguments; non-array positionals are
skipped when matching specs to arguments.

The mini-language is shared with the static verifier
(``tools/reproshape``): :func:`parse_shape_spec` returns the parsed
:class:`ShapeSpec` and :func:`eval_shape_expr` evaluates one dimension
expression under a symbol binding.  Both are pure and importable
without touching the runtime switch, so the static and runtime
semantics cannot drift.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

__all__ = [
    "ContractError",
    "ArgSpec",
    "ShapeSpec",
    "DIM_WILDCARD",
    "parse_shape_spec",
    "dim_kind",
    "eval_shape_expr",
    "enabled",
    "shapes",
    "dtypes",
    "checked",
]

F = TypeVar("F", bound=Callable[..., Any])

_TRUTHY = {"1", "true", "yes", "on"}


def _env_enabled() -> bool:
    return os.environ.get("REPRO_CONTRACTS", "0").strip().lower() in _TRUTHY


_ENABLED: bool = _env_enabled()


class ContractError(TypeError):
    """An array argument or return value violated a declared contract."""


def enabled() -> bool:
    """Whether contract decorators are active (``REPRO_CONTRACTS``)."""
    return _ENABLED


# ----------------------------------------------------------------------
# shape spec parsing (the public, statically-reusable DSL surface)
# ----------------------------------------------------------------------
#: The anonymous any-size dimension token.
DIM_WILDCARD = "_"

#: AST nodes a dimension expression may contain.  Shared by the runtime
#: evaluator below and the symbolic evaluator in ``tools/reproshape`` —
#: one grammar, two interpretations.
_EXPR_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.FloorDiv,
    ast.Div,
    ast.Mod,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
)


@dataclass(frozen=True)
class ArgSpec:
    """Shape spec for one ndarray positional argument."""

    dims: tuple[str, ...]


@dataclass(frozen=True)
class ShapeSpec:
    """A parsed ``@shapes(...)`` contract: input arg specs + output dims."""

    args: tuple[ArgSpec, ...]
    out_dims: tuple[str, ...] | None


def dim_kind(dim: str) -> str:
    """Classify one dim token: ``wildcard``, ``literal``, ``symbol`` or ``expr``."""
    if dim == DIM_WILDCARD:
        return "wildcard"
    if dim.isdigit():
        return "literal"
    if dim.isidentifier():
        return "symbol"
    return "expr"


def parse_dim_expr(expr: str) -> ast.Expression:
    """Parse one arithmetic dim expression, enforcing the DSL grammar.

    Only integer literals, symbol names and ``+ - * // / % **`` (plus
    unary sign and parentheses) are admitted; anything else raises
    ``ValueError``.  Returns the validated ``ast.Expression`` so both
    the runtime and the symbolic evaluator interpret one tree.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"malformed shape expression {expr!r}: {exc.msg}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _EXPR_NODES) and not isinstance(
            node, (ast.operator, ast.unaryop, ast.expr_context)
        ):
            raise ValueError(
                f"shape expression {expr!r} uses unsupported syntax "
                f"({type(node).__name__})"
            )
        if isinstance(node, ast.Constant) and not isinstance(node.value, int):
            raise ValueError(
                f"shape expression {expr!r} contains a non-integer literal"
            )
    return tree


def eval_shape_expr(expr: str, binding: Mapping[str, int]) -> int:
    """Evaluate a dim expression under a symbol binding (pure function).

    Raises ``ValueError`` for grammar violations and ``KeyError`` for
    unbound symbols; division follows Python semantics (``//`` exact,
    ``/`` truncated to int at the end, matching the historical
    behavior of output-side expressions like ``n/2``).
    """
    tree = parse_dim_expr(expr)

    def fold(node: ast.expr) -> float:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return binding[node.id]
        if isinstance(node, ast.UnaryOp):
            value = fold(node.operand)
            return -value if isinstance(node.op, ast.USub) else +value
        assert isinstance(node, ast.BinOp)
        left, right = fold(node.left), fold(node.right)
        op = node.op
        if isinstance(op, ast.Add):
            return left + right
        if isinstance(op, ast.Sub):
            return left - right
        if isinstance(op, ast.Mult):
            return left * right
        if isinstance(op, ast.FloorDiv):
            return left // right
        if isinstance(op, ast.Div):
            return left / right
        if isinstance(op, ast.Mod):
            return left % right
        assert isinstance(op, ast.Pow)
        return left**right

    return int(fold(tree.body))


def parse_shape_spec(spec: str) -> ShapeSpec:
    """Parse the shape mini-language into a :class:`ShapeSpec`.

    ``"n,64 ; m -> n*80"`` -> ``ShapeSpec((ArgSpec(("n","64")),
    ArgSpec(("m",))), ("n*80",))``.  Raises ``ValueError`` on malformed
    specs.
    """
    if "->" in spec:
        lhs, _, rhs = spec.partition("->")
        rhs = rhs.strip()
        out_dims = (
            tuple(d.strip() for d in rhs.split(",") if d.strip()) if rhs else None
        )
    else:
        lhs, out_dims = spec, None
    args: list[ArgSpec] = []
    lhs = lhs.strip()
    if lhs:
        for arg_spec in lhs.split(";"):
            dims = tuple(d.strip() for d in arg_spec.split(",") if d.strip())
            if not dims:
                raise ValueError(f"empty argument spec in shape contract {spec!r}")
            for dim in dims:
                if dim_kind(dim) == "expr":
                    parse_dim_expr(dim)  # fail fast on grammar violations
            args.append(ArgSpec(dims=dims))
    if out_dims is not None:
        for dim in out_dims:
            if dim_kind(dim) == "expr":
                parse_dim_expr(dim)
    return ShapeSpec(args=tuple(args), out_dims=out_dims)


def _check_dims(
    dims: Sequence[str],
    shape: tuple[int, ...],
    binding: dict[str, int],
    *,
    where: str,
    fname: str,
) -> list[tuple[str, int]]:
    """Match one shape against its dim specs; returns deferred exprs."""
    if len(shape) != len(dims):
        raise ContractError(
            f"{fname}: {where} has {len(shape)} dimension(s) {shape}, "
            f"contract expects {len(dims)} ({','.join(dims)})"
        )
    deferred: list[tuple[str, int]] = []
    for dim, actual in zip(dims, shape):
        if dim == "_":
            continue
        if dim.isdigit():
            if actual != int(dim):
                raise ContractError(
                    f"{fname}: {where} dimension is {actual}, contract requires {dim}"
                )
        elif dim.isidentifier():
            bound = binding.setdefault(dim, actual)
            if bound != actual:
                raise ContractError(
                    f"{fname}: {where} dimension {dim}={actual} conflicts "
                    f"with earlier binding {dim}={bound}"
                )
        else:
            # Arithmetic over symbols: evaluate once all inputs bound.
            deferred.append((dim, actual))
    return deferred


def _eval_deferred(
    deferred: Sequence[tuple[str, int]],
    binding: dict[str, int],
    *,
    fname: str,
) -> None:
    for expr, actual in deferred:
        try:
            expected = eval_shape_expr(expr, binding)
        except Exception as exc:
            raise ContractError(
                f"{fname}: cannot evaluate shape expression {expr!r} "
                f"with bindings {binding}: {exc}"
            ) from exc
        if expected != actual:
            raise ContractError(
                f"{fname}: dimension is {actual}, contract expression "
                f"{expr!r} = {expected} (bindings {binding})"
            )


def _iter_arrays(args: tuple[Any, ...]) -> Iterator[np.ndarray]:
    for a in args:
        if isinstance(a, np.ndarray):
            yield a


def _shape_wrapper(spec: str, fn: F) -> F:
    import functools

    parsed = parse_shape_spec(spec)
    fname = getattr(fn, "__qualname__", repr(fn))
    arg_dims = [a.dims for a in parsed.args]
    out_dims = parsed.out_dims

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        binding: dict[str, int] = {}
        deferred: list[tuple[str, int]] = []
        arrays = list(_iter_arrays(args))
        if len(arrays) < len(arg_dims):
            raise ContractError(
                f"{fname}: contract declares {len(arg_dims)} array "
                f"argument(s), call supplied {len(arrays)}"
            )
        for i, (dims, arr) in enumerate(zip(arg_dims, arrays)):
            deferred += _check_dims(
                dims, arr.shape, binding, where=f"array argument {i}", fname=fname
            )
        _eval_deferred(deferred, binding, fname=fname)
        result = fn(*args, **kwargs)
        if out_dims is not None and isinstance(result, np.ndarray):
            out_deferred = _check_dims(
                out_dims, result.shape, binding, where="return value", fname=fname
            )
            _eval_deferred(out_deferred, binding, fname=fname)
        return result

    return wrapper  # type: ignore[return-value]


def _dtype_wrapper(arg_dtypes: tuple[Any, ...], out: Any, fn: F) -> F:
    import functools

    fname = getattr(fn, "__qualname__", repr(fn))
    expected = tuple(np.dtype(d) if d is not None else None for d in arg_dtypes)
    out_dtype = np.dtype(out) if out is not None else None

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        arrays = list(_iter_arrays(args))
        for i, (want, arr) in enumerate(zip(expected, arrays)):
            if want is not None and arr.dtype != want:
                raise ContractError(
                    f"{fname}: array argument {i} has dtype {arr.dtype}, "
                    f"contract requires {want}"
                )
        result = fn(*args, **kwargs)
        if out_dtype is not None and isinstance(result, np.ndarray):
            if result.dtype != out_dtype:
                raise ContractError(
                    f"{fname}: return value has dtype {result.dtype}, "
                    f"contract requires {out_dtype}"
                )
        return result

    return wrapper  # type: ignore[return-value]


# ----------------------------------------------------------------------
# public decorators
# ----------------------------------------------------------------------
def shapes(spec: str) -> Callable[[F], F]:
    """Declare a shape contract; no-op unless ``REPRO_CONTRACTS`` is set.

    See the module docstring for the mini-language.  When checking is
    disabled at decoration time the function is returned *unchanged*.
    """
    parse_shape_spec(spec)  # fail fast on malformed specs even when disabled

    def decorate(fn: F) -> F:
        if not _ENABLED:
            return fn
        return _shape_wrapper(spec, fn)

    return decorate


def dtypes(*arg_dtypes: Any, out: Any = None) -> Callable[[F], F]:
    """Declare dtypes for consecutive ndarray positional args (and return).

    ``None`` entries skip an array.  When checking is disabled at
    decoration time the function is returned *unchanged*.
    """

    def decorate(fn: F) -> F:
        if not _ENABLED:
            return fn
        return _dtype_wrapper(arg_dtypes, out, fn)

    return decorate


def checked(
    fn: Callable[..., Any],
    *,
    shape: str | None = None,
    arg_dtypes: tuple[Any, ...] = (),
    out: Any = None,
) -> Callable[..., Any]:
    """Build an *always-on* contract wrapper around ``fn``.

    Unlike the decorators, this wraps whatever ``REPRO_CONTRACTS``
    says — intended for tests and debugging sessions.
    """
    wrapped = fn
    if arg_dtypes or out is not None:
        wrapped = _dtype_wrapper(tuple(arg_dtypes), out, wrapped)
    if shape is not None:
        wrapped = _shape_wrapper(shape, wrapped)
    return wrapped
