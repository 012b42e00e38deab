"""Contract extraction: decorators + annotations -> per-function facts.

For every function in the :class:`tools.reproflow.project.ProjectIndex`
this module extracts the ``@contracts.shapes(...)`` /
``@contracts.dtypes(...)`` decorators (parsed through the *runtime's
own* grammar, :func:`repro.core.contracts.parse_shape_spec`, so static
and dynamic semantics cannot drift), classifies positional parameters
by annotation (ndarray-like, sequence-of-arrays, or non-array), and
aligns contract arg specs to parameters the same way the runtime
matcher consumes positional arguments: each spec binds to the next
ndarray-annotated positional, everything else is skipped.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.core.contracts import ShapeSpec, parse_shape_spec

from tools.reproflow.project import FunctionInfo, ProjectIndex, _dotted

__all__ = [
    "ContractInfo",
    "ContractIndex",
    "classify_annotation",
]

#: Annotation leaf names treated as "this parameter is an ndarray".
ARRAY_ANNOTATIONS = frozenset(
    {
        "ndarray",
        "NDArray",
        "ComplexIQ",
        "FloatArray",
        "BitArray",
        "ChipArray",
        "IntArray",
    }
)

#: Generic containers whose element type decides sequence-of-arrays.
_SEQ_BASES = frozenset({"Sequence", "list", "List", "tuple", "Tuple"})


def _leaf(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def classify_annotation(node: ast.expr | None) -> str:
    """``"array"`` | ``"seq"`` (sequence of arrays) | ``"other"`` | ``"unknown"``.

    ``unknown`` means unannotated — the analyzer cannot tell whether
    the runtime matcher would consume the argument, so alignment (and
    every check that depends on it) is skipped for that function.
    """
    if node is None:
        return "unknown"
    if isinstance(node, (ast.Name, ast.Attribute)):
        return "array" if _leaf(node) in ARRAY_ANNOTATIONS else "other"
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            text = node.value
            return (
                "array"
                if any(name in text for name in ARRAY_ANNOTATIONS)
                else "other"
            )
        return "other"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        kinds = {classify_annotation(node.left), classify_annotation(node.right)}
        if "seq" in kinds:
            return "seq"
        if "array" in kinds:
            return "array"
        return "other"
    if isinstance(node, ast.Subscript):
        base = _leaf(node.value)
        if base == "Optional":
            return classify_annotation(node.slice)
        if base == "NDArray":
            return "array"
        if base in _SEQ_BASES:
            sl = node.slice
            elts = sl.elts if isinstance(sl, ast.Tuple) else [sl]
            inner = {classify_annotation(e) for e in elts}
            return "seq" if "array" in inner or "seq" in inner else "other"
        return "other"
    return "other"


def _dtype_name(node: ast.expr) -> str | None:
    """``np.uint8`` -> ``"uint8"`` (or ``None`` when unrecognizable)."""
    name = _leaf(node)
    return name or None


@dataclass
class ContractInfo:
    """Everything reproshape knows about one function's contracts."""

    fn: FunctionInfo
    #: positional params (posonly + regular, minus self/cls) with their
    #: annotation classification, in call order
    params: list[tuple[str, str]] = field(default_factory=list)

    shapes_spec: str | None = None
    shape: ShapeSpec | None = None
    shapes_line: int = 0

    #: positional dtype names from ``@contracts.dtypes`` (None entries
    #: are unrecognizable expressions, individually skipped)
    dtype_args: tuple[str | None, ...] | None = None
    dtype_out: str | None = None
    dtypes_line: int = 0

    #: param name bound to each shape arg spec (None = alignment failed)
    shape_params: list[str] | None = None
    #: param name bound to each dtype entry (None = alignment failed)
    dtype_params: list[str] | None = None
    #: human-readable reasons alignment/checking was skipped
    notes: list[str] = field(default_factory=list)

    @property
    def has_contract(self) -> bool:
        return self.shape is not None or self.dtype_args is not None

    def array_param_names(self) -> list[str]:
        return [name for name, kind in self.params if kind in ("array", "seq")]


def _is_contract_decorator(dec: ast.expr, kind: str) -> bool:
    if not isinstance(dec, ast.Call):
        return False
    dotted = _dotted(dec.func)
    parts = dotted.split(".")
    if parts[-1] != kind:
        return False
    return len(parts) == 1 or parts[-2] == "contracts"


def _extract(fn: FunctionInfo, errors: list[tuple[str, int, str]]) -> ContractInfo:
    info = ContractInfo(fn=fn)
    args = fn.node.args
    positional = [*args.posonlyargs, *args.args]
    if fn.cls is not None and positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    info.params = [(a.arg, classify_annotation(a.annotation)) for a in positional]

    for dec in fn.node.decorator_list:
        if _is_contract_decorator(dec, "shapes"):
            assert isinstance(dec, ast.Call)
            info.shapes_line = dec.lineno
            if len(dec.args) == 1 and isinstance(dec.args[0], ast.Constant) and isinstance(dec.args[0].value, str):
                info.shapes_spec = dec.args[0].value
                try:
                    info.shape = parse_shape_spec(info.shapes_spec)
                except ValueError as exc:
                    errors.append((fn.path, dec.lineno, str(exc)))
            else:
                info.notes.append("shapes spec is not a string literal")
        elif _is_contract_decorator(dec, "dtypes"):
            assert isinstance(dec, ast.Call)
            info.dtypes_line = dec.lineno
            info.dtype_args = tuple(_dtype_name(a) for a in dec.args)
            for kw in dec.keywords:
                if kw.arg == "out":
                    info.dtype_out = _dtype_name(kw.value)

    _align(info)
    return info


def _align(info: ContractInfo) -> None:
    """Bind contract entries to parameters, runtime-matcher style."""
    if info.shape is not None:
        bound: list[str] = []
        cursor = 0
        ok = True
        for _spec in info.shape.args:
            while cursor < len(info.params) and info.params[cursor][1] != "array":
                if info.params[cursor][1] == "unknown":
                    ok = False
                    info.notes.append(
                        f"parameter {info.params[cursor][0]!r} is unannotated; "
                        "cannot align shapes contract"
                    )
                    break
                cursor += 1
            if not ok or cursor >= len(info.params):
                ok = False
                break
            bound.append(info.params[cursor][0])
            cursor += 1
        if ok:
            info.shape_params = bound
        elif not info.notes:
            info.notes.append(
                "shapes contract declares more array arguments than "
                "array-annotated parameters"
            )
    if info.dtype_args is not None:
        arrays = [name for name, kind in info.params if kind == "array"]
        if len(arrays) >= len(info.dtype_args):
            info.dtype_params = arrays[: len(info.dtype_args)]
        else:
            info.notes.append(
                "dtypes contract declares more array arguments than "
                "array-annotated parameters"
            )


class ContractIndex:
    """Per-function contract facts over a whole :class:`ProjectIndex`."""

    def __init__(self, project: ProjectIndex) -> None:
        self.project = project
        self.errors: list[tuple[str, int, str]] = []
        self.by_fq: dict[str, ContractInfo] = {}
        for fq, fn in project.functions.items():
            self.by_fq[fq] = _extract(fn, self.errors)

    def get(self, fq: str | None) -> ContractInfo | None:
        return self.by_fq.get(fq) if fq else None
