"""Every defaulted parameter and dataclass field under ``src/repro`` has a setter.

A default that neither the program nor any of its entry points (the
examples, the benchmark harness, the tools and the paper-claim tests;
see :mod:`tests.test_reachability`) ever overrides is a setting that
selects nothing: the value it holds is a constant, and every branch on
another value is code the program never runs.  Fold such a setting
into its value rather than keep it alive through unit tests alone.

The rule:

- *In scope*: every defaulted parameter of a function or method defined
  under ``src/repro`` (a class's ``__init__`` is called by the class
  name), and every defaulted init field of a dataclass there.
- *Set*: a call in ``src/repro`` or an entry point passes the value, by
  keyword or by position, to a callee of that name (an import alias
  spells its original name).  ``cls(...)`` inside the class and the
  keywords of ``dataclasses.replace`` count for fields.  A call with
  ``*args`` or ``**kwargs`` sets every parameter of its callee.  A
  literal argument equal to the parameter's default literal does not
  count: it passes the value the parameter already holds.
- *Forwarding*: an argument that forwards the caller's own parameter
  of the same name sets the callee's parameter only if the caller's is
  itself set (a required parameter always is), so a shim cannot keep a
  setting alive.
- *Exempt as a kind*: the experiment params dataclasses (presets and
  overrides set their fields, and each artifact records them), the
  dataclasses the artifact codec serializes field by field
  (``artifacts._DATACLASS_TYPES``), and fields the program changes
  after construction (state, not settings): stored, item-assigned or
  mutated in place outside ``__init__`` and ``__post_init__``.

Blind spots: callees are matched by name, and names collide across
classes, so any ``demodulate(soft=...)`` call keeps the ``soft``
parameter of every ``demodulate``.  State is matched by attribute name
the same way.  Only a literal is compared with the default, so a named
constant equal to it still counts as a setter.
"""

from __future__ import annotations

import ast
import functools
import textwrap
from dataclasses import dataclass
from pathlib import Path

from repro.experiments import artifacts, registry
from tests.test_reachability import _ENTRY_GLOBS, _ROOT, _SRC

#: Test seams: settings no entry point sets that stay on purpose, with why.
_UNSET_ON_PURPOSE = {
    "cli.main.argv": (
        "the CLI tests pass an argument list; every entry point runs "
        "main() on sys.argv"
    ),
    "core.contracts.checked.shape": (
        "the contract tests' always-on wrapper (see test_reachability); "
        "its keywords are the checks they ask for"
    ),
    "core.contracts.checked.arg_dtypes": "as checked.shape",
    "core.contracts.checked.out": "as checked.shape",
    "core.contracts.dtypes.out": (
        "the contract tests check a declared return dtype; the program's "
        "kernels declare argument dtypes only"
    ),
    "core.loopwatch.LoopWatch.interval_s": (
        "the sanitizer tests shorten the monitor's period to catch a "
        "blocked loop within a test"
    ),
    "core.loopwatch.LoopWatch.threshold": (
        "the sanitizer tests lower the lag that counts as a violation"
    ),
    "gateway.service.Gateway.register_tag.rng": (
        "the run_airlink replay proofs give a tag the stream the batch "
        "driver uses, to compare the two byte for byte"
    ),
    "gateway.service.GatewayConfig.keepalive_interval_s": (
        "fault detection: the sweep's period; the gateway tests shorten it "
        "so a silenced tag is evicted within a test"
    ),
    "gateway.service.GatewayConfig.stall_timeout_s": (
        "fault detection: how long a blocked subscriber may stall the "
        "publisher before it is evicted"
    ),
    "gateway.service.GatewayConfig.decode_timeout_s": (
        "recovery: the budget after which a hung decode worker is replaced; "
        "the fault tests set it to catch an injected hang"
    ),
    "gateway.service.GatewayConfig.decode_retries": (
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


def _callee(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _decorated(node: ast.AST, name: str) -> bool:
    return any(
        _callee(d.func if isinstance(d, ast.Call) else d) == name
        for d in getattr(node, "decorator_list", ())
    )


@dataclass(frozen=True)
class _Def:
    """A function, method or dataclass that calls spell as ``key``."""

    key: str  # the function's name, or the class's for __init__ and fields
    where: str  # "<module under repro>.<qualname>", for messages
    positional: tuple[str, ...]  # what positional arguments fill, in order
    defaulted: tuple[str, ...]  # its settings
    exempt: bool  # a dataclass exempt as a kind
    is_dataclass: bool
    literals: dict[str, object]  # the settings whose default is a literal, to it


#: What :func:`_literal` returns for an expression that is no literal.
_NOT_LITERAL = object()


def _literal(node: ast.expr | None) -> object:
    """The value of a literal expression (``2.0``, ``-1``, ``(48, 1)``,
    ``None``); :data:`_NOT_LITERAL` for anything else."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return _NOT_LITERAL


def _literals(names, defaults) -> dict[str, object]:
    pairs = ((name, _literal(default)) for name, default in zip(names, defaults))
    return {name: value for name, value in pairs if value is not _NOT_LITERAL}


def _field_default(stmt: ast.AnnAssign) -> bool | None:
    """Has an init field a default?  ``None``: not an init field."""
    if "ClassVar" in ast.unparse(stmt.annotation):
        return None
    value = stmt.value
    if isinstance(value, ast.Call) and _callee(value.func) == "field":
        kws = {kw.arg: kw.value for kw in value.keywords}
        init = kws.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return None
        return "default" in kws or "default_factory" in kws
    return value is not None


def _field_default_expr(stmt: ast.AnnAssign) -> ast.expr | None:
    """An init field's default value expression, if it has one."""
    value = stmt.value
    if isinstance(value, ast.Call) and _callee(value.func) == "field":
        return next((kw.value for kw in value.keywords if kw.arg == "default"), None)
    return value


def _function_def(node, cls: ast.ClassDef | None, where: str) -> _Def:
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    literals = _literals(defaulted, args.defaults)
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    literals |= _literals([a.arg for a in args.kwonlyargs], args.kw_defaults)
    if cls is not None and not _decorated(node, "staticmethod"):
        positional = positional[1:]
    init = cls is not None and node.name == "__init__"
    return _Def(
        cls.name if init else node.name,
        where,
        tuple(positional),
        tuple(defaulted),
        False,
        False,
        literals,
    )


def _definitions(
    src: dict[str, ast.Module], exempt: set[str]
) -> tuple[list[_Def], dict[int, _Def]]:
    """Every function, method and dataclass in ``src`` (module name ->
    tree), and the functions and methods by the ``id`` of their node;
    ``exempt`` names the dataclasses exempt as a kind."""
    by_node: dict[int, _Def] = {}
    classes: dict[str, tuple[list[str], dict[str, bool], str]] = {}
    field_literals: dict[str, dict[str, object]] = {}

    def visit(node: ast.AST, cls: ast.ClassDef | None, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    own = {}
                    literals = field_literals.setdefault(child.name, {})
                    for stmt in child.body:
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                            default = _field_default(stmt)
                            if default is not None:
                                own[stmt.target.id] = default
                                literals |= _literals(
                                    [stmt.target.id], [_field_default_expr(stmt)]
                                )
                    bases = [_callee(b) for b in child.bases]
                    classes[child.name] = (bases, own, prefix + child.name)
                visit(child, child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                init = cls is not None and child.name == "__init__"
                where = prefix[:-1] if init else prefix + child.name
                by_node[id(child)] = _function_def(child, cls, where)
                visit(child, None, f"{prefix}{child.name}.")
            else:
                visit(child, cls, prefix)

    for module, tree in src.items():
        visit(tree, None, f"{module}.")

    def fields(name: str) -> tuple[dict[str, bool], dict[str, object]]:
        bases, own, _ = classes[name]
        out: dict[str, bool] = {}
        literals: dict[str, object] = {}
        for base in bases:
            if base in classes:
                base_fields, base_literals = fields(base)
                out.update(base_fields)
                literals.update(base_literals)
        return out | own, literals | field_literals[name]

    defs = list(by_node.values())
    for name, (_, _, where) in classes.items():
        all_fields, literals = fields(name)
        defs.append(_Def(
            name,
            where,
            tuple(all_fields),
            tuple(f for f, default in all_fields.items() if default),
            name in exempt,
            True,
            literals,
        ))
    return defs, by_node


#: Methods that change a container in place.
_MUTATORS = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend", "insert",
    "pop", "popleft", "remove", "setdefault", "update",
})


def _state_names(src: dict[str, ast.Module]) -> set[str]:
    """Attribute names ``src`` changes after construction: stored,
    item-assigned or mutated in place outside ``__init__`` and
    ``__post_init__``."""
    names = set()
    for tree in src.values():
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in (
                "__init__",
                "__post_init__",
            ):
                skip |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Attribute)
            ):
                names.add(node.value.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and isinstance(node.func.value, ast.Attribute)
            ):
                names.add(node.func.value.attr)
    return names


def _set_settings(
    defs: list[_Def], by_node: dict[int, _Def], program: list[ast.Module]
) -> set[tuple[str, str]]:
    """``(key, name)`` of every setting a call in ``program`` sets."""
    by_key: dict[str, list[_Def]] = {}
    for d in defs:
        by_key.setdefault(d.key, []).append(d)
    is_set: set[tuple[str, str]] = set()
    forwards: list[tuple[tuple[str, str], tuple[str, str]]] = []

    def record(d: _Def, name: str, value: ast.expr, scopes: list[ast.AST]) -> None:
        """A call passes ``value`` as ``d``'s ``name``."""
        key = d.key
        if name in d.literals and _literal(value) == d.literals[name]:
            return
        if isinstance(value, ast.Name) and value.id == name:
            for scope in reversed(scopes):
                args = scope.args
                if name in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
                    caller = by_node.get(id(scope))
                    if caller and name in caller.defaulted:
                        forwards.append(((key, name), (caller.key, name)))
                        return
                    break
        is_set.add((key, name))

    def call(
        node: ast.Call, scopes: list[ast.AST], cls: ast.ClassDef | None, aliases: dict[str, str]
    ) -> None:
        key = _callee(node.func)
        key = aliases.get(key, key)
        if key == "cls" and cls is not None:
            key = cls.name
        if key == "replace":
            for kw in node.keywords:
                for d in defs:
                    if d.is_dataclass and kw.arg in d.positional:
                        record(d, kw.arg, kw.value, scopes)
            return
        targets = by_key.get(key, ())
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        ):
            is_set.update((key, n) for d in targets for n in d.defaulted)
            return
        for d in targets:
            for i, arg in enumerate(node.args[: len(d.positional)]):
                record(d, d.positional[i], arg, scopes)
            for kw in node.keywords:
                record(d, kw.arg, kw.value, scopes)

    def walk(
        node: ast.AST, scopes: list[ast.AST], cls: ast.ClassDef | None, aliases: dict[str, str]
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, scopes, child, aliases)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                walk(child, scopes + [child], cls, aliases)
            else:
                if isinstance(child, ast.Call):
                    call(child, scopes, cls, aliases)
                walk(child, scopes, cls, aliases)

    for tree in program:
        aliases = {
            alias.asname: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.asname
        }
        walk(tree, [], None, aliases)
    changed = True
    while changed:
        changed = False
        for target, source in forwards:
            if source in is_set and target not in is_set:
                is_set.add(target)
                changed = True
    return is_set


def _scan(
    src: dict[str, ast.Module], entries: list[ast.Module], exempt: set[str]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(settings in scope, settings no call sets)`` of ``src`` (module
    name -> tree), each as ``"<module>.<qualname>.<name>"``; the calls
    of ``src`` and ``entries`` are the setters, and ``exempt`` names
    the dataclasses exempt as a kind."""
    defs, by_node = _definitions(src, exempt)
    state = _state_names(src)
    in_scope = [
        (f"{d.where}.{name}", d.key, name)
        for d in defs
        if not d.exempt
        for name in d.defaulted
        if not (d.is_dataclass and name in state)
    ]
    is_set = _set_settings(defs, by_node, list(src.values()) + entries)
    return (
        tuple(where for where, _, _ in in_scope),
        tuple(where for where, key, name in in_scope if (key, name) not in is_set),
    )


@functools.lru_cache(maxsize=1)
def _repo_scan() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """:func:`_scan` of ``src/repro`` (module names under ``repro``)."""
    root = _SRC / "repro"
    src = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        src[".".join(p for p in parts if p != "__init__")] = ast.parse(
            path.read_text(encoding="utf-8")
        )
    entries = [
        ast.parse(path.read_text(encoding="utf-8"))
        for pattern in _ENTRY_GLOBS
        for path in sorted(_ROOT.glob(pattern))
    ]
    exempt = {spec.params_type.__name__ for spec in registry.specs()}
    return _scan(src, entries, exempt | set(artifacts._DATACLASS_TYPES))


def test_every_defaulted_parameter_has_a_setter():
    unset = [s for s in _repo_scan()[1] if s not in _UNSET_ON_PURPOSE]
    assert not unset, (
        "defaults nothing but tests override (fold each into its value, or "
        f"set it from a real consumer): {', '.join(unset)}"
    )


def test_settings_unset_on_purpose_are_few_and_still_unset():
    assert len(_UNSET_ON_PURPOSE) <= 12
    assert set(_UNSET_ON_PURPOSE) <= set(_repo_scan()[1])


def _unset_in(source: str, entry: str = "", exempt: frozenset[str] = frozenset()) -> tuple[str, ...]:
    """The guard's verdict on one synthetic module ``m``, with ``entry``
    as an entry point's code."""
    src = {"m": ast.parse(textwrap.dedent(source))}
    return _scan(src, [ast.parse(textwrap.dedent(entry))], set(exempt))[1]


class TestRule:
    """The rule, on synthetic sources."""

    def test_a_keyword_nothing_passes_is_flagged(self):
        source = """
            def f(x, *, scale=1.0, offset=0.0):
                return x * scale + offset

            def g():
                return f(1.0, offset=2.0)
        """
        assert _unset_in(source) == ("m.f.scale",)

    def test_an_entry_point_passing_it_by_position_sets_it(self):
        source = """
            def f(x, scale=1.0):
                return x * scale
        """
        assert _unset_in(source) == ("m.f.scale",)
        assert _unset_in(source, entry="f(1.0, 2.0)") == ()

    def test_a_shim_forwarding_its_own_unset_parameter_is_flagged(self):
        source = """
            def f(x, *, scale=1.0):
                return x * scale

            def f_batch(xs, *, scale=1.0):
                return [f(x, scale=scale) for x in xs]

            def g(xs):
                return f_batch(xs)
        """
        assert _unset_in(source) == ("m.f.scale", "m.f_batch.scale")
        # Once something sets the shim's parameter, both are set.
        assert _unset_in(source, entry="f_batch([1.0], scale=2.0)") == ()

    def test_forwarding_a_required_parameter_sets_it(self):
        source = """
            def f(x, *, scale=1.0):
                return x * scale

            def g(x, scale):
                return f(x, scale=scale)
        """
        assert _unset_in(source) == ()

    def test_passing_the_default_literal_does_not_set_it(self):
        source = """
            from dataclasses import dataclass

            def f(x, scale=1.0, *, shape=(48, 1), mode=None):
                return x * scale

            @dataclass
            class Frame:
                bits: int = 16

            def g():
                return f(1.0, 1.0, shape=(48, 1), mode=None), Frame(bits=16)
        """
        assert _unset_in(source) == ("m.f.scale", "m.f.shape", "m.f.mode", "m.Frame.bits")
        # Another literal, or any expression that is not a literal, sets it.
        entry = """
            f(1.0, 2.0, shape=SHAPE, mode="fast")
            Frame(-16)
        """
        assert _unset_in(source, entry=entry) == ()

    def test_kwargs_set_every_parameter(self):
        source = """
            def f(x, *, scale=1.0, offset=0.0):
                return x * scale + offset

            def g(x, **kwargs):
                return f(x, **kwargs)
        """
        assert _unset_in(source) == ()

    def test_a_state_field_is_exempt(self):
        source = """
            from dataclasses import dataclass

            @dataclass
            class Session:
                name: str
                cursor: int = 0
                limit: int = 10

                def advance(self):
                    self.cursor += 1

            def open_session():
                return Session("s")
        """
        assert _unset_in(source) == ("m.Session.limit",)

    def test_an_exempt_dataclass_is_exempt(self):
        source = """
            from dataclasses import dataclass

            @dataclass
            class ExpParams:
                seed: int = 0
        """
        assert _unset_in(source) == ("m.ExpParams.seed",)
        assert _unset_in(source, exempt=frozenset({"ExpParams"})) == ()

    def test_cls_and_replace_set_fields(self):
        source = """
            from dataclasses import dataclass, replace

            @dataclass
            class Config:
                rate: float = 1.0
                depth: int = 2

                @classmethod
                def fast(cls):
                    return cls(rate=4.0)

            def deeper(cfg):
                return replace(cfg, depth=3)
        """
        assert _unset_in(source) == ()

    def test_an_import_alias_spells_its_original_name(self):
        source = """
            def f(x, *, scale=1.0):
                return x * scale
        """
        entry = """
            from m import f as g

            g(1.0, scale=2.0)
        """
        assert _unset_in(source, entry=entry) == ()

    def test_starred_args_set_every_parameter(self):
        source = """
            def f(x=0.0, scale=1.0):
                return x * scale

            def g(*args):
                return f(*args)
        """
        assert _unset_in(source) == ()

    def test_a_class_call_sets_its_init(self):
        source = """
            class Link:
                def __init__(self, budget, *, loss_db=0.0):
                    self.budget = budget
                    self.loss_db = loss_db

            def build(budget):
                return Link(budget)
        """
        assert _unset_in(source) == ("m.Link.loss_db",)
        assert _unset_in(source, entry="Link(None, loss_db=1.8)") == ()

    def test_a_method_call_skips_self(self):
        source = """
            class Radio:
                def tune(self, channel=11, power=0.0):
                    return channel, power
        """
        assert _unset_in(source, entry="radio.tune(15)") == ("m.Radio.tune.power",)
        assert _unset_in(source, entry="radio.tune(15, 4.0)") == ()

    def test_a_staticmethod_keeps_its_first_parameter(self):
        source = """
            class Radio:
                @staticmethod
                def tune(channel=11, power=0.0):
                    return channel, power
        """
        assert _unset_in(source, entry="Radio.tune(15)") == ("m.Radio.tune.power",)

    def test_factory_fields_are_in_scope_init_false_and_classvar_are_not(self):
        source = """
            from dataclasses import dataclass, field
            from typing import ClassVar

            @dataclass
            class Table:
                name: str
                rows: list = field(default_factory=list)
                index: dict = field(init=False, default_factory=dict)
                LIMIT: ClassVar[int] = 3

            def make():
                return Table("t")
        """
        assert _unset_in(source) == ("m.Table.rows",)

    def test_a_subclass_takes_its_bases_fields_first(self):
        source = """
            from dataclasses import dataclass

            @dataclass
            class Base:
                rate: float = 1.0

            @dataclass
            class Child(Base):
                depth: int = 2

            def make():
                return Base(2.0), Child(2.0)
        """
        assert _unset_in(source) == ("m.Child.depth",)
        assert _unset_in(source, entry="Child(2.0, 3)") == ()

    def test_forwarding_is_followed_through_a_chain(self):
        source = """
            def f(x, *, scale=1.0):
                return x * scale

            def f_batch(xs, *, scale=1.0):
                return [f(x, scale=scale) for x in xs]

            def f_all(groups, *, scale=1.0):
                return [f_batch(xs, scale=scale) for xs in groups]

            def g(groups):
                return f_all(groups)
        """
        assert _unset_in(source) == ("m.f.scale", "m.f_batch.scale", "m.f_all.scale")
        assert _unset_in(source, entry="f_all([[1.0]], scale=2.0)") == ()

    def test_a_closure_forwards_its_enclosing_functions_parameter(self):
        source = """
            def f(x, *, scale=1.0):
                return x * scale

            def outer(xs, *, scale=1.0):
                def inner(x):
                    return f(x, scale=scale)
                return [inner(x) for x in xs]

            def g(xs):
                return outer(xs)
        """
        assert _unset_in(source) == ("m.f.scale", "m.outer.scale")
        assert _unset_in(source, entry="outer([1.0], scale=2.0)") == ()

    def test_a_parameter_passed_under_another_name_sets_the_callee(self):
        # Only a same-name argument is followed as a forward.
        source = """
            def f(x, *, scale=1.0):
                return x * scale

            def g(x, *, factor=1.0):
                return f(x, scale=factor)

            def h(x):
                return g(x)
        """
        assert _unset_in(source) == ("m.g.factor",)

    def test_a_colliding_callee_name_sets_every_namesake(self):
        # The documented blind spot: calls are matched by name only.
        source = """
            class Ofdm:
                def demodulate(self, wave, *, soft=False):
                    return wave, soft

            class Dsss:
                def demodulate(self, wave, *, soft=False):
                    return wave, soft

            def decode(rx, wave):
                return rx.demodulate(wave, soft=True)
        """
        assert _unset_in(source) == ()

    def test_item_assignment_and_in_place_mutation_are_state(self):
        source = """
            from dataclasses import dataclass, field

            @dataclass
            class Stats:
                counts: dict = field(default_factory=dict)
                seen: list = field(default_factory=list)
                label: str = "stats"

                def record(self, key):
                    self.counts[key] = self.counts.get(key, 0) + 1
                    self.seen.append(key)

            def make():
                return Stats()
        """
        assert _unset_in(source) == ("m.Stats.label",)

    def test_a_store_in_post_init_is_not_state(self):
        source = """
            from dataclasses import dataclass

            @dataclass
            class Config:
                rate: float = 1.0

                def __post_init__(self):
                    self.rate = float(self.rate)

            def make():
                return Config()
        """
        assert _unset_in(source) == ("m.Config.rate",)

    def test_required_parameters_are_out_of_scope(self):
        source = """
            def f(x, y=0.0, *, scale, offset=0.0):
                return (x + y) * scale + offset
        """
        src = {"m": ast.parse(textwrap.dedent(source))}
        assert _scan(src, [], set())[0] == ("m.f.y", "m.f.offset")


def test_the_scan_sees_the_program_and_its_setters():
    """The guard reads the real tree: settings a consumer does set are
    in scope and set (a scan that found nothing would pass vacuously)."""
    in_scope, unset = _repo_scan()
    for setting in (
        "channel.link.BackscatterLink.extra_loss_db",  # fig14's NLoS wall
        "gateway.service.GatewayConfig.queue_maxlen",  # the serve command
        "core.adc.Adc.sample_rate",  # the Fig 7/8 sweeps
    ):
        assert setting in in_scope
        assert setting not in unset
