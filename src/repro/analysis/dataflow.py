"""The read-set walk of memoized call graphs, and cache-key soundness.

The memoization contract of :meth:`repro.sim.simulator.Simulator.evaluate`
(docs/performance.md) is: *every attribute the evaluation reads must be
folded into the cache key, and the evaluation must not read the clock,
the environment or any I/O*.  This module proves it statically.  An
abstract interpreter walks the AST call graph reachable from the
memoized roots, tracking parameter aliases through calls, attribute
chains, properties, containers, and branches, and records

* the **attribute read-set** per class — every dataclass field the
  evaluation can observe on a ``HardwareConfig``, ``Network``, ``Stage``,
  ``LayerSpec``, ``PoolSpec``, ``CrossbarShape``, or ``Simulator`` —
  with the reads made outside the kernels kept apart as the **scalar
  read-set**, which :mod:`repro.analysis.kernel_parity` checks;
* **nondeterministic sinks** — ``random`` / ``time`` / environment / IO.

The read-set is cross-checked against the declared fingerprint coverage
(:data:`repro.sim.cache.FINGERPRINTED_FIELDS`):

========  =============================================================
CAC001    attribute read by the evaluation but not fingerprinted (ERROR)
CAC003    reachable nondeterministic / IO sink (ERROR)
========  =============================================================

The interpreter is deliberately *optimistic about unknowns*: values it
cannot type produce no findings.  Soundness comes from the places it is
strict — every known class's field reads are recorded, every resolvable
call is traversed — which is exactly the surface the fingerprint must
cover.  The memo machinery itself (``repro.sim.cache``) is a declared
boundary: it is what implements the key, so it is not subject to it.

Entry points: :func:`analyze_memoized` (generic, over any
:class:`~repro.analysis.callgraph.ModuleIndex`),
:func:`analyze_cache_safety` (the repro tree's simulator contract,
wired into ``repro check --cache-safety``) and :func:`read_set_sweep`,
which runs the CAC and PAR checks off one walk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, Union

from .callgraph import (
    ClassInfo,
    Entity,
    External,
    FunctionInfo,
    ModuleConstant,
    ModuleIndex,
    ModuleInfo,
    TypeAlias,
)
from .invariants import CAC001, CAC003, Diagnostic

# ----------------------------------------------------------------------
# Abstract values
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """An instance of an indexed class."""

    cls: ClassInfo


@dataclass(frozen=True)
class ClassVal:
    """The class object itself (constructor / namespace)."""

    cls: ClassInfo


@dataclass(frozen=True)
class IterVal:
    """A homogeneous iterable of ``elem`` values."""

    elem: "Value"


@dataclass(frozen=True)
class TupleVal:
    """A fixed-length heterogeneous tuple (zip / enumerate unpacking)."""

    items: tuple["Value", ...]


@dataclass(frozen=True)
class DictVal:
    """A mapping with known key / value types."""

    key: "Value"
    val: "Value"


@dataclass(frozen=True)
class FuncVal:
    """A function reference, optionally bound to a receiver / closure."""

    func: FunctionInfo
    recv: "Value | None" = None
    closure: tuple[tuple[str, "Value"], ...] = ()


@dataclass(frozen=True)
class ModVal:
    """An indexed module used as a value (``from . import energy``)."""

    module: ModuleInfo


@dataclass(frozen=True)
class ExtVal:
    """A dotted name outside the index (``math``, ``random.random``)."""

    qualname: str


@dataclass(frozen=True)
class BoundBuiltin:
    """A builtin container method awaiting its call (``d.items``)."""

    kind: str
    base: "Value"


Atom = Union[
    Instance, ClassVal, IterVal, TupleVal, DictVal, FuncVal, ModVal, ExtVal,
    BoundBuiltin,
]
#: An abstract value: the set of things a name may hold.  Empty = unknown.
Value = frozenset  # frozenset[Atom]

UNKNOWN: Value = frozenset()
_MAX_ATOMS = 16


def _v(*atoms: Atom) -> Value:
    return frozenset(atoms)


def _union(values: Iterable[Value]) -> Value:
    out: set[Atom] = set()
    for value in values:
        out.update(value)
        if len(out) > _MAX_ATOMS:
            return frozenset(sorted(out, key=repr)[:_MAX_ATOMS])
    return frozenset(out)


# ----------------------------------------------------------------------
# Analysis configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageSpec:
    """Declared cache-key coverage of one class.

    ``fingerprinted`` fields are folded into the key; ``exempt`` fields
    are declared result-invariant (they change *how* a result is
    computed, never *what* it is — e.g. a cache handle) and are excluded
    from CAC001.
    """

    fingerprinted: frozenset[str]
    exempt: frozenset[str] = frozenset()

    @property
    def covered(self) -> frozenset[str]:
        return self.fingerprinted | self.exempt


#: call/read targets that make a memoized graph unsound (CAC003)
DEFAULT_SINK_PREFIXES: tuple[str, ...] = (
    "random.", "time.", "datetime.", "secrets.", "uuid.",
    "socket.", "subprocess.", "numpy.random",
    "os.environ", "os.urandom", "os.getenv", "os.putenv",
    "sys.stdin",
)
#: builtins that reach IO / interpreter state (CAC003)
DEFAULT_SINK_BUILTINS: frozenset[str] = frozenset(
    {"open", "input", "print", "eval", "exec", "globals", "vars",
     "__import__", "breakpoint", "id"}
)


@dataclass(frozen=True)
class MemoContract:
    """What the read-set walk analyzes, and the two tables it checks."""

    #: memoized entry points, ``"module:Class.method"`` / ``"module:func"``
    roots: tuple[str, ...]
    #: simple class name -> declared key coverage; the CAC001 side
    coverage: Mapping[str, CoverageSpec]
    #: module-name prefixes excluded from traversal (the memo machinery)
    boundary_modules: tuple[str, ...] = ()
    #: module-name prefixes the scalar path stops at (the kernels): reads
    #: made in them, or reached through them, are left out of the scalar
    #: read-set
    scalar_boundary: tuple[str, ...] = ()
    #: dotted name of the kernels module inside the analyzed index
    kernel_module: str = ""
    #: scalar class -> field -> kernel columns (``"Class.column"``) or
    #: sentinel targets; the PAR001 side
    kernel_coverage: Mapping[str, Mapping[str, tuple[str, ...]]] = field(
        default_factory=dict
    )
    sink_prefixes: tuple[str, ...] = DEFAULT_SINK_PREFIXES
    sink_builtins: frozenset[str] = DEFAULT_SINK_BUILTINS


# ----------------------------------------------------------------------
# The interpreter
# ----------------------------------------------------------------------

_Env = dict  # dict[str, Value]

_BUILTIN_NAMES = frozenset(
    {"tuple", "list", "set", "frozenset", "sorted", "reversed", "zip",
     "enumerate", "next", "iter", "map", "filter", "sum", "len", "min",
     "max", "abs", "round", "divmod", "range", "any", "all", "float",
     "int", "bool", "str", "repr", "hash", "isinstance", "issubclass",
     "getattr", "setattr", "hasattr", "delattr", "dict", "format",
     "callable", "type", "ord", "chr", "pow"}
)

_ANALYSIS_BUDGET = 40_000


@dataclass(eq=False)
class _Frame:
    func: FunctionInfo
    module: ModuleInfo
    returns: "list[Value]"
    env: _Env


class _Analyzer:
    def __init__(self, index: ModuleIndex, contract: MemoContract) -> None:
        self.index = index
        self.contract = contract
        #: (class simple name, field) -> first witness location
        self.reads: dict[tuple[str, str], str] = {}
        #: the reads made before ``contract.scalar_boundary``: the scalar
        #: path's read-set, first witness each
        self.scalar_reads: dict[tuple[str, str], str] = {}
        self.sinks: list[Diagnostic] = []
        self._memo: dict[object, Value] = {}
        self._active: set[object] = set()
        self._flagged: set[object] = set()
        self._steps = 0
        #: whether the function under analysis lies past the scalar
        #: boundary, or was reached through it
        self._beyond_scalar = False

    # -------------------------------------------------- helpers
    def _is_boundary(self, module: ModuleInfo) -> bool:
        return _in_modules(module, self.contract.boundary_modules)

    def _loc(self, frame: _Frame, node: ast.AST) -> str:
        line = getattr(node, "lineno", frame.func.lineno)
        return f"{frame.module.name}:{line}"

    def _past_scalar_path(self, module: ModuleInfo) -> bool:
        return _in_modules(module, self.contract.scalar_boundary)

    def _record_read(
        self, cls: ClassInfo, attr: str, frame: _Frame, node: ast.AST
    ) -> None:
        location = self._loc(frame, node)
        self.reads.setdefault((cls.name, attr), location)
        if not (self._beyond_scalar or self._past_scalar_path(cls.module)):
            self.scalar_reads.setdefault((cls.name, attr), location)

    def _flag_sink(self, qualname: str, frame: _Frame, node: ast.AST) -> None:
        key = (frame.func.qualname, qualname)
        if key in self._flagged:
            return
        self._flagged.add(key)
        self.sinks.append(
            CAC003.diag(
                self._loc(frame, node),
                f"memoized call graph reaches {qualname!r} via "
                f"{frame.func.qualname}",
                hint="hoist the nondeterministic input into an explicit, "
                "fingerprinted argument",
            )
        )

    # -------------------------------------------------- entity -> value
    def _entity_value(self, entity: object) -> Value:
        if isinstance(entity, FunctionInfo):
            return _v(FuncVal(entity))
        if isinstance(entity, ClassInfo):
            return _v(ClassVal(entity))
        if isinstance(entity, ModuleInfo):
            return _v(ModVal(entity))
        if isinstance(entity, External):
            return _v(ExtVal(entity.qualname))
        if isinstance(entity, TypeAlias):
            return UNKNOWN
        if isinstance(entity, ModuleConstant):
            return self._constant_value(entity)
        return UNKNOWN

    def _constant_value(self, const: ModuleConstant) -> Value:
        if const.annotation is not None:
            value = self._annotation_value(const.annotation, const.module)
            if value:
                return value
        value_expr = const.value
        if (
            isinstance(value_expr, ast.Call)
            and isinstance(value_expr.func, ast.Name)
        ):
            entity = self.index.resolve(const.module, value_expr.func.id)
            if isinstance(entity, ClassInfo):
                return _v(Instance(entity))
        return UNKNOWN

    # -------------------------------------------------- annotations
    def _annotation_value(
        self, ann: ast.expr | None, module: ModuleInfo, _depth: int = 0
    ) -> Value:
        if ann is None or _depth > 8:
            return UNKNOWN
        if isinstance(ann, ast.Constant):
            if isinstance(ann.value, str):
                try:
                    parsed = ast.parse(ann.value, mode="eval").body
                except SyntaxError:
                    return UNKNOWN
                return self._annotation_value(parsed, module, _depth + 1)
            return UNKNOWN
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return _union(
                (
                    self._annotation_value(ann.left, module, _depth + 1),
                    self._annotation_value(ann.right, module, _depth + 1),
                )
            )
        if isinstance(ann, (ast.Name, ast.Attribute)):
            entity: Entity | None
            if isinstance(ann, ast.Name):
                entity = self.index.resolve(module, ann.id)
            elif isinstance(ann.value, ast.Name) and isinstance(
                self.index.resolve(module, ann.value.id), External
            ):
                # ``np.ndarray``: a member of a module outside the index
                # is never a repro class.
                return UNKNOWN
            else:
                entity = self.index.find_class(ann.attr)
            if isinstance(entity, ClassInfo):
                return _v(Instance(entity))
            if isinstance(entity, TypeAlias):
                return self._annotation_value(entity.expr, entity.module, _depth + 1)
            return UNKNOWN
        if isinstance(ann, ast.Subscript):
            base = _ann_base_name(ann.value)
            slc = ann.slice
            elements = (
                list(slc.elts) if isinstance(slc, ast.Tuple) else [slc]
            )
            if base in ("tuple", "Tuple"):
                if len(elements) == 2 and _is_ellipsis(elements[1]):
                    return _v(
                        IterVal(self._annotation_value(elements[0], module, _depth + 1))
                    )
                return _v(
                    TupleVal(
                        tuple(
                            self._annotation_value(e, module, _depth + 1)
                            for e in elements
                        )
                    )
                )
            if base in (
                "list", "List", "set", "Set", "frozenset", "FrozenSet",
                "Sequence", "Iterable", "Iterator", "Collection", "MutableSequence",
            ):
                return _v(
                    IterVal(self._annotation_value(elements[0], module, _depth + 1))
                )
            if base in ("dict", "Dict", "Mapping", "MutableMapping", "OrderedDict"):
                if len(elements) == 2:
                    return _v(
                        DictVal(
                            self._annotation_value(elements[0], module, _depth + 1),
                            self._annotation_value(elements[1], module, _depth + 1),
                        )
                    )
                return UNKNOWN
            if base == "Optional":
                return self._annotation_value(elements[0], module, _depth + 1)
            if base == "Union":
                return _union(
                    self._annotation_value(e, module, _depth + 1) for e in elements
                )
            # An aliased generic (``Strategy``): resolve the alias itself.
            if isinstance(ann.value, ast.Name):
                entity = self.index.resolve(module, ann.value.id)
                if isinstance(entity, TypeAlias):
                    return self._annotation_value(
                        entity.expr, entity.module, _depth + 1
                    )
            return UNKNOWN
        return UNKNOWN

    # -------------------------------------------------- function analysis
    def analyze_root(self, func: FunctionInfo) -> None:
        bindings: dict[str, Value] = {}
        if func.cls is not None and not func.is_staticmethod:
            self_name = _first_param_name(func.node)
            if self_name is not None:
                bindings[self_name] = _v(Instance(func.cls))
        self._analyze_function(func, bindings)

    def _analyze_function(
        self, func: FunctionInfo, bindings: Mapping[str, Value]
    ) -> Value:
        if self._is_boundary(func.module):
            return UNKNOWN
        self._steps += 1
        if self._steps > _ANALYSIS_BUDGET:
            return UNKNOWN
        # The summary of a function reached through the kernels holds no
        # scalar read, so it must not answer a call from the scalar path.
        beyond = self._beyond_scalar or self._past_scalar_path(func.module)
        key = (func, beyond, tuple(sorted(bindings.items())))
        if key in self._memo:
            return self._memo[key]
        if key in self._active:
            return UNKNOWN
        self._active.add(key)
        outer, self._beyond_scalar = self._beyond_scalar, beyond
        try:
            env: _Env = dict(bindings)
            self._bind_missing_params(func, env)
            frame = _Frame(func=func, module=func.module, returns=[], env=env)
            node = func.node
            if isinstance(node, ast.Lambda):
                frame.returns.append(self._eval(node.body, frame))
            else:
                self._exec_block(node.body, frame)
            ret = _union(frame.returns)
            if not ret and not isinstance(node, ast.Lambda) and node.returns is not None:
                ret = self._annotation_value(node.returns, func.module)
            self._memo[key] = ret
            return ret
        finally:
            self._beyond_scalar = outer
            self._active.discard(key)

    def _bind_missing_params(self, func: FunctionInfo, env: _Env) -> None:
        args = func.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg not in env or not env[arg.arg]:
                ann_value = self._annotation_value(arg.annotation, func.module)
                if ann_value:
                    env[arg.arg] = ann_value
                else:
                    env.setdefault(arg.arg, UNKNOWN)
        if args.vararg is not None:
            env.setdefault(args.vararg.arg, _v(IterVal(UNKNOWN)))
        if args.kwarg is not None:
            env.setdefault(args.kwarg.arg, _v(DictVal(UNKNOWN, UNKNOWN)))

    # -------------------------------------------------- statements
    def _exec_block(self, stmts: Sequence[ast.stmt], frame: _Frame) -> None:
        for stmt in stmts:
            self._exec(stmt, frame)

    def _exec(self, stmt: ast.stmt, frame: _Frame) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, frame)
            for target in stmt.targets:
                self._assign(target, value, frame)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self._eval(stmt.value, frame)
            else:
                value = UNKNOWN
            if not value:
                value = self._annotation_value(stmt.annotation, frame.module)
            self._assign(stmt.target, value, frame)
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value, frame)
            if isinstance(stmt.target, ast.Name):
                prior = frame.env.get(stmt.target.id, UNKNOWN)
                frame.env[stmt.target.id] = _union((prior, value))
            else:
                self._assign(stmt.target, value, frame)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, frame)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                frame.returns.append(self._eval(stmt.value, frame))
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, frame)
            self._exec_branches(frame, stmt.body, stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterable = self._eval(stmt.iter, frame)
            self._assign(stmt.target, _element_of(iterable), frame)
            # Two passes propagate loop-carried bindings; reads are a set,
            # so a fixpoint is unnecessary for the rules computed here.
            self._exec_block(stmt.body, frame)
            self._exec_block(stmt.body, frame)
            self._exec_block(stmt.orelse, frame)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, frame)
            self._exec_block(stmt.body, frame)
            self._exec_block(stmt.body, frame)
            self._exec_block(stmt.orelse, frame)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                ctx = self._eval(item.context_expr, frame)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, ctx, frame)
            self._exec_block(stmt.body, frame)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, frame)
            for handler in stmt.handlers:
                if handler.type is not None:
                    self._eval(handler.type, frame)
                if handler.name is not None:
                    frame.env[handler.name] = UNKNOWN
                self._exec_block(handler.body, frame)
            self._exec_block(stmt.orelse, frame)
            self._exec_block(stmt.finalbody, frame)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, frame)
            if stmt.cause is not None:
                self._eval(stmt.cause, frame)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, frame)
            if stmt.msg is not None:
                self._eval(stmt.msg, frame)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = FunctionInfo(
                module=frame.module,
                name=stmt.name,
                qualname=f"{frame.func.qualname}.{stmt.name}",
                node=stmt,
            )
            closure = tuple(sorted(frame.env.items()))
            frame.env[stmt.name] = _v(FuncVal(nested, closure=closure))
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                module = self.index.modules.get(target)
                frame.env[bound] = (
                    _v(ModVal(module)) if module else _v(ExtVal(target))
                )
        elif isinstance(stmt, ast.ImportFrom):
            # Module-wide import table already covers these (callgraph
            # walks the full tree), so name lookup will resolve them.
            pass
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    self._eval_store_target(target, frame)
        # Pass / Break / Continue / Global / Nonlocal: nothing to track.

    def _exec_branches(
        self, frame: _Frame, body: Sequence[ast.stmt], orelse: Sequence[ast.stmt]
    ) -> None:
        base = dict(frame.env)
        frame.env = dict(base)
        self._exec_block(body, frame)
        after_body = frame.env
        frame.env = dict(base)
        self._exec_block(orelse, frame)
        after_else = frame.env
        merged: _Env = {}
        for name in set(after_body) | set(after_else):
            merged[name] = _union(
                (after_body.get(name, UNKNOWN), after_else.get(name, UNKNOWN))
            )
        frame.env = merged

    # -------------------------------------------------- assignment
    def _assign(self, target: ast.expr, value: Value, frame: _Frame) -> None:
        if isinstance(target, ast.Name):
            frame.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            self._assign_unpack(target.elts, value, frame)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, _v(IterVal(_element_of(value))), frame)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._eval_store_target(target, frame)

    def _assign_unpack(
        self, targets: Sequence[ast.expr], value: Value, frame: _Frame
    ) -> None:
        fixed = [a for a in value if isinstance(a, TupleVal)]
        per_target: list[Value] = []
        for position in range(len(targets)):
            parts = [
                a.items[position] for a in fixed if position < len(a.items)
            ]
            element_fallback = _element_of(
                frozenset(a for a in value if not isinstance(a, TupleVal))
            )
            per_target.append(_union([*parts, element_fallback]))
        for target, part in zip(targets, per_target):
            self._assign(target, part, frame)

    def _eval_store_target(
        self, target: Union[ast.Attribute, ast.Subscript], frame: _Frame
    ) -> None:
        """A store reads its target's base (and index), not the stored member."""
        self._eval(target.value, frame)
        if isinstance(target, ast.Subscript):
            self._eval(target.slice, frame)

    # -------------------------------------------------- expressions
    def _eval(self, expr: ast.expr, frame: _Frame) -> Value:
        if isinstance(expr, ast.Name):
            return self._eval_name(expr.id, frame)
        if isinstance(expr, ast.Attribute):
            base = self._eval(expr.value, frame)
            return self._attr(base, expr.attr, frame, expr)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, frame)
        if isinstance(expr, ast.Constant):
            return UNKNOWN
        if isinstance(expr, ast.Subscript):
            base = self._eval(expr.value, frame)
            return self._subscript(base, expr.slice, frame)
        if isinstance(expr, ast.BinOp):
            self._eval(expr.left, frame)
            self._eval(expr.right, frame)
            return UNKNOWN
        if isinstance(expr, ast.UnaryOp):
            self._eval(expr.operand, frame)
            return UNKNOWN
        if isinstance(expr, ast.BoolOp):
            return _union(self._eval(v, frame) for v in expr.values)
        if isinstance(expr, ast.Compare):
            self._eval(expr.left, frame)
            for comparator in expr.comparators:
                self._eval(comparator, frame)
            return UNKNOWN
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test, frame)
            return _union(
                (self._eval(expr.body, frame), self._eval(expr.orelse, frame))
            )
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            items = tuple(self._eval(e, frame) for e in expr.elts)
            if isinstance(expr, ast.Tuple) and len(items) <= 8:
                return _v(TupleVal(items))
            return _v(IterVal(_union(items)))
        if isinstance(expr, ast.Dict):
            keys = _union(
                self._eval(k, frame) for k in expr.keys if k is not None
            )
            vals = _union(self._eval(v, frame) for v in expr.values)
            return _v(DictVal(keys, vals))
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            sub = self._comp_frame(expr.generators, frame)
            element = self._eval(expr.elt, sub)
            frame.env = sub.env
            return _v(IterVal(element))
        if isinstance(expr, ast.DictComp):
            sub = self._comp_frame(expr.generators, frame)
            key = self._eval(expr.key, sub)
            val = self._eval(expr.value, sub)
            frame.env = sub.env
            return _v(DictVal(key, val))
        if isinstance(expr, ast.Lambda):
            info = FunctionInfo(
                module=frame.module,
                name="<lambda>",
                qualname=f"{frame.func.qualname}.<lambda>",
                node=expr,
            )
            closure = tuple(sorted(frame.env.items()))
            return _v(FuncVal(info, closure=closure))
        if isinstance(expr, ast.JoinedStr):
            for part in expr.values:
                self._eval(part, frame)
            return UNKNOWN
        if isinstance(expr, ast.FormattedValue):
            self._eval(expr.value, frame)
            if expr.format_spec is not None:
                self._eval(expr.format_spec, frame)
            return UNKNOWN
        if isinstance(expr, ast.NamedExpr):
            value = self._eval(expr.value, frame)
            self._assign(expr.target, value, frame)
            return value
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value, frame)
        if isinstance(expr, ast.Slice):
            for part in (expr.lower, expr.upper, expr.step):
                if part is not None:
                    self._eval(part, frame)
            return UNKNOWN
        if isinstance(expr, (ast.Await, ast.YieldFrom)):
            return self._eval(expr.value, frame) if expr.value is not None else UNKNOWN
        if isinstance(expr, ast.Yield):
            if expr.value is not None:
                self._eval(expr.value, frame)
            return UNKNOWN
        return UNKNOWN

    def _comp_frame(
        self, generators: Sequence[ast.comprehension], frame: _Frame
    ) -> _Frame:
        sub = _Frame(
            func=frame.func,
            module=frame.module,
            returns=frame.returns,
            env=dict(frame.env),
        )
        for gen in generators:
            iterable = self._eval(gen.iter, sub)
            self._assign(gen.target, _element_of(iterable), sub)
            for cond in gen.ifs:
                self._eval(cond, sub)
        return sub

    def _eval_name(self, name: str, frame: _Frame) -> Value:
        if name in frame.env:
            return frame.env[name]
        entity = self.index.resolve(frame.module, name)
        if entity is not None:
            return self._entity_value(entity)
        return UNKNOWN

    # -------------------------------------------------- attribute access
    def _attr(
        self, base: Value, attr: str, frame: _Frame, node: ast.AST
    ) -> Value:
        results: list[Value] = []
        for atom in base:
            results.append(self._attr_atom(atom, attr, frame, node))
        return _union(results)

    def _attr_atom(
        self, atom: Atom, attr: str, frame: _Frame, node: ast.AST
    ) -> Value:
        if isinstance(atom, Instance):
            cls = atom.cls
            if self._is_boundary(cls.module):
                return UNKNOWN
            if attr.startswith("__") and attr.endswith("__"):
                return UNKNOWN
            if attr in cls.fields:
                self._record_read(cls, attr, frame, node)
                return self._annotation_value(cls.fields[attr], cls.module)
            if attr in cls.properties:
                self_name = _first_param_name(cls.properties[attr].node)
                bindings = {self_name: _v(atom)} if self_name else {}
                return self._analyze_function(cls.properties[attr], bindings)
            if attr in cls.methods:
                return _v(FuncVal(cls.methods[attr], recv=_v(atom)))
            if attr in cls.class_attrs:
                return _v(Instance(cls)) if cls.is_enum else UNKNOWN
            # Unknown attribute on a known class: record conservatively —
            # if the class is fingerprint-covered, the fingerprint must
            # account for whatever this is.
            self._record_read(cls, attr, frame, node)
            return UNKNOWN
        if isinstance(atom, ClassVal):
            cls = atom.cls
            if self._is_boundary(cls.module):
                return UNKNOWN
            if attr in cls.methods:
                method = cls.methods[attr]
                recv = _v(atom) if method.is_classmethod else None
                return _v(FuncVal(method, recv=recv))
            if attr in cls.class_attrs:
                return _v(Instance(cls)) if cls.is_enum else UNKNOWN
            return UNKNOWN
        if isinstance(atom, ModVal):
            entity = self.index.resolve(atom.module, attr)
            return self._entity_value(entity) if entity is not None else UNKNOWN
        if isinstance(atom, ExtVal):
            qualname = f"{atom.qualname}.{attr}"
            if _matches_sink(qualname, self.contract.sink_prefixes):
                self._flag_sink(qualname, frame, node)
            return _v(ExtVal(qualname))
        if isinstance(atom, DictVal) and attr in (
            "items", "values", "keys", "get", "setdefault", "pop", "copy"
        ):
            return _v(BoundBuiltin(kind=f"dict.{attr}", base=_v(atom)))
        return UNKNOWN

    # -------------------------------------------------- subscripts
    def _subscript(self, base: Value, slc: ast.expr, frame: _Frame) -> Value:
        index_value = self._eval(slc, frame)
        del index_value
        results: list[Value] = []
        for atom in base:
            if isinstance(atom, IterVal):
                results.append(
                    _v(IterVal(atom.elem)) if isinstance(slc, ast.Slice) else atom.elem
                )
            elif isinstance(atom, TupleVal):
                if isinstance(slc, ast.Constant) and isinstance(slc.value, int):
                    position = slc.value
                    if -len(atom.items) <= position < len(atom.items):
                        results.append(atom.items[position])
                else:
                    results.append(_union(atom.items))
            elif isinstance(atom, DictVal):
                results.append(atom.val)
        return _union(results)

    # -------------------------------------------------- calls
    def _eval_call(self, call: ast.Call, frame: _Frame) -> Value:
        args = [self._eval(a, frame) for a in call.args]
        kwargs = {
            kw.arg: self._eval(kw.value, frame)
            for kw in call.keywords
            if kw.arg is not None
        }
        for kw in call.keywords:
            if kw.arg is None:
                self._eval(kw.value, frame)

        func_expr = call.func
        if isinstance(func_expr, ast.Name):
            name = func_expr.id
            if name not in frame.env and self.index.resolve(frame.module, name) is None:
                return self._call_builtin(name, call, args, kwargs, frame)
        callee = self._eval(func_expr, frame)
        if not callee:
            return UNKNOWN
        results: list[Value] = []
        for atom in callee:
            results.append(self._call_atom(atom, call, args, kwargs, frame))
        return _union(results)

    def _call_atom(
        self,
        atom: Atom,
        call: ast.Call,
        args: Sequence[Value],
        kwargs: Mapping[str, Value],
        frame: _Frame,
    ) -> Value:
        if isinstance(atom, FuncVal):
            return self._call_function(atom, call, args, kwargs)
        if isinstance(atom, ClassVal):
            return _v(Instance(atom.cls))
        if isinstance(atom, ExtVal):
            qualname = atom.qualname
            if _matches_sink(qualname, self.contract.sink_prefixes):
                self._flag_sink(qualname, frame, call)
            if qualname in ("dataclasses.replace", "copy.copy", "copy.deepcopy"):
                return args[0] if args else UNKNOWN
            if qualname == "functools.partial" and args:
                # A deferred call reads what the call would read, whenever
                # it runs: walk it here, with the arguments it binds.
                for fn in args[0]:
                    if isinstance(fn, FuncVal):
                        self._call_function(fn, call, args[1:], kwargs)
            return UNKNOWN
        if isinstance(atom, BoundBuiltin):
            return self._call_bound_builtin(atom, args)
        return UNKNOWN

    def _call_function(
        self,
        fv: FuncVal,
        call: ast.Call,
        args: Sequence[Value],
        kwargs: Mapping[str, Value],
    ) -> Value:
        func = fv.func
        bindings: dict[str, Value] = dict(fv.closure)
        node_args = func.node.args
        params = [*node_args.posonlyargs, *node_args.args]
        positional = list(args)
        if fv.recv is not None and not func.is_staticmethod:
            positional = [fv.recv, *positional]
        has_star = any(isinstance(a, ast.Starred) for a in call.args)
        if not has_star:
            for param, value in zip(params, positional):
                bindings[param.arg] = value
        known = {p.arg for p in [*params, *node_args.kwonlyargs]}
        for name, value in kwargs.items():
            if name in known:
                bindings[name] = value
        return self._analyze_function(func, bindings)

    def _call_bound_builtin(
        self, atom: BoundBuiltin, args: Sequence[Value]
    ) -> Value:
        dicts = [a for a in atom.base if isinstance(a, DictVal)]
        keys = _union(d.key for d in dicts)
        vals = _union(d.val for d in dicts)
        kind = atom.kind
        if kind == "dict.items":
            return _v(IterVal(_v(TupleVal((keys, vals)))))
        if kind == "dict.keys":
            return _v(IterVal(keys))
        if kind == "dict.values":
            return _v(IterVal(vals))
        if kind in ("dict.get", "dict.pop"):
            default = args[1] if len(args) > 1 else UNKNOWN
            return _union((vals, default))
        if kind == "dict.setdefault":
            default = args[1] if len(args) > 1 else UNKNOWN
            return _union((vals, default))
        if kind == "dict.copy":
            return atom.base
        return UNKNOWN

    def _call_builtin(
        self,
        name: str,
        call: ast.Call,
        args: Sequence[Value],
        kwargs: Mapping[str, Value],
        frame: _Frame,
    ) -> Value:
        if name in self.contract.sink_builtins:
            self._flag_sink(f"builtins.{name}", frame, call)
            return UNKNOWN
        if name not in _BUILTIN_NAMES:
            return UNKNOWN
        first = args[0] if args else UNKNOWN
        if name in ("tuple", "list", "set", "frozenset", "iter", "reversed"):
            return first if first else _v(IterVal(UNKNOWN))
        if name == "sorted":
            key_fn = kwargs.get("key", UNKNOWN)
            self._apply_callable(key_fn, [_element_of(first)], frame, call)
            return first
        if name in ("min", "max"):
            key_fn = kwargs.get("key", UNKNOWN)
            self._apply_callable(key_fn, [_element_of(first)], frame, call)
            return _union([_element_of(first), *args[1:]])
        if name == "zip":
            return _v(IterVal(_v(TupleVal(tuple(_element_of(a) for a in args)))))
        if name == "enumerate":
            return _v(IterVal(_v(TupleVal((UNKNOWN, _element_of(first))))))
        if name == "next":
            return _element_of(first)
        if name == "map":
            result = self._apply_callable(
                first, [_element_of(a) for a in args[1:]], frame, call
            )
            return _v(IterVal(result))
        if name == "filter":
            self._apply_callable(first, [_element_of(args[1] if len(args) > 1 else UNKNOWN)], frame, call)
            return args[1] if len(args) > 1 else UNKNOWN
        if name == "getattr":
            return self._dynamic_getattr(call, args, frame)
        if name == "str":
            for atom in first:
                if isinstance(atom, Instance) and "__str__" in atom.cls.methods:
                    self._call_function(
                        FuncVal(atom.cls.methods["__str__"], recv=_v(atom)),
                        call,
                        [],
                        {},
                    )
            return UNKNOWN
        if name == "dict":
            return first if first else _v(DictVal(UNKNOWN, UNKNOWN))
        return UNKNOWN

    def _dynamic_getattr(
        self, call: ast.Call, args: Sequence[Value], frame: _Frame
    ) -> Value:
        if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant) and isinstance(
            call.args[1].value, str
        ):
            attr_value = self._attr(args[0], call.args[1].value, frame, call)
            default = args[2] if len(args) > 2 else UNKNOWN
            return _union((attr_value, default))
        return UNKNOWN

    def _apply_callable(
        self,
        func_value: Value,
        args: Sequence[Value],
        frame: _Frame,
        call: ast.Call,
    ) -> Value:
        results: list[Value] = []
        for atom in func_value:
            if isinstance(atom, FuncVal):
                results.append(self._call_function(atom, call, list(args), {}))
            elif isinstance(atom, ClassVal):
                results.append(_v(Instance(atom.cls)))
        return _union(results)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _in_modules(module: ModuleInfo, prefixes: Sequence[str]) -> bool:
    return any(module.name == p or module.name.startswith(p + ".") for p in prefixes)


def _first_param_name(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda],
) -> str | None:
    params = [*node.args.posonlyargs, *node.args.args]
    return params[0].arg if params else None


def _element_of(value: Value) -> Value:
    parts: list[Value] = []
    for atom in value:
        if isinstance(atom, IterVal):
            parts.append(atom.elem)
        elif isinstance(atom, TupleVal):
            parts.append(_union(atom.items))
        elif isinstance(atom, DictVal):
            parts.append(atom.key)
    return _union(parts)


def _ann_base_name(expr: ast.expr) -> str:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return ""


def _is_ellipsis(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Constant) and expr.value is Ellipsis


def _matches_sink(qualname: str, prefixes: Sequence[str]) -> bool:
    return any(
        qualname == p.rstrip(".") or qualname.startswith(p)
        for p in prefixes
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def walk_read_set(index: ModuleIndex, contract: MemoContract) -> _Analyzer:
    """Walk the call graph of ``contract.roots`` once; the walk's
    ``reads``, ``scalar_reads`` and ``sinks`` are what the checks judge.

    Raises :class:`ValueError` when a declared root cannot be resolved —
    a silent no-op analysis would report a clean bill it never earned.
    """
    analyzer = _Analyzer(index, contract)
    for root in contract.roots:
        func = index.resolve_qualname(root)
        if func is None:
            raise ValueError(f"cannot resolve analysis root {root!r}")
        analyzer.analyze_root(func)
    return analyzer


def cache_safety_findings(walk: _Analyzer) -> list[Diagnostic]:
    """CAC001 and CAC003 over one walk, ordered by rule id then location."""
    coverage = walk.contract.coverage
    diagnostics = list(walk.sinks)
    for (cls_name, attr), location in sorted(walk.reads.items()):
        spec = coverage.get(cls_name)
        if spec is None or attr in spec.covered:
            continue
        diagnostics.append(
            CAC001.diag(
                location,
                f"{cls_name}.{attr} is read by the memoized evaluation but "
                "missing from the cache-key fingerprint",
                hint=f"fold {attr} into the {cls_name} fingerprint, or declare "
                "it result-invariant if it cannot change the metrics",
            )
        )
    diagnostics.sort(key=lambda d: (d.rule_id, d.location, d.message))
    return diagnostics


def analyze_memoized(
    index: ModuleIndex, contract: MemoContract
) -> list[Diagnostic]:
    """Run the cache-safety analysis over an indexed tree (CAC001, CAC003)."""
    return cache_safety_findings(walk_read_set(index, contract))


def simulator_contract() -> MemoContract:
    """The repro tree's own memoization and kernel-parity contract.

    Coverage comes from the declarations next to the code it describes:
    :data:`~repro.sim.cache.FINGERPRINTED_FIELDS` /
    :data:`~repro.sim.cache.RESULT_INVARIANT_FIELDS` (the tables the
    fingerprint implementations fold over) and
    :data:`~repro.sim.kernels.KERNEL_COVERAGE`, so the analyzer checks
    what the cache and the kernels actually do, not a parallel copy.
    """
    from ..sim.cache import FINGERPRINTED_FIELDS, RESULT_INVARIANT_FIELDS
    from ..sim.kernels import KERNEL_COVERAGE

    coverage = {
        cls_name: CoverageSpec(
            fingerprinted=frozenset(fields),
            exempt=frozenset(RESULT_INVARIANT_FIELDS.get(cls_name, ())),
        )
        for cls_name, fields in FINGERPRINTED_FIELDS.items()
    }
    return MemoContract(
        roots=(
            "repro.sim.simulator:Simulator.evaluate",
            "repro.sim.simulator:Simulator.try_evaluate",
        ),
        coverage=coverage,
        # ``repro.obs`` is a boundary for the same reason the cache is:
        # its clocks and sinks are deliberate I/O that never feeds back
        # into a metric (the trace-invariance battery is the evidence).
        boundary_modules=("repro.sim.cache", "repro.obs"),
        # The kernels are the subject of the parity comparison, not part
        # of the scalar path, and neither is the validation the walk
        # reaches in ``repro.analysis``.
        scalar_boundary=("repro.sim.kernels", "repro.analysis"),
        kernel_module="repro.sim.kernels",
        kernel_coverage=KERNEL_COVERAGE,
    )


def read_set_sweep(
    root: Path | str | None,
    checks: Mapping[str, Callable[[_Analyzer], list[Diagnostic]]],
) -> dict[str, list[Diagnostic] | ValueError]:
    """Run every check of ``checks`` off one walk of the tree at ``root``.

    The walk parses each module its roots reach once, for every check,
    and its index is dropped on return.  A check ends with its findings,
    or with the :class:`ValueError` that refuses the tree: a root that
    does not resolve, a reached module that does not parse, or its own
    refusal.
    """
    if not checks:
        return {}
    try:
        walk = walk_read_set(ModuleIndex.from_package(root), simulator_contract())
    except ValueError as exc:
        return {name: exc for name in checks}
    results: dict[str, list[Diagnostic] | ValueError] = {}
    for name, check in checks.items():
        try:
            results[name] = check(walk)
        except ValueError as exc:
            results[name] = exc
    return results


def analyze_cache_safety(root: Path | None = None) -> list[Diagnostic]:
    """Prove (or refute) the simulator's cache-key soundness contract.

    Indexes the installed ``repro`` package (or an explicit source tree
    rooted at ``root``) and runs :func:`cache_safety_findings` over the
    walk of :func:`simulator_contract`.  An empty result is the theorem:
    no attribute the evaluation reads escapes the fingerprint, and no
    nondeterministic or I/O sink is reachable.
    """
    return analyze_memoized(ModuleIndex.from_package(root), simulator_contract())
