"""Static race detection for the shared-cache / worker fan-out paths.

A caller may share one ``Simulator`` (and therefore one
``EvaluationCache``) across threads — ``Simulator.evaluate_many`` and
``autohet_multi_seed`` are the batch front-ends that drive it — and the
``repro.obs`` tracers hold thread-locals and open files that must never
cross a process boundary.  All of that is only *informally*
thread-safe — docstrings promise locks.  This module proves the
discipline statically, the same way :mod:`repro.analysis.dataflow`
proves cache-key soundness:

1. **Fan-out discovery** — every function whose body mentions
   ``ThreadPoolExecutor`` / ``ProcessPoolExecutor`` / ``threading.Thread``
   (plus the contract's declared roots) becomes an analysis root.
2. **Worker traversal** — the dataflow interpreter follows the submitted
   callables into worker context, tracking *escape provenance*: objects
   that flow into a worker from outside (closures, parameters, attributes
   of shared objects) are shared; objects the worker constructs itself
   are fresh and cannot race.
3. **Lock discipline** — mutable attributes declare their guard with a
   structured comment, sibling to PR 1's ``# stateful:`` markers::

       self._entries: OrderedDict[CacheKey, object] = OrderedDict()  # guarded-by: _lock

   and helpers that are only ever called with the lock held declare it
   on the ``def`` line::

       def _handle(self) -> TextIO:  # holds-lock: _lock

   The special guard tokens ``thread-local``, ``atomic``, ``init-only``
   and ``worker-local`` declare an attribute safe without a lock.

The CON rule family (:mod:`repro.analysis.invariants`):

========  =============================================================
CON001    write to a shared mutable attribute from a thread worker with
          no declared guard and no lock held (ERROR)
CON002    module-global mutation reachable from a worker (ERROR)
CON003    tracer / lock / open-file / non-picklable state captured
          across a process boundary (ERROR)
CON004    shared RNG (``random.random`` …) drawn inside a worker without
          per-worker seeding (ERROR)
CON005    ``guarded-by`` declared but a write site is not dominated by
          ``with self.<lock>:`` (ERROR)
========  =============================================================

CON005 is checked twice: along the interpreter's worker traversal (which
also catches *external* writers of a guarded attribute) and by a
whole-class syntactic pass over every method of every class that
declares a guard — discipline holds even for methods no fan-out reaches
yet.  Like the cache-safety pass, the interpreter is optimistic about
unknowns; strictness comes from the known surface (indexed classes,
declared guards, resolvable callables).

Entry points: :func:`analyze_concurrency_tree` (generic, over any
:class:`~repro.analysis.callgraph.ModuleIndex`), :func:`concurrency_contract`
(the repro tree's own fan-out contract) and :func:`analyze_concurrency`
(wired into ``repro check --concurrency``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from .callgraph import ClassInfo, FunctionInfo, ModuleConstant, ModuleIndex, ModuleInfo
from .dataflow import (
    MUTATOR_METHODS,
    UNKNOWN,
    Atom,
    ClassVal,
    DictVal,
    ExtVal,
    FuncVal,
    Instance,
    IterVal,
    MemoContract,
    TupleVal,
    Value,
    _Analyzer,
    _element_of,
    _first_param_name,
    _Frame,
    _v,
)
from .invariants import CON001, CON002, CON003, CON004, CON005, Diagnostic, Rule

# ----------------------------------------------------------------------
# Structured comment contracts
# ----------------------------------------------------------------------

#: ``# guarded-by: <lock-attr-or-token>`` on an attribute definition line
_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][\w-]*)")
#: ``# holds-lock: <lock-attr>`` on a method's ``def`` line
_HOLDS_LOCK = re.compile(r"#\s*holds-lock:\s*([A-Za-z_]\w*)")

#: guard tokens that declare an attribute safe *without* a lock
EXEMPT_GUARDS: frozenset[str] = frozenset(
    {"thread-local", "atomic", "init-only", "worker-local"}
)

#: methods where writes establish, not mutate, state
_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__", "__del__"})

#: constructor calls that make a class non-picklable (CON003)
_HAZARD_CALLS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
     "Event", "Barrier", "local", "open"}
)

#: constructors of module-level mutable containers (CON002 carriers)
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "OrderedDict", "defaultdict", "deque", "Counter"}
)


def _scan_lines(source: str, start: int, stop: int, pattern: re.Pattern[str]) -> list[str]:
    """All ``pattern`` captures on source lines ``start``..``stop`` (1-based,
    inclusive), plus a pure-comment line immediately above ``start``."""
    lines = source.splitlines()
    found: list[str] = []
    if start >= 2 and start - 2 < len(lines):
        above = lines[start - 2].strip()
        if above.startswith("#"):
            found.extend(pattern.findall(above))
    for line in lines[start - 1 : stop]:
        found.extend(pattern.findall(line))
    return found


def _guard_markers(cls: ClassInfo) -> dict[str, str]:
    """``attr -> guard`` declared by ``# guarded-by:`` comments on the
    class body and on ``self.<attr> = …`` lines in ``__init__``."""
    guards: dict[str, str] = {}
    source = cls.module.source

    def note(stmt: ast.stmt, attrs: Iterable[str]) -> None:
        stop = getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno
        names = _scan_lines(source, stmt.lineno, stop, _GUARDED_BY)
        if names:
            for attr in attrs:
                guards.setdefault(attr, names[0])

    for stmt in cls.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            note(stmt, [stmt.target.id])
        elif isinstance(stmt, ast.Assign):
            note(
                stmt,
                [t.id for t in stmt.targets if isinstance(t, ast.Name)],
            )
    for name in ("__init__", "__post_init__"):
        init = cls.methods.get(name)
        if init is None:
            continue
        self_name = _first_param_name(init.node)
        for stmt in ast.walk(init.node):
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            attrs = [
                t.attr
                for t in targets
                if isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == self_name
            ]
            if attrs and isinstance(stmt, ast.stmt):
                note(stmt, attrs)
    return guards


def _holds_markers(func: FunctionInfo) -> list[str]:
    """Lock attrs a method's ``def`` line declares as held on entry."""
    node = func.node
    if isinstance(node, ast.Lambda) or not node.body:
        return []
    stop = max(node.lineno, node.body[0].lineno - 1)
    return _scan_lines(func.module.source, node.lineno, stop, _HOLDS_LOCK)


# ----------------------------------------------------------------------
# Extra abstract values
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PoolVal:
    """A live executor (``kind`` is ``"thread"`` or ``"process"``)."""

    kind: str


@dataclass(frozen=True)
class PoolMethod:
    """An executor's ``submit`` / ``map`` awaiting its call."""

    kind: str
    method: str


@dataclass(frozen=True)
class GlobalVal:
    """A module-level mutable container (CON002 carrier)."""

    module: str
    name: str


@dataclass(frozen=True)
class InstanceOv:
    """An instance copied via ``dataclasses.replace`` with per-field
    overrides — the pickle walk (CON003) honours the overrides, so
    ``replace(self, cache=None, tracer=NULL_TRACER)`` is recognised as
    deliberately stripping the non-picklable state."""

    cls: ClassInfo
    overrides: tuple[tuple[str, Value], ...]


# ----------------------------------------------------------------------
# The contract
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConcurrencyContract:
    """What fans out, and what is known-safe."""

    #: roots that must resolve (``"module:Class.method"`` / ``"module:func"``);
    #: unresolvable roots raise — a silent no-op analysis proves nothing
    extra_roots: tuple[str, ...] = ()
    #: module prefixes excluded from traversal (the analyzer itself)
    boundary_modules: tuple[str, ...] = ()
    #: names whose mere mention makes a function a fan-out root
    fan_out_markers: frozenset[str] = frozenset(
        {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread"}
    )
    #: external prefixes that are shared RNG state (CON004)
    rng_prefixes: tuple[str, ...] = ("random.", "numpy.random.")
    #: per-worker-seedable constructors exempt from CON004
    rng_safe: frozenset[str] = frozenset(
        {"random.Random", "random.SystemRandom", "numpy.random.default_rng",
         "numpy.random.Generator", "numpy.random.SeedSequence"}
    )
    #: class simple names declared picklable despite their bases (CON003)
    picklable_allowlist: frozenset[str] = frozenset()
    #: external prefixes that never pickle (CON003)
    nonpicklable_ext_prefixes: tuple[str, ...] = (
        "threading.", "_thread.", "io.", "socket.", "sqlite3.",
    )


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------


class _ConAnalyzer(_Analyzer):
    """Dataflow interpreter specialised for race detection.

    Reuses the base traversal machinery with an inert
    :class:`~repro.analysis.dataflow.MemoContract` (no coverage, no
    sinks, no purity classes), so none of the CAC/PUR rules fire; all
    findings land in :attr:`findings` as CON diagnostics."""

    def __init__(self, index: ModuleIndex, contract: ConcurrencyContract) -> None:
        super().__init__(
            index,
            MemoContract(
                roots=(),
                coverage={},
                boundary_modules=contract.boundary_modules,
                purity_classes=frozenset(),
                sink_prefixes=(),
                sink_builtins=frozenset(),
            ),
        )
        self.con = contract
        self.findings: list[Diagnostic] = []
        #: worker-context stack: "thread" / "process" entries
        self._ctx: list[str] = []
        #: (class simple name, lock attr) locks currently held
        self._held: list[tuple[str, str]] = []
        self._guard_cache: dict[int, dict[str, str]] = {}
        self._hazard_cache: dict[int, str | None] = {}
        self._con_reported: set[object] = set()

    # -------------------------------------------------- plumbing
    def _ctx_kind(self) -> str | None:
        return self._ctx[-1] if self._ctx else None

    def _emit_con(
        self,
        rule: Rule,
        key: object,
        location: str,
        message: str,
        hint: str,
    ) -> None:
        if key in self._con_reported:
            return
        self._con_reported.add(key)
        self.findings.append(rule.diag(location, message, hint=hint))

    def _guards(self, cls: ClassInfo) -> dict[str, str]:
        cached = self._guard_cache.get(id(cls))
        if cached is None:
            cached = _guard_markers(cls)
            # inherited guards apply to subclasses (own declarations win)
            for base_name in cls.base_names:
                base = self.index.find_class(base_name)
                if base is not None and base is not cls:
                    for attr, guard in self._guards(base).items():
                        cached.setdefault(attr, guard)
            self._guard_cache[id(cls)] = cached
        return cached

    # -------------------------------------------------- memo context
    def _memo_key(self, func: FunctionInfo, bindings: Mapping[str, Value]) -> object:
        return (
            super()._memo_key(func, bindings),
            self._ctx_kind(),
            frozenset(self._held),
        )

    def _analyze_function(
        self, func: FunctionInfo, bindings: Mapping[str, Value]
    ) -> Value:
        pushed = 0
        if func.cls is not None:
            for lock in _holds_markers(func):
                self._held.append((func.cls.name, lock))
                pushed += 1
        try:
            return super()._analyze_function(func, bindings)
        finally:
            if pushed:
                del self._held[-pushed:]

    # -------------------------------------------------- statements
    def _exec(self, stmt: ast.stmt, frame: _Frame) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            pushed = 0
            for item in stmt.items:
                ctx_value = self._eval(item.context_expr, frame)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, ctx_value, frame)
                expr = item.context_expr
                if isinstance(expr, ast.Attribute):
                    for atom in self._eval(expr.value, frame):
                        owner = _owner_class(atom)
                        if owner is not None:
                            self._held.append((owner.name, expr.attr))
                            pushed += 1
            try:
                self._exec_block(stmt.body, frame)
            finally:
                if pushed:
                    del self._held[-pushed:]
            return
        if isinstance(stmt, ast.Global):
            # Base would emit PUR002 — the purity rules are not this
            # analyzer's business; a global rebinding *in a worker* is.
            if self._ctx:
                self._flag_global_mutation(
                    f"{frame.module.name}.{'/'.join(stmt.names)}",
                    "rebinds a module global",
                    frame,
                    stmt,
                )
            return
        super()._exec(stmt, frame)

    # -------------------------------------------------- values
    def _entity_value(self, entity: object) -> Value:
        if isinstance(entity, ModuleConstant) and _is_mutable_literal(entity.value):
            return _v(GlobalVal(entity.module.name, entity.name))
        return super()._entity_value(entity)

    def _attr_atom(
        self, atom: Atom, attr: str, frame: _Frame, node: ast.AST
    ) -> Value:
        if isinstance(atom, PoolVal):
            if attr in ("submit", "map"):
                return _v(PoolMethod(atom.kind, attr))
            return UNKNOWN
        if isinstance(atom, GlobalVal):
            if attr in MUTATOR_METHODS and self._ctx:
                self._flag_global_mutation(
                    f"{atom.module}.{atom.name}", f"calls .{attr}()", frame, node
                )
            return UNKNOWN
        if isinstance(atom, InstanceOv):
            overrides = dict(atom.overrides)
            if attr in overrides:
                return overrides[attr]
            return super()._attr_atom(Instance(atom.cls), attr, frame, node)
        result = super()._attr_atom(atom, attr, frame, node)
        if isinstance(atom, Instance) and not atom.shared:
            # Attributes of a worker-fresh object are worker-fresh too.
            result = frozenset(
                Instance(a.cls, shared=False) if isinstance(a, Instance) else a
                for a in result
            )
        return result

    # -------------------------------------------------- writes
    def _check_store_target(
        self, target: Union[ast.Attribute, ast.Subscript], frame: _Frame
    ) -> None:
        base = self._eval(target.value, frame)
        if isinstance(target, ast.Subscript):
            self._eval(target.slice, frame)
        if not self._ctx:
            return
        for atom in base:
            if isinstance(atom, GlobalVal):
                detail = (
                    f"sets .{target.attr}"
                    if isinstance(target, ast.Attribute)
                    else "assigns into a subscript"
                )
                self._flag_global_mutation(
                    f"{atom.module}.{atom.name}", detail, frame, target
                )
                continue
            owner = _owner_class(atom)
            if owner is None or (isinstance(atom, Instance) and not atom.shared):
                continue
            if isinstance(target, ast.Attribute):
                self._record_shared_write(
                    owner, target.attr, frame, target, f"sets .{target.attr}"
                )
        # ``self.attr[k] = v`` mutates the container *held by* attr.
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Attribute
        ):
            for atom in self._eval(target.value.value, frame):
                owner = _owner_class(atom)
                if owner is None or (isinstance(atom, Instance) and not atom.shared):
                    continue
                self._record_shared_write(
                    owner,
                    target.value.attr,
                    frame,
                    target,
                    f"assigns into .{target.value.attr}[...]",
                )

    def _eval_call(self, call: ast.Call, frame: _Frame) -> Value:
        func_expr = call.func
        if (
            self._ctx
            and isinstance(func_expr, ast.Attribute)
            and func_expr.attr in MUTATOR_METHODS
            and isinstance(func_expr.value, ast.Attribute)
        ):
            # ``shared.attr.append(x)``: a mutation of the container the
            # attribute holds — invisible to the value lattice when the
            # attribute is untyped, so check it syntactically.
            for atom in self._eval(func_expr.value.value, frame):
                owner = _owner_class(atom)
                if owner is None or (isinstance(atom, Instance) and not atom.shared):
                    continue
                self._record_shared_write(
                    owner,
                    func_expr.value.attr,
                    frame,
                    func_expr,
                    f"calls .{func_expr.value.attr}.{func_expr.attr}()",
                )
        return super()._eval_call(call, frame)

    def _record_shared_write(
        self,
        cls: ClassInfo,
        attr: str,
        frame: _Frame,
        node: ast.AST,
        detail: str,
    ) -> None:
        if frame.func.cls is cls and frame.func.name in _INIT_METHODS:
            return
        guards = self._guards(cls)
        guard = guards.get(attr)
        if guard in EXEMPT_GUARDS:
            return
        location = self._loc(frame, node)
        if guard is not None:
            if (cls.name, guard) in self._held:
                return
            self._emit_con(
                CON005,
                ("CON005", frame.module.name, getattr(node, "lineno", 0), attr),
                location,
                f"{frame.func.qualname} {detail} on {cls.name}, but "
                f"{cls.name}.{attr} is declared `# guarded-by: {guard}` and "
                f"the write is not under `with self.{guard}:`",
                hint=f"wrap the write in `with self.{guard}:`, or mark the "
                f"enclosing method `# holds-lock: {guard}` if every caller "
                "already holds it",
            )
            return
        if any(held_cls == cls.name for held_cls, _ in self._held):
            return  # some lock of this class is held — de-facto guarded
        if self._ctx_kind() != "thread":
            # A process worker writes to its own pickled copy: the update
            # is lost, not racy — the merge-back contract owns that.
            return
        self._emit_con(
            CON001,
            ("CON001", frame.module.name, getattr(node, "lineno", 0), attr),
            location,
            f"thread worker ({frame.func.qualname}) {detail} on a shared "
            f"{cls.name} with no declared guard — concurrent workers can "
            "interleave and lose updates",
            hint=f"guard {cls.name}.{attr} with a lock and declare it "
            "`# guarded-by: <lock>`, or declare it "
            "`# guarded-by: worker-local` if each worker owns its instance",
        )

    def _flag_global_mutation(
        self, what: str, detail: str, frame: _Frame, node: ast.AST
    ) -> None:
        self._emit_con(
            CON002,
            ("CON002", frame.module.name, getattr(node, "lineno", 0), what),
            self._loc(frame, node),
            f"{self._ctx_kind()} worker ({frame.func.qualname}) {detail} "
            f"on module-level state {what}",
            hint="thread workers race on module globals and process workers "
            "mutate a throwaway copy; return the value and aggregate in "
            "the parent instead",
        )

    # -------------------------------------------------- calls
    def _call_atom(
        self,
        atom: Atom,
        call: ast.Call,
        args: Sequence[Value],
        kwargs: Mapping[str, Value],
        frame: _Frame,
    ) -> Value:
        if isinstance(atom, PoolMethod):
            self._fan_out(atom, call, args, kwargs, frame)
            return UNKNOWN
        if isinstance(atom, ClassVal):
            return self._construct(atom.cls, call, args, kwargs)
        if isinstance(atom, InstanceOv):
            return super()._call_atom(Instance(atom.cls), call, args, kwargs, frame)
        if isinstance(atom, ExtVal):
            qualname = atom.qualname
            tail = qualname.rpartition(".")[2]
            if tail == "ThreadPoolExecutor":
                return _v(PoolVal("thread"))
            if tail == "ProcessPoolExecutor":
                return _v(PoolVal("process"))
            if qualname in ("threading.Thread", "Thread"):
                self._spawn_thread(call, args, kwargs, frame)
                return UNKNOWN
            if qualname == "dataclasses.replace":
                return self._replace_value(args, kwargs)
            self._check_rng(qualname, frame, call)
        return super()._call_atom(atom, call, args, kwargs, frame)

    def _construct(
        self,
        cls: ClassInfo,
        call: ast.Call,
        args: Sequence[Value],
        kwargs: Mapping[str, Value],
    ) -> Value:
        instance = Instance(cls, shared=False)
        if not self._is_boundary(cls.module):
            init = cls.methods.get("__init__")
            if init is not None:
                self._call_function(
                    FuncVal(init, recv=_v(instance)), call, list(args), dict(kwargs)
                )
            post = cls.methods.get("__post_init__")
            if post is not None:
                self._call_function(FuncVal(post, recv=_v(instance)), call, [], {})
        return _v(instance)

    def _replace_value(
        self, args: Sequence[Value], kwargs: Mapping[str, Value]
    ) -> Value:
        if not args:
            return UNKNOWN
        out: list[Atom] = []
        for atom in args[0]:
            base_overrides: dict[str, Value] = {}
            cls: ClassInfo | None = None
            if isinstance(atom, Instance):
                cls = atom.cls
            elif isinstance(atom, InstanceOv):
                cls = atom.cls
                base_overrides = dict(atom.overrides)
            if cls is None:
                continue
            base_overrides.update(kwargs)
            out.append(
                InstanceOv(cls, tuple(sorted(base_overrides.items())))
            )
        return frozenset(out) if out else args[0]

    def _check_rng(self, qualname: str, frame: _Frame, node: ast.AST) -> None:
        if not self._ctx or qualname in self.con.rng_safe:
            return
        if not any(
            qualname == p.rstrip(".") or qualname.startswith(p)
            for p in self.con.rng_prefixes
        ):
            return
        self._emit_con(
            CON004,
            ("CON004", frame.func.qualname, qualname),
            self._loc(frame, node),
            f"{self._ctx_kind()} worker ({frame.func.qualname}) draws from "
            f"the shared module-level RNG {qualname!r} — results depend on "
            "worker scheduling (threads) or duplicated fork state (processes)",
            hint="construct a per-worker `random.Random(seed)` / "
            "`numpy.random.default_rng(seed)` and draw from that",
        )

    # -------------------------------------------------- fan-out
    def _fan_out(
        self,
        pool: PoolMethod,
        call: ast.Call,
        args: Sequence[Value],
        kwargs: Mapping[str, Value],
        frame: _Frame,
    ) -> None:
        if not args:
            return
        fn_value = args[0]
        if pool.method == "map":
            worker_args = [_element_of(a) for a in args[1:]]
        else:
            worker_args = list(args[1:])
        if pool.kind == "process":
            self._check_process_callable(fn_value, frame, call)
            for value in [*worker_args, *kwargs.values()]:
                self._check_pickle(value, frame, call, depth=0)
        self._run_workers(pool.kind, fn_value, worker_args, kwargs, call)

    def _spawn_thread(
        self,
        call: ast.Call,
        args: Sequence[Value],
        kwargs: Mapping[str, Value],
        frame: _Frame,
    ) -> None:
        del frame
        target = kwargs.get("target", args[0] if args else UNKNOWN)
        packed = kwargs.get("args", UNKNOWN)
        worker_args: list[Value] = []
        for atom in packed:
            if isinstance(atom, TupleVal):
                worker_args = list(atom.items)
                break
            if isinstance(atom, IterVal):
                worker_args = [atom.elem]
                break
        self._run_workers("thread", target, worker_args, {}, call)

    def _run_workers(
        self,
        kind: str,
        fn_value: Value,
        worker_args: list[Value],
        kwargs: Mapping[str, Value],
        call: ast.Call,
    ) -> None:
        passthrough = {
            name: value
            for name, value in kwargs.items()
            if name not in ("target", "args", "max_workers", "chunksize", "timeout")
        }
        self._ctx.append(kind)
        try:
            for atom in fn_value:
                if isinstance(atom, FuncVal):
                    self._call_function(atom, call, list(worker_args), passthrough)
                elif isinstance(atom, ClassVal):
                    self._construct(atom.cls, call, worker_args, passthrough)
        finally:
            self._ctx.pop()

    # -------------------------------------------------- pickling (CON003)
    def _check_process_callable(
        self, fn_value: Value, frame: _Frame, node: ast.AST
    ) -> None:
        for atom in fn_value:
            if not isinstance(atom, FuncVal):
                continue
            func = atom.func
            _, _, local = func.qualname.partition(":")
            nested = func.cls is None and "." in local
            if func.name == "<lambda>" or nested:
                self._emit_con(
                    CON003,
                    ("CON003", func.qualname, "callable"),
                    self._loc(frame, node),
                    f"process-pool worker callable {func.qualname} is a "
                    "closure/lambda — it cannot be pickled to the child",
                    hint="hoist the worker to a module-level function and "
                    "pass its inputs explicitly",
                )
            elif atom.recv is not None:
                self._check_pickle(atom.recv, frame, node, depth=0)

    def _check_pickle(
        self, value: Value, frame: _Frame, node: ast.AST, depth: int
    ) -> None:
        if depth > 4:
            return
        for atom in value:
            if isinstance(atom, (Instance, InstanceOv)):
                overrides: Mapping[str, Value] = (
                    dict(atom.overrides) if isinstance(atom, InstanceOv) else {}
                )
                hazard = self._pickle_hazard(atom.cls, frozenset())
                if hazard is not None:
                    self._flag_pickle(atom.cls.name, hazard, frame, node)
                self._walk_fields(atom.cls, overrides, frame, node, depth)
            elif isinstance(atom, ExtVal):
                if any(
                    atom.qualname.startswith(p)
                    for p in self.con.nonpicklable_ext_prefixes
                ):
                    self._flag_pickle(atom.qualname, atom.qualname, frame, node)
            elif isinstance(atom, FuncVal):
                _, _, local = atom.func.qualname.partition(":")
                if atom.func.name == "<lambda>" or (
                    atom.func.cls is None and "." in local
                ):
                    self._flag_pickle(atom.func.qualname, "a closure/lambda", frame, node)
            elif isinstance(atom, (IterVal,)):
                self._check_pickle(atom.elem, frame, node, depth + 1)
            elif isinstance(atom, TupleVal):
                for item in atom.items:
                    self._check_pickle(item, frame, node, depth + 1)
            elif isinstance(atom, DictVal):
                self._check_pickle(atom.key, frame, node, depth + 1)
                self._check_pickle(atom.val, frame, node, depth + 1)

    def _walk_fields(
        self,
        cls: ClassInfo,
        overrides: Mapping[str, Value],
        frame: _Frame,
        node: ast.AST,
        depth: int,
    ) -> None:
        if cls.name in self.con.picklable_allowlist or depth >= 4:
            return
        for field_name, annotation in cls.fields.items():
            if field_name in overrides:
                self._check_pickle(overrides[field_name], frame, node, depth + 1)
            else:
                self._check_pickle(
                    self._annotation_value(annotation, cls.module),
                    frame,
                    node,
                    depth + 1,
                )

    def _pickle_hazard(self, cls: ClassInfo, seen: frozenset[int]) -> str | None:
        """Why ``cls``'s *own* state does not survive pickling, or ``None``.

        Scans ``__init__`` (and base ``__init__`` when it is inherited or
        chained via ``super()``) for lock / thread-local / open-file
        construction.  Field-held hazards are found by the recursive
        value walk in :meth:`_check_pickle`, which honours ``replace``
        overrides."""
        if cls.name in self.con.picklable_allowlist:
            return None
        if id(cls) in seen:
            return None
        if id(cls) in self._hazard_cache:
            return self._hazard_cache[id(cls)]
        seen = seen | {id(cls)}
        hazard: str | None = None
        init = cls.methods.get("__init__")
        if init is not None:
            hazard = _init_hazard(cls, init)
        if hazard is None and (init is None or _calls_super_init(init)):
            for base_name in cls.base_names:
                base = self.index.find_class(base_name)
                if base is not None and base is not cls:
                    hazard = self._pickle_hazard(base, seen)
                    if hazard is not None:
                        break
        self._hazard_cache[id(cls)] = hazard
        return hazard

    def _flag_pickle(
        self, what: str, why: str, frame: _Frame, node: ast.AST
    ) -> None:
        self._emit_con(
            CON003,
            ("CON003", frame.func.qualname, what, why),
            self._loc(frame, node),
            f"{what} crosses the process-pool boundary but holds "
            f"non-picklable state ({why})",
            hint="ship a stripped copy (e.g. `dataclasses.replace(obj, "
            "cache=None, tracer=NULL_TRACER)`) and merge results back in "
            "the parent",
        )

    # -------------------------------------------------- root discovery
    def discover_roots(self) -> list[FunctionInfo]:
        roots: list[FunctionInfo] = []
        seen: set[int] = set()
        for qualname in self.con.extra_roots:
            func = self.index.resolve_qualname(qualname)
            if func is None:
                raise ValueError(f"cannot resolve concurrency root {qualname!r}")
            if id(func) not in seen:
                seen.add(id(func))
                roots.append(func)
        for module_name in sorted(self.index.modules):
            module = self.index.modules[module_name]
            if self._is_boundary(module):
                continue
            for func in _all_functions(module):
                if id(func) in seen:
                    continue
                if _mentions_fan_out(func.node, self.con.fan_out_markers):
                    seen.add(id(func))
                    roots.append(func)
        return roots

    # -------------------------------------------------- CON005 (syntactic)
    def check_discipline(self, module: ModuleInfo) -> None:
        """Whole-class pass: every write to a lock-guarded attribute, in
        every method, must be dominated by ``with self.<lock>:`` (or the
        method must declare ``# holds-lock:``)."""
        for cls in module.classes.values():
            guards = {
                attr: guard
                for attr, guard in self._guards(cls).items()
                if guard not in EXEMPT_GUARDS
            }
            if not guards:
                continue
            for func in [*cls.methods.values(), *cls.properties.values()]:
                if func.name in _INIT_METHODS or func.is_staticmethod:
                    continue
                self_name = _first_param_name(func.node)
                if self_name is None:
                    continue
                node = func.node
                if isinstance(node, ast.Lambda):
                    continue
                held = frozenset(_holds_markers(func))
                self._discipline_block(
                    node.body, cls, func, self_name, guards, held
                )

    def _discipline_block(
        self,
        stmts: Sequence[ast.stmt],
        cls: ClassInfo,
        func: FunctionInfo,
        self_name: str,
        guards: Mapping[str, str],
        held: frozenset[str],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired = {
                    item.context_expr.attr
                    for item in stmt.items
                    if isinstance(item.context_expr, ast.Attribute)
                    and isinstance(item.context_expr.value, ast.Name)
                    and item.context_expr.value.id == self_name
                }
                self._discipline_block(
                    stmt.body, cls, func, self_name, guards, held | acquired
                )
            elif isinstance(stmt, ast.If):
                self._discipline_leaf(stmt.test, cls, func, self_name, guards, held)
                self._discipline_block(stmt.body, cls, func, self_name, guards, held)
                self._discipline_block(stmt.orelse, cls, func, self_name, guards, held)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._discipline_leaf(stmt.iter, cls, func, self_name, guards, held)
                self._discipline_block(stmt.body, cls, func, self_name, guards, held)
                self._discipline_block(stmt.orelse, cls, func, self_name, guards, held)
            elif isinstance(stmt, ast.While):
                self._discipline_leaf(stmt.test, cls, func, self_name, guards, held)
                self._discipline_block(stmt.body, cls, func, self_name, guards, held)
                self._discipline_block(stmt.orelse, cls, func, self_name, guards, held)
            elif isinstance(stmt, ast.Try):
                for block in (stmt.body, stmt.orelse, stmt.finalbody):
                    self._discipline_block(block, cls, func, self_name, guards, held)
                for handler in stmt.handlers:
                    self._discipline_block(
                        handler.body, cls, func, self_name, guards, held
                    )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested closure may run after the lock is released;
                # analyze it as if nothing were held.
                self._discipline_block(
                    stmt.body, cls, func, self_name, guards, frozenset()
                )
            else:
                self._discipline_leaf(stmt, cls, func, self_name, guards, held)

    def _discipline_leaf(
        self,
        node: ast.AST,
        cls: ClassInfo,
        func: FunctionInfo,
        self_name: str,
        guards: Mapping[str, str],
        held: frozenset[str],
    ) -> None:
        def is_self_attr(expr: ast.expr) -> str | None:
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == self_name
            ):
                return expr.attr
            return None

        def check(attr: str | None, sub: ast.AST, detail: str) -> None:
            if attr is None or attr not in guards:
                return
            guard = guards[attr]
            if guard in held:
                return
            self._emit_con(
                CON005,
                ("CON005", cls.module.name, getattr(sub, "lineno", 0), attr),
                f"{cls.module.name}:{getattr(sub, 'lineno', func.lineno)}",
                f"{func.qualname} {detail} but {cls.name}.{attr} is declared "
                f"`# guarded-by: {guard}` and `self.{guard}` is not held here",
                hint=f"wrap the write in `with self.{guard}:`, or mark "
                f"{func.name} `# holds-lock: {guard}` if callers always "
                "hold it",
            )

        for sub in ast.walk(node):
            targets: list[ast.expr] = []
            if isinstance(sub, ast.Assign):
                targets = list(sub.targets)
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                targets = [sub.target]
            elif isinstance(sub, ast.Delete):
                targets = list(sub.targets)
            elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                if sub.func.attr in MUTATOR_METHODS:
                    attr = is_self_attr(sub.func.value)
                    check(attr, sub, f"mutates .{attr} via .{sub.func.attr}()")
                continue
            for target in targets:
                attr = is_self_attr(target)
                if attr is not None:
                    check(attr, target, f"writes .{attr}")
                elif isinstance(target, ast.Subscript):
                    inner = is_self_attr(target.value)
                    check(inner, target, f"assigns into .{inner}[...]")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _owner_class(atom: Atom) -> ClassInfo | None:
    if isinstance(atom, Instance):
        return atom.cls
    if isinstance(atom, InstanceOv):
        return atom.cls
    return None


def _is_mutable_literal(expr: ast.expr | None) -> bool:
    if expr is None:
        return False
    if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        name = ""
        if isinstance(expr.func, ast.Name):
            name = expr.func.id
        elif isinstance(expr.func, ast.Attribute):
            name = expr.func.attr
        return name in _MUTABLE_FACTORIES
    return False


def _mentions_fan_out(
    node: ast.AST, markers: frozenset[str]
) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in markers:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in markers:
            return True
    return False


def _all_functions(module: ModuleInfo) -> list[FunctionInfo]:
    out = list(module.functions.values())
    for cls in module.classes.values():
        out.extend(cls.methods.values())
        out.extend(cls.properties.values())
    return out


def _init_hazard(cls: ClassInfo, init: FunctionInfo) -> str | None:
    for sub in ast.walk(init.node):
        if not isinstance(sub, ast.Call):
            continue
        name = ""
        if isinstance(sub.func, ast.Name):
            name = sub.func.id
        elif isinstance(sub.func, ast.Attribute):
            name = sub.func.attr
        if name in _HAZARD_CALLS:
            what = "an open file" if name == "open" else f"a threading.{name}"
            return f"{cls.name}.__init__ creates {what}"
    return None


def _calls_super_init(init: FunctionInfo) -> bool:
    for sub in ast.walk(init.node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "__init__"
        ):
            return True
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "super"
        ):
            return True
    return False


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def analyze_concurrency_tree(
    index: ModuleIndex, contract: ConcurrencyContract
) -> list[Diagnostic]:
    """Run the race analysis over an indexed tree.

    Returns CON001–CON005 diagnostics ordered by rule id then location.
    Raises :class:`ValueError` when a declared extra root cannot be
    resolved — a silent no-op analysis would report a clean bill it
    never earned."""
    analyzer = _ConAnalyzer(index, contract)
    for func in analyzer.discover_roots():
        analyzer.analyze_root(func)
    for module_name in sorted(index.modules):
        module = index.modules[module_name]
        if not analyzer._is_boundary(module):
            analyzer.check_discipline(module)
    diagnostics = list(analyzer.findings)
    diagnostics.sort(key=lambda d: (d.rule_id, d.location, d.message))
    return diagnostics


def concurrency_contract() -> ConcurrencyContract:
    """The repro tree's own fan-out contract.

    The declared roots are the two batch front-ends over a shared
    simulator; anything that mentions an executor is discovered by the
    marker scan.
    ``NullTracer`` is allowlisted for pickling: it deliberately skips
    ``Tracer.__init__`` and holds no state."""
    return ConcurrencyContract(
        extra_roots=(
            "repro.sim.simulator:Simulator.evaluate_many",
            "repro.core.autohet:autohet_multi_seed",
        ),
        boundary_modules=("repro.analysis",),
        picklable_allowlist=frozenset({"NullTracer"}),
    )


def analyze_concurrency(root: Path | None = None) -> list[Diagnostic]:
    """Prove (or refute) the worker fan-out paths race-free.

    Indexes the installed ``repro`` package (or an explicit source tree
    rooted at ``root``, laid out like the package) and runs
    :func:`analyze_concurrency_tree` under :func:`concurrency_contract`.
    An empty result is the theorem: every attribute a worker can write
    is guarded, no worker touches module globals or shared RNG streams,
    and nothing non-picklable crosses a process boundary."""
    base = root if root is not None else Path(__file__).resolve().parent.parent
    index = ModuleIndex.from_package(Path(base), "repro")
    return analyze_concurrency_tree(index, concurrency_contract())
