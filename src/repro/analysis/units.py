"""Dimensional analysis of the cost model (UNI rules).

The cost path mixes nanojoules, nanoseconds, nanowatts, square microns,
bytes, and plain counts in ordinary Python floats; nothing at runtime
stops ``energy_nj + latency_ns`` from producing a well-formed number
with no meaning.  This pass runs a small abstract interpreter over the
cost-model modules, tracking *physical units* instead of values, and
flags dimensional nonsense statically.

Unit facts come from three sources, in priority order per name:

1. **Conversion constants** — module constants declared in
   ``repro.sim.units_constants.CONVERSION_UNITS`` (``NW_NS_TO_NJ`` is
   ``nJ/(nW*ns)``); multiplying by one *changes* the unit, checkably.
2. **Naming convention** — suffixes on variables, parameters, fields,
   attributes, and function names: ``*_nj``, ``*_ns``, ``*_nw``,
   ``*_um2``, ``*_bytes``, ``*_nj_per_byte``, ``*_fraction``.
3. **The UNIT_TABLE** — ``repro.arch.config.UNIT_TABLE`` declares the
   unit of every unsuffixed numeric field of the config/result classes,
   the kernel batch columns, and the ``repro.obs`` metric streams.

Units propagate through arithmetic: add/sub/compare/min/max require
equal units (UNI001), mul/div compose exponents, ``sum``/``cumsum``/
``float()`` preserve.  Dimensionless quantities (counts, fractions,
bits, flags) are *unit-polymorphic*: a count may scale or join any
dimension without a finding, because ``mvm_ops * energy_per_op`` is the
whole point of a count.  The interpreter is likewise optimistic about
unknowns — values it cannot type produce no findings, so the real tree
stays clean and findings come only from positive evidence.

========  =============================================================
UNI001    add/sub/compare/min/max mixing two *known, different* units
UNI005    value emitted to a repro.obs counter stream whose declared
          unit (UNIT_TABLE["obs.streams"]) disagrees
========  =============================================================

A suffix-named variable is a declaration: whatever it is bound to, it
carries its declared unit downstream.  Entry points:
:func:`units_findings` (one source text) and :func:`analyze_units`
(the cost-model module set, wired into ``repro check --units``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .invariants import UNI001, UNI005, Diagnostic
from .walker import ParsedModule, TreePass, Walker, read_module, sweep_one

#: A unit is a sorted tuple of (dimension, exponent) pairs; ``()`` is
#: dimensionless and ``None`` is unknown.
Unit = "tuple[tuple[str, int], ...]"

#: Spec atoms that mean "dimensionless" — interchangeable with each
#: other and polymorphic against every real dimension.
DIMENSIONLESS_TOKENS = frozenset({"", "1", "count", "fraction", "percent",
                                  "bit", "flag"})

#: Name-suffix convention, longest suffix first so ``_nj_per_byte``
#: wins over ``_nj``.
SUFFIX_UNITS: tuple[tuple[str, str], ...] = (
    ("_nj_per_byte", "nJ/byte"),
    ("_ns_per_byte", "ns/byte"),
    ("_nj", "nJ"),
    ("_ns", "ns"),
    ("_nw", "nW"),
    ("_um2", "um2"),
    ("_bytes", "byte"),
    ("_fraction", "1"),
)

#: The modules the cost path flows through — the analysis scope.
SCOPE_MODULES: tuple[tuple[str, str], ...] = (
    ("repro.arch.config", "arch/config.py"),
    ("repro.core.allocation.summary", "core/allocation/summary.py"),
    ("repro.obs.metrics", "obs/metrics.py"),
    ("repro.sim.area", "sim/area.py"),
    ("repro.sim.energy", "sim/energy.py"),
    ("repro.sim.kernels", "sim/kernels.py"),
    ("repro.sim.latency", "sim/latency.py"),
    ("repro.sim.metrics", "sim/metrics.py"),
    ("repro.sim.simulator", "sim/simulator.py"),
    ("repro.sim.units_constants", "sim/units_constants.py"),
)


# ----------------------------------------------------------------------
# Unit algebra
# ----------------------------------------------------------------------
def parse_unit(spec: str) -> tuple:
    """Parse a unit spec (``"nJ"``, ``"nJ/(nW*ns)"``, ``"count"``).

    ``*`` composes, the first ``/`` divides (everything after any ``/``
    lands in the denominator), parentheses group, and dimensionless
    tokens vanish.  The result is canonical: sorted, zero exponents
    dropped, so equal units compare equal as tuples.
    """
    exps: dict[str, int] = {}
    for slot, part in enumerate(spec.split("/")):
        sign = 1 if slot == 0 else -1
        for atom in part.strip().strip("()").split("*"):
            atom = atom.strip()
            if atom in DIMENSIONLESS_TOKENS:
                continue
            exps[atom] = exps.get(atom, 0) + sign
    return tuple(sorted((d, e) for d, e in exps.items() if e))


def format_unit(unit: tuple | None) -> str:
    """Human-readable form: ``None`` -> ``"?"``, ``()`` -> ``"1"``."""
    if unit is None:
        return "?"
    if not unit:
        return "1"
    num = [d if e == 1 else f"{d}^{e}" for d, e in unit if e > 0]
    den = [d if e == -1 else f"{d}^{-e}" for d, e in unit if e < 0]
    head = "*".join(num) if num else "1"
    if not den:
        return head
    tail = den[0] if len(den) == 1 else "(" + "*".join(den) + ")"
    return f"{head}/{tail}"


def unit_mul(a: tuple | None, b: tuple | None) -> tuple | None:
    """Compose units under multiplication.

    One unknown operand passes the *known, dimensioned* side through
    (``count * x_nj`` is nJ even when the count is untyped); an unknown
    meeting a dimensionless value stays unknown — claiming
    dimensionless there would later flag against real units.
    """
    if a is None or b is None:
        known = a if b is None else b
        return known if known else None
    exps = dict(a)
    for d, e in b:
        exps[d] = exps.get(d, 0) + e
    return tuple(sorted((d, e) for d, e in exps.items() if e))


def unit_inv(a: tuple | None) -> tuple | None:
    if a is None:
        return None
    return tuple(sorted((d, -e) for d, e in a))


def unit_div(a: tuple | None, b: tuple | None) -> tuple | None:
    return unit_mul(a, unit_inv(b))


def unit_pow(a: tuple | None, n: int) -> tuple | None:
    if a is None:
        return None
    exps = {d: e * n for d, e in a}
    return tuple(sorted((d, e) for d, e in exps.items() if e))


def units_conflict(a: tuple | None, b: tuple | None) -> bool:
    """Two *known, dimensioned, different* units — the only combination
    that is positive evidence of nonsense.  Unknown (``None``) and
    dimensionless (``()``) are polymorphic and never conflict."""
    return bool(a) and bool(b) and a != b


def suffix_unit(name: str) -> tuple | None:
    """Unit declared by a name's suffix, or ``None``."""
    low = name.lower()
    for suffix, spec in SUFFIX_UNITS:
        if low.endswith(suffix):
            return parse_unit(spec)
    return None


# ----------------------------------------------------------------------
# Declared-unit tables
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UnitTables:
    """Parsed unit declarations the interpreter resolves names against."""

    #: class name -> field/property name -> unit (from UNIT_TABLE)
    classes: dict[str, dict[str, tuple]]
    #: attribute-name fallback: the union over all classes, with names
    #: whose declared units disagree across classes dropped entirely
    attrs: dict[str, tuple]
    #: conversion-constant name -> unit (from CONVERSION_UNITS)
    conversions: dict[str, tuple]
    #: obs counter stream name -> unit (from UNIT_TABLE["obs.streams"])
    streams: dict[str, tuple]


def load_tables() -> UnitTables:
    """Build :class:`UnitTables` from the *real* installed declarations.

    Like the kernel-parity contract, the tables always come from the
    importable ``repro`` package even under ``--source`` — the contract
    is the real one; only the scanned sources vary.
    """
    from ..arch.config import UNIT_TABLE
    from ..sim.units_constants import CONVERSION_UNITS

    classes: dict[str, dict[str, tuple]] = {}
    streams: dict[str, tuple] = {}
    for cls_name, fields_map in UNIT_TABLE.items():
        parsed = {f: parse_unit(u) for f, u in fields_map.items()}
        if cls_name == "obs.streams":
            streams = parsed
        else:
            classes[cls_name] = parsed
    attrs: dict[str, tuple] = {}
    conflicted: set[str] = set()
    for fields_map in classes.values():
        for name, unit in fields_map.items():
            if name in attrs and attrs[name] != unit:
                conflicted.add(name)
            attrs.setdefault(name, unit)
    for name in conflicted:
        attrs.pop(name, None)
    conversions = {n: parse_unit(u) for n, u in CONVERSION_UNITS.items()}
    return UnitTables(
        classes=classes, attrs=attrs, conversions=conversions, streams=streams
    )


# ----------------------------------------------------------------------
# The abstract interpreter
# ----------------------------------------------------------------------
#: builtins / helpers that return their first argument's unit unchanged
_PRESERVE_BUILTINS = frozenset({"float", "int", "abs", "round", "left_fold", "sum"})
#: numpy functions that preserve the unit of their first argument
_NP_PRESERVE = frozenset(
    {"sum", "cumsum", "abs", "ceil", "floor", "rint", "repeat", "asarray",
     "ascontiguousarray", "broadcast_to", "ravel", "reshape", "copy",
     "concatenate", "maximum_sctype"}
)
#: method names that preserve their receiver's unit
_METHOD_PRESERVE = frozenset(
    {"sum", "cumsum", "astype", "copy", "item", "tolist", "reshape",
     "max", "min", "clip"}
)


def _module_assignments(tree: ast.Module) -> Iterator[tuple[str, ast.expr | None]]:
    """``(name, value)`` for each top-level ``NAME = value``."""
    value: ast.expr | None
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        else:
            continue
        if isinstance(target, ast.Name):
            yield target.id, value


def _unit_data(inferred: tuple | None, declared: tuple | None) -> tuple[tuple[str, str], ...]:
    return (("inferred", format_unit(inferred)), ("declared", format_unit(declared)))


class _UnitWalker(Walker[tuple | None]):
    """UNI's lattice (unit exponent maps, ``None`` unknown) and rules."""

    UNKNOWN = None

    def __init__(self, module: ParsedModule, tables: UnitTables) -> None:
        super().__init__(module)
        self.tables = tables
        #: module-level string constants (stream-name resolution, UNI005)
        self.str_constants: dict[str, str] = {
            name: value.value
            for name, value in _module_assignments(self.tree)
            if isinstance(value, ast.Constant) and isinstance(value.value, str)
        }

    # -- bindings ------------------------------------------------------
    def join(self, a: tuple | None, b: tuple | None) -> tuple | None:
        if a is None or b is None:
            return a or b or None  # one known, dimensioned side survives
        return a if a == b else None

    def bind_name(
        self, name: str, value: tuple | None, env: dict[str, tuple | None], node: ast.AST
    ) -> None:
        declared = self._declared_for_name(name)
        if declared is not None:
            env[name] = declared  # the declaration wins downstream
        elif value is not None:
            env[name] = value
        else:
            env.pop(name, None)

    # -- name / attribute resolution -----------------------------------
    def _declared_for_name(self, name: str) -> tuple | None:
        declared = self.tables.conversions.get(name)
        if declared is None:
            declared = suffix_unit(name)
        return declared

    def lookup(self, name: str, env: dict[str, tuple | None]) -> tuple | None:
        if name in env:
            return env[name]
        return self._declared_for_name(name)

    def attribute(self, node: ast.Attribute) -> tuple | None:
        unit = suffix_unit(node.attr)
        if (
            unit is None
            and self.cls is not None
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            unit = self.tables.classes.get(self.cls.name, {}).get(node.attr)
        if unit is None:
            unit = self.tables.attrs.get(node.attr)
        return unit

    # -- expressions ---------------------------------------------------
    def _merge_add(
        self, a: tuple | None, b: tuple | None, node: ast.AST, kind: str
    ) -> tuple | None:
        if units_conflict(a, b):
            self.flag(
                UNI001,
                node,
                f"{kind} mixes units {format_unit(a)} and {format_unit(b)}",
                hint="convert one operand via a named constant in "
                "repro.sim.units_constants",
            )
            return None
        if a is None or b is None:
            return a or b or None
        return a or b  # a dimensioned side wins over a dimensionless one

    def _merge_all(
        self, units: list[tuple | None], node: ast.AST, kind: str
    ) -> tuple | None:
        running: tuple | None = None
        for unit in units:
            running = self._merge_add(running, unit, node, kind)
        return running

    def constant(self, node: ast.Constant) -> tuple | None:
        return None  # literals are unit-polymorphic

    def unary(self, node: ast.UnaryOp, operand: tuple | None) -> tuple | None:
        return () if isinstance(node.op, ast.Not) else operand

    def binop(
        self, node: ast.BinOp | ast.AugAssign, left: tuple | None, right: tuple | None
    ) -> tuple | None:
        if isinstance(node, ast.AugAssign):
            rhs = node.value
            add_kind = sub_kind = "augmented add/sub"
        else:
            rhs = node.right
            add_kind, sub_kind = "addition", "subtraction"
        op = node.op
        if isinstance(op, (ast.Add, ast.Sub)):
            kind = add_kind if isinstance(op, ast.Add) else sub_kind
            return self._merge_add(left, right, node, kind)
        if isinstance(op, ast.Mult):
            return unit_mul(left, right)
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            return unit_div(left, right)
        if isinstance(op, ast.Mod):
            if left == right:
                return left
            return left if right is None else None
        if isinstance(op, ast.Pow):
            if isinstance(rhs, ast.Constant) and isinstance(rhs.value, int):
                return unit_pow(left, rhs.value)
            return () if left == () else None
        if isinstance(op, ast.MatMult):
            return unit_mul(left, right)
        return None

    def compare(self, node: ast.Compare, operands: list[tuple | None]) -> tuple | None:
        running = operands[0]
        for op, other in zip(node.ops, operands[1:]):
            if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)):
                running = self._merge_add(running, other, node, "comparison")
            else:
                running = None
        return ()

    def boolop(self, node: ast.BoolOp, values: list[tuple | None]) -> tuple | None:
        first = values[0]
        return first if all(u == first for u in values) else None

    def subscript(self, node: ast.Subscript, value: tuple | None) -> tuple | None:
        # Indexing an array/sequence of X yields X.
        return value

    def comprehension(self, node: ast.expr, element: tuple | None) -> tuple | None:
        # A sequence of X carries X, as arrays do: ``sum(e_nj for ...)`` is nJ.
        return element

    def call(
        self, node: ast.Call, callee: tuple | None, args: list[tuple | None]
    ) -> tuple | None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "counter" and len(args) >= 2:
            self._counter_call(node, args[1])
            return None
        if isinstance(func, ast.Name) and func.id in ("min", "max"):
            return self._merge_all(args, node, func.id)
        np_name = self.np_attr(func)
        if np_name is not None:
            return self._np_call(np_name, node, args)
        if isinstance(func, ast.Name):
            if func.id in _PRESERVE_BUILTINS:
                return args[0] if args else None
            if func.id in self.tables.classes:
                return None  # composite result object
            return callee
        if isinstance(func, ast.Attribute):
            if func.attr in _METHOD_PRESERVE:
                return callee
            return self.attribute(func)
        return None

    def _np_call(
        self, attr: str, node: ast.Call, args: list[tuple | None]
    ) -> tuple | None:
        if attr in ("minimum", "maximum"):
            return self._merge_all(args, node, f"np.{attr}")
        if attr == "where":
            return self._merge_all(args[1:], node, "np.where")
        if attr == "dot":
            return unit_mul(args[0], args[1]) if len(args) >= 2 else None
        if attr in _NP_PRESERVE:
            return args[0] if args else None
        return None

    def _counter_call(self, node: ast.Call, inferred: tuple | None) -> None:
        stream_node = node.args[0]
        stream: str | None = None
        if isinstance(stream_node, ast.Constant) and isinstance(
            stream_node.value, str
        ):
            stream = stream_node.value
        elif isinstance(stream_node, ast.Name):
            stream = self.str_constants.get(stream_node.id)
        if stream is None:
            return
        declared = self.tables.streams.get(stream)
        if units_conflict(declared, inferred):
            self.flag(
                UNI005,
                node,
                f"stream '{stream}' declares unit {format_unit(declared)} "
                f"but the emitted value has unit {format_unit(inferred)}",
                hint="emit the declared dimension or register a new stream "
                "in UNIT_TABLE['obs.streams']",
                data=_unit_data(inferred, declared),
            )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def units_findings(
    source: str, rel_path: str, *, tables: UnitTables | None = None
) -> list[Diagnostic]:
    """Run the dimensional walk over one module's source text."""
    if tables is None:
        tables = load_tables()
    return _UnitWalker(read_module(source, rel_path), tables).run()


def _check_units(module: ParsedModule) -> list[Diagnostic]:
    # Rebuilt per module (about 0.1 ms): the pass keeps no state between sweeps.
    return _UnitWalker(module, load_tables()).run()


#: UNI001 and UNI005 over the :data:`SCOPE_MODULES`
UNITS_PASS = TreePass(
    "cost-model modules", {rel for _, rel in SCOPE_MODULES}.__contains__, _check_units
)


def analyze_units(root: Path | None = None) -> list[Diagnostic]:
    """Run the dimensional-analysis pass over the cost-model modules.

    ``root`` defaults to the installed ``repro`` package directory; pass
    a fixture tree (or ``repro check --units --source <dir>``) to scan
    another layout with the same module paths.  Only the
    :data:`SCOPE_MODULES` files are read, so a module outside the scope
    never affects the result.  The unit *declarations* (UNIT_TABLE,
    CONVERSION_UNITS) always come from the installed package — the
    contract is fixed; only the scanned sources vary.  Raises
    :class:`ValueError` when none of the scope modules exist under
    ``root`` — a silent no-op would report a clean bill it never earned.
    """
    return sweep_one(root, UNITS_PASS)
