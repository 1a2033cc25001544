"""NumPy-aware numeric-safety analysis of the simulator tree (NUM rules).

The vectorized cost model (``repro.sim.kernels``) holds a bit-exactness
contract with the scalar reference: every float it computes must round
exactly as the scalar path's does.  This pass walks every module under
``sim/`` with a small abstract interpreter over NumPy expressions — the
shared :mod:`repro.analysis.walker` over a lattice of explicit dtypes,
zero / negative evidence, and nan/inf taint — and flags three numeric
hazards that change a result on inputs the tests do not reach:

========  =============================================================
NUM001    implicit dtype promotion/narrowing: mixed int32/int64,
          float32/float64, or int folded into float32 (ERROR)
NUM003    unguarded division/log/sqrt on a value with zero or negative
          evidence (``np.zeros``, a literal 0 element, a
          subtraction) (ERROR)
NUM005    nan/inf taint flowing into min/max/argmin/argmax/sort or an
          ordering comparison without an ``np.isfinite`` guard (ERROR)
========  =============================================================

The interpreter is *optimistic about unknowns*: values it cannot type
produce no findings, so ordinary Python arithmetic stays silent and the
real tree stays clean.  Findings come only from positive evidence — an
explicit ``dtype=``, an ``np.zeros``, a zero or infinite literal.

Entry points: :func:`numeric_findings` (one source text) and
:func:`analyze_numeric` (every module under ``<root>/sim/``, wired into
``repro check --numeric``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from functools import reduce
from pathlib import Path

from .invariants import NUM001, NUM003, NUM005, Diagnostic
from .walker import TreePass, Walker, literal_number, read_module, sweep_one

#: NumPy reductions whose result keeps its operand's dtype and nan taint.
_REDUCTIONS = frozenset(
    {"sum", "dot", "prod", "matmul", "einsum", "inner", "vdot", "trace"}
)
#: NumPy / builtin consumers that nan poisons silently (NUM005).
_NAN_SINKS = frozenset(
    {"min", "max", "amin", "amax", "argmin", "argmax", "sort", "argsort",
     "median", "minimum", "maximum", "sorted", "partition", "argpartition"}
)
#: nan-aware variants — using one *is* the guard.
_NAN_AWARE = frozenset(
    {"nanmin", "nanmax", "nanargmin", "nanargmax", "nansum", "nanmean",
     "nanmedian"}
)
_INT_DTYPES = frozenset({"int8", "int16", "int32", "int64", "uint8",
                         "uint16", "uint32", "uint64"})
_FLOAT_DTYPES = frozenset({"float16", "float32", "float64"})


@dataclass(frozen=True)
class _Info:
    """What the interpreter knows about one value.  All-default = unknown."""

    dtype: str | None = None        #: explicit NumPy dtype, if declared
    is_array: bool = False
    maybe_zero: bool = False        #: positive evidence it can be 0
    maybe_negative: bool = False    #: positive evidence it can be < 0
    nonfinite: bool = False         #: positive evidence of nan/inf taint


_UNKNOWN = _Info()


def _merge(a: _Info, b: _Info) -> _Info:
    return _Info(
        dtype=a.dtype if a.dtype == b.dtype else None,
        is_array=a.is_array or b.is_array,
        maybe_zero=a.maybe_zero or b.maybe_zero,
        maybe_negative=a.maybe_negative or b.maybe_negative,
        nonfinite=a.nonfinite or b.nonfinite,
    )


def _dtype_conflict(left: str, right: str) -> bool:
    """Do these two explicit dtypes mix unsafely (NUM001)?

    Same dtype never conflicts.  ``int64`` meeting ``float64`` is the
    exact promotion the scalar reference performs, so it is allowed;
    everything else either changes width within a family or narrows an
    int into ``float32``.
    """
    if left == right:
        return False
    if {left, right} == {"int64", "float64"}:
        return False
    return True


class _NumericWalker(Walker[_Info]):
    """NUM's lattice (:class:`_Info`) and rules over the shared walk."""

    UNKNOWN = _UNKNOWN

    def join(self, a: _Info, b: _Info) -> _Info:
        return _merge(a, b)

    # ------------------------------------------------------------------
    # guards — branch conditions that discharge taint for the body
    # ------------------------------------------------------------------
    _NEGATED_OPS: dict[type[ast.cmpop], type[ast.cmpop]] = {
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
        ast.Lt: ast.GtE, ast.LtE: ast.Gt,
        ast.Gt: ast.LtE, ast.GtE: ast.Lt,
    }

    def refine(self, test: ast.expr, env: dict[str, _Info], holds: bool) -> None:
        if isinstance(test, ast.BoolOp) and isinstance(
            test.op, ast.And if holds else ast.Or
        ):
            # ``a and b`` holds / ``a or b`` fails: so does every operand.
            for value in test.values:
                self.refine(value, env, holds)
        elif not holds:
            # Early-exit conditionals: apply ``not test`` as a guard.
            if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
                self.refine(test.operand, env, True)
            elif isinstance(test, ast.Compare) and len(test.ops) == 1:
                negated = self._NEGATED_OPS.get(type(test.ops[0]))
                if negated is not None:
                    self.refine(
                        ast.Compare(
                            left=test.left, ops=[negated()],
                            comparators=test.comparators,
                        ),
                        env,
                        True,
                    )
        elif (
            isinstance(test, ast.Call)
            and self.np_attr(test.func) == "all"
            and test.args
        ):
            # ``np.all(cond)`` guards exactly what elementwise ``cond`` does.
            self.refine(test.args[0], env, True)
        elif isinstance(test, ast.Name):
            self._clear(test.id, env, zero=True)
        elif isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, op, right = test.left, test.ops[0], test.comparators[0]
            name, bound, flipped = None, None, False
            if isinstance(left, ast.Name) and isinstance(right, ast.Constant):
                name, bound = left.id, right.value
            elif isinstance(right, ast.Name) and isinstance(left, ast.Constant):
                name, bound, flipped = right.id, left.value, True
            if name is None or not isinstance(bound, (int, float)):
                return
            if flipped:  # ``0 < x`` reads as ``x > 0``
                op = {ast.Lt: ast.Gt, ast.LtE: ast.GtE,
                      ast.Gt: ast.Lt, ast.GtE: ast.LtE}.get(type(op), type(op))()
            if isinstance(op, ast.Gt) and bound >= 0:
                self._clear(name, env, zero=True, negative=True)
            elif isinstance(op, ast.GtE) and bound > 0:
                self._clear(name, env, zero=True, negative=True)
            elif isinstance(op, ast.GtE) and bound == 0:
                self._clear(name, env, negative=True)
            elif isinstance(op, ast.NotEq) and bound == 0:
                self._clear(name, env, zero=True)
        elif (
            # ``np.isfinite(x)`` / ``np.all(np.isfinite(x))`` discharge taint.
            isinstance(test, ast.Call)
            and self.np_attr(test.func) == "isfinite"
            and test.args
            and isinstance(test.args[0], ast.Name)
        ):
            self._clear(test.args[0].id, env, finite=True)

    def _clear(
        self,
        name: str,
        env: dict[str, _Info],
        *,
        zero: bool = False,
        negative: bool = False,
        finite: bool = False,
    ) -> None:
        info = env.get(name, _UNKNOWN)
        env[name] = replace(
            info,
            maybe_zero=info.maybe_zero and not zero,
            maybe_negative=info.maybe_negative and not negative,
            nonfinite=info.nonfinite and not finite,
        )

    # ------------------------------------------------------------------
    # values
    # ------------------------------------------------------------------
    def constant(self, node: ast.Constant) -> _Info:
        value = node.value
        if isinstance(value, bool):
            return _UNKNOWN
        if isinstance(value, int):
            return _Info(maybe_zero=value == 0, maybe_negative=value < 0)
        if isinstance(value, float):
            return _Info(
                maybe_zero=value == 0.0,
                maybe_negative=value < 0.0,
                nonfinite=value != value or value in (
                    float("inf"), float("-inf")
                ),
            )
        return _UNKNOWN

    def attribute(self, node: ast.Attribute) -> _Info:
        attr = self.np_attr(node)
        if attr in ("inf", "nan", "NINF", "NAN", "Inf", "NaN"):
            return _Info(nonfinite=True)
        return _UNKNOWN

    def unary(self, node: ast.UnaryOp, operand: _Info) -> _Info:
        if isinstance(node.op, ast.USub):
            return replace(operand, maybe_negative=True)
        return operand if isinstance(node.op, ast.UAdd) else _UNKNOWN

    def boolop(self, node: ast.BoolOp, values: list[_Info]) -> _Info:
        merged = reduce(_merge, values)
        if isinstance(node.op, ast.Or) and (literal_number(node.values[-1]) or 0) > 0:
            # ``x or 1.0``: the result is either truthy x or the
            # positive fallback — zero is impossible.
            return replace(merged, maybe_zero=False)
        return merged

    def subscript(self, node: ast.Subscript, value: _Info) -> _Info:
        return value if value.is_array else _UNKNOWN

    # ------------------------------------------------------------------
    def binop(
        self, node: ast.BinOp | ast.AugAssign, left: _Info, right: _Info
    ) -> _Info:
        op = node.op
        if (
            left.dtype is not None
            and right.dtype is not None
            and _dtype_conflict(left.dtype, right.dtype)
        ):
            self.flag(
                NUM001,
                node,
                f"arithmetic mixes {left.dtype} and {right.dtype} operands — "
                "NumPy promotes or narrows silently and the result diverges "
                "from the scalar reference",
                hint="convert one operand explicitly (.astype) at the same "
                "point the scalar code converts",
            )
        nonfinite = left.nonfinite or right.nonfinite
        if isinstance(op, (ast.Div, ast.FloorDiv, ast.Mod)):
            if right.maybe_zero:
                self.flag(
                    NUM003,
                    node,
                    "division by a value with zero evidence and no guard — "
                    "the kernel mints inf/nan where the scalar path raises",
                    hint="guard the denominator (if d: / np.maximum(d, eps)) "
                    "or prove it nonzero at construction",
                )
                if isinstance(op, ast.Div):
                    nonfinite = True
        if left.dtype is None or left.dtype == right.dtype:
            dtype = right.dtype
        else:  # an explicit dtype meeting an unknown one survives
            dtype = left.dtype if right.dtype is None else None
        if isinstance(op, ast.Div) and dtype in _INT_DTYPES:
            dtype = "float64"
        is_array = left.is_array or right.is_array
        if isinstance(op, ast.Sub):
            return _Info(
                dtype=dtype, is_array=is_array, maybe_zero=True,
                maybe_negative=True, nonfinite=nonfinite,
            )
        if isinstance(op, ast.Pow):
            return _Info(
                dtype=dtype, is_array=is_array,
                maybe_zero=left.maybe_zero,
                maybe_negative=left.maybe_negative
                and not self._even_exponent(node),
                nonfinite=nonfinite,
            )
        if isinstance(op, ast.Mult):
            maybe_zero = left.maybe_zero or right.maybe_zero
        elif isinstance(op, (ast.Add, ast.Div, ast.FloorDiv, ast.Mod)):
            maybe_zero = left.maybe_zero and right.maybe_zero
        else:
            maybe_zero = left.maybe_zero or right.maybe_zero
        return _Info(
            dtype=dtype,
            is_array=is_array,
            maybe_zero=maybe_zero,
            maybe_negative=left.maybe_negative or right.maybe_negative,
            nonfinite=nonfinite,
        )

    @staticmethod
    def _even_exponent(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant)
            and isinstance(node.right.value, int)
            and node.right.value % 2 == 0
        )

    # ------------------------------------------------------------------
    def compare(self, node: ast.Compare, operands: list[_Info]) -> _Info:
        for position, op in enumerate(node.ops):
            left, right = operands[position], operands[position + 1]
            if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                if left.nonfinite or right.nonfinite:
                    self.flag(
                        NUM005,
                        node,
                        "ordering comparison on a value that can carry "
                        "nan/inf — every comparison with nan is False and "
                        "the branch outcome is arbitrary",
                        hint="guard with np.isfinite first",
                    )
        return _UNKNOWN

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def _dtype_of(self, expr: ast.expr | None) -> str | None:
        if expr is None:
            return None
        if isinstance(expr, ast.Attribute):
            attr = self.np_attr(expr)
            return attr if attr in _INT_DTYPES | _FLOAT_DTYPES else None
        if isinstance(expr, ast.Name):
            return {"float": "float64", "int": "int64", "bool": None}.get(
                expr.id
            )
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            name = expr.value
            return name if name in _INT_DTYPES | _FLOAT_DTYPES else None
        return None

    def call(self, node: ast.Call, callee: _Info, args: list[_Info]) -> _Info:
        dtype_kw = next(
            (kw.value for kw in node.keywords if kw.arg == "dtype"), None
        )

        np_name = self.np_attr(node.func)
        if np_name is not None:
            return self._np_call(np_name, node, args, dtype_kw)

        func = node.func
        # method calls: x.astype(...), x.sum(), x.min() ...
        if isinstance(func, ast.Attribute):
            base = callee
            if func.attr == "astype" and node.args:
                dtype = self._dtype_of(node.args[0])
                return replace(
                    base, dtype=dtype or base.dtype, is_array=True
                )
            if func.attr in _NAN_SINKS and base.nonfinite:
                self._flag_nan_sink(func.attr, node)
            if func.attr in ("cumsum", "cumprod", "copy", "ravel", "reshape",
                             "flatten", "squeeze"):
                return base
            return _UNKNOWN
        if isinstance(func, ast.Name):
            name = func.id
            if name in ("min", "max", "sorted") and any(
                a.nonfinite for a in args
            ):
                self._flag_nan_sink(name, node)
            if name == "float" and args:
                return replace(args[0], is_array=False, dtype=None)
            if name == "abs" and args:
                return replace(args[0], maybe_negative=False)
        return _UNKNOWN

    def _np_call(
        self,
        name: str,
        call: ast.Call,
        args: list[_Info],
        dtype_kw: ast.expr | None,
    ) -> _Info:
        first = args[0] if args else _UNKNOWN
        dtype = self._dtype_of(dtype_kw)

        if name in ("zeros", "zeros_like", "empty", "empty_like"):
            if dtype is None and len(call.args) > 1:
                dtype = self._dtype_of(call.args[1])
            return _Info(
                dtype=dtype or "float64", is_array=True, maybe_zero=True,
                maybe_negative=name.startswith("empty"),
            )
        if name in ("ones", "ones_like"):
            return _Info(dtype=dtype or "float64", is_array=True)
        if name in ("full", "full_like"):
            fill = args[1] if len(args) > 1 else _UNKNOWN
            return replace(fill, dtype=dtype or fill.dtype, is_array=True)
        if name in ("array", "asarray", "ascontiguousarray"):
            info = self._literal_elements(call.args[0]) if call.args else _UNKNOWN
            info = _merge(info, first)
            return replace(info, dtype=dtype, is_array=True)
        if name == "fromiter":
            if dtype is None and len(call.args) > 1:
                dtype = self._dtype_of(call.args[1])
            return _Info(dtype=dtype, is_array=True)
        if name == "arange":
            starts_at_zero = len(call.args) == 1 or (
                call.args
                and isinstance(call.args[0], ast.Constant)
                and call.args[0].value == 0
            )
            return _Info(dtype=dtype, is_array=True, maybe_zero=starts_at_zero)
        if name == "where":
            a = args[1] if len(args) > 1 else _UNKNOWN
            b = args[2] if len(args) > 2 else _UNKNOWN
            return replace(_merge(a, b), is_array=True)
        if name in ("cumsum", "cumprod", "repeat", "broadcast_to", "atleast_1d",
                    "atleast_2d", "abs", "absolute", "clip"):
            info = replace(first, is_array=True)
            if name in ("abs", "absolute"):
                info = replace(info, maybe_negative=False)
            if name == "clip" and len(call.args) > 1 and (
                literal_number(call.args[1]) or 0
            ) > 0:
                info = replace(info, maybe_zero=False, maybe_negative=False)
            return info
        if name == "sqrt":
            if first.maybe_negative:
                self.flag(
                    NUM003,
                    call,
                    "np.sqrt of a value with negative evidence and no guard "
                    "— mints nan",
                    hint="guard the operand (np.maximum(x, 0.0)) or prove it "
                    "nonnegative",
                )
            return replace(
                first, dtype="float64" if first.dtype in _INT_DTYPES else first.dtype,
                maybe_negative=False, nonfinite=first.nonfinite or first.maybe_negative,
            )
        if name in ("log", "log2", "log10"):
            if first.maybe_zero or first.maybe_negative:
                self.flag(
                    NUM003,
                    call,
                    f"np.{name} of a value with zero/negative evidence and "
                    "no guard — mints -inf/nan",
                    hint="guard the operand (np.maximum(x, eps)) or prove it "
                    "positive",
                )
            return _Info(
                dtype="float64", is_array=first.is_array,
                maybe_negative=True,
                nonfinite=first.nonfinite or first.maybe_zero
                or first.maybe_negative,
            )
        if name in _REDUCTIONS:
            return _Info(
                dtype=first.dtype, is_array=False,
                nonfinite=any(a.nonfinite for a in args),
            )
        if name in _NAN_AWARE:
            return _Info(dtype=first.dtype)
        if name in _NAN_SINKS:
            if any(a.nonfinite for a in args):
                self._flag_nan_sink(f"np.{name}", call)
            info = _Info(
                dtype=first.dtype, is_array=name in ("minimum", "maximum", "sort"),
                maybe_zero=any(a.maybe_zero for a in args),
                maybe_negative=any(a.maybe_negative for a in args),
                nonfinite=any(a.nonfinite for a in args),
            )
            if name == "maximum" and len(call.args) > 1 and (
                literal_number(call.args[1]) or 0
            ) > 0:
                info = replace(info, maybe_zero=False, maybe_negative=False)
            return info
        if name in ("isfinite", "isnan", "isinf"):
            return _Info(is_array=first.is_array)
        return _UNKNOWN

    def _literal_elements(self, expr: ast.expr) -> _Info:
        """Zero/negative/nonfinite evidence from a literal element list."""
        if not isinstance(expr, (ast.List, ast.Tuple)):
            return _UNKNOWN
        maybe_zero = maybe_negative = nonfinite = False
        for elt in expr.elts:
            value = elt
            negated = False
            if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub):
                value, negated = value.operand, True
            magnitude = literal_number(value)
            if magnitude is not None:
                maybe_zero |= magnitude == 0
                maybe_negative |= negated and magnitude != 0
                if isinstance(magnitude, float):
                    nonfinite |= magnitude != magnitude or magnitude == float("inf")
        return _Info(
            maybe_zero=maybe_zero, maybe_negative=maybe_negative,
            nonfinite=nonfinite,
        )

    def _flag_nan_sink(self, sink: str, node: ast.AST) -> None:
        self.flag(
            NUM005,
            node,
            f"{sink} consumes a value that can carry nan/inf without an "
            "np.isfinite guard — nan poisons the comparison and the winner "
            "is arbitrary",
            hint="filter with np.isfinite (or use the nan-aware np.nan* "
            "variant) before reducing",
        )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def numeric_findings(source: str, rel_path: str) -> list[Diagnostic]:
    """NUM001, NUM003 and NUM005 findings for one module's source text."""
    return _NumericWalker(read_module(source, rel_path)).run()


#: NUM001, NUM003 and NUM005 over every module under ``sim/``
NUMERIC_PASS = TreePass(
    "sim/ modules", lambda rel: rel.startswith("sim/"), lambda module: _NumericWalker(module).run()
)


def analyze_numeric(root: Path | None = None) -> list[Diagnostic]:
    """Run the numeric-safety pass over every module under ``<root>/sim/``.

    ``root`` defaults to the installed ``repro`` package directory; pass
    a fixture tree (or ``repro check --numeric --source <dir>``) to scan
    another layout with a ``sim/`` subdirectory.  Raises
    :class:`ValueError` when there is nothing to scan — a silent no-op
    analysis would report a clean bill it never earned.
    """
    return sweep_one(root, NUMERIC_PASS)
