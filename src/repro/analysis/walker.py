"""The module reader behind every tree pass, and the walker behind NUM and UNI.

Every whole-tree ``repro check`` pass reads its tree through
:func:`list_modules` and :func:`read_module`; :func:`sweep` runs the
per-module passes (:class:`TreePass`) in one read of the tree.

:mod:`repro.analysis.numeric` and :mod:`repro.analysis.units` interpret
the same Python subset over different lattices: dtype / zero / negative
/ finite evidence for NUM, a unit exponent map for UNI.  :class:`Walker`
is everything they share — numpy-alias discovery, the statement and
expression walk, comprehension scoping, target binding, the branch join,
and the ``flag`` helper.  A domain subclasses
:class:`Walker` and supplies only its lattice and its rules through the
hooks below; the walk itself never asks which domain it serves.

Hooks (each defaults to "know nothing", so a bare :class:`Walker` is the
null domain): :meth:`~Walker.join`, :meth:`~Walker.bind_name`,
:meth:`~Walker.constant`, :meth:`~Walker.lookup`,
:meth:`~Walker.attribute`, :meth:`~Walker.unary`, :meth:`~Walker.binop`,
:meth:`~Walker.compare`, :meth:`~Walker.boolop`,
:meth:`~Walker.subscript`, :meth:`~Walker.comprehension`,
:meth:`~Walker.call`, and guard refinement :meth:`~Walker.refine`.  Class
entry is tracked by the walk itself (:attr:`~Walker.cls`).

One rule per construct, whichever domain is running:

* ``if`` forks the environment: the body sees the test as a guard, and
  the two branches are joined afterwards.  A body that ends in
  ``return``/``raise``/``continue``/``break`` contributes nothing past
  the statement; only the negated test survives.  ``match`` forks one
  branch per case (its guard refines it) and joins them with the
  no-case-matched environment.
* Loops, ``with``, ``try``, and every other compound statement run
  their bodies in place, ``async`` forms included.
* Comprehension iterators, targets, and filters are evaluated in the
  comprehension's child environment, as Python scopes them.
* An assignment binds a plain-name target to the value.  Destructuring
  (``a, b = x, y``) binds every name to the unknown value, as loop,
  ``with``, comprehension, and ``match`` capture targets do.
* Walrus targets bind in the enclosing environment; ``lambda`` bodies
  are evaluated in a fresh one.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Generic, TypeVar

from .invariants import Diagnostic, Rule

V = TypeVar("V")

#: statements after which control never falls through to the next one
_EXITS = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def literal_number(node: ast.expr | None) -> int | float | None:
    """The value of an int or float literal (``bool`` excluded), else ``None``."""
    value = node.value if isinstance(node, ast.Constant) else None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    return None


def all_nodes(tree: ast.AST) -> list[ast.AST]:
    """Every node under ``tree`` (itself included), in ``ast.walk`` order.

    A pass that scans a module more than once walks it once into this
    list.  It is built breadth-first like ``ast.walk``, without that
    function's generator per node, which roughly halves the walk.
    """
    nodes = [tree]
    # Appending while iterating visits each node's children after every
    # node already queued: the queue order of ast.walk.
    for node in nodes:
        for name in node._fields:
            child = getattr(node, name, None)
            if isinstance(child, ast.AST):
                nodes.append(child)
            elif isinstance(child, list):
                nodes.extend([item for item in child if isinstance(item, ast.AST)])
    return nodes


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """The canonical report order of every per-module pass."""
    return sorted(diagnostics, key=lambda d: (d.rule_id, d.location, d.message))


class Unparsable(ValueError):
    """A tree pass's refusal of module ``rel``, which does not parse."""

    def __init__(self, rel: str, error: SyntaxError) -> None:
        super().__init__(f"cannot parse {rel}:{error.lineno}: {error.msg}")
        self.rel, self.error = rel, error


@dataclass(frozen=True)
class ParsedModule:
    """One parsed module, as every pass reads it."""

    #: the module's path relative to the tree root (POSIX separators)
    rel: str
    lines: list[str]
    tree: ast.Module
    #: every node of ``tree`` in ``ast.walk`` order: the module's one walk
    nodes: list[ast.AST]


def read_module(source: str, rel: str) -> ParsedModule:
    """Parse ``source`` as module ``rel`` (every tree pass parses here), or refuse it."""
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        raise Unparsable(rel, exc) from exc
    return ParsedModule(rel, source.splitlines(), tree, all_nodes(tree))


def package_root(root: Path | str | None) -> Path:
    """The tree a pass reads: ``root``, or the installed ``repro`` package."""
    return Path(root) if root is not None else Path(__file__).resolve().parent.parent


def list_modules(base: Path) -> list[str]:
    """Every ``*.py`` under ``base``, relative to it, in path order."""
    return [path.relative_to(base).as_posix() for path in sorted(base.rglob("*.py"))]


def module_name(package: str, rel: str) -> str:
    """The dotted name of module ``rel``, a path under ``package``'s root."""
    parts = [package, *rel[: -len(".py")].split("/")]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@dataclass(frozen=True)
class TreePass:
    """A pass that checks a tree one module at a time."""

    #: the modules the pass reads, named in its empty-scope refusal
    what: str
    #: whether the module at a relative path is in the pass's scope
    scope: Callable[[str], bool]
    check: Callable[[ParsedModule], list[Diagnostic]]


def sweep(
    root: Path | str | None, passes: Mapping[str, TreePass]
) -> dict[str, list[Diagnostic] | ValueError]:
    """Run every pass of ``passes`` over the tree at ``root`` in one read.

    Each module is parsed at most once, handed to every pass whose scope
    holds it, then dropped.  A pass ends with its findings in
    :func:`sort_diagnostics` order, or with the :class:`ValueError` that
    refuses the tree: its scope holds no module (a no-op analysis would
    report a clean bill it never earned), a module in it does not parse,
    or its check raised.
    """
    base = package_root(root)
    found: dict[str, list[Diagnostic]] = {}
    refused: dict[str, ValueError] = {}
    for rel in list_modules(base) if passes else []:
        live = [name for name, p in passes.items() if p.scope(rel) and name not in refused]
        if not live:
            continue
        try:
            module = read_module((base / rel).read_text(), rel)
        except Unparsable as exc:
            refused.update(dict.fromkeys(live, exc))
            continue
        for name in live:
            try:
                found.setdefault(name, []).extend(passes[name].check(module))
            except ValueError as exc:
                refused[name] = exc
        del module  # before the next parse: one tree alive at a time
    for name, p in passes.items():
        if name not in found and name not in refused:
            refused[name] = ValueError(f"no {p.what} to analyze under {base}")
    return {name: refused.get(name) or sort_diagnostics(found[name]) for name in passes}


def sweep_one(root: Path | str | None, tree_pass: TreePass) -> list[Diagnostic]:
    """One pass's findings over the tree at ``root``; raises its refusal."""
    result = sweep(root, {"": tree_pass})[""]
    if isinstance(result, ValueError):
        raise result
    return result


class Walker(Generic[V]):
    """One module's walk over the lattice ``V``."""

    #: what the domain knows about a value it cannot type
    UNKNOWN: V

    def __init__(self, module: ParsedModule) -> None:
        self.rel_path = module.rel
        self.tree = module.tree
        self.diags: list[Diagnostic] = []
        #: every node of the module in ``ast.walk`` order (its one walk)
        self.nodes = module.nodes
        #: local names bound to the numpy module (``import numpy as np``)
        self.np_names: set[str] = {
            alias.asname or "numpy"
            for node in self.nodes
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "numpy"
        }
        #: innermost enclosing class of the statement walked
        self.cls: ast.ClassDef | None = None

    def run(self) -> list[Diagnostic]:
        self._block(self.tree.body, {})
        return sort_diagnostics(self.diags)

    def flag(
        self,
        rule: Rule,
        node: ast.AST,
        message: str,
        hint: str = "",
        data: tuple[tuple[str, str], ...] = (),
    ) -> None:
        """Record a finding at ``node``'s line."""
        lineno = getattr(node, "lineno", 0)
        self.diags.append(
            rule.diag(f"{self.rel_path}:{lineno}", message, hint=hint, data=data)
        )

    def np_attr(self, node: ast.expr) -> str | None:
        """``attr`` when ``node`` is ``<numpy alias>.attr``, else ``None``."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in self.np_names
        ):
            return node.attr
        return None

    # ------------------------------------------------------------------
    # domain hooks
    # ------------------------------------------------------------------
    def join(self, a: V, b: V) -> V:
        """The value of a name that is ``a`` on one path and ``b`` on another."""
        return a if a == b else self.UNKNOWN

    def bind_name(self, name: str, value: V, env: dict[str, V], node: ast.AST) -> None:
        """Store ``value`` under ``name``; ``node`` is the binding site."""
        env[name] = value

    def lookup(self, name: str, env: dict[str, V]) -> V:
        return env.get(name, self.UNKNOWN)

    def constant(self, node: ast.Constant) -> V:
        return self.UNKNOWN

    def attribute(self, node: ast.Attribute) -> V:
        return self.UNKNOWN

    def unary(self, node: ast.UnaryOp, operand: V) -> V:
        return self.UNKNOWN

    def binop(self, node: ast.BinOp | ast.AugAssign, left: V, right: V) -> V:
        """``left <op> right``; ``node`` is the BinOp or the AugAssign."""
        return self.UNKNOWN

    def compare(self, node: ast.Compare, operands: list[V]) -> V:
        return self.UNKNOWN

    def boolop(self, node: ast.BoolOp, values: list[V]) -> V:
        return self.UNKNOWN

    def subscript(self, node: ast.Subscript, value: V) -> V:
        return self.UNKNOWN

    def comprehension(self, node: ast.expr, element: V) -> V:
        """A comprehension whose element (a dict comp's value) is ``element``."""
        return self.UNKNOWN

    def call(self, node: ast.Call, callee: V, args: list[V]) -> V:
        """``callee`` is the receiver for ``x.f(...)``, else ``f`` itself."""
        return self.UNKNOWN

    def refine(self, test: ast.expr, env: dict[str, V], holds: bool) -> None:
        """Narrow ``env`` given that ``test`` is true (``holds``) or false."""

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _block(self, stmts: list[ast.stmt], env: dict[str, V]) -> None:
        for stmt in stmts:
            self._stmt(stmt, env)

    def _stmt(self, stmt: ast.stmt, env: dict[str, V]) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._expr(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, value, env, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            self._bind(stmt.target, self._expr(stmt.value, env), env, stmt)
        elif isinstance(stmt, ast.AugAssign):
            value = self._expr(stmt.value, env)
            current = self._expr(stmt.target, env)
            self._bind(stmt.target, self.binop(stmt, current, value), env, stmt)
        elif isinstance(stmt, ast.If):
            self._if(stmt, env)
        elif isinstance(stmt, ast.Match):
            self._match(stmt, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter, env)
            self._bind(stmt.target, self.UNKNOWN, env, stmt)
            self._block(stmt.body, env)
            self._block(stmt.orelse, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, self.UNKNOWN, env, stmt)
            self._block(stmt.body, env)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._block(stmt.body, {})
        elif isinstance(stmt, ast.ClassDef):
            outer_cls, self.cls = self.cls, stmt
            self._block(stmt.body, {})
            self.cls = outer_cls
        else:
            # Expr / Return / While / Try / Raise / Assert / Delete / Import ...:
            # walk the parts in place, in source order.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, env)
                elif isinstance(child, ast.stmt):
                    self._stmt(child, env)
                elif isinstance(child, ast.ExceptHandler):
                    self._block(child.body, env)

    def _bind(self, target: ast.expr, value: V, env: dict[str, V], node: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.bind_name(target.id, value, env, node)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, self.UNKNOWN, env, node)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, self.UNKNOWN, env, node)
        # Attribute / Subscript stores: no tracking.

    def _join_into(self, env: dict[str, V], branches: list[dict[str, V]]) -> None:
        for name in {name for branch in branches for name in branch}:
            value = self.lookup(name, branches[0])
            for branch in branches[1:]:
                value = self.join(value, self.lookup(name, branch))
            env[name] = value

    def _if(self, stmt: ast.If, env: dict[str, V]) -> None:
        self._expr(stmt.test, env)
        body = dict(env)
        self.refine(stmt.test, body, True)
        self._block(stmt.body, body)
        orelse = dict(env)
        self._block(stmt.orelse, orelse)
        if stmt.body and isinstance(stmt.body[-1], _EXITS):
            # ``if x == 0: raise/return`` — only the negated test survives.
            env.clear()
            env.update(orelse)
            self.refine(stmt.test, env, False)
        else:
            self._join_into(env, [body, orelse])

    def _match(self, stmt: ast.Match, env: dict[str, V]) -> None:
        self._expr(stmt.subject, env)
        branches = [dict(env)]  # no case matched
        for case in stmt.cases:
            branch = dict(env)
            for node in ast.walk(case.pattern):
                name = getattr(node, "name", None) or getattr(node, "rest", None)
                if isinstance(name, str):
                    self.bind_name(name, self.UNKNOWN, branch, stmt)
            if case.guard is not None:
                self._expr(case.guard, branch)
                self.refine(case.guard, branch, True)
            self._block(case.body, branch)
            branches.append(branch)
        self._join_into(env, branches)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _expr(self, node: ast.expr | None, env: dict[str, V]) -> V:
        if node is None:
            return self.UNKNOWN
        if isinstance(node, ast.Constant):
            return self.constant(node)
        if isinstance(node, ast.Name):
            return self.lookup(node.id, env)
        if isinstance(node, ast.Attribute):
            self._expr(node.value, env)
            return self.attribute(node)
        if isinstance(node, ast.UnaryOp):
            return self.unary(node, self._expr(node.operand, env))
        if isinstance(node, ast.BinOp):
            left = self._expr(node.left, env)
            return self.binop(node, left, self._expr(node.right, env))
        if isinstance(node, ast.BoolOp):
            return self.boolop(node, [self._expr(v, env) for v in node.values])
        if isinstance(node, ast.Compare):
            operands = [self._expr(node.left, env)]
            operands.extend(self._expr(c, env) for c in node.comparators)
            return self.compare(node, operands)
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, ast.Subscript):
            value = self._expr(node.value, env)
            self._expr(node.slice, env)
            return self.subscript(node, value)
        if isinstance(node, ast.IfExp):
            self._expr(node.test, env)
            return self.join(self._expr(node.body, env), self._expr(node.orelse, env))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            return self._comprehension(node, env)
        if isinstance(node, ast.NamedExpr):
            value = self._expr(node.value, env)
            self._bind(node.target, value, env, node)
            return value
        if isinstance(node, ast.Lambda):
            self._expr(node.body, {})
            return self.UNKNOWN
        if isinstance(node, ast.Starred):
            return self._expr(node.value, env)
        for child in ast.iter_child_nodes(node):
            # Tuple / List / Set / Dict / JoinedStr / Slice / Await /
            # Yield: walk the parts, know nothing about the whole.
            if isinstance(child, ast.expr):
                self._expr(child, env)
        return self.UNKNOWN

    def _call(self, node: ast.Call, env: dict[str, V]) -> V:
        args = [self._expr(arg, env) for arg in node.args]
        for kw in node.keywords:
            self._expr(kw.value, env)
        func = node.func
        callee = self._expr(func.value if isinstance(func, ast.Attribute) else func, env)
        return self.call(node, callee, args)

    def _comprehension(
        self,
        node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp,
        env: dict[str, V],
    ) -> V:
        child = dict(env)
        for gen in node.generators:
            self._expr(gen.iter, child)
            self._bind(gen.target, self.UNKNOWN, child, node)
            for cond in gen.ifs:
                self._expr(cond, child)
        if isinstance(node, ast.DictComp):
            self._expr(node.key, child)
            element = self._expr(node.value, child)
        else:
            element = self._expr(node.elt, child)
        return self.comprehension(node, element)
