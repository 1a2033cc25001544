"""Project-specific AST lint rules for the ``repro`` source tree.

Generic linters cannot know that ``arch/`` dataclasses model immutable
hardware descriptions unless explicitly declared stateful, or that
logging is wired in one place.  This module encodes
those repo rules as AST passes producing the same
:class:`~repro.analysis.invariants.Diagnostic` stream as the structural
checkers, so ``repro check --source`` and CI share one report format.

Rules
-----
LNT001  no ``print`` outside the CLI / bench reporting layer
LNT003  dataclasses under ``arch/`` are frozen or marked ``# stateful:``
LNT005  no bare ``assert`` in ``core/allocation`` invariants
LNT006  no ``functools.lru_cache`` / ``functools.cache`` on instance methods
LNT007  no direct ``logging.getLogger`` / ``logging.basicConfig`` outside
        ``obs/`` — subsystems log through ``repro.obs.log``
LNT008  no literal dtype casts (``float()``, ``np.float32()``, ...) inside
        loops in the kernel hot path (``sim/kernels.py``) — a per-element
        cast scalarizes the batch math the module exists to vectorize

Mutable default arguments are ruff's B006, which CI runs.  A module that
does not parse refuses the tree, as it does for every other pass.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .invariants import LNT001, LNT003, LNT005, LNT006, LNT007, LNT008, Diagnostic
from .walker import ParsedModule, TreePass, read_module, sweep_one

#: module paths (relative, POSIX) where ``print`` is user-facing output
PRINT_ALLOWED_PREFIXES = ("cli.py", "__main__.py", "bench/")

#: module paths allowed to touch the stdlib logging module directly —
#: the obs bridge is where loggers and handlers are wired up
LOGGING_BRIDGE_PREFIXES = ("obs/",)

#: the stdlib logging entry points LNT007 fences off
_LOGGING_SETUP_NAMES = ("getLogger", "basicConfig")

#: marker that declares a deliberately mutable dataclass in arch/
STATEFUL_MARKER = "# stateful:"

#: ``"relpath::Class.method"`` entries exempt from LNT006 — methods that
#: are deliberately memoised per-instance (none today; additions need a
#: review of the self-in-key lifetime hazard they reintroduce)
CACHED_METHOD_ALLOWLIST: frozenset[str] = frozenset()

#: module paths (relative, POSIX) whose loops are kernel hot paths —
#: LNT008 forbids per-element dtype casts inside them
KERNEL_HOT_PATH_PREFIXES = ("sim/kernels.py",)

#: ``"relpath::function"`` entries exempt from LNT008 — functions whose
#: in-loop casts are deliberate (none today; additions need a rationale
#: for why the cast cannot hoist to a single ``.astype`` before the loop)
KERNEL_CAST_ALLOWLIST: frozenset[str] = frozenset()

#: builtin scalar constructors LNT008 treats as literal casts
_SCALAR_CAST_NAMES = frozenset({"float", "int"})

#: NumPy scalar-type constructors LNT008 treats as literal casts
_NP_CAST_NAMES = frozenset(
    {"float16", "float32", "float64", "int8", "int16", "int32", "int64",
     "uint8", "uint16", "uint32", "uint64"}
)

_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
               ast.DictComp, ast.GeneratorExp)


def _cast_callee(node: ast.AST) -> str | None:
    """``"float"`` / ``"np.float32"`` when *node* is a literal dtype cast."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id in _SCALAR_CAST_NAMES:
        return func.id
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _NP_CAST_NAMES
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        return f"np.{func.attr}"
    return None


def _memo_decorator_name(dec: ast.expr) -> str | None:
    """The memoising decorator's short name, or None.

    Matches ``@lru_cache``, ``@lru_cache(...)``, ``@functools.lru_cache``,
    ``@functools.cache`` and the parenthesised forms; ``cached_property``
    is excluded (it keys per instance by design, not per argument tuple).
    """
    target = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(target, ast.Name) and target.id in ("lru_cache", "cache"):
        return target.id
    if (
        isinstance(target, ast.Attribute)
        and target.attr in ("lru_cache", "cache")
        and isinstance(target.value, ast.Name)
        and target.value.id == "functools"
    ):
        return target.attr
    return None


def _is_instance_method(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for dec in node.decorator_list:
        if isinstance(dec, ast.Name) and dec.id in ("staticmethod", "classmethod"):
            return False
    params = [*node.args.posonlyargs, *node.args.args]
    return bool(params) and params[0].arg in ("self", "cls")


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    for dec in node.decorator_list:
        if isinstance(dec, ast.Name) and dec.id == "dataclass":
            return dec
        if isinstance(dec, ast.Attribute) and dec.attr == "dataclass":
            return dec
        if isinstance(dec, ast.Call):
            func = dec.func
            if (isinstance(func, ast.Name) and func.id == "dataclass") or (
                isinstance(func, ast.Attribute) and func.attr == "dataclass"
            ):
                return dec
    return None


def _is_frozen(dec: ast.expr) -> bool:
    if isinstance(dec, ast.Call):
        for kw in dec.keywords:
            if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                return bool(kw.value.value)
    return False


def lint_source(source: str, rel_path: str) -> list[Diagnostic]:
    """Run every lint rule over one module's source text.

    ``rel_path`` is the module's path relative to the package root
    (POSIX separators); it decides which path-scoped rules apply.  Raises
    :class:`~repro.analysis.walker.Unparsable` when the source does not
    parse.
    """
    return _lint_module(read_module(source, rel_path))


def _lint_module(module: ParsedModule) -> list[Diagnostic]:
    rel_path, lines = module.rel, module.lines
    out: list[Diagnostic] = []
    # One walk per module; every rule below iterates this list.
    nodes = module.nodes

    print_allowed = rel_path.startswith(PRINT_ALLOWED_PREFIXES)
    logging_allowed = rel_path.startswith(LOGGING_BRIDGE_PREFIXES)
    # Names bound by ``from logging import getLogger [as g]`` — LNT007
    # must catch the bare-name call form too, not just ``logging.X(...)``.
    logging_aliases: set[str] = set()
    if not logging_allowed:
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "logging":
                for alias in node.names:
                    if alias.name in _LOGGING_SETUP_NAMES:
                        logging_aliases.add(alias.asname or alias.name)
    in_arch = rel_path.startswith("arch/")
    in_allocation = rel_path.startswith("core/allocation/")

    for node in nodes:
        # LNT001 — no print outside the CLI / bench layer.
        if (
            not print_allowed
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            out.append(
                LNT001.diag(
                    f"{rel_path}:{node.lineno}",
                    "print() call in library code",
                    hint="use the logging module, or move output to cli/bench",
                )
            )

        # LNT007 — logging is wired in exactly one place (repro.obs.log);
        # library code gets its logger through the bridge so the namespace
        # stays uniform and handler setup stays idempotent.
        if not logging_allowed and isinstance(node, ast.Call):
            func = node.func
            direct = (
                isinstance(func, ast.Attribute)
                and func.attr in _LOGGING_SETUP_NAMES
                and isinstance(func.value, ast.Name)
                and func.value.id == "logging"
            )
            imported = isinstance(func, ast.Name) and func.id in logging_aliases
            if direct or imported:
                called = func.attr if direct else func.id  # type: ignore[union-attr]
                out.append(
                    LNT007.diag(
                        f"{rel_path}:{node.lineno}",
                        f"direct logging.{called}() call outside the obs bridge",
                        hint="use repro.obs.log.get_logger (or "
                        "configure_cli_logging in the CLI) instead",
                    )
                )

        # LNT003 — frozen-dataclass discipline under arch/.
        if in_arch and isinstance(node, ast.ClassDef):
            dec = _dataclass_decorator(node)
            if dec is not None and not _is_frozen(dec):
                dec_line = lines[dec.lineno - 1] if dec.lineno - 1 < len(lines) else ""
                if STATEFUL_MARKER not in dec_line:
                    out.append(
                        LNT003.diag(
                            f"{rel_path}:{node.lineno}",
                            f"dataclass {node.name} in arch/ is mutable and "
                            "not marked stateful",
                            hint="add frozen=True, or append "
                            f"'{STATEFUL_MARKER} <reason>' to the decorator line",
                        )
                    )

        # LNT006 — no functools memoisation on instance methods: the memo
        # holds `self` in its key, pinning every instance for the life of
        # the process and keying results on object identity.
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not _is_instance_method(item):
                    continue
                for dec in item.decorator_list:
                    memo = _memo_decorator_name(dec)
                    if memo is None:
                        continue
                    if f"{rel_path}::{node.name}.{item.name}" in CACHED_METHOD_ALLOWLIST:
                        continue
                    out.append(
                        LNT006.diag(
                            f"{rel_path}:{item.lineno}",
                            f"functools.{memo} on instance method "
                            f"{node.name}.{item.name} leaks instances via the "
                            "memo key",
                            hint="memoise a module-level function of explicit "
                            "arguments, or add the method to "
                            "CACHED_METHOD_ALLOWLIST with a rationale",
                        )
                    )

        # LNT005 — no bare asserts in allocation invariants.
        if in_allocation and isinstance(node, ast.Assert):
            out.append(
                LNT005.diag(
                    f"{rel_path}:{node.lineno}",
                    "bare assert in allocation invariant code",
                    hint="raise InvariantViolation with a Diagnostic instead",
                )
            )

    # LNT008 — literal dtype casts inside kernel hot loops.  A float()
    # or np.float32() per element turns the batch kernel back into the
    # scalar loop it replaced; the cast belongs on the whole array, once,
    # before the loop.
    if rel_path.startswith(KERNEL_HOT_PATH_PREFIXES):
        flagged: set[tuple[int, int]] = set()
        for func in nodes:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if f"{rel_path}::{func.name}" in KERNEL_CAST_ALLOWLIST:
                continue
            for loop in ast.walk(func):
                if not isinstance(loop, _LOOP_NODES):
                    continue
                for sub in ast.walk(loop):
                    callee = _cast_callee(sub)
                    key = (sub.lineno, sub.col_offset) if callee else None
                    if callee is None or key in flagged:
                        continue
                    flagged.add(key)  # type: ignore[arg-type]
                    out.append(
                        LNT008.diag(
                            f"{rel_path}:{sub.lineno}",
                            f"per-element {callee}() cast inside a kernel "
                            f"hot loop in {func.name}()",
                            hint="hoist the cast to one .astype on the whole "
                            f"array before the loop, or add "
                            f"'{rel_path}::{func.name}' to "
                            "KERNEL_CAST_ALLOWLIST with a rationale",
                        )
                    )
    return out


#: every rule over every module
LINT_PASS = TreePass("modules", lambda rel: True, _lint_module)


def lint_tree(root: Path | str | None = None) -> list[Diagnostic]:
    """Lint every ``*.py`` under the package root (default: ``repro``'s own
    source tree, wherever it is installed).

    Raises :class:`ValueError` when the tree holds no module or a module
    does not parse."""
    return sweep_one(root, LINT_PASS)
