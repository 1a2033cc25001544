"""The thread contract: nothing in ``repro`` starts a thread or a process.

AUTOHET's search (§4.5) is one serial loop, and the supported contract
is **one** ``Simulator`` **per thread**: an
:class:`~repro.sim.cache.EvaluationCache` belongs to the first thread
that uses it and raises when another thread does.  The library never
fans out itself — thread and process pools measured slower than the
serial batch scorer at every batch size (``docs/performance.md``) — and
this pass keeps it that way.

It parses every module under ``repro`` outside ``repro.analysis`` and
reports CON001 at each site that could start a thread or a process:

* an import of ``multiprocessing`` (or of anything from it), of an
  executor from ``concurrent.futures`` (or of its ``thread`` / ``process``
  submodules), of ``Thread`` / ``Timer`` from ``threading``, of
  ``start_new_thread`` from ``_thread``, of ``fork`` from ``os``, or a
  star import from one of those modules;
* an attribute reference that names one of those through a module
  alias, such as ``threading.Thread``, ``cf.ProcessPoolExecutor`` after
  ``import concurrent.futures as cf``, or ``os.fork``.

``threading.Lock`` and ``threading.local`` stay legal: the trace sinks
guard their state for callers that trace from several threads.

Entry points: :func:`fan_out_findings` (one source text) and
:func:`analyze_concurrency` (a package tree, behind ``repro check
--concurrency``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Mapping

from .invariants import CON001, Diagnostic
from .walker import TreePass, module_name, read_module, sweep_one

#: module -> the names in it that start a thread or a process
FAN_OUT_NAMES: Mapping[str, frozenset[str]] = {
    "threading": frozenset({"Thread", "Timer"}),
    "_thread": frozenset({"start_new_thread", "start_new"}),
    "concurrent.futures": frozenset({"ThreadPoolExecutor", "ProcessPoolExecutor"}),
    "os": frozenset({"fork", "forkpty"}),
}

#: modules that are fan-out machinery as a whole, submodules included
FAN_OUT_MODULES: tuple[str, ...] = (
    "multiprocessing",
    "concurrent.futures.thread",
    "concurrent.futures.process",
)

_HINT = (
    "repro supports one Simulator per thread and never fans out itself: "
    "evaluate serially (Simulator.evaluate_many scores a batch in one "
    "kernel pass), or start threads in the calling program, each with "
    "its own Simulator"
)


def _whole_module(name: str) -> bool:
    return any(name == m or name.startswith(m + ".") for m in FAN_OUT_MODULES)


def _dotted(expr: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = _dotted(expr.value)
        return None if base is None else f"{base}.{expr.attr}"
    return None


def fan_out_findings(source: str, module: str) -> list[Diagnostic]:
    """CON001 findings for one module's source text."""
    return _fan_out(read_module(source, module).nodes, module)


def _fan_out(nodes: list[ast.AST], module: str) -> list[Diagnostic]:
    # One walk per module: the alias table needs every import before an
    # attribute can be read against it, so both loops iterate ``nodes``.
    found: list[tuple[int, str]] = []
    # local name -> the module (or module member) it is bound to
    aliases: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _whole_module(alias.name):
                    found.append((node.lineno, alias.name))
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            starters = FAN_OUT_NAMES.get(node.module, frozenset())
            for alias in node.names:
                target = f"{node.module}.{alias.name}"
                star = alias.name == "*" and bool(starters)
                if _whole_module(target) or alias.name in starters or star:
                    found.append((node.lineno, target))
                aliases[alias.asname or alias.name] = target
    for node in nodes:
        if not isinstance(node, ast.Attribute):
            continue
        dotted = _dotted(node.value)
        if dotted is None:
            continue
        head, _, rest = dotted.partition(".")
        if head not in aliases:
            continue
        owner = aliases[head] + (f".{rest}" if rest else "")
        if node.attr in FAN_OUT_NAMES.get(owner, frozenset()):
            found.append((node.lineno, f"{owner}.{node.attr}"))
    return [
        CON001.diag(
            f"{module}:{lineno}",
            f"{module} starts threads or processes: it uses `{what}`",
            hint=_HINT,
        )
        for lineno, what in sorted(set(found))
    ]


#: CON001 over every module outside ``repro.analysis``
CONCURRENCY_PASS = TreePass(
    "modules",
    lambda rel: not rel.startswith("analysis/"),
    lambda module: _fan_out(module.nodes, module_name("repro", module.rel)),
)


def analyze_concurrency(root: Path | None = None) -> list[Diagnostic]:
    """CON001 over every module of the ``repro`` package outside
    ``repro.analysis``.

    Scans the installed package, or an explicit source tree rooted at
    ``root`` and laid out like it.  An empty result means no module
    imports or references a thread or process starter."""
    return sweep_one(root, CONCURRENCY_PASS)
