"""The one module reader behind the per-module ``repro check`` passes.

* **Parse once.**  A default ``repro check`` run parses each module at
  most once across the lint, concurrency, numeric and units passes: one
  sweep of the tree hands every parsed module to each of them.  The
  cache-safety and kernel-parity checks share one walk from the
  simulator's roots, which parses each module it reaches once.
* **Stream.**  A sweep keeps no more than one parsed module alive at a
  time, so a pass's memory does not grow with the tree.
"""

import ast
import io
import weakref
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import repro.analysis as analysis
from repro.analysis import (
    analyze_concurrency,
    analyze_numeric,
    analyze_units,
    lint_tree,
)
from repro.cli import main

PACKAGE = Path(analysis.__file__).resolve().parent.parent

REAL_PARSE = ast.parse


def spy_parses(monkeypatch):
    """The source of every exec-mode parse, in call order."""
    calls = []

    def spy(source, filename="<unknown>", mode="exec", **kwargs):
        if mode == "exec":
            calls.append(source)
        return REAL_PARSE(source, filename, mode, **kwargs)

    monkeypatch.setattr(ast, "parse", spy)
    return calls


class TestParseOnce:
    def test_default_check_parses_each_module_once(self, monkeypatch):
        # The read-set walk indexes the tree lazily on its own; this run
        # leaves it out.
        monkeypatch.setattr(
            analysis, "read_set_sweep", lambda root, checks: {name: [] for name in checks}
        )
        calls = spy_parses(monkeypatch)
        with redirect_stdout(io.StringIO()):
            assert main(["check", "--format", "json"]) == 0
        # Keyed on the source text, whatever name a pass parses it under.
        parsed = Counter(calls)
        assert parsed == Counter(path.read_text() for path in PACKAGE.rglob("*.py"))

    def test_cache_safety_and_kernel_parity_parse_each_reached_module_once(
        self, monkeypatch
    ):
        calls = spy_parses(monkeypatch)
        with redirect_stdout(io.StringIO()):
            assert main(
                ["check", "--cache-safety", "--kernel-parity", "--format", "json"]
            ) == 0
        parsed = Counter(calls)
        assert (PACKAGE / "sim" / "simulator.py").read_text() in parsed
        assert (PACKAGE / "sim" / "kernels.py").read_text() in parsed
        assert set(parsed.values()) == {1}, parsed.most_common(3)


def max_alive(monkeypatch, run):
    """The most parsed modules alive at once while ``run()`` executes."""
    trees = []
    peak = 0

    def spy(source, filename="<unknown>", mode="exec", **kwargs):
        nonlocal peak
        tree = REAL_PARSE(source, filename, mode, **kwargs)
        if mode == "exec":
            trees.append(weakref.ref(tree))
            peak = max(peak, sum(ref() is not None for ref in trees))
        return tree

    monkeypatch.setattr(ast, "parse", spy)
    run()
    assert trees, "the run parsed nothing"
    return peak


class TestStreaming:
    @pytest.mark.parametrize(
        "analyze", [lint_tree, analyze_concurrency, analyze_numeric, analyze_units]
    )
    def test_entry_point_holds_one_tree_at_a_time(self, monkeypatch, analyze):
        assert max_alive(monkeypatch, lambda: analyze(None)) == 1

    def test_merged_sweep_holds_one_tree_at_a_time(self, monkeypatch):
        from repro.analysis.walker import sweep

        passes = {
            "lint": analysis.LINT_PASS,
            "concurrency": analysis.CONCURRENCY_PASS,
            "numeric": analysis.NUMERIC_PASS,
            "units": analysis.UNITS_PASS,
        }
        assert max_alive(monkeypatch, lambda: sweep(None, passes)) == 1
