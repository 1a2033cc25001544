"""Tests for the read-set walk and the cache-key soundness analysis (CAC)."""

import ast
import shutil
from pathlib import Path

import pytest

from repro.analysis.callgraph import ModuleIndex
from repro.analysis.dataflow import (
    CoverageSpec,
    MemoContract,
    analyze_cache_safety,
    analyze_memoized,
    simulator_contract,
    walk_read_set,
)

FIXTURE_TREE = Path(__file__).parent / "fixtures" / "unsound_tree"


def rule_ids(diags):
    return sorted({d.rule_id for d in diags})


def run(source, coverage, roots=("fix.mod:entry",), **contract_kw):
    index = ModuleIndex.from_sources({"fix.mod": source})
    contract = MemoContract(roots=roots, coverage=coverage, **contract_kw)
    return analyze_memoized(index, contract)


CFG_SOURCE = (
    "from dataclasses import dataclass\n"
    "@dataclass(frozen=True)\n"
    "class Cfg:\n"
    "    a: int\n"
    "    b: int\n"
    "    secret: int\n"
)


class TestCAC001:
    def test_direct_unfingerprinted_read(self):
        src = CFG_SOURCE + "def entry(cfg: Cfg):\n    return cfg.secret\n"
        diags = run(src, {"Cfg": CoverageSpec(frozenset({"a", "b"}))})
        assert "CAC001" in rule_ids(diags)
        (d,) = [d for d in diags if d.rule_id == "CAC001"]
        assert "Cfg.secret" in d.message

    def test_read_through_helper_call(self):
        src = CFG_SOURCE + (
            "def helper(c):\n"
            "    return c.secret\n"
            "def entry(cfg: Cfg):\n"
            "    return helper(cfg)\n"
        )
        diags = run(src, {"Cfg": CoverageSpec(frozenset({"a", "b"}))})
        assert "CAC001" in rule_ids(diags)

    def test_read_through_property(self):
        src = CFG_SOURCE.replace(
            "    secret: int\n",
            "    secret: int\n"
            "    @property\n"
            "    def derived(self):\n"
            "        return self.secret * 2\n",
        ) + "def entry(cfg: Cfg):\n    return cfg.derived\n"
        diags = run(src, {"Cfg": CoverageSpec(frozenset({"a", "b"}))})
        assert "CAC001" in rule_ids(diags)

    def test_read_through_loop_and_container(self):
        src = CFG_SOURCE + (
            "def entry(cfgs: list[Cfg]):\n"
            "    total = 0\n"
            "    for c in cfgs:\n"
            "        total += c.secret\n"
            "    return total\n"
        )
        diags = run(src, {"Cfg": CoverageSpec(frozenset({"a", "b"}))})
        assert "CAC001" in rule_ids(diags)

    def test_covered_reads_are_clean(self):
        src = CFG_SOURCE + "def entry(cfg: Cfg):\n    return cfg.a + cfg.b\n"
        diags = run(src, {"Cfg": CoverageSpec(frozenset({"a", "b"}))})
        assert [d for d in diags if d.rule_id == "CAC001"] == []

    def test_exempt_field_is_not_flagged(self):
        src = CFG_SOURCE + "def entry(cfg: Cfg):\n    return cfg.a + cfg.secret\n"
        spec = CoverageSpec(frozenset({"a"}), exempt=frozenset({"secret", "b"}))
        diags = run(src, {"Cfg": spec})
        assert rule_ids(diags) == []


class TestCAC003:
    def test_random_sink(self):
        src = (
            "import random\n"
            "def entry(x):\n"
            "    return x + random.random()\n"
        )
        diags = run(src, {})
        assert rule_ids(diags) == ["CAC003"]

    def test_time_sink_through_callee(self):
        src = (
            "import time\n"
            "def stamp():\n"
            "    return time.monotonic()\n"
            "def entry(x):\n"
            "    return x + stamp()\n"
        )
        diags = run(src, {})
        assert rule_ids(diags) == ["CAC003"]

    def test_open_builtin_sink(self):
        src = (
            "def entry(path):\n"
            "    with open(path) as fh:\n"
            "        return fh.read()\n"
        )
        diags = run(src, {})
        assert "CAC003" in rule_ids(diags)

    def test_pure_math_is_clean(self):
        src = (
            "import math\n"
            "def entry(x):\n"
            "    return math.sqrt(x) + math.floor(x)\n"
        )
        assert run(src, {}) == []


class TestEngineCoverage:
    """The alias-tracking constructs the real tree exercises."""

    def test_zip_and_tuple_unpacking(self):
        src = CFG_SOURCE + (
            "def entry(cfgs: list[Cfg], weights: list[int]):\n"
            "    total = 0\n"
            "    for c, w in zip(cfgs, weights):\n"
            "        total += c.secret * w\n"
            "    return total\n"
        )
        diags = run(src, {"Cfg": CoverageSpec(frozenset({"a", "b"}))})
        assert "CAC001" in rule_ids(diags)

    def test_comprehension_binding(self):
        src = CFG_SOURCE + (
            "def entry(cfgs: list[Cfg]):\n"
            "    return sum(c.secret for c in cfgs)\n"
        )
        diags = run(src, {"Cfg": CoverageSpec(frozenset({"a", "b"}))})
        assert "CAC001" in rule_ids(diags)

    def test_branch_merge_keeps_both_aliases(self):
        src = CFG_SOURCE + (
            "def left(c):\n"
            "    return c.a\n"
            "def right(c):\n"
            "    return c.secret\n"
            "def entry(cfg: Cfg, flag: bool):\n"
            "    if flag:\n"
            "        fn = left\n"
            "    else:\n"
            "        fn = right\n"
            "    return fn(cfg)\n"
        )
        diags = run(src, {"Cfg": CoverageSpec(frozenset({"a", "b"}))})
        assert "CAC001" in rule_ids(diags)

    @pytest.mark.parametrize(
        "imports, callee",
        [
            ("from functools import partial\n", "partial"),
            ("import functools\n", "functools.partial"),
        ],
    )
    def test_partial_application_is_walked(self, imports, callee):
        # A deferred call reads what the call reads, whenever it runs.
        src = imports + CFG_SOURCE + (
            "def helper(c, *, scale):\n"
            "    return c.secret * scale\n"
            "def entry(cfg: Cfg):\n"
            f"    return {callee}(helper, cfg, scale=2)\n"
        )
        diags = run(src, {"Cfg": CoverageSpec(frozenset({"a", "b"}))})
        assert [d.rule_id for d in diags] == ["CAC001"]
        assert "Cfg.secret" in diags[0].message

    def test_recursion_terminates(self):
        src = CFG_SOURCE + (
            "def walk(c, n):\n"
            "    if n:\n"
            "        return walk(c, n - 1)\n"
            "    return c.secret\n"
            "def entry(cfg: Cfg):\n"
            "    return walk(cfg, 3)\n"
        )
        diags = run(src, {"Cfg": CoverageSpec(frozenset({"a", "b"}))})
        assert "CAC001" in rule_ids(diags)

    def test_return_type_inferred_without_annotation(self):
        src = CFG_SOURCE + (
            "def pick(cfgs):\n"
            "    for c in cfgs:\n"
            "        return c\n"
            "    return None\n"
            "def entry(cfgs: list[Cfg]):\n"
            "    chosen = pick(cfgs)\n"
            "    return chosen.secret\n"
        )
        diags = run(src, {"Cfg": CoverageSpec(frozenset({"a", "b"}))})
        assert "CAC001" in rule_ids(diags)

    def test_boundary_module_is_not_traversed(self):
        index = ModuleIndex.from_sources(
            {
                "fix.memo": (
                    "import random\n"
                    "def memo_key(x):\n"
                    "    return random.random()\n"
                ),
                "fix.mod": (
                    "from .memo import memo_key\n"
                    "def entry(x):\n"
                    "    return memo_key(x)\n"
                ),
            }
        )
        contract = MemoContract(
            roots=("fix.mod:entry",),
            coverage={},
            boundary_modules=("fix.memo",),
        )
        assert analyze_memoized(index, contract) == []

    def test_outside_module_annotation_searches_no_other_module(self):
        # ``np.ndarray`` names no repro class, so resolving it must not
        # search the index for a class called ``ndarray`` (which would
        # parse every other module, the broken one included).
        index = ModuleIndex.from_sources(
            {
                "fix.mod": (
                    "import numpy as np\n"
                    "def entry(x: np.ndarray):\n"
                    "    return x.shape\n"
                ),
                "fix.other": "def broken(:\n",
            }
        )
        contract = MemoContract(roots=("fix.mod:entry",), coverage={})
        assert analyze_memoized(index, contract) == []

    def test_unresolvable_root_raises(self):
        index = ModuleIndex.from_sources({"fix.mod": "x = 1\n"})
        contract = MemoContract(roots=("fix.mod:missing",), coverage={})
        with pytest.raises(ValueError, match="missing"):
            analyze_memoized(index, contract)


class TestFixtureTree:
    def test_unsound_tree_reports_cac001_cac003(self):
        diags = analyze_cache_safety(FIXTURE_TREE)
        assert rule_ids(diags) == ["CAC001", "CAC003"]
        cac1 = [d for d in diags if d.rule_id == "CAC001"]
        assert any("undocumented_knob" in d.message for d in cac1)


class TestRealTree:
    def test_simulator_contract_roots_resolve(self):
        contract = simulator_contract()
        assert "repro.sim.simulator:Simulator.evaluate" in contract.roots
        assert "HardwareConfig" in contract.coverage

    def test_repro_tree_is_cache_safe(self):
        # The theorem this subsystem exists to prove: the shipped
        # simulator reads nothing its cache key does not cover and
        # reaches no nondeterministic sink.
        assert analyze_cache_safety() == []

    def test_read_in_the_deferred_area_is_seen(self, tmp_path):
        # The batch scorer hands SystemMetrics a partial application of
        # strategy_area_um2, run on the first read of area_um2.  A read of
        # the unfingerprinted LayerSpec.name planted there must fire
        # CAC001 as it would in the eager assembly.
        import repro

        tree = Path(shutil.copytree(
            Path(repro.__file__).resolve().parent, tmp_path / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        ))
        kernels = tree / "sim" / "kernels.py"
        lines = kernels.read_text().splitlines(keepends=True)
        (func,) = [
            node for node in ast.parse("".join(lines)).body
            if isinstance(node, ast.FunctionDef) and node.name == "strategy_area_um2"
        ]
        first = func.body[1].lineno - 1  # the statement after the docstring
        lines.insert(first, "    network.layers[0].name\n")
        kernels.write_text("".join(lines))
        diags = analyze_cache_safety(tree)
        assert [d.rule_id for d in diags] == ["CAC001"]
        assert "LayerSpec.name" in diags[0].message
        assert diags[0].location == f"repro.sim.kernels:{first + 1}"

    def test_analysis_reads_every_config_field(self):
        # The walk reaches every HardwareConfig field the key folds in:
        # a walk that lost its way into the cost model would read fewer.
        from repro.sim.cache import FINGERPRINTED_FIELDS
        import repro

        index = ModuleIndex.from_package(
            Path(repro.__file__).resolve().parent, "repro"
        )
        walk = walk_read_set(index, simulator_contract())
        read = {a for (c, a) in walk.reads if c == "HardwareConfig"}
        assert read == set(FINGERPRINTED_FIELDS["HardwareConfig"])
