"""Tests for the abstract-interpretation walker shared by NUM and UNI.

Each construct gets one rule whichever domain runs (see
:mod:`repro.analysis.walker`), so a hazard is found the same way under
``match``, ``async for``, ``async with``, a comprehension filter, a
walrus, or a ``lambda`` as it is under a plain ``if`` or ``for``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.numeric import numeric_findings
from repro.analysis.units import analyze_units, units_findings
from repro.analysis.walker import all_nodes

REPRO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def num_ids(source):
    return sorted(d.rule_id for d in numeric_findings(source, "sim/mod.py"))


def uni_ids(source):
    return sorted(d.rule_id for d in units_findings(source, "sim/mod.py"))


class TestMatchBodies:
    def test_num003_inside_a_match_case(self):
        src = (
            "import numpy as np\n"
            "def f(mode):\n"
            "    match mode:\n"
            "        case 'fast':\n"
            "            return 1.0 / np.zeros(4)\n"
            "        case _:\n"
            "            return 0.0\n"
        )
        assert num_ids(src) == ["NUM003"]

    def test_uni001_inside_a_match_case(self):
        src = (
            "def f(mode, energy_nj, latency_ns):\n"
            "    match mode:\n"
            "        case 'sum':\n"
            "            return energy_nj + latency_ns\n"
        )
        assert uni_ids(src) == ["UNI001"]

    def test_case_guard_refines_the_case_body(self):
        src = (
            "import numpy as np\n"
            "def f(mode, d):\n"
            "    d = np.zeros(4)\n"
            "    match mode:\n"
            "        case 'div' if np.all(d > 0):\n"
            "            return 1.0 / d\n"
        )
        assert num_ids(src) == []

    def test_capture_patterns_bind_unknown(self):
        # ``x`` captured by the pattern no longer holds the nJ value.
        src = (
            "def f(pair, energy_nj, latency_ns):\n"
            "    x = energy_nj\n"
            "    match pair:\n"
            "        case [x, *rest]:\n"
            "            return x + latency_ns\n"
        )
        assert uni_ids(src) == []


class TestAsyncBodies:
    def test_uni001_inside_async_for(self):
        src = (
            "async def f(stream, energy_nj, latency_ns):\n"
            "    async for item in stream:\n"
            "        total = energy_nj + latency_ns\n"
        )
        assert uni_ids(src) == ["UNI001"]

    def test_uni001_inside_async_with(self):
        src = (
            "async def f(lock, energy_nj, latency_ns):\n"
            "    async with lock:\n"
            "        total = energy_nj + latency_ns\n"
        )
        assert uni_ids(src) == ["UNI001"]

    def test_num003_inside_async_with(self):
        src = (
            "import numpy as np\n"
            "async def f(lock):\n"
            "    async with lock:\n"
            "        return 1.0 / np.zeros(4)\n"
        )
        assert num_ids(src) == ["NUM003"]


class TestSharedConstructRules:
    def test_if_joins_branches_for_units(self):
        # nJ on one path, ns on the other: the join is unknown, so the
        # later sum proves nothing either way.
        src = (
            "def f(c, energy_nj, latency_ns):\n"
            "    if c:\n"
            "        x = energy_nj\n"
            "    else:\n"
            "        x = latency_ns\n"
            "    return x + latency_ns\n"
        )
        assert uni_ids(src) == []

    def test_if_without_else_keeps_the_known_unit(self):
        src = (
            "def f(c, energy_nj, latency_ns):\n"
            "    if c:\n"
            "        x = energy_nj\n"
            "    return x + latency_ns\n"
        )
        assert uni_ids(src) == ["UNI001"]

    def test_else_branch_does_not_see_body_bindings(self):
        src = (
            "def f(c, energy_nj, latency_ns):\n"
            "    x = latency_ns\n"
            "    if c:\n"
            "        x = energy_nj\n"
            "    else:\n"
            "        return x + latency_ns\n"
        )
        assert uni_ids(src) == []

    def test_comprehension_filters_are_walked(self):
        src = "def f(cs):\n    return [c for c in cs if c.energy_nj > c.latency_ns]\n"
        assert uni_ids(src) == ["UNI001"]

    def test_walrus_binds_a_declared_slot(self):
        # ``t_ns`` keeps its declared unit, whatever the walrus bound to it.
        src = "def f(c):\n    if (t_ns := c.energy_nj):\n        return t_ns + c.energy_nj\n"
        assert uni_ids(src) == ["UNI001"]

    def test_lambda_body_is_walked(self):
        src = "f = lambda c: c.energy_nj + c.latency_ns\n"
        assert uni_ids(src) == ["UNI001"]
        src = "import numpy as np\ng = lambda: 1.0 / np.zeros(4)\n"
        assert num_ids(src) == ["NUM003"]

    def test_tuple_targets_bind_unknown(self):
        src = (
            "def f(energy_nj, latency_ns):\n"
            "    a, b = energy_nj, latency_ns\n"
            "    return a + b\n"
        )
        assert uni_ids(src) == []

    def test_generator_sum_carries_the_element_unit(self):
        src = "def f(cs, t_ns):\n    return sum(c.energy_nj for c in cs) + t_ns\n"
        assert uni_ids(src) == ["UNI001"]


class TestNullDomain:
    SOURCE = (
        "import numpy as np\n"
        "class C:\n"
        "    x: int = 1\n"
        "    def m(self, a, *b, **c):\n"
        "        global g\n"
        "        y = [i for i in a if i]\n"
        "        z = {k: v for k, v in c.items()}\n"
        "        w = (lambda q: q)(1) if a else -a\n"
        "        del y[0]\n"
        "        try:\n"
        "            pass\n"
        "        except (ValueError, KeyError) as err:\n"
        "            raise RuntimeError(f'{err!r:>10}') from err\n"
        "        else:\n"
        "            assert w, 'msg'\n"
        "        finally:\n"
        "            return z[1:2:3]\n"
        "async def h(it):\n"
        "    async with it as (u, v):\n"
        "        async for (p, *q) in it:\n"
        "            await p\n"
        "    while (n := len(it)) > 0:\n"
        "        yield n\n"
        "    match it:\n"
        "        case {'k': [1, *rest], **others} if rest:\n"
        "            pass\n"
        "        case C(x=0) | None:\n"
        "            pass\n"
    )

    def test_walks_every_construct_and_reports_nothing(self):
        from repro.analysis.walker import Walker, read_module

        class Null(Walker[None]):
            UNKNOWN = None

        assert Null(read_module(self.SOURCE, "mod.py")).run() == []


class TestUnitsScope:
    def test_reads_only_the_scope_modules(self, tmp_path):
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "energy.py").write_text(
            "def f(c):\n    return c.energy_nj + c.latency_ns\n"
        )
        # A syntax error outside the cost-model scope is none of --units'
        # business.
        (tmp_path / "serve").mkdir()
        (tmp_path / "serve" / "broken.py").write_text("def broken(:\n")
        assert [d.rule_id for d in analyze_units(tmp_path)] == ["UNI001"]


class TestAllNodes:
    def test_matches_ast_walk_over_the_package(self):
        # Findings keep their order only if the one walk visits nodes
        # exactly as ast.walk does.
        for path in sorted(REPRO_SRC.rglob("*.py")):
            tree = ast.parse(path.read_text())
            expected = list(ast.walk(tree))
            got = all_nodes(tree)
            assert len(got) == len(expected), path
            assert all(a is b for a, b in zip(got, expected)), path
