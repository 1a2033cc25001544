"""Tests for the project AST lint rules (LNT001, LNT003, LNT005-LNT008)."""

from pathlib import Path

import pytest

from repro.analysis.lint import lint_source, lint_tree


def rule_ids(diags):
    return sorted({d.rule_id for d in diags})


class TestNoPrint:
    def test_print_in_library_code_flagged(self):
        assert rule_ids(lint_source("print('hi')\n", "sim/energy2.py")) == ["LNT001"]

    def test_print_allowed_in_cli_and_bench(self):
        assert lint_source("print('hi')\n", "cli.py") == []
        assert lint_source("print('hi')\n", "bench/reporting.py") == []
        assert lint_source("print('hi')\n", "__main__.py") == []

    def test_print_in_docstring_not_flagged(self):
        src = '"""Example::\n\n    print(x)\n"""\n'
        assert lint_source(src, "models/zoo.py") == []

    def test_location_carries_line_number(self):
        diags = lint_source("x = 1\nprint(x)\n", "core/foo.py")
        assert diags[0].location == "core/foo.py:2"


class TestFrozenDataclassDiscipline:
    def test_unfrozen_dataclass_in_arch_flagged(self):
        src = "from dataclasses import dataclass\n@dataclass\nclass C:\n    x: int\n"
        assert rule_ids(lint_source(src, "arch/widget.py")) == ["LNT003"]

    def test_frozen_dataclass_ok(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\nclass C:\n    x: int\n"
        )
        assert lint_source(src, "arch/widget.py") == []

    def test_stateful_marker_ok(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass  # stateful: accumulates activity counters\n"
            "class C:\n    x: int\n"
        )
        assert lint_source(src, "arch/widget.py") == []

    def test_rule_scoped_to_arch(self):
        src = "from dataclasses import dataclass\n@dataclass\nclass C:\n    x: int\n"
        assert lint_source(src, "core/rl/widget.py") == []


class TestNoAssertInAllocation:
    def test_assert_in_allocation_flagged(self):
        assert rule_ids(
            lint_source("assert x > 0\n", "core/allocation/tiles.py")
        ) == ["LNT005"]

    def test_assert_elsewhere_ok(self):
        assert lint_source("assert x > 0\n", "core/rl/ddpg.py") == []


class TestNoCachedInstanceMethods:
    def test_lru_cache_on_instance_method_flagged(self):
        src = (
            "from functools import lru_cache\n"
            "class C:\n"
            "    @lru_cache(maxsize=8)\n"
            "    def m(self, x):\n"
            "        return x\n"
        )
        diags = lint_source(src, "sim/thing.py")
        assert rule_ids(diags) == ["LNT006"]
        assert "C.m" in diags[0].message

    def test_functools_qualified_cache_flagged(self):
        src = (
            "import functools\n"
            "class C:\n"
            "    @functools.cache\n"
            "    def m(self, x):\n"
            "        return x\n"
        )
        assert rule_ids(lint_source(src, "m.py")) == ["LNT006"]

    def test_bare_lru_cache_decorator_flagged(self):
        src = (
            "from functools import lru_cache\n"
            "class C:\n"
            "    @lru_cache\n"
            "    def m(self, x):\n"
            "        return x\n"
        )
        assert rule_ids(lint_source(src, "m.py")) == ["LNT006"]

    def test_staticmethod_and_free_function_ok(self):
        src = (
            "from functools import lru_cache\n"
            "@lru_cache\n"
            "def free(x):\n"
            "    return x\n"
            "class C:\n"
            "    @staticmethod\n"
            "    @lru_cache\n"
            "    def s(x):\n"
            "        return x\n"
        )
        assert lint_source(src, "m.py") == []

    def test_cached_property_not_flagged(self):
        src = (
            "from functools import cached_property\n"
            "class C:\n"
            "    @cached_property\n"
            "    def p(self):\n"
            "        return 1\n"
        )
        assert lint_source(src, "m.py") == []

    def test_allowlist_suppresses(self, monkeypatch):
        from repro.analysis import lint as lint_mod

        src = (
            "from functools import lru_cache\n"
            "class C:\n"
            "    @lru_cache\n"
            "    def m(self, x):\n"
            "        return x\n"
        )
        monkeypatch.setattr(
            lint_mod, "CACHED_METHOD_ALLOWLIST", frozenset({"m.py::C.m"})
        )
        assert lint_source(src, "m.py") == []


class TestLoggingBridge:
    def test_qualified_getlogger_flagged(self):
        src = "import logging\nlog = logging.getLogger(__name__)\n"
        diags = lint_source(src, "core/autohet2.py")
        assert rule_ids(diags) == ["LNT007"]
        assert "getLogger" in diags[0].message

    def test_qualified_basicconfig_flagged(self):
        src = "import logging\nlogging.basicConfig(level=10)\n"
        assert rule_ids(lint_source(src, "cli2.py")) == ["LNT007"]

    def test_from_import_call_flagged(self):
        src = "from logging import getLogger\nlog = getLogger('x')\n"
        assert rule_ids(lint_source(src, "sim/thing.py")) == ["LNT007"]

    def test_aliased_from_import_call_flagged(self):
        src = "from logging import getLogger as gl\nlog = gl('x')\n"
        assert rule_ids(lint_source(src, "sim/thing.py")) == ["LNT007"]

    def test_obs_bridge_itself_allowed(self):
        src = "import logging\nlog = logging.getLogger('repro')\n"
        assert lint_source(src, "obs/log.py") == []

    def test_logger_method_calls_ok(self):
        """Using a logger is fine everywhere — only *acquiring* one is fenced."""
        src = (
            "from repro.obs.log import get_logger\n"
            "log = get_logger('sim')\n"
            "log.info('hello %s', 'world')\n"
        )
        assert lint_source(src, "sim/thing.py") == []

    def test_unrelated_getlogger_name_ok(self):
        """A same-named call on a non-logging object is not flagged."""
        src = "factory.getLogger('x')\n"
        assert lint_source(src, "sim/thing.py") == []


class TestNoLiteralCastsInKernelLoops:
    LOOP_CAST = (
        "import numpy as np\n"
        "def score(rows):\n"
        "    out = []\n"
        "    for r in rows:\n"
        "        out.append(float(r))\n"
        "    return out\n"
    )

    def test_float_cast_in_kernel_loop_flagged(self):
        diags = lint_source(self.LOOP_CAST, "sim/kernels.py")
        assert rule_ids(diags) == ["LNT008"]
        assert "score()" in diags[0].message

    def test_np_dtype_cast_in_comprehension_flagged(self):
        src = (
            "import numpy as np\n"
            "def score(rows):\n"
            "    return [np.float32(r) for r in rows]\n"
        )
        assert rule_ids(lint_source(src, "sim/kernels.py")) == ["LNT008"]

    def test_cast_outside_loop_ok(self):
        src = (
            "import numpy as np\n"
            "def score(rows):\n"
            "    arr = np.asarray(rows).astype(np.float64)\n"
            "    return arr * float(arr[0])\n"
        )
        assert lint_source(src, "sim/kernels.py") == []

    def test_rule_is_scoped_to_the_kernel_module(self):
        assert lint_source(self.LOOP_CAST, "sim/energy.py") == []

    def test_allowlist_is_the_escape_hatch(self, monkeypatch):
        from repro.analysis import lint as lint_mod

        monkeypatch.setattr(
            lint_mod,
            "KERNEL_CAST_ALLOWLIST",
            frozenset({"sim/kernels.py::score"}),
        )
        assert lint_source(self.LOOP_CAST, "sim/kernels.py") == []


class TestTree:
    def test_repo_source_tree_is_clean(self):
        """The shipped package passes its own linter — CI enforces this."""
        assert lint_tree() == []

    def test_syntax_error_refuses_the_module(self):
        with pytest.raises(ValueError, match="cannot parse m.py:1: invalid syntax"):
            lint_source("def broken(:\n", "m.py")

    def test_lint_tree_accepts_explicit_root(self, tmp_path: Path):
        (tmp_path / "mod.py").write_text("print('x')\n")
        assert rule_ids(lint_tree(tmp_path)) == ["LNT001"]
