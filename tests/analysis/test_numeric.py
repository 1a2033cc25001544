"""Tests for the NumPy-aware numeric-safety analysis (NUM rules)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.numeric import analyze_numeric, numeric_findings

FIXTURE_TREE = Path(__file__).parent / "fixtures" / "unsafe_numeric_tree"


def ids(source):
    return sorted(d.rule_id for d in numeric_findings(source, "sim/mod.py"))


class TestNUM001DtypeMixing:
    def test_int32_meets_int64(self):
        src = (
            "import numpy as np\n"
            "a = np.zeros(4, dtype=np.int32)\n"
            "b = np.ones(4, dtype=np.int64)\n"
            "c = a + b\n"
        )
        assert ids(src) == ["NUM001"]

    def test_int_into_float32_narrowing(self):
        src = (
            "import numpy as np\n"
            "a = np.zeros(4, dtype=np.int64)\n"
            "b = np.ones(4, dtype=np.float32)\n"
            "c = a * b\n"
        )
        assert ids(src) == ["NUM001"]

    def test_int64_to_float64_is_the_scalar_promotion(self):
        src = (
            "import numpy as np\n"
            "a = np.zeros(4, dtype=np.int64)\n"
            "b = np.ones(4, dtype=np.float64)\n"
            "c = a + b\n"
        )
        assert ids(src) == []

    def test_astype_declares_the_conversion(self):
        src = (
            "import numpy as np\n"
            "a = np.zeros(4, dtype=np.int32)\n"
            "b = np.ones(4, dtype=np.int64)\n"
            "c = a.astype(np.int64) + b\n"
        )
        assert ids(src) == []


class TestNUM003UnguardedDivision:
    def test_division_by_zeros(self):
        src = "import numpy as np\nd = np.zeros(4)\nr = 1.0 / d\n"
        assert ids(src) == ["NUM003"]

    def test_division_by_subtraction(self):
        src = "import numpy as np\ndef f(a, b):\n    return 1 / (a - b)\n"
        assert ids(src) == ["NUM003"]

    def test_sqrt_of_possibly_negative(self):
        src = (
            "import numpy as np\n"
            "v = np.array([1.0, 2.0]) - np.array([3.0, 4.0])\n"
            "r = np.sqrt(v)\n"
        )
        assert ids(src) == ["NUM003"]

    def test_log_of_possibly_zero(self):
        src = "import numpy as np\nd = np.zeros(4)\nr = np.log(d)\n"
        assert ids(src) == ["NUM003"]

    def test_comparison_guard_discharges(self):
        src = (
            "import numpy as np\n"
            "def f(d):\n"
            "    d = np.zeros(4)\n"
            "    if np.all(d > 0):\n"
            "        return 1.0 / d\n"
            "    return 0.0\n"
        )
        assert ids(src) == []

    def test_early_exit_guard_discharges(self):
        src = (
            "def f(a, b):\n"
            "    d = a - b\n"
            "    if d == 0:\n"
            "        raise ValueError\n"
            "    return 1 / d\n"
        )
        assert ids(src) == []

    def test_or_fallback_discharges(self):
        # The ``x or 1.0`` idiom (sim/variation.py's RMS denominator).
        src = (
            "import numpy as np\n"
            "def f(x):\n"
            "    denom = float(np.zeros(1)[0]) or 1.0\n"
            "    return x / denom\n"
        )
        assert ids(src) == []

    def test_even_power_clears_negative(self):
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    return np.sqrt((a - b) ** 2)\n"
        )
        assert ids(src) == []


class TestNUM005NanSinks:
    def test_argmin_on_inf_tainted(self):
        src = (
            "import numpy as np\n"
            "s = np.ones(3) * np.inf\n"
            "best = np.argmin(s)\n"
        )
        assert ids(src) == ["NUM005"]

    def test_builtin_min_on_nan_tainted(self):
        src = (
            "import numpy as np\n"
            "s = np.ones(3) - np.nan\n"
            "best = min(s)\n"
        )
        assert ids(src) == ["NUM005"]

    def test_ordering_comparison_on_tainted(self):
        src = (
            "import numpy as np\n"
            "s = np.ones(3) - np.inf\n"
            "flag = s < 0\n"
        )
        assert ids(src) == ["NUM005"]

    def test_isfinite_guard_discharges(self):
        src = (
            "import numpy as np\n"
            "def f():\n"
            "    s = np.ones(3) - np.inf\n"
            "    if np.all(np.isfinite(s)):\n"
            "        return np.argmin(s)\n"
            "    return -1\n"
        )
        assert ids(src) == []

    def test_nan_aware_variant_is_sanctioned(self):
        src = (
            "import numpy as np\n"
            "s = np.ones(3) - np.inf\n"
            "best = np.nanmin(s)\n"
        )
        assert ids(src) == []


class TestOptimismAboutUnknowns:
    def test_plain_python_arithmetic_is_silent(self):
        src = (
            "def f(mapping, config):\n"
            "    per = mapping.weight_cells / mapping.num_crossbars\n"
            "    return per * config.adc_bits\n"
        )
        assert ids(src) == []

    def test_unknown_reduction_operand_is_silent(self):
        src = "import numpy as np\ndef f(x):\n    return np.sum(x)\n"
        assert ids(src) == []


class TestEntryPoints:
    def test_fixture_tree_reports_exactly_one_per_rule(self):
        diags = analyze_numeric(FIXTURE_TREE)
        assert [d.rule_id for d in diags] == ["NUM001", "NUM003", "NUM005"]
        assert all(d.location.startswith("sim/kernels.py:") for d in diags)

    def test_real_tree_is_numerically_clean(self):
        assert analyze_numeric() == []

    def test_empty_tree_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no sim/ modules"):
            analyze_numeric(tmp_path)
