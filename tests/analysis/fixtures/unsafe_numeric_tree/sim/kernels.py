"""Fixture sim tree for the NUM rules — one positive/negative twin per rule.

Every ``bad_*`` function commits exactly one numeric hazard; its ``ok_*``
twin is the sanctioned form of the same computation (explicit promotion,
a guard, an isfinite filter), and the other ``ok_*`` functions are more
sanctioned forms.  ``tests/analysis/test_numeric.py`` asserts the
analyzer flags precisely the three bad functions and nothing else.
"""

import numpy as np


def bad_dtype_mix(n):
    a = np.zeros(n, dtype=np.int32)
    b = np.ones(n, dtype=np.int64)
    return a + b  # NUM001: int32 widened silently


def ok_dtype_mix(n):
    a = np.zeros(n, dtype=np.int64)
    b = np.ones(n, dtype=np.float64)
    return a + b  # int64 -> float64 is the scalar path's own promotion


def ok_explicit_conversion(n):
    a = np.zeros(n, dtype=np.int32)
    b = np.ones(n, dtype=np.int64)
    return a.astype(np.int64) + b  # converted deliberately, before the sum


def ok_unknown_operands(total, count):
    return total / count  # values with no evidence stay silent


def bad_division(counts):
    weights = np.zeros(4, dtype=np.float64)
    return counts / weights  # NUM003: denominator can be zero


def ok_division(counts):
    weights = np.zeros(4, dtype=np.float64)
    if np.all(weights > 0):
        return counts / weights
    return counts


def ok_early_exit_guard(counts):
    weights = np.zeros(4, dtype=np.float64)
    if not np.all(weights > 0):
        # the early return clears the zero evidence for what follows
        return counts
    return counts / weights


def bad_nan_sink(scores):
    masked = np.asarray(scores) - np.inf
    return np.argmin(masked)  # NUM005: nan poisons the argmin


def ok_nan_sink(scores):
    masked = np.asarray(scores) - np.inf
    if np.all(np.isfinite(masked)):
        return np.argmin(masked)
    return -1
