"""Golden snapshot of every whole-tree ``repro check`` pass over the fixtures.

The per-pass fixture tests assert *sets of rule ids* or a few seeded
locations, so a reordered report, a reworded message, or a pass that
quietly stops reaching a module would pass them.  ``check_golden.json``
pins, for every directory under ``tests/analysis/fixtures/``, the full
``(rule, location, message, hint, data)`` list that
:func:`~repro.analysis.lint.lint_tree`,
:func:`~repro.analysis.analyze_cache_safety`,
:func:`~repro.analysis.analyze_concurrency` and
:func:`~repro.analysis.analyze_kernel_parity` produce, in emission order.
A pass that refuses a tree (no analysis root, no kernel module) is
pinned by its error text instead.

Regenerate with::

    PYTHONPATH=src python tests/analysis/test_check_golden.py --regen

and review the JSON diff — every changed entry is a claimed change to
what the passes report.
"""

import json
from pathlib import Path

from repro.analysis import (
    analyze_cache_safety,
    analyze_concurrency,
    analyze_kernel_parity,
    lint_tree,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_PATH = Path(__file__).with_name("check_golden.json")

PASSES = {
    "lint": lint_tree,
    "cache_safety": analyze_cache_safety,
    "concurrency": analyze_concurrency,
    "kernel_parity": analyze_kernel_parity,
}


def fixture_trees():
    return sorted(p for p in FIXTURES.iterdir() if p.is_dir() and p.name != "__pycache__")


def run_pass(name, tree):
    try:
        diags = PASSES[name](tree)
    except ValueError as exc:
        return {"error": str(exc).replace(str(tree), "<tree>")}
    return [
        {
            "rule": diag.rule_id,
            "location": diag.location,
            "message": diag.message,
            "hint": diag.hint,
            "data": [list(pair) for pair in diag.data],
        }
        for diag in diags
    ]


def compute_snapshot():
    return {
        tree.name: {name: run_pass(name, tree) for name in PASSES}
        for tree in fixture_trees()
    }


class TestCheckGolden:
    def test_snapshot_exists(self):
        assert GOLDEN_PATH.exists(), (
            "golden snapshot missing — regenerate with "
            "PYTHONPATH=src python tests/analysis/test_check_golden.py --regen"
        )

    def test_corpus_is_the_fixture_set(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert [t.name for t in fixture_trees()] == sorted(golden), (
            "fixture trees changed — regenerate the snapshot"
        )

    def test_findings_match_snapshot(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert compute_snapshot() == golden, (
            "whole-tree findings drifted from the golden snapshot; if the "
            "change is intended, regenerate with "
            "PYTHONPATH=src python tests/analysis/test_check_golden.py --regen"
        )

    def test_every_pass_reports_somewhere(self):
        # A snapshot of empty lists pins nothing; each pass with a seeded
        # fixture must report on it.
        golden = json.loads(GOLDEN_PATH.read_text())
        reporting = {
            name
            for passes in golden.values()
            for name, result in passes.items()
            if isinstance(result, list) and result
        }
        assert reporting == {"cache_safety", "concurrency", "kernel_parity"}


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/analysis/test_check_golden.py --regen")
    GOLDEN_PATH.write_text(json.dumps(compute_snapshot(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
