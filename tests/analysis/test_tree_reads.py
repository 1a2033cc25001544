"""How the whole-tree ``repro check`` passes read a source tree.

Two contracts of docs/static_analysis.md ("How a pass reads the tree"):

* **No parse outlives one call.**  Each pass reads the tree afresh, so an
  edit between two calls shows in the second result.
* **The cache-safety and kernel-parity passes parse only what their
  roots reach.**  An unparsable module that no root reaches goes unseen
  by them; the lint pass, which reads every module, reports it as
  LNT002, and the default ``repro check --source`` fails on it.
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis import (
    analyze_cache_safety,
    analyze_concurrency,
    analyze_kernel_parity,
    lint_tree,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def copy_fixture(name, tmp_path):
    return Path(shutil.copytree(FIXTURES / name, tmp_path / name))


def edit(path, old, new):
    text = path.read_text()
    assert old in text, f"edit anchor missing from {path}: {old!r}"
    path.write_text(text.replace(old, new))


def rules(diags):
    return {d.rule_id for d in diags}


# (pass, fixture, module to edit, old text, new text, rule that flips)
EDITS = [
    (lint_tree, "unsound_tree", "sim/simulator.py",
     "        return self.evaluate(scale)\n",
     "        print(scale)\n        return self.evaluate(scale)\n", "LNT001"),
    (analyze_cache_safety, "unsound_tree", "sim/simulator.py",
     "random.random()", "1.0", "CAC003"),
    (analyze_concurrency, "unsound_tree", "sim/simulator.py",
     "from dataclasses import dataclass\n",
     "from dataclasses import dataclass\nimport multiprocessing\n", "CON001"),
    (analyze_kernel_parity, "divergent_kernel_tree", "sim/simulator.py",
     " + len(layer.flavor)", "", "PAR001"),
]


class TestNoParseOutlivesOneCall:
    @pytest.mark.parametrize(
        "analyze, fixture, module, old, new, rule",
        EDITS,
        ids=[e[0].__name__ for e in EDITS],
    )
    def test_second_call_sees_the_edit(
        self, tmp_path, analyze, fixture, module, old, new, rule
    ):
        tree = copy_fixture(fixture, tmp_path)
        before = rule in rules(analyze(tree))
        edit(tree / module, old, new)
        after = rule in rules(analyze(tree))
        assert before != after, f"{rule} did not flip after editing {module}"


def run(analyze, tree):
    """The pass's findings, or its refusal as text."""
    try:
        return [str(d) for d in analyze(tree)]
    except ValueError as exc:
        return f"ValueError: {str(exc).replace(str(tree), '<tree>')}"


class TestUnreachedUnparsableModule:
    BROKEN = "def broken(:\n    return 0\n"

    @pytest.mark.parametrize("fixture", ["unsound_tree", "divergent_kernel_tree"])
    @pytest.mark.parametrize("analyze", [analyze_cache_safety, analyze_kernel_parity])
    def test_rooted_passes_do_not_see_it(self, tmp_path, fixture, analyze):
        planted = copy_fixture(fixture, tmp_path)
        (planted / "sim" / "broken.py").write_text(self.BROKEN)
        assert run(analyze, planted) == run(analyze, FIXTURES / fixture)

    def test_lint_reports_it_and_the_default_source_check_fails(
        self, tmp_path, capsys
    ):
        planted = copy_fixture("unsound_tree", tmp_path)
        (planted / "sim" / "broken.py").write_text(self.BROKEN)
        lnt002 = [d for d in lint_tree(planted) if d.rule_id == "LNT002"]
        assert [d.location for d in lnt002] == ["sim/broken.py:1"]
        assert "does not parse" in lnt002[0].message
        assert main(["check", "--source", str(planted)]) == 1
        assert "sim/broken.py:1" in capsys.readouterr().out
