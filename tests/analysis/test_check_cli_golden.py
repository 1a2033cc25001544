"""Golden snapshot of ``repro check --source <tree>`` at the CLI.

``check_golden.json`` pins what each tree pass returns; this snapshot
pins what the command prints.  For every fixture tree, for a copy of
``unsound_tree`` whose ``sim/simulator.py`` does not parse, and for the
package's own source, it records ``repro check --source <tree>`` alone
(lint only), with each whole-tree pass flag, and with all five flags,
in both ``--format text`` and ``--format json``: the exit code, stdout
and stderr, with the tree path replaced by ``<tree>``.  Narration
order, report order and the refusal lines on stderr are all part of it.

Regenerate with::

    PYTHONPATH=src python tests/analysis/test_check_cli_golden.py --regen

and review the JSON diff — every changed entry is a claimed change to
what ``repro check`` prints.
"""

import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import repro
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_PATH = Path(__file__).with_name("check_cli_golden.json")
PASS_FLAGS = ("--cache-safety", "--concurrency", "--numeric", "--kernel-parity", "--units")
FLAG_SETS = {
    "lint": (),
    **{flag[2:]: (flag,) for flag in PASS_FLAGS},
    "all": PASS_FLAGS,
}
FORMATS = ("text", "json")


def tree_names():
    fixtures = sorted(
        p.name for p in FIXTURES.iterdir() if p.is_dir() and p.name != "__pycache__"
    )
    return [*fixtures, "broken_unsound_tree", "repro"]


def materialise(name, scratch):
    """The directory ``name`` stands for; the broken tree is built in ``scratch``."""
    if name == "repro":
        return Path(repro.__file__).resolve().parent
    if name == "broken_unsound_tree":
        tree = Path(shutil.copytree(FIXTURES / "unsound_tree", scratch / name))
        (tree / "sim" / "simulator.py").write_text("def broken(:\n    return 0\n")
        return tree
    return FIXTURES / name


def run_cli(argv, tree):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # What the interpreter does with a SystemExit leaving ``python -m``.
            if isinstance(exc.code, str):
                print(exc.code, file=err)
                code = 1
            else:
                code = exc.code or 0
    return {
        "exit": code,
        "stdout": out.getvalue().replace(str(tree), "<tree>"),
        "stderr": err.getvalue().replace(str(tree), "<tree>"),
    }


def compute_tree(name, scratch):
    tree = materialise(name, scratch)
    return {
        f"{flags}/{fmt}": run_cli(
            ["check", "--source", str(tree), *FLAG_SETS[flags], "--format", fmt], tree
        )
        for flags in FLAG_SETS
        for fmt in FORMATS
    }


def compute_snapshot():
    with tempfile.TemporaryDirectory() as scratch:
        return {name: compute_tree(name, Path(scratch)) for name in tree_names()}


class TestCheckCliGolden:
    def test_corpus_is_the_tree_set(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert sorted(golden) == sorted(tree_names()), (
            "fixture trees changed — regenerate the snapshot"
        )

    @pytest.mark.parametrize("name", tree_names())
    def test_output_matches_snapshot(self, name, tmp_path):
        golden = json.loads(GOLDEN_PATH.read_text())[name]
        assert compute_tree(name, tmp_path) == golden, (
            f"repro check output on {name} drifted from the golden snapshot; "
            "if the change is intended, regenerate with "
            "PYTHONPATH=src python tests/analysis/test_check_cli_golden.py --regen"
        )


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/analysis/test_check_cli_golden.py --regen")
    GOLDEN_PATH.write_text(json.dumps(compute_snapshot(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
