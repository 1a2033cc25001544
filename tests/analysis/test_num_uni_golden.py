"""Golden snapshot of every NUM and UNI finding over the fixture trees.

The per-rule fixture tests assert *sets of rule ids*, so a reworded
message, a changed hint, a shifted line number, or a lost ``data`` pair
would pass them.  ``num_uni_golden.json`` pins the full
``(rule, location, message, hint, data)`` list that
:func:`~repro.analysis.numeric.numeric_findings` and
:func:`~repro.analysis.units.units_findings` produce for every ``.py``
under ``tests/analysis/fixtures/``, in emission order.

Regenerate with::

    PYTHONPATH=src python tests/analysis/test_num_uni_golden.py --regen

and review the JSON diff — every changed entry is a claimed change to
what the analyzers report.
"""

import json
from pathlib import Path

from repro.analysis.numeric import numeric_findings
from repro.analysis.units import load_tables, units_findings

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_PATH = Path(__file__).with_name("num_uni_golden.json")


def fixture_files():
    return sorted(FIXTURES.rglob("*.py"))


def compute_findings():
    tables = load_tables()
    out = []
    for path in fixture_files():
        rel = path.relative_to(FIXTURES).as_posix()
        source = path.read_text()
        for diag in numeric_findings(source, rel) + units_findings(
            source, rel, tables=tables
        ):
            out.append(
                {
                    "rule": diag.rule_id,
                    "location": diag.location,
                    "message": diag.message,
                    "hint": diag.hint,
                    "data": [list(pair) for pair in diag.data],
                }
            )
    return out


class TestNumUniGolden:
    def test_snapshot_exists(self):
        assert GOLDEN_PATH.exists(), (
            "golden snapshot missing — regenerate with "
            "PYTHONPATH=src python tests/analysis/test_num_uni_golden.py --regen"
        )

    def test_corpus_is_the_fixture_set(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        rels = [p.relative_to(FIXTURES).as_posix() for p in fixture_files()]
        assert rels == golden["files"], (
            "fixture set changed — regenerate the snapshot"
        )

    def test_findings_match_snapshot(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        current = compute_findings()
        assert current == golden["findings"], (
            "NUM/UNI findings drifted from the golden snapshot; if the "
            "change is intended, regenerate with "
            "PYTHONPATH=src python tests/analysis/test_num_uni_golden.py --regen"
        )

    def test_every_rule_is_exercised(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        rules = {f["rule"] for f in golden["findings"]}
        assert rules == {"NUM001", "NUM003", "NUM005", "UNI001", "UNI005"}


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/analysis/test_num_uni_golden.py --regen")
    snapshot = {
        "files": [p.relative_to(FIXTURES).as_posix() for p in fixture_files()],
        "findings": compute_findings(),
    }
    GOLDEN_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
