"""Tests for the thread-contract pass (CON001: no fan-out in the library)."""

import shutil
from pathlib import Path

from repro.analysis.concurrency import analyze_concurrency, fan_out_findings
from repro.cli import main

FIXTURE_TREE = Path(__file__).parent / "fixtures" / "racy_tree"
SRC_TREE = Path(__file__).parent.parent.parent / "src" / "repro"

#: the executor imports seeded in the racy fixture tree
FIXTURE_SITES = [
    "repro.core.autohet:10",
    "repro.sim.simulator:14",
    "repro.sim.simulator:14",
]


def uses(source):
    """The fan-out names CON001 reports for one module, in order."""
    diags = fan_out_findings(source, "fix.mod")
    assert {d.rule_id for d in diags} <= {"CON001"}
    return [d.message.rpartition("uses ")[2].strip("`") for d in diags]


class TestCON001:
    def test_threading_thread_target_fans_out(self):
        src = (
            "import threading\n"
            "def fan(work):\n"
            "    t = threading.Thread(target=work)\n"
            "    t.start()\n"
        )
        assert uses(src) == ["threading.Thread"]

    def test_submit_fans_out_too(self):
        src = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def fan(work):\n"
            "    with ThreadPoolExecutor() as pool:\n"
            "        pool.submit(work)\n"
        )
        assert uses(src) == ["concurrent.futures.ThreadPoolExecutor"]

    def test_outside_worker_context_is_clean(self):
        # Locks and thread-locals start nothing; serial code is legal.
        src = (
            "import threading\n"
            "_LOCAL = threading.local()\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.total = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.total += 1\n"
        )
        assert uses(src) == []

    def test_module_aliases_are_resolved(self):
        src = (
            "import concurrent.futures\n"
            "import concurrent.futures as cf\n"
            "from concurrent import futures\n"
            "import threading as th\n"
            "import os\n"
            "def fan(work):\n"
            "    concurrent.futures.ProcessPoolExecutor()\n"
            "    cf.ThreadPoolExecutor()\n"
            "    futures.ProcessPoolExecutor()\n"
            "    th.Timer(1.0, work)\n"
            "    os.fork()\n"
        )
        assert uses(src) == [
            "concurrent.futures.ProcessPoolExecutor",
            "concurrent.futures.ThreadPoolExecutor",
            "concurrent.futures.ProcessPoolExecutor",
            "threading.Timer",
            "os.fork",
        ]

    def test_multiprocessing_is_fan_out_as_a_whole(self):
        src = (
            "import multiprocessing\n"
            "from multiprocessing.pool import ThreadPool\n"
            "def fan():\n"
            "    return multiprocessing.cpu_count()\n"
        )
        assert uses(src) == [
            "multiprocessing",
            "multiprocessing.pool.ThreadPool",
        ]

    def test_star_and_submodule_imports_fan_out(self):
        src = (
            "from threading import *\n"
            "from concurrent.futures import thread\n"
            "import concurrent.futures.process\n"
            "from os import path\n"
        )
        assert uses(src) == [
            "threading.*",
            "concurrent.futures.thread",
            "concurrent.futures.process",
        ]

    def test_lookalike_names_are_not_fan_out(self):
        # Only names bound to the fan-out modules count.
        src = (
            "from . import threading\n"
            "class Pool:\n"
            "    Thread = None\n"
            "def fan(obj):\n"
            "    threading.Thread()\n"
            "    obj.ThreadPoolExecutor()\n"
            "    Pool.Thread\n"
        )
        assert uses(src) == []

    def test_location_names_module_and_line(self):
        src = "\n\nfrom threading import Thread\n"
        (d,) = fan_out_findings(src, "repro.sim.simulator")
        assert d.location == "repro.sim.simulator:3"
        assert "one Simulator per thread" in d.hint


class TestFixtureTree:
    def test_seeded_locations(self):
        diags = analyze_concurrency(FIXTURE_TREE)
        assert [d.location for d in diags] == FIXTURE_SITES
        assert {d.rule_id for d in diags} == {"CON001"}

    def test_negative_twins_stay_silent(self):
        # The fixture sink imports threading for its Lock only.
        diags = analyze_concurrency(FIXTURE_TREE)
        assert not any("repro.obs" in d.location for d in diags)


class TestRealTree:
    def test_src_is_race_free(self):
        # Zero findings over the real package, with no grandfathering.
        assert analyze_concurrency(SRC_TREE) == []

    def test_planted_thread_pool_is_caught(self, tmp_path):
        tree = tmp_path / "repro"
        shutil.copytree(
            SRC_TREE, tree, ignore=shutil.ignore_patterns("__pycache__")
        )
        simulator = tree / "sim" / "simulator.py"
        simulator.write_text(
            simulator.read_text()
            + "\n\nfrom concurrent.futures import ThreadPoolExecutor\n"
        )
        (d,) = analyze_concurrency(tree)
        assert d.location.startswith("repro.sim.simulator:")
        assert "ThreadPoolExecutor" in d.message

    def test_analysis_package_is_out_of_scope(self, tmp_path):
        tree = tmp_path / "repro"
        (tree / "analysis").mkdir(parents=True)
        (tree / "__init__.py").write_text("")
        (tree / "analysis" / "__init__.py").write_text(
            "import multiprocessing\n"
        )
        assert analyze_concurrency(tree) == []


class TestCheckCLI:
    def test_concurrency_flag_passes_on_real_tree(self, capsys):
        assert main(["check", "--concurrency"]) == 0
        out = capsys.readouterr().out
        assert "concurrency safety" in out

    def test_fixture_tree_fails_at_its_three_sites(self, capsys):
        assert main(
            ["check", "--concurrency", "--source", str(FIXTURE_TREE)]
        ) == 1
        out = capsys.readouterr().out
        for site in FIXTURE_SITES:
            assert f"CON001 [{site}]" in out
        assert out.count("CON001 [") == 3

    def test_default_sweep_includes_concurrency(self, capsys):
        assert main(["check"]) == 0
        assert "concurrency safety" in capsys.readouterr().out
