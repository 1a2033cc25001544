"""Self-tests of the benchmark's layer tracing.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The attribution tests inject a fixed delay into one wrapped layer and
check that the per-layer report names that layer as the one whose self
time grew, while every layer's call count stays the same.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from repro.core.rl.networks import Adam  # noqa: E402
from repro.sim.cache import EvaluationCache  # noqa: E402

import run  # noqa: E402
from layers import (  # noqa: E402
    LAYERS,
    SpanRecorder,
    grown_layer,
    instrument,
    layer_times,
    per_layer_units,
)
from workloads import WORKLOADS, SearchLocal, SearchRL  # noqa: E402


def delayed(fn, seconds: float):
    @functools.wraps(fn)
    def slow(*args, **kwargs):
        time.sleep(seconds)
        return fn(*args, **kwargs)

    return slow


def traced_rep(bench):
    """Rep 0 traced as the benchmark traces it: wrappers around the run,
    the output check after them."""
    recorder = SpanRecorder()
    tally = run.Tally()
    tally.run(bench, 0, around=lambda: instrument(recorder))
    (rep,) = tally.reps
    assert rep.errors == []
    return layer_times(recorder.spans()), rep


def assert_attributed(bench, layer: str, inject) -> None:
    before, rep_before = traced_rep(bench)
    inject()
    after, rep_after = traced_rep(bench)
    assert rep_after.outputs == rep_before.outputs
    assert grown_layer(before, after) == layer
    assert {n: t.calls for n, t in after.items()} == {
        n: t.calls for n, t in before.items()
    }


@pytest.fixture(scope="module")
def rl_bench():
    return SearchRL(0, rounds=4)


@pytest.fixture(scope="module")
def local_bench():
    return SearchLocal(0, rounds=20)


def test_delay_in_adam_step_is_attributed_to_it(rl_bench, monkeypatch):
    assert_attributed(
        rl_bench,
        "core.rl.adam_step",
        lambda: monkeypatch.setattr(Adam, "step", delayed(Adam.step, 0.002)),
    )


def test_delay_in_make_key_is_attributed_to_it(local_bench, monkeypatch):
    slow_key = staticmethod(delayed(EvaluationCache.make_key, 0.0005))
    assert_attributed(
        local_bench,
        "sim.cache.make_key",
        lambda: monkeypatch.setattr(EvaluationCache, "make_key", slow_key),
    )


def test_traced_rep_counts_only_the_programs_evaluations(rl_bench, local_bench):
    # The output check re-evaluates the best strategy on an uncached
    # reference simulator; none of that may land in the traced figures.
    times, rep = traced_rep(rl_bench)
    assert times["sim.evaluate"].calls == rep.layers["sim.cache.lookups"]
    times, rep = traced_rep(local_bench)
    # one evaluation of the greedy strategy, then one per annealing round
    # (annealing's uniform start probes go through evaluate_many)
    assert times["sim.evaluate"].calls == 1 + local_bench.rounds
    assert times["sim.cache.make_key"].calls == rep.layers["sim.cache.lookups"]


def test_instrument_restores_every_target(local_bench):
    from layers import _resolve

    def current():
        out = []
        for layer in LAYERS:
            for module, path in layer.targets:
                owner, attr = _resolve(module, path)
                out.append(
                    owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                )
        return out

    before = current()
    traced_rep(local_bench)
    assert all(a is b for a, b in zip(current(), before))


def test_self_time_subtracts_direct_children():
    spans = [
        (1, 0, 0, "outer", 0, 100),
        (2, 1, 0, "inner", 10, 40),
        (3, 2, 0, "leaf", 15, 25),
        (4, 1, 0, "inner", 50, 60),
    ]
    times = layer_times(spans)
    assert (times["outer"].calls, times["outer"].self_ns) == (1, 60)
    assert (times["inner"].calls, times["inner"].total_ns, times["inner"].self_ns) == (2, 40, 30)
    assert times["leaf"].self_ns == 10


def test_benchmark_json_matches_the_harness():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == per_layer_units()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-src",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
