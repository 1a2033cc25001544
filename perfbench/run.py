"""The repository's benchmark: four workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search-rl-vgg16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--workload`` is one of the names in :data:`workloads.WORKLOADS`, or
``all`` to run every workload one after another, each in a child
process of its own, and print every workload's metrics prefixed with
its name.  The program (``src/repro`` of the same checkout) runs in the
workload's process, on one thread; it receives only inputs generated
from ``--seed``.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s`` — median over :data:`SETUP_PROBES` fresh processes of the
  time from spawning the process to the end of the workload's set-up
  (imports, model and scenario construction, reference baselines, a
  small warm-up call that builds the program's lazy tables);
* ``ops_per_s`` — operations completed per second over the reps run in
  ``--seconds`` (at least ``min_reps`` of them), where an op is one RL
  round, one strategy evaluation, one simulated request or one full
  check sweep;
* ``peak_rss_mb`` — the workload process's peak resident set through
  set-up and the first ``min_reps`` reps.

Both times are in reference seconds: host seconds scaled by the host's
speed relative to a reference CPU, which :class:`HostSpeed` measures
right after each rep and each set-up probe.  The raw host-second
figures are printed beside them and written to the results file.

``--trace 1`` runs the workload's first ``min_reps`` reps twice, each
untraced and then with every layer of :mod:`layers` wrapped around the
rep's own call (its output check runs after the wrappers are undone),
checks that the simulated outputs are identical, and reports the
per-layer metrics.

Every rep's outputs are checked (reference-oracle equality for the
searches, report validity and conservation for serving, zero findings
for the check sweep).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit status is 1 when any check failed.  Each run also writes its per-rep records (and, traced, its spans) under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROBES = 5
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MiB"}
#: host seconds one calibration unit takes on the reference CPU
REFERENCE_UNIT_S = 0.01
#: calibration time after each rep, as a share of that rep's time
CALIBRATION_SHARE = 0.1


def calibration_unit() -> None:
    """A fixed mix of interpreter work and small-array NumPy calls."""
    import numpy as np

    total = 0
    table: dict[int, int] = {}
    for i in range(60_000):
        total += i * i
        table[i & 1023] = total
    vec = np.arange(64.0)
    for _ in range(1_500):
        vec = vec * 1.0000001 + 1.0


class HostSpeed:
    """How fast the host runs right now, relative to the reference CPU.

    On a shared or frequency-scaled host, other load moves this
    process's speed by tens of percent from one minute to the next.
    Timing a fixed unit of work between reps tracks that speed;
    multiplying host seconds by :attr:`factor` gives reference seconds,
    which stay put while the host's speed drifts.  The unit does not
    run any ``repro`` code, so a faster program still reads faster.
    """

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def sample(self, budget_s: float) -> None:
        """Run calibration units for ``budget_s`` (at least one unit)."""
        start = time.perf_counter()
        while True:
            calibration_unit()
            self.units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= budget_s:
                break
        self.seconds += elapsed

    @property
    def factor(self) -> float:
        """Reference seconds per host second (below 1 on a slow host)."""
        return REFERENCE_UNIT_S * self.units / self.seconds


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``.

    Exits nonzero when the checkout holds no ``src/repro``: the
    benchmark measures the checkout it sits in, never an installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Host and reference seconds from spawning a fresh process to its
    workload being set up."""
    speed = HostSpeed()
    speed.sample(0.05)
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", workload,
           "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {cmd}")
    speed.sample(0.05)
    return elapsed, elapsed * speed.factor


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


class Tally:
    """Reps run, with their host and reference time, ops and check failures.

    After each rep a calibration sample of :data:`CALIBRATION_SHARE` of
    the rep's time converts that rep's host seconds to reference seconds.
    """

    def __init__(self, *, keep_outputs: bool = True) -> None:
        self.seconds: list[float] = []
        self.ref_seconds: list[float] = []
        self.reps: list = []
        self.attempted = 0
        self.failed = 0
        self.keep_outputs = keep_outputs

    def run(self, bench, k: int, around=contextlib.nullcontext) -> None:
        """Run and check rep ``k``; ``around()`` is entered for the run
        only, never for the check."""
        try:
            with around():
                seconds, raw = timed(bench.run, k)
            rep = bench.check(raw)
        except Exception:  # a failed op is counted, never fatal
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return
        speed = HostSpeed()
        speed.sample(CALIBRATION_SHARE * seconds)
        if not self.keep_outputs:
            rep.outputs = None  # the harness's copies would count in peak RSS
        self.seconds.append(seconds)
        self.ref_seconds.append(seconds * speed.factor)
        self.reps.append(rep)
        self.attempted += rep.ops
        if rep.errors:
            print(f"  rep {k}: " + "; ".join(rep.errors[:5]), file=sys.stderr)
            self.failed += rep.ops

    def records(self) -> list[dict]:
        return [
            {"host_s": s, "ref_s": ref, "ops": r.ops, "errors": r.errors,
             **r.info, **r.quality}
            for s, ref, r in zip(self.seconds, self.ref_seconds, self.reps)
        ]


def quality(bench, reps) -> dict[str, float]:
    """Simulated figures: medians over the first ``min_reps`` reps, which
    every run computes, so they repeat exactly for a seed."""
    first = reps[: bench.min_reps]
    names = first[0].quality if first else {}
    return {n: statistics.median(r.quality[n] for r in first) for n in names}


def describe_quality(bench, values: dict[str, float]) -> list[str]:
    lines = []
    for name, value in values.items():
        line = f"  {name:<14} {value:.4g}"
        paper = getattr(bench, "paper_rue_gain", None)
        if name == "rue_gain" and paper:
            line += (
                f"  (paper Fig. 9: {paper}x; the gap is model-vs-paper error, "
                "not a speed-up)"
            )
        lines.append(line)
    return lines


def run_untraced(bench, seconds: float, setup: list[tuple[float, float]]) -> tuple[dict, Tally]:
    tally = Tally(keep_outputs=False)
    start = time.perf_counter()
    k = 0
    while k < bench.min_reps or time.perf_counter() - start < seconds:
        tally.run(bench, k)
        k += 1
        if k == bench.min_reps:
            # Peak RSS at the fixed run size every run completes: later
            # reps keep filling the program's bounded memo tables, so a
            # later reading would grow with the host's speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not tally.reps:
        sys.exit(f"{bench.name}: every rep failed")
    ops = sum(r.ops for r in tally.reps)
    host_s, ref_s = sum(tally.seconds), sum(tally.ref_seconds)
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "ops_per_s": ops / ref_s,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{bench.name}: {len(tally.reps)} reps, {ops} ops in {host_s:.3f} host s, "
          f"{ops / host_s:.6g} ops per host s; host speed {ref_s / host_s:.3f}x "
          f"reference; set-up {statistics.median(h for h, _ in setup):.4f} host s "
          f"(rep median "
          f"{statistics.median(tally.seconds):.4f} s, min {min(tally.seconds):.4f}, "
          f"max {max(tally.seconds):.4f})")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}")
    for line in describe_quality(bench, quality(bench, tally.reps)):
        print(line)
    print(f"  error_frac     {tally.failed / tally.attempted:.4g}")
    if bench.name == "check-src" and len(tally.ref_seconds) > 1:
        first, later = tally.ref_seconds[0], statistics.median(tally.ref_seconds[1:])
        print(f"  first sweep {first:.3f} ref s, later sweeps median {later:.3f} ref s "
              f"(ops_per_s counts every sweep, the first included)")
    return metrics, tally


def run_traced(bench) -> tuple[dict, Tally, list]:
    from layers import DERIVED, SpanRecorder, instrument, layer_times, span_metrics

    # Untraced and traced reps alternate, so that both sides see the
    # same host speed drift.
    plain, traced = Tally(), Tally()
    recorder = SpanRecorder()
    for k in range(bench.min_reps):
        plain.run(bench, k)
        recorder.op = k
        traced.run(bench, k, around=lambda: instrument(recorder))
    if not plain.reps or not traced.reps:
        sys.exit(f"{bench.name}: every rep failed")
    mismatches = sum(
        a.outputs != b.outputs for a, b in zip(plain.reps, traced.reps)
    ) + abs(len(plain.reps) - len(traced.reps))
    if mismatches:
        print(f"{bench.name}: {mismatches} traced reps differ from untraced",
              file=sys.stderr)
        traced.failed += mismatches

    spans = recorder.spans()
    metrics = dict.fromkeys(DERIVED, 0.0)
    metrics.update(span_metrics(layer_times(spans)))
    for rep in plain.reps:
        for name, value in rep.layers.items():
            metrics[name] += value
    if metrics["sim.cache.lookups"]:
        metrics["sim.cache.hit_rate"] = (
            metrics["sim.cache.hits"] / metrics["sim.cache.lookups"]
        )
    if metrics["serve.policy.repacks"]:
        metrics["serve.policy.repack_yield"] = (
            metrics["serve.realloc.applied"] / metrics["serve.policy.repacks"]
        )
    if bench.name == "check-src" and len(plain.ref_seconds) > 1:
        # the first sweep in the process against the next untraced one
        metrics["analysis.second_sweep_ratio"] = plain.ref_seconds[1] / plain.ref_seconds[0]
    # The median pair ratio leaves out a first rep that runs cold.
    metrics["bench.trace_overhead_frac"] = statistics.median(
        t / p for t, p in zip(traced.ref_seconds, plain.ref_seconds)
    ) - 1
    metrics.update(quality(bench, plain.reps))
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    metrics["error_frac"] = plain.failed / plain.attempted

    print(f"{bench.name}: traced {len(traced.reps)} reps, {len(spans)} spans, "
          f"overhead {metrics['bench.trace_overhead_frac']:+.3f}")
    for line in describe_quality(bench, quality(bench, plain.reps)):
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g}")
    return metrics, plain, spans


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally]:
    from workloads import WORKLOADS

    setup = [] if trace else [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    bench = WORKLOADS[name](seed)
    spans: list = []
    if trace:
        metrics, tally, spans = run_traced(bench)
    else:
        metrics, tally = run_untraced(bench, seconds, setup)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
         "metrics": metrics, "reps": tally.records(),
         "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
         "spans": spans},
    ))
    return metrics, tally


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in a child process of its own, so that its
    peak RSS and the program's memo tables are its own, and merge the
    children's result lines into one."""
    from workloads import WORKLOADS

    attempted = failed = 0
    reported: dict[str, dict] = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True).stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result line", file=sys.stderr)
            result = {"attempted": 1, "failed": 1, "metrics": {}}
        for line in lines[:-1]:
            print(line)
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            reported[f"{name}.{metric}"] = value
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One thread: BLAS would otherwise split the RL learner's small matrix
    # products over every core, and their speed would follow the load on
    # the other cores, which the single-threaded calibration does not see.
    # Set before NumPy is first imported; set-up probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    from layers import per_layer_units
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all")
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    metrics, tally = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    reported = {metric: {"value": metrics[metric], "unit": unit}
                for metric, unit in units.items()}
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
