"""Per-layer tracing from outside the program.

A traced run wraps public functions of ``repro`` from here, never from
inside ``src/repro``.  Each wrapper is installed where its caller looks
the name up (a class attribute for methods, a module global for
functions imported by name) and records one span on a private
:class:`repro.obs.trace.Tracer` feeding an :class:`InMemorySink`.  That
tracer is never handed to the program and never installed as the
ambient tracer: several code paths (``greedy_reward_strategy``,
``Simulator.evaluate_many``, the serve engine) take a different branch
under a live tracer, and the traced run must compute exactly what the
untraced run computes.

Every span carries ``id``, ``parent`` (0 at the top) and ``op`` (the
repetition it belongs to).  A layer's self time is its span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer


@dataclass(frozen=True)
class Layer:
    """One wrapped public function and the names its callers use.

    ``targets`` lists ``(module, attribute path)`` pairs; every one is
    patched with the same wrapper.  ``self_time`` says whether the
    layer reports ``.self_s`` (it has wrapped children) or ``.s``.
    """

    name: str
    targets: tuple[tuple[str, str], ...]
    self_time: bool = False


LAYERS: tuple[Layer, ...] = (
    # core.rl: the DDPG learner (ROADMAP item 2).
    Layer("core.rl.act", (("repro.core.rl.ddpg", "DDPGAgent.act"),), self_time=True),
    Layer("core.rl.env_step", (("repro.core.rl.environment", "CrossbarSearchEnv.step"),)),
    Layer("core.rl.learn", (("repro.core.rl.ddpg", "DDPGAgent.learn"),), self_time=True),
    Layer("core.rl.sample", (("repro.core.rl.replay", "ExperiencePool.sample"),)),
    Layer("core.rl.forward", (("repro.core.rl.networks", "MLP.forward"),)),
    Layer("core.rl.backward", (("repro.core.rl.networks", "MLP.backward"),)),
    Layer("core.rl.adam_step", (("repro.core.rl.networks", "Adam.step"),)),
    Layer("core.rl.soft_update", (("repro.core.rl.networks", "MLP.soft_update_from"),)),
    # sim: the fast-path simulator and its cache (ROADMAP item 3).
    Layer("sim.evaluate", (("repro.sim.simulator", "Simulator.evaluate"),), self_time=True),
    Layer(
        "sim.evaluate_many",
        (("repro.sim.simulator", "Simulator.evaluate_many"),),
        self_time=True,
    ),
    Layer("sim.cache.make_key", (("repro.sim.cache", "EvaluationCache.make_key"),)),
    Layer("sim.kernels.strategy_view", (("repro.sim.kernels", "strategy_view"),)),
    Layer("sim.kernels.metrics_from_view", (("repro.sim.kernels", "metrics_from_view"),)),
    Layer(
        "sim.kernels.score_strategy_batch",
        (("repro.sim.kernels", "score_strategy_batch"),),
        self_time=True,
    ),
    # core.allocation: the summary behind every fast-path evaluation and
    # Algorithm 1 behind every serve re-pack.
    Layer(
        "core.allocation.summarize_counts",
        (("repro.sim.simulator", "summarize_counts"), ("repro.sim.kernels", "summarize_counts")),
    ),
    Layer(
        "core.allocation.allocate_multi_network",
        (
            ("repro.serve.policy", "allocate_multi_network"),
            ("repro.serve.engine", "allocate_multi_network"),
        ),
    ),
    # serve: the engine (ROADMAP item 4).  ``simulate`` minus its wrapped
    # children is the event loop's own time.
    Layer("serve.generate_arrivals", (("repro.serve.engine", "generate_arrivals"),)),
    Layer("serve.loop", (("repro.serve", "simulate"),), self_time=True),
    Layer(
        "serve.policy.decide",
        (("repro.serve.policy", "DriftReallocationPolicy.decide"),),
        self_time=True,
    ),
    Layer("serve.build_report", (("repro.serve", "build_report"),)),
    # analysis: the ``repro check`` passes (ROADMAP item 5).
    Layer("analysis.lint", (("repro.analysis", "lint_tree"),)),
    Layer("analysis.cache_safety", (("repro.analysis", "analyze_cache_safety"),)),
    Layer("analysis.concurrency", (("repro.analysis", "analyze_concurrency"),)),
    Layer("analysis.numeric", (("repro.analysis", "analyze_numeric"),)),
    Layer("analysis.kernel_parity", (("repro.analysis", "analyze_kernel_parity"),)),
    Layer("analysis.units", (("repro.analysis", "analyze_units"),)),
)

#: per-layer metrics a workload fills in from its own outputs rather
#: than from spans: ``name -> unit``.
DERIVED: dict[str, str] = {
    "core.autohet.decision_s": "s",
    "core.autohet.feedback_s": "s",
    "core.autohet.learning_s": "s",
    "sim.cache.lookups": "count",
    "sim.cache.hits": "count",
    "sim.cache.hit_rate": "fraction",
    "serve.policy.repacks": "count",
    "serve.policy.repack_yield": "fraction",
    "serve.realloc.applied": "count",
    "serve.events": "count",
    "analysis.findings": "count",
    "analysis.second_sweep_ratio": "ratio",
    "bench.trace_overhead_frac": "fraction",
    "rue_gain": "ratio",
    "sim_p99_ms": "ms",
    "slo_attainment": "fraction",
    "error_frac": "fraction",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the benchmark reports, with its unit."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.{'self_s' if layer.self_time else 's'}"] = "s"
    return {**units, **DERIVED}


def _resolve(module: str, path: str) -> tuple[Any, str]:
    """The object holding ``path``'s last attribute, and that attribute."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class SpanRecorder:
    """Wraps callables so each call records a span on a private tracer."""

    def __init__(self) -> None:
        self.sink = InMemorySink()
        self.tracer = Tracer([self.sink])
        self.op = 0
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        span = self.tracer.span
        stack = self._stack
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            try:
                with span(name, id=span_id, parent=parent, op=self.op):
                    return fn(*args, **kwargs)
            finally:
                stack.pop()

        return wrapper

    def spans(self) -> list[tuple[int, int, int, str, int, int]]:
        """``(id, parent, op, name, start_ns, end_ns)`` per recorded span."""
        out = []
        for rec in self.sink.records:
            attrs = rec["attrs"]
            start = rec["start_ns"]
            out.append(
                (attrs["id"], attrs["parent"], attrs["op"], rec["name"],
                 start, start + rec["dur_ns"])
            )
        return out


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install ``recorder``'s wrappers on every layer target; undo on exit."""
    undo: list[tuple[Any, str, Any]] = []
    try:
        for layer in LAYERS:
            for module, path in layer.targets:
                owner, attr = _resolve(module, path)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                undo.append((owner, attr, raw))
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(recorder.wrap(layer.name, raw.__func__)))
                else:
                    setattr(owner, attr, recorder.wrap(layer.name, raw))
        yield recorder
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


@dataclass
class LayerTimes:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def layer_times(
    spans: list[tuple[int, int, int, str, int, int]],
) -> dict[str, LayerTimes]:
    """Calls, total and self time per span name."""
    child_ns: dict[int, int] = {}
    for _, parent, _, _, start, end in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    times: dict[str, LayerTimes] = {}
    for span_id, _, _, name, start, end in spans:
        entry = times.setdefault(name, LayerTimes())
        entry.calls += 1
        entry.total_ns += end - start
        entry.self_ns += end - start - child_ns.get(span_id, 0)
    return times


def span_metrics(times: dict[str, LayerTimes]) -> dict[str, float]:
    """The span-derived per-layer metrics; 0 for a layer never called."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        entry = times.get(layer.name, LayerTimes())
        out[f"{layer.name}.calls"] = entry.calls
        if layer.self_time:
            out[f"{layer.name}.self_s"] = entry.self_ns / 1e9
        else:
            out[f"{layer.name}.s"] = entry.total_ns / 1e9
    return out


def grown_layer(
    before: dict[str, LayerTimes], after: dict[str, LayerTimes]
) -> str:
    """The layer whose self time grew the most from ``before`` to ``after``."""
    names = set(before) | set(after)
    return max(
        names,
        key=lambda n: after.get(n, LayerTimes()).self_ns
        - before.get(n, LayerTimes()).self_ns,
    )


class RepackCounter:
    """Counts ``decide`` calls that ran Algorithm 1, without a clock.

    Untraced serve runs use it so that every run records its re-pack
    count; it adds two integer increments per ``decide`` call, which
    itself runs for tens of milliseconds when it re-packs.
    """

    def __init__(self) -> None:
        self.repacks = 0
        self._in_decide = False
        self._ran = False

    @contextmanager
    def installed(self) -> Iterator["RepackCounter"]:
        import repro.serve.policy as policy

        decide = policy.DriftReallocationPolicy.__dict__["decide"]
        allocate = policy.allocate_multi_network

        @functools.wraps(decide)
        def counting_decide(*args: Any, **kwargs: Any) -> Any:
            self._in_decide, self._ran = True, False
            try:
                return decide(*args, **kwargs)
            finally:
                self.repacks += self._ran
                self._in_decide = False

        @functools.wraps(allocate)
        def counting_allocate(*args: Any, **kwargs: Any) -> Any:
            if self._in_decide:
                self._ran = True
            return allocate(*args, **kwargs)

        policy.DriftReallocationPolicy.decide = counting_decide
        policy.allocate_multi_network = counting_allocate
        try:
            yield self
        finally:
            policy.DriftReallocationPolicy.decide = decide
            policy.allocate_multi_network = allocate
