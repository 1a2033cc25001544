"""Unit tests for the tracing primitives, sinks and rollups.

The tracer is driven with a fake monotonic clock throughout, so every
duration assertion is exact — no sleeps, no tolerance bands.
"""

import json
import logging
import threading

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    RECORD_TYPES,
    SCHEMA_VERSION,
    Tracer,
    current_tracer,
    summarize_jsonl,
    summarize_records,
    use_tracer,
    validate_record,
)
from repro.obs.sinks import InMemorySink, JsonlSink, LoggingSink
from repro.obs.summary import percentile, read_jsonl


class FakeClock:
    """Deterministic nanosecond clock: advance() between reads."""

    def __init__(self) -> None:
        self.now = 1_000

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


@pytest.fixture
def traced():
    sink = InMemorySink()
    clock = FakeClock()
    return Tracer([sink], clock=clock), sink, clock


class TestTracerPrimitives:
    def test_span_records_duration_and_depth(self, traced):
        tracer, sink, clock = traced
        with tracer.span("outer", network="vgg16"):
            clock.advance(50)
            with tracer.span("inner"):
                clock.advance(7)
        inner, outer = sink.records  # inner closes first
        assert inner["name"] == "inner"
        assert inner["dur_ns"] == 7 and inner["depth"] == 1
        assert "attrs" not in inner
        assert outer["dur_ns"] == 57 and outer["depth"] == 0
        assert outer["attrs"] == {"network": "vgg16"}

    def test_start_ns_is_epoch_relative(self, traced):
        tracer, sink, clock = traced
        clock.advance(500)
        with tracer.span("s"):
            pass
        assert sink.records[0]["start_ns"] == 500

    def test_seq_is_monotonic_across_record_types(self, traced):
        tracer, sink, _ = traced
        tracer.event("e")
        tracer.counter("c", 1.0)
        with tracer.span("s"):
            pass
        assert [r["seq"] for r in sink.records] == [0, 1, 2]

    def test_span_failure_marks_error_and_propagates(self, traced):
        tracer, sink, _ = traced
        with pytest.raises(RuntimeError):
            with tracer.span("s"):
                raise RuntimeError("boom")
        assert sink.records[0]["error"] is True

    def test_every_record_validates(self, traced):
        tracer, sink, clock = traced
        tracer.event("e", key="value", flag=True, nothing=None)
        tracer.counter("c", 3.5, layer=2)
        with tracer.span("s", shape="64x64"):
            clock.advance(1)
        for record in sink.records:
            assert validate_record(record) == []
            assert record["v"] == SCHEMA_VERSION
            assert record["type"] in RECORD_TYPES

    def test_span_stacks_are_thread_local(self, traced):
        tracer, sink, _ = traced
        depths: list[int] = []

        def worker():
            with tracer.span("t"):
                pass

        with tracer.span("main"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        depths = [r["depth"] for r in sink.records]
        # The worker's span does not see main's open span on its stack.
        assert depths == [0, 0]


class TestNullTracer:
    def test_disabled_and_silent(self):
        assert NULL_TRACER.enabled is False
        assert Tracer([]).enabled is True
        with NULL_TRACER.span("s", anything=1):
            NULL_TRACER.event("e")
            NULL_TRACER.counter("c", 1)
        NULL_TRACER.flush()  # no-op, no error

    def test_null_span_is_a_shared_singleton(self):
        assert NullTracer().span("a") is NULL_TRACER.span("b")


class TestAmbientTracer:
    def test_default_is_null(self):
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_scopes_and_restores(self):
        t = Tracer([])
        assert current_tracer() is NULL_TRACER
        with use_tracer(t) as active:
            assert active is t
            assert current_tracer() is t
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_error(self):
        t = Tracer([])
        with pytest.raises(ValueError):
            with use_tracer(t):
                raise ValueError
        assert current_tracer() is NULL_TRACER


class TestSinks:
    def test_in_memory_snapshot_and_clear(self):
        sink = InMemorySink()
        tracer = Tracer([sink])
        tracer.event("a")
        snapshot = sink.records
        tracer.event("b")
        assert len(snapshot) == 1 and len(sink) == 2
        sink.clear()
        assert len(sink) == 0

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        clock = FakeClock()
        with JsonlSink(path) as sink:
            tracer = Tracer([sink], clock=clock)
            with tracer.span("s", network="lenet"):
                clock.advance(10)
            tracer.counter("c", 2.5)
            tracer.flush()
            assert sink.emitted == 2
        records = list(read_jsonl(path))
        assert [r["type"] for r in records] == ["span", "counter"]
        assert all(validate_record(r) == [] for r in records)
        assert records[0]["dur_ns"] == 10

    def test_jsonl_lazy_open_and_append(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        assert not path.exists()  # nothing touched until first emit
        sink.emit({"v": 1, "type": "event", "name": "a", "seq": 0})
        sink.close()
        with JsonlSink(path, append=True) as more:
            more.emit({"v": 1, "type": "event", "name": "b", "seq": 1})
        assert [r["name"] for r in read_jsonl(path)] == ["a", "b"]

    def test_logging_sink_emits_debug_records(self, caplog):
        sink = LoggingSink()
        with caplog.at_level(logging.DEBUG, logger="repro.trace"):
            sink.emit({"v": 1, "type": "event", "name": "cache.hit", "seq": 0})
        assert "cache.hit" in caplog.text
        # The record itself is embedded as parseable JSON.
        payload = caplog.records[0].args[2]
        assert json.loads(payload)["name"] == "cache.hit"


class TestSummary:
    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0.50) == 20.0
        assert percentile(values, 0.95) == 40.0
        assert percentile([5.0], 0.95) == 5.0
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_rollup_math(self):
        sink = InMemorySink()
        clock = FakeClock()
        tracer = Tracer([sink], clock=clock)
        for dur in (10, 20, 30):
            with tracer.span("work"):
                clock.advance(dur)
        tracer.counter("util", 0.5)
        tracer.counter("util", 0.7)
        tracer.event("hit")
        tracer.event("hit")
        tracer.event("miss")
        summary = sink.summary()
        work = summary.spans["work"]
        assert (work.count, work.total_ns, work.max_ns) == (3, 60, 30)
        assert work.p50_ns == 20.0 and work.p95_ns == 30.0
        util = summary.counters["util"]
        assert util.count == 2 and util.mean == pytest.approx(0.6)
        assert (util.minimum, util.maximum, util.last) == (0.5, 0.7, 0.7)
        assert summary.events == {"hit": 2, "miss": 1}
        assert summary.records == 8 and summary.invalid == 0
        assert summary.span_total_ns() == 60

    def test_invalid_records_counted_not_fatal(self):
        good = {"v": 1, "type": "event", "name": "ok", "seq": 0}
        bad = {"v": 1, "type": "event", "seq": "x"}
        summary = summarize_records([good, bad, ["not a dict"]])
        assert summary.records == 3 and summary.invalid == 2
        assert summary.events == {"ok": 1}

    def test_summarize_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            Tracer([sink]).event("e")
        summary = summarize_jsonl(path)
        assert summary.events == {"e": 1} and summary.invalid == 0


class TestValidateRecord:
    def test_unknown_type(self):
        assert validate_record({"v": 1, "type": "gauge", "name": "x", "seq": 0})

    def test_unknown_field(self):
        problems = validate_record(
            {"v": 1, "type": "event", "name": "x", "seq": 0, "bogus": 1}
        )
        assert any("bogus" in p for p in problems)

    def test_wrong_version(self):
        problems = validate_record({"v": 99, "type": "event", "name": "x", "seq": 0})
        assert any("version" in p for p in problems)

    def test_negative_duration_rejected(self):
        record = {
            "v": 1, "type": "span", "name": "s", "seq": 0,
            "start_ns": 0, "dur_ns": -5, "depth": 0,
        }
        assert any("dur_ns" in p for p in validate_record(record))

    def test_non_finite_counter_rejected(self):
        record = {"v": 1, "type": "counter", "name": "c", "seq": 0,
                  "value": float("nan")}
        assert any("finite" in p for p in validate_record(record))

    def test_non_scalar_attr_rejected(self):
        record = {"v": 1, "type": "event", "name": "e", "seq": 0,
                  "attrs": {"shape": [64, 64]}}
        assert any("non-scalar" in p for p in validate_record(record))


class TestSearchSpans:
    def test_one_learn_span_inside_each_episode(self, lenet_net):
        from repro.arch.config import DEFAULT_CANDIDATES
        from repro.core.autohet import autohet_search
        from repro.obs import metrics as obs_metrics

        sink = InMemorySink()
        rounds = 6
        with use_tracer(Tracer([sink])):
            autohet_search(lenet_net, DEFAULT_CANDIDATES, rounds=rounds, seed=1)
        spans = [r for r in sink.records if r["type"] == "span"]
        episodes = [r for r in spans if r["name"] == obs_metrics.SPAN_EPISODE]
        learns = [r for r in spans if r["name"] == obs_metrics.SPAN_LEARN]
        assert len(episodes) == rounds
        assert [r["attrs"]["episode"] for r in learns] == list(range(rounds))
        for learn, episode in zip(learns, episodes):
            # A span is recorded when it closes, so each learn span
            # precedes the episode span that encloses it.
            assert learn["seq"] < episode["seq"]
            assert learn["depth"] == episode["depth"] + 1
            assert episode["start_ns"] <= learn["start_ns"]
            assert (
                learn["start_ns"] + learn["dur_ns"]
                <= episode["start_ns"] + episode["dur_ns"]
            )


class TestTracedBatchScoring:
    """A live tracer observes ``evaluate_many``'s ``(S, L)`` kernel pass;
    it never routes a search onto a per-candidate loop."""

    @pytest.fixture
    def kernel_passes(self, monkeypatch):
        from repro.sim import kernels

        passes = []
        real = kernels.score_strategy_batch

        def spy(network, strategies, *args, **kwargs):
            passes.append(len(strategies))
            return real(network, strategies, *args, **kwargs)

        monkeypatch.setattr(kernels, "score_strategy_batch", spy)
        return passes

    @pytest.mark.parametrize(
        "search", ["greedy", "random", "multi_seed", "autohet", "annealing"]
    )
    def test_traced_search_runs_the_batch_scorer(
        self, search, lenet_net, kernel_passes
    ):
        """One trace holds a search's own records and its simulator's."""
        from repro.arch.config import DEFAULT_CANDIDATES
        from repro.core.autohet import autohet_multi_seed, autohet_search
        from repro.core.search.annealing import simulated_annealing
        from repro.core.search.strategies import (
            greedy_reward_strategy,
            random_search,
        )
        from repro.sim.simulator import Simulator

        sink = InMemorySink()
        sim = Simulator()
        with use_tracer(Tracer([sink])):
            if search == "greedy":
                greedy_reward_strategy(lenet_net, DEFAULT_CANDIDATES, sim)
            elif search == "random":
                random_search(lenet_net, DEFAULT_CANDIDATES, sim, rounds=12)
            elif search == "multi_seed":
                autohet_multi_seed(
                    lenet_net, DEFAULT_CANDIDATES, seeds=(0, 1), rounds=2,
                    simulator=sim,
                )
            elif search == "autohet":
                autohet_search(
                    lenet_net, DEFAULT_CANDIDATES, rounds=4, seed=1,
                    simulator=sim,
                )
            else:
                simulated_annealing(
                    lenet_net, DEFAULT_CANDIDATES, sim, rounds=40, seed=5
                )
        assert kernel_passes
        summary = sink.summary()
        rl = search in ("multi_seed", "autohet")
        assert ("search.episode" if rl else "search") in summary.spans
        assert summary.spans["sim.score_batch"].count == len(kernel_passes)
        lookups = summary.events.get("cache.hit", 0) + summary.events.get(
            "cache.miss", 0
        )
        assert lookups == sim.cache_stats().lookups

    def test_evaluate_runs_the_one_scorer(self, lenet_net, kernel_passes):
        """A cold kernel-path ``evaluate`` is a batch of one; a hit runs
        no kernel pass; the reference path keeps its three stage spans."""
        from repro.arch.config import DEFAULT_CANDIDATES
        from repro.obs import metrics as obs_metrics
        from repro.sim.simulator import Simulator

        strategy = tuple(DEFAULT_CANDIDATES[2] for _ in lenet_net.layers)
        other = tuple(DEFAULT_CANDIDATES[3] for _ in lenet_net.layers)
        stages = {
            obs_metrics.SPAN_MAP,
            obs_metrics.SPAN_ALLOCATE,
            obs_metrics.SPAN_COST,
        }

        sim = Simulator()
        sim.evaluate(lenet_net, strategy)
        assert kernel_passes == [1]
        sim.evaluate(lenet_net, strategy)
        assert kernel_passes == [1]
        assert sim.evaluate_many(lenet_net, [other]) != [None]
        assert kernel_passes == [1, 1]

        sink = InMemorySink()
        with use_tracer(Tracer([sink])):
            Simulator().evaluate(lenet_net, strategy)
        spans = [r for r in sink.records if r["type"] == "span"]
        assert [r["name"] for r in spans] == [
            obs_metrics.SPAN_SCORE_BATCH,
            obs_metrics.SPAN_EVALUATE,
        ]
        inner, outer = spans
        assert inner["depth"] == outer["depth"] + 1
        assert inner["attrs"]["strategies"] == 1
        assert kernel_passes == [1, 1, 1]

        sink = InMemorySink()
        with use_tracer(Tracer([sink])):
            Simulator(memoize_costs=False).evaluate(lenet_net, strategy)
        names = {r["name"] for r in sink.records if r["type"] == "span"}
        assert names == stages | {obs_metrics.SPAN_EVALUATE}
        assert kernel_passes == [1, 1, 1]

    def test_batch_reports_what_the_serial_loop_reports(self, lenet_net):
        """Per-name event and counter counts match a serial ``try_evaluate``
        loop over the same strategies — cold, duplicate and warm, feasible
        and infeasible alike; only the span names differ."""
        from collections import Counter

        from repro.arch.config import DEFAULT_CANDIDATES, HardwareConfig
        from repro.sim.simulator import Simulator

        # Ten tiles: uniform 32x32 and 36x32 LeNet strategies overflow.
        config = HardwareConfig(tiles_per_bank=10)
        uniform = [
            tuple(shape for _ in lenet_net.layers) for shape in DEFAULT_CANDIDATES
        ]
        batch = uniform + uniform[:2] + uniform[3:4]

        def serial(sim):
            return [
                sim.try_evaluate(lenet_net, strategy, detailed=False)
                for strategy in batch
            ]

        def batched(sim):
            return sim.evaluate_many(lenet_net, batch)

        def run(score):
            sink = InMemorySink()
            sim = Simulator(config=config)
            with use_tracer(Tracer([sink])):
                results = score(sim) + score(sim)
            records = Counter(
                (r["type"], r["name"])
                for r in sink.records
                if r["type"] != "span"
            )
            spans = set(sink.summary().spans)
            return results, sim.cache_stats(), records, spans

        b_results, b_stats, b_records, b_spans = run(batched)
        s_results, s_stats, s_records, s_spans = run(serial)
        assert b_results == s_results
        assert None in b_results
        assert b_stats == s_stats
        assert b_records == s_records
        assert b_records[("event", "sim.infeasible")] == 2
        assert b_records[("event", "alloc.group")] > 0
        assert "sim.score_batch" in b_spans and "sim.evaluate" not in b_spans
        assert "sim.evaluate" in s_spans


class TestSystemMetricStreams:
    """Each metric stream of a traced evaluation carries the value of the
    ``SystemMetrics`` field its name states, read from the result rather
    than from the emitter's own table."""

    def test_streams_carry_the_metrics_they_name(self, lenet_net):
        from repro.arch.config import CrossbarShape
        from repro.sim.simulator import Simulator

        strategy = tuple(
            CrossbarShape(64, 64) if i % 2 else CrossbarShape(128, 128)
            for i in range(lenet_net.num_layers)
        )
        sink = InMemorySink()
        with use_tracer(Tracer([sink])):
            metrics = Simulator().evaluate(lenet_net, strategy)
        streams: dict[str, list] = {}
        for record in sink.records:
            if record["type"] == "counter":
                streams.setdefault(record["name"], []).append(record["value"])
        assert set(streams) >= {
            "sim.utilization", "sim.energy_nj", "sim.latency_ns",
            "sim.layer.utilization", "sim.layer.adc_conversions",
        }
        for name, values in streams.items():
            if name.startswith("sim.layer."):
                field = name.removeprefix("sim.layer.")
                if field == "utilization":
                    field = "intra_utilization"  # Eq. 4 within one layer
                expected = [getattr(cost, field) for cost in metrics.layer_costs]
            else:
                expected = [getattr(metrics, name.partition(".")[2])]
            assert values == expected, name
