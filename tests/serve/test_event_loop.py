"""Property battery for the serving event loop (hypothesis).

Three families of invariants over randomly generated scenarios:

* **Determinism** — the same scenario and seed reproduce the event log
  and the report byte for byte; the engine reads no wall clock and no
  global RNG (docs/serving.md's determinism contract).
* **Conservation** — every arrival ends up in exactly one of
  completed / rejected / in-flight, per tenant and in aggregate, and
  the report's own :func:`repro.serve.validate_report` gate agrees.
* **Ordering / monotonicity** — latencies are non-negative, the event
  log is time-ordered, and a probe request's latency is monotone in the
  amount of traffic queued ahead of it (FIFO + conveyor admission).
* **Arrivals-only re-allocation** — the re-allocation schedule does not
  move when only the queueing knobs change, the premise that lets the
  engine compute it in a pass of its own.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.serve import (
    ArrivalPhase,
    ReallocConfig,
    Scenario,
    TenantSpec,
    build_report,
    simulate,
    validate_report,
)

#: cheap workloads so hypothesis can afford many examples
MODELS = ("lenet", "tinycnn")


@st.composite
def scenarios(draw):
    """Small but structurally varied serving scenarios."""
    n = draw(st.integers(1, 2))
    duration_ns = draw(st.floats(1e6, 2e7))
    tenants = []
    for i in range(n):
        phases = ()
        if draw(st.booleans()):
            phases = (
                ArrivalPhase(
                    at_ns=draw(st.floats(0.0, duration_ns)),
                    rate_rps=draw(st.floats(0.0, 8000.0)),
                ),
            )
        tenants.append(
            TenantSpec(
                name=f"t{i}",
                model=MODELS[i % len(MODELS)],
                shape="64x64",
                rate_rps=draw(st.floats(100.0, 5000.0)),
                phases=phases,
                slo_ns=draw(st.floats(1e5, 1e7)),
            )
        )
    return Scenario(
        name="prop",
        tenants=tuple(tenants),
        duration_ns=duration_ns,
        seed=draw(st.integers(0, 2**32 - 1)),
        max_batch=draw(st.integers(1, 8)),
        queue_cap=draw(st.sampled_from([0, 1, 4, 64])),
        drain=draw(st.booleans()),
        realloc=ReallocConfig(
            enabled=draw(st.booleans()),
            threshold=0.15,
            window=8,
            check_every=4,
            stall_ns=draw(st.sampled_from([0.0, 5e4])),
            cooldown_ns=1e6,
            headroom=2.0,
        ),
    )


class TestDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(scenario=scenarios())
    def test_event_log_is_byte_identical_across_runs(self, scenario):
        a = simulate(scenario)
        b = simulate(scenario)
        assert json.dumps(list(a.event_log)) == json.dumps(list(b.event_log))
        assert json.dumps(build_report(a), sort_keys=True) == json.dumps(
            build_report(b), sort_keys=True
        )

    @settings(max_examples=10, deadline=None)
    @given(scenario=scenarios(), other_seed=st.integers(0, 2**32 - 1))
    def test_seed_only_changes_arrivals_not_structure(
        self, scenario, other_seed
    ):
        """A different seed still yields a valid, conserved report."""
        import dataclasses

        reseeded = dataclasses.replace(scenario, seed=other_seed)
        report = build_report(simulate(reseeded))
        assert validate_report(report) == []


class TestConservation:
    @settings(max_examples=20, deadline=None)
    @given(scenario=scenarios())
    def test_every_arrival_is_accounted_for(self, scenario):
        result = simulate(scenario)
        for tenant in result.tenants:
            assert tenant.arrivals >= 0
            assert tenant.completed >= 0
            assert tenant.rejected >= 0
            assert tenant.in_flight >= 0, (
                f"{tenant.name}: completed+rejected exceeds arrivals"
            )
            assert tenant.arrivals == (
                tenant.completed + tenant.rejected + tenant.in_flight
            )
            assert len(tenant.latencies_ns) == tenant.completed
        assert result.total_arrivals == (
            result.total_completed
            + result.total_rejected
            + sum(t.in_flight for t in result.tenants)
        )
        assert validate_report(build_report(result)) == []

    @settings(max_examples=10, deadline=None)
    @given(scenario=scenarios())
    def test_drain_completes_everything_unrejected(self, scenario):
        import dataclasses

        drained = dataclasses.replace(scenario, drain=True)
        result = simulate(drained)
        for tenant in result.tenants:
            assert tenant.in_flight == 0, (
                f"{tenant.name}: drain left work behind"
            )


class TestOrdering:
    @settings(max_examples=20, deadline=None)
    @given(scenario=scenarios())
    def test_latencies_nonnegative_and_log_time_ordered(self, scenario):
        result = simulate(scenario)
        for tenant in result.tenants:
            assert all(v >= 0.0 for v in tenant.latencies_ns)
            assert all(v >= 0.0 for v in tenant.waits_ns)
        times = [entry["t"] for entry in result.event_log]
        assert times == sorted(times)
        kinds = {entry["kind"] for entry in result.event_log}
        assert kinds <= {"arrival", "dispatch", "complete", "reject",
                         "realloc"}

    @settings(max_examples=25, deadline=None)
    @given(
        prior=st.lists(st.floats(0.0, 1e6), max_size=24),
        extra=st.floats(0.0, 1e6),
        max_batch=st.integers(1, 8),
    )
    def test_probe_latency_monotone_in_queue_depth(
        self, prior, extra, max_batch
    ):
        """Traffic queued ahead of a probe request never speeds it up.

        FIFO queues plus conveyor admission mean an extra earlier
        arrival can only push the probe's pipeline-entry slot later
        (realloc off, unbounded queue).
        """
        probe_ns = 2e6
        base = self._probe_latency(sorted(prior), probe_ns, max_batch)
        more = self._probe_latency(
            sorted(prior + [extra]), probe_ns, max_batch
        )
        assert more >= base - 1e-6

    @staticmethod
    def _probe_latency(prior, probe_ns, max_batch):
        scenario = Scenario(
            name="probe",
            tenants=(
                TenantSpec(
                    name="solo",
                    model="lenet",
                    shape="64x64",
                    trace_ns=tuple(prior) + (probe_ns,),
                    slo_ns=1e9,
                ),
            ),
            duration_ns=probe_ns + 1.0,
            max_batch=max_batch,
            queue_cap=0,
            drain=True,
            realloc=ReallocConfig(enabled=False),
        )
        result = simulate(scenario)
        tenant = result.tenants[0]
        assert tenant.completed == len(prior) + 1
        # FIFO + in-order completions: the probe (latest arrival)
        # finishes last, so its latency is the final one recorded.
        return tenant.latencies_ns[-1]


class TestReallocPremise:
    # Most drawn scenarios never drift enough to re-pack; 40 examples
    # keep a handful that do.
    @settings(max_examples=40, deadline=None)
    @given(
        scenario=scenarios(),
        queue_cap=st.sampled_from([0, 1, 4, 64]),
        max_batch=st.integers(1, 8),
        stall_ns=st.sampled_from([0.0, 5e4, 1e6]),
        drain=st.booleans(),
    )
    def test_realloc_events_read_arrivals_only(
        self, scenario, queue_cap, max_batch, stall_ns, drain
    ):
        """Queue bound, batch size, stall and drain never move a decision."""
        import dataclasses

        base = dataclasses.replace(
            scenario,
            realloc=dataclasses.replace(scenario.realloc, enabled=True),
        )
        varied = dataclasses.replace(
            base,
            queue_cap=queue_cap,
            max_batch=max_batch,
            drain=drain,
            realloc=dataclasses.replace(base.realloc, stall_ns=stall_ns),
        )
        assert simulate(varied).realloc_events == (
            simulate(base).realloc_events
        )
