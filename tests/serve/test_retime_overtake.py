"""A re-pack can let a later request overtake an earlier one.

On two weight copies VGG16's fill time halves (2.60 ms to 1.30 ms) while
its single-copy bottleneck stage takes 0.95 ms.  So a request dispatched
on the new weights right after a re-pack completes before the request
still draining on the old ones.  Completions must still come out in
time order, each timed by the pipeline it was dispatched into.
"""

import math

from repro.arch.config import CrossbarShape
from repro.models.zoo import get_model
from repro.serve import ReallocConfig, Scenario, TenantSpec, simulate
from repro.sim.pipeline import pipeline_report
from tests.serve.test_pipeline_parity import REL, ForceReplication


def test_request_on_new_weights_overtakes_one_on_old():
    network = get_model("vgg16")
    strategy = tuple([CrossbarShape.parse("64x64")] * network.num_layers)
    rep1 = pipeline_report(network, strategy)
    rep2 = pipeline_report(
        network, strategy, replication=[2] * network.num_layers
    )
    assert rep1.bottleneck_ns + rep2.fill_ns < rep1.fill_ns

    # Request 0 enters the pipeline at t=0 and triggers the re-pack
    # (no stall); request 1 queues behind it and enters once the input
    # frees, on two copies.
    second_ns = rep1.bottleneck_ns / 2
    scenario = Scenario(
        name="overtake",
        tenants=(
            TenantSpec(
                name="solo", model="vgg16", shape="64x64",
                trace_ns=(0.0, second_ns), slo_ns=1e12,
            ),
        ),
        duration_ns=1e9,
        max_batch=1,
        drain=True,
        realloc=ReallocConfig(
            enabled=True, threshold=0.5, window=1, check_every=1,
            stall_ns=0.0, cooldown_ns=0.0, headroom=4.0,
        ),
    )
    result = simulate(scenario, policy=ForceReplication(target=(2,)))

    completions = [e for e in result.event_log if e["kind"] == "complete"]
    assert [e["req"] for e in completions] == [1, 0]
    assert completions[0]["t"] < completions[1]["t"]

    tenant = result.tenants[0]
    queued_ns = rep1.bottleneck_ns - second_ns
    late, early = tenant.latencies_ns
    assert math.isclose(late, queued_ns + rep2.fill_ns, rel_tol=REL)
    assert math.isclose(early, rep1.fill_ns, rel_tol=REL)
    assert math.isclose(tenant.waits_ns[0], queued_ns, rel_tol=REL)
    assert tenant.waits_ns[1] == 0.0
