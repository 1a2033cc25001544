"""Golden snapshot of the serving engine's full event log.

The hypothesis battery in ``test_event_loop.py`` only compares a run
with itself, and ``golden_two_tenant.json`` pins the rolled-up report,
not the order of events.  ``golden_event_log.json`` pins, for four
scenarios that between them reject, stall, re-pack, drain and tie
arrivals at one instant, the sha256 of ``json.dumps(event_log)`` plus
``events_processed`` and ``end_ns`` — so any change to what the engine
logs, or in which order, shows up here.

Regenerate (from the repository root) with::

    PYTHONPATH=src python -m tests.serve.test_event_log_golden --regen

and explain the change: a new digest is a claimed change to the
engine's event order.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.serve import ReallocConfig, simulate, two_tenant_scenario
from tests.serve.test_pipeline_parity import (
    N_REQUESTS,
    ForceReplication,
    saturated_scenario,
)
from tests.serve.test_trace_invariance import BUSY

GOLDEN_PATH = Path(__file__).with_name("golden_event_log.json")


def forced_replication_run():
    """The ``TestReplicatedParity`` run: stall 0, 64 simultaneous arrivals."""
    scenario = saturated_scenario(
        "lenet", "64x64", N_REQUESTS,
        lead_ns=(0.0,),
        realloc=ReallocConfig(
            enabled=True, threshold=0.5, window=1, check_every=1,
            stall_ns=0.0, cooldown_ns=0.0, headroom=4.0,
        ),
    )
    return simulate(scenario, policy=ForceReplication(target=(2,)))


RUNS = {
    "two_tenant": lambda: simulate(two_tenant_scenario()),
    "busy": lambda: simulate(BUSY),
    "forced_replication": forced_replication_run,
    "busy_drain": lambda: simulate(dataclasses.replace(BUSY, drain=True)),
}


def fingerprint(result):
    log = json.dumps(list(result.event_log))
    return {
        "event_log_sha256": hashlib.sha256(log.encode()).hexdigest(),
        "events_processed": result.events_processed,
        "end_ns": result.end_ns,
    }


def compute_golden():
    return {name: fingerprint(run()) for name, run in RUNS.items()}


class TestEventLogGolden:
    def test_event_logs_match_snapshot(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert sorted(golden) == sorted(RUNS)
        for name, run in RUNS.items():
            assert fingerprint(run()) == golden[name], (
                f"{name}: event log drifted from the golden snapshot; if "
                "the change is intended, regenerate with "
                "PYTHONPATH=src python -m tests.serve.test_event_log_golden "
                "--regen"
            )


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit(
            "usage: python -m tests.serve.test_event_log_golden --regen"
        )
    GOLDEN_PATH.write_text(
        json.dumps(compute_golden(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
