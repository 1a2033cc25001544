"""``repro.serve`` — request-level multi-tenant serving simulation.

The paper maps one workload once; this package serves many.  A
:class:`~repro.serve.scenario.Scenario` describes tenants (model +
strategy + arrival process + SLO) co-located on one accelerator by
Algorithm 1 (:func:`~repro.serve.engine.initial_allocation` builds the
plan); :func:`~repro.serve.engine.simulate` runs them in two
deterministic passes: one over the merged arrivals computes the
drift-triggered re-allocation schedule (Algorithm 1 re-packs with weight
replication, sized from per-layer crossbar counts by
:func:`repro.core.allocation.multi_network_tile_counts`; a
:class:`~repro.serve.policy.ReallocDecision` carries the replication
vector and its tile counts, never tiles), then each tenant runs as an
independent FIFO conveyor with service times from
:mod:`repro.sim.pipeline`.
:func:`~repro.serve.report.build_report` rolls latencies up into the
p50/p95/p99 + SLO-attainment document ``repro serve`` prints.  See
docs/serving.md.
"""

from .engine import ServeResult, TenantResult, initial_allocation, simulate
from .policy import (
    DriftReallocationPolicy,
    ReallocationPolicy,
    ReallocDecision,
    mix_drift,
)
from .report import (
    REPORT_SCHEMA_VERSION,
    build_report,
    emit_report,
    validate_report,
)
from .scenario import (
    BUILTIN_SCENARIOS,
    ArrivalPhase,
    ReallocConfig,
    Scenario,
    TenantSpec,
    generate_arrivals,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    two_tenant_scenario,
)

__all__ = [
    "ArrivalPhase",
    "BUILTIN_SCENARIOS",
    "DriftReallocationPolicy",
    "REPORT_SCHEMA_VERSION",
    "ReallocConfig",
    "ReallocDecision",
    "ReallocationPolicy",
    "Scenario",
    "ServeResult",
    "TenantResult",
    "TenantSpec",
    "build_report",
    "emit_report",
    "generate_arrivals",
    "initial_allocation",
    "load_scenario",
    "mix_drift",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "simulate",
    "two_tenant_scenario",
    "validate_report",
]
