"""The benchmark's workloads.

Each workload is a closed loop with one client: the next repetition
("rep") starts when the previous one returned.  A workload object does
its set-up in ``__init__`` (model and scenario construction, reference
baselines), runs one rep in :meth:`run` (the timed part) and checks
that rep's outputs in :meth:`check` (untimed).  Set-up ends with the
smallest call that builds the program's lazily built per-network
tables, far less work than a rep, so that set-up time measures imports
and construction rather than one rep's work.  Rep ``k`` of a
run with seed ``s`` draws its inputs from :func:`sub_seed`, so a rep is the same computation whether
it runs traced or untraced, first or last.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro import analysis, serve
from repro.arch.config import (
    DEFAULT_CANDIDATES,
    DEFAULT_CONFIG,
    SQUARE_CANDIDATES,
)
from repro.core import autohet
from repro.core.search import annealing, strategies
from repro.models.graph import Network
from repro.models.zoo import resnet152, vgg16
from repro.sim.simulator import Simulator

from layers import RepackCounter

#: the public ``repro.analysis`` entry point of each ``repro check`` pass
CHECK_PASSES = (
    ("lint", "lint_tree"),
    ("cache_safety", "analyze_cache_safety"),
    ("concurrency", "analyze_concurrency"),
    ("numeric", "analyze_numeric"),
    ("kernel_parity", "analyze_kernel_parity"),
    ("units", "analyze_units"),
)


#: input seed of the warm-up call in every workload's set-up, the same
#: for every run so that set-up does the same work whatever the seed
WARM_UP_SEED = 0

#: simulated horizon of one serving rep: 0.2 s is the shortest horizon
#: where every seed tried re-allocates at least once
SERVE_DURATION_NS = 2e8

#: simulated horizon of the serving warm-up: long enough for the initial
#: Algorithm-1 packing and the first batches, too short to re-allocate
SERVE_WARM_UP_NS = 1e7


def sub_seed(workload: str, seed: int, k: int) -> int:
    """The input seed of rep ``k`` in a run seeded with ``seed``."""
    digest = hashlib.blake2b(f"{workload}:{seed}:{k}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "big")


@dataclass
class Rep:
    """What one rep produced, as the benchmark sees it."""

    ops: int
    #: simulated outputs; a traced rep must reproduce them exactly
    outputs: Any
    #: failed output checks (empty when correct)
    errors: list[str] = field(default_factory=list)
    #: simulated quality figures (``rue_gain``, ``sim_p99_ms`` ...)
    quality: dict[str, float] = field(default_factory=dict)
    #: per-layer figures the rep's own outputs carry
    layers: dict[str, float] = field(default_factory=dict)
    #: free-form record written to the results file (seed, counts ...)
    info: dict[str, Any] = field(default_factory=dict)


def best_homogeneous_rue(net: Network) -> float:
    """RUE of the best homogeneous accelerator, as in the paper's Fig. 9."""
    sim = Simulator()
    return max(sim.evaluate_homogeneous(net, s).rue for s in SQUARE_CANDIDATES)


def oracle_errors(net: Network, strategy, metrics, *, label: str) -> list[str]:
    """Re-evaluate on the reference simulator; the fast path must match."""
    reference = Simulator(cache=None, memoize_costs=False).evaluate(
        net, strategy, tile_shared=True, detailed=False
    )
    if reference != metrics:
        return [f"{label}: fast-path metrics differ from the reference oracle"]
    return []


def cache_layers(stats) -> dict[str, float]:
    return {
        "sim.cache.lookups": stats.lookups,
        "sim.cache.hits": stats.hits,
        "sim.cache.hit_rate": stats.hit_rate,
    }


class SearchRL:
    """``autohet_search`` on VGG16 with the default cached fast path.

    A rep is a 100-round search (the paper runs 300) so that a run holds
    several reps and the host-speed calibration between them can follow
    the host's drift.
    """

    name = "search-rl-vgg16"
    why = "paper 4.5 RL search: core.rl learning is ~92% of host time, the simulator a cache-miss write path"
    paper_rue_gain = 2.2
    min_reps = 1

    def __init__(self, seed: int, *, rounds: int = 100) -> None:
        self.seed = seed
        self.rounds = rounds
        self.net = vgg16()
        self.homo_rue = best_homogeneous_rue(self.net)
        self._search(WARM_UP_SEED, rounds=2)

    def run(self, k: int) -> Any:
        seed = sub_seed(self.name, self.seed, k)
        return seed, self._search(seed, rounds=self.rounds)

    def _search(self, seed: int, *, rounds: int):
        return autohet.autohet_search(
            self.net, DEFAULT_CANDIDATES, rounds=rounds,
            simulator=Simulator(), seed=seed,
        )

    def check(self, raw: Any) -> Rep:
        seed, result = raw
        return Rep(
            ops=result.rounds,
            outputs=(result.best_strategy, result.best_metrics, result.reward_history),
            errors=oracle_errors(
                self.net, result.best_strategy, result.best_metrics, label="best"
            ),
            quality={"rue_gain": result.best_metrics.rue / self.homo_rue},
            layers={
                "core.autohet.decision_s": result.decision_seconds,
                "core.autohet.feedback_s": result.simulator_seconds,
                "core.autohet.learning_s": result.learning_seconds,
                **cache_layers(result.cache_stats),
            },
            info={"seed": seed, "infeasible_episodes": result.infeasible_episodes},
        )


class SearchLocal:
    """Coordinate ascent then simulated annealing on ResNet152, one simulator."""

    name = "search-local-resnet152"
    why = "no RL: all time in sim and core.allocation; annealing hits the cache ~20%, ascent runs the batch scorer"
    paper_rue_gain = 1.4
    min_reps = 4

    def __init__(self, seed: int, *, rounds: int = 300) -> None:
        self.seed = seed
        self.rounds = rounds
        self.net = resnet152()
        self.homo_rue = best_homogeneous_rue(self.net)
        annealing.simulated_annealing(
            self.net, DEFAULT_CANDIDATES, Simulator(), rounds=2, seed=WARM_UP_SEED
        )

    def run(self, k: int) -> Any:
        seed = sub_seed(self.name, self.seed, k)
        sim = Simulator()
        stats: dict[str, int] = {}
        greedy = strategies.greedy_reward_strategy(
            self.net, DEFAULT_CANDIDATES, sim, stats=stats
        )
        greedy_metrics = sim.evaluate(self.net, greedy, detailed=False)
        anneal = annealing.simulated_annealing(
            self.net, DEFAULT_CANDIDATES, sim, rounds=self.rounds, seed=seed
        )
        return seed, stats, greedy, greedy_metrics, anneal, sim.cache_stats()

    def check(self, raw: Any) -> Rep:
        seed, stats, greedy, greedy_metrics, anneal, cache_stats = raw
        best = max(
            [(greedy, greedy_metrics), (anneal.strategy, anneal.metrics)],
            key=lambda pair: pair[1].rue,
        )
        return Rep(
            ops=stats["evaluations"] + 1 + anneal.evaluations,
            outputs=(greedy, greedy_metrics, anneal.strategy, anneal.metrics),
            errors=oracle_errors(self.net, *best, label="best"),
            quality={"rue_gain": best[1].rue / self.homo_rue},
            layers=cache_layers(cache_stats),
            info={"seed": seed, "annealing_evaluations": anneal.evaluations},
        )


class ServeTwoTenant:
    """The two-tenant serving scenario with its traffic inversion."""

    name = "serve-two-tenant"
    why = "serve engine plus Algorithm 1 re-packs, which no search runs; the traffic inversion forces re-allocation"
    min_reps = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        serve.simulate(
            serve.two_tenant_scenario(seed=WARM_UP_SEED, duration_ns=SERVE_WARM_UP_NS)
        )

    def run(self, k: int) -> Any:
        seed = sub_seed(self.name, self.seed, k)
        scenario = serve.two_tenant_scenario(seed=seed, duration_ns=SERVE_DURATION_NS)
        with RepackCounter().installed() as counter:
            result = serve.simulate(scenario)
        return seed, result, serve.build_report(result), counter.repacks

    def check(self, raw: Any) -> Rep:
        seed, result, report, repacks = raw
        applied = len(result.realloc_events)
        errors = [f"report: {p}" for p in serve.validate_report(report)]
        errors += conservation_errors(result)
        met = sum(
            sum(1 for v in t.latencies_ns if v <= t.slo_ns) for t in result.tenants
        )
        worst_p99_ns = max(
            (t["p99_ns"] for t in report["tenants"].values() if t["p99_ns"] is not None),
            default=0.0,
        )
        return Rep(
            ops=result.total_arrivals,
            outputs=(report, result.event_log),
            errors=errors,
            quality={
                "sim_p99_ms": worst_p99_ns / 1e6,
                "slo_attainment": met / result.total_arrivals,
            },
            layers={
                "serve.policy.repacks": repacks,
                "serve.realloc.applied": applied,
                "serve.events": result.events_processed,
            },
            info={
                "seed": seed,
                "arrivals": result.total_arrivals,
                "repacks": repacks,
                "realloc_applied": applied,
                "repack_yield": applied / repacks if repacks else 0.0,
            },
        )


def conservation_errors(result) -> list[str]:
    """arrivals = completed + rejected + in-flight, against the event log.

    The counters must match the log; the in-flight requests left over
    (admitted but not completed) must be none or more, and none when the
    scenario drains its queues.
    """
    errors = []
    for tenant in result.tenants:
        kinds = {"arrival": 0, "reject": 0, "complete": 0}
        for entry in result.event_log:
            if entry.get("tenant") == tenant.name and entry["kind"] in kinds:
                kinds[entry["kind"]] += 1
        in_flight = kinds["arrival"] - kinds["complete"]
        if (
            tenant.arrivals != kinds["arrival"] + kinds["reject"]
            or tenant.completed != kinds["complete"]
            or tenant.rejected != kinds["reject"]
            or in_flight < 0
            or (result.scenario.drain and in_flight != 0)
        ):
            errors.append(f"conservation violated for tenant {tenant.name!r}")
    return errors


class CheckSrc:
    """The default ``repro check`` sweep over the package's own source."""

    name = "check-src"
    why = "repro.analysis is a third of src/ and no other workload runs it"
    min_reps = 3

    def __init__(self, seed: int) -> None:
        # The tree is fixed; the seed selects nothing here.
        self.seed = seed
        for fn_name in ("check_candidate_set", "check_config", *dict(CHECK_PASSES).values()):
            getattr(analysis, fn_name)  # resolve the lazy imports during set-up

    def run(self, k: int) -> Any:
        findings = list(analysis.check_candidate_set(DEFAULT_CANDIDATES))
        findings += analysis.check_config(DEFAULT_CONFIG, DEFAULT_CANDIDATES)
        for _, fn_name in CHECK_PASSES:
            findings += getattr(analysis, fn_name)(None)
        return findings

    def check(self, raw: Any) -> Rep:
        findings = [str(d) for d in raw]
        return Rep(
            ops=1,
            outputs=findings,
            errors=[f"finding: {f}" for f in findings],
            layers={"analysis.findings": len(findings)},
        )


WORKLOADS = {w.name: w for w in (SearchRL, SearchLocal, ServeTwoTenant, CheckSrc)}
