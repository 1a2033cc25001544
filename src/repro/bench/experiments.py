"""Experiment implementations — one function per paper figure/table.

Each function returns structured data (so tests can assert on shapes and
orderings) and has a ``print_...`` companion that renders the same
rows/series the paper reports.  The full experiment index lives in
DESIGN.md; measured-vs-paper results in EXPERIMENTS.md.

RL-based experiments accept ``rounds`` / ``seed``; the default round count
comes from the ``REPRO_RL_ROUNDS`` environment variable (falling back to
120 — enough for convergence on these search spaces; the paper used 300).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Sequence

from ..arch.config import (
    DEFAULT_CANDIDATES,
    SQUARE_CANDIDATES,
    CrossbarShape,
    HardwareConfig,
)
from ..arch.mapping import map_layer
from ..core.allocation import allocate_tile_based, layer_empty_fraction
from ..core.autohet import SearchResult, autohet_search
from ..core.search import (
    best_homogeneous,
    greedy_reward_strategy,
    manual_hetero_strategy,
    ratio_candidates,
    simulated_annealing,
    sized_candidates,
)
from ..models import LayerSpec, Network, alexnet, resnet152, vgg16
from ..models.zoo import get_model
from ..sim.cache import CacheStats
from ..sim.metrics import SystemMetrics
from ..sim.simulator import Simulator
from .reporting import normalize_series, print_table


def default_rounds() -> int:
    """RL search rounds for the harness (env-overridable)."""
    return int(os.environ.get("REPRO_RL_ROUNDS", "120"))


def _simulator(config: HardwareConfig | None = None) -> Simulator:
    return Simulator(config) if config is not None else Simulator()


@dataclass(frozen=True)
class AcceleratorRow:
    """One accelerator's scores in a comparison table."""

    label: str
    metrics: SystemMetrics

    @property
    def rue(self) -> float:
        return self.metrics.rue

    @property
    def utilization_percent(self) -> float:
        return self.metrics.utilization_percent

    @property
    def energy_nj(self) -> float:
        return self.metrics.energy_nj


# ======================================================================
# Figure 3 — motivation: homogeneous vs manual-heterogeneous on VGG16
# ======================================================================
def fig3_motivation(config: HardwareConfig | None = None) -> list[AcceleratorRow]:
    """Five homogeneous squares + the Fig. 3 Manual-Hetero split (VGG16)."""
    sim = _simulator(config)
    net = vgg16()
    rows = [
        AcceleratorRow(str(s), sim.evaluate_homogeneous(net, s))
        for s in SQUARE_CANDIDATES
    ]
    manual = manual_hetero_strategy(net)
    rows.append(
        AcceleratorRow(
            "Manual-Hetero",
            sim.evaluate(net, manual, tile_shared=False, detailed=False),
        )
    )
    return rows


def print_fig3(rows: list[AcceleratorRow]) -> None:
    print_table(
        ["accelerator", "utilization_%", "energy_nJ", "RUE"],
        [
            (r.label, r.utilization_percent, r.energy_nj, r.rue)
            for r in rows
        ],
        title="Figure 3 — homogeneous vs manual-heterogeneous (VGG16/CIFAR-10)",
    )


# ======================================================================
# Figure 4 — empty-crossbar proportion vs crossbars per tile
# ======================================================================
def fig4_empty_crossbars(
    tile_sizes: Sequence[int] = (4, 8, 16, 32),
    shape: CrossbarShape = CrossbarShape(64, 64),
) -> dict[str, dict[int, float]]:
    """Empty-crossbar share of four early VGG16 layers (tile-based alloc).

    Returns ``{layer_label: {tile_size: empty_fraction}}``.
    """
    net = vgg16()
    layers = net.layers[:4]
    result: dict[str, dict[int, float]] = {}
    for i, layer in enumerate(layers):
        mapping = map_layer(layer, shape)
        result[f"Layer {i + 1}"] = {
            ts: layer_empty_fraction(mapping, ts) for ts in tile_sizes
        }
    return result


def print_fig4(data: dict[str, dict[int, float]]) -> None:
    tile_sizes = sorted(next(iter(data.values())))
    rows = [
        (label, *[f"{data[label][ts] * 100:.1f}%" for ts in tile_sizes])
        for label in data
    ]
    print_table(
        ["layer", *[f"{ts} XBs/tile" for ts in tile_sizes]],
        rows,
        title="Figure 4 — empty crossbar proportion (VGG16 layers, 64x64 XBs)",
    )


# ======================================================================
# Figure 5 — the utilization/energy trade-off example
# ======================================================================
@dataclass(frozen=True)
class Fig5Row:
    shape: str
    utilization: float       #: incl. tile-level wastage (27/32 vs 27/128)
    activated_adcs: int      #: per analog cycle (256 vs 128)


def fig5_tradeoff(tile_capacity: int = 4) -> list[Fig5Row]:
    """The §2.2.3 example: 128 kernels of 3x3x12 on 64x64 vs 128x128."""
    layer = LayerSpec.conv(12, 128, 3, input_size=8, name="fig5")
    rows = []
    for shape in (CrossbarShape(64, 64), CrossbarShape(128, 128)):
        mapping = map_layer(layer, shape)
        allocation = allocate_tile_based([mapping], tile_capacity)
        rows.append(
            Fig5Row(
                shape=str(shape),
                utilization=allocation.utilization,
                activated_adcs=mapping.used_columns_total,
            )
        )
    return rows


def print_fig5(rows: list[Fig5Row]) -> None:
    print_table(
        ["crossbar", "utilization", "activated ADCs"],
        [(r.shape, f"{r.utilization:.4f}", r.activated_adcs) for r in rows],
        title="Figure 5 — same layer on 64x64 vs 128x128 (tile of 4 XBs)",
    )


# ======================================================================
# Figure 9 — overall performance: 3 models x (5 homogeneous + AutoHet)
# ======================================================================
@dataclass(frozen=True)
class OverallResult:
    model: str
    rows: list[AcceleratorRow]
    search: SearchResult

    @property
    def autohet(self) -> AcceleratorRow:
        return self.rows[-1]

    @property
    def best_homogeneous(self) -> AcceleratorRow:
        return max(self.rows[:-1], key=lambda r: r.rue)

    @property
    def rue_speedup(self) -> float:
        """AutoHet's RUE over the best homogeneous accelerator's."""
        return self.autohet.rue / self.best_homogeneous.rue


def fig9_overall(
    networks: Sequence[Network] | None = None,
    *,
    rounds: int | None = None,
    seed: int = 0,
    config: HardwareConfig | None = None,
) -> list[OverallResult]:
    """RUE / utilization / energy for every accelerator and model."""
    sim = _simulator(config)
    rounds = rounds if rounds is not None else default_rounds()
    nets = list(networks) if networks is not None else [alexnet(), vgg16(), resnet152()]
    results = []
    for net in nets:
        rows = [
            AcceleratorRow(str(s), sim.evaluate_homogeneous(net, s))
            for s in SQUARE_CANDIDATES
        ]
        search = autohet_search(
            net, DEFAULT_CANDIDATES, rounds=rounds, simulator=sim, seed=seed
        )
        rows.append(AcceleratorRow("AutoHet", search.best_metrics))
        results.append(OverallResult(net.name, rows, search))
    return results


def print_fig9(results: list[OverallResult]) -> None:
    for res in results:
        energies = [r.energy_nj for r in res.rows]
        normalized = normalize_series(energies)
        print_table(
            ["accelerator", "RUE", "utilization_%", "energy_nJ", "energy_norm"],
            [
                (r.label, r.rue, r.utilization_percent, r.energy_nj, n)
                for r, n in zip(res.rows, normalized)
            ],
            title=f"Figure 9 — overall performance ({res.model})",
        )
        print(
            f"  AutoHet vs best homogeneous RUE: {res.rue_speedup:.2f}x "
            f"(best homo = {res.best_homogeneous.label})"
        )


# ======================================================================
# Figure 10 — ablation: Base -> +He -> +Hy -> All
# ======================================================================
@dataclass(frozen=True)
class AblationResult:
    model: str
    rows: list[AcceleratorRow]  #: Base, +He, +Hy, All (in order)

    def row(self, label: str) -> AcceleratorRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


def fig10_ablation(
    networks: Sequence[Network] | None = None,
    *,
    rounds: int | None = None,
    seed: int = 0,
    config: HardwareConfig | None = None,
) -> list[AblationResult]:
    """Enable AutoHet's techniques one by one (§4.3).

    * **Base** — best homogeneous SXB accelerator (tile-based allocation).
    * **+He**  — RL search over heterogeneous SXBs only, no tile sharing.
    * **+Hy**  — RL search over the hybrid SXB+RXB set, no tile sharing.
    * **All**  — hybrid search with the tile-shared allocation scheme.
    """
    sim = _simulator(config)
    rounds = rounds if rounds is not None else default_rounds()
    nets = list(networks) if networks is not None else [alexnet(), vgg16(), resnet152()]
    results = []
    for net in nets:
        _, base = best_homogeneous(net, SQUARE_CANDIDATES, sim)
        he = autohet_search(
            net, SQUARE_CANDIDATES, rounds=rounds, simulator=sim,
            tile_shared=False, seed=seed,
        )
        hy = autohet_search(
            net, DEFAULT_CANDIDATES, rounds=rounds, simulator=sim,
            tile_shared=False, seed=seed,
        )
        # "All" re-scores the +Hy strategy with tile sharing enabled and
        # also lets the RL search exploit sharing during the search.
        all_ = autohet_search(
            net, DEFAULT_CANDIDATES, rounds=rounds, simulator=sim,
            tile_shared=True, seed=seed,
        )
        results.append(
            AblationResult(
                net.name,
                [
                    AcceleratorRow("Base", base),
                    AcceleratorRow("+He", he.best_metrics),
                    AcceleratorRow("+Hy", hy.best_metrics),
                    AcceleratorRow("All", all_.best_metrics),
                ],
            )
        )
    return results


def print_fig10(results: list[AblationResult]) -> None:
    for res in results:
        print_table(
            ["variant", "RUE", "utilization_%", "energy_nJ"],
            [
                (r.label, r.rue, r.utilization_percent, r.energy_nj)
                for r in res.rows
            ],
            title=f"Figure 10 — ablation ({res.model})",
        )


# ======================================================================
# Table 3 — per-layer crossbar assignment for VGG16
# ======================================================================
def table3_strategies(
    *,
    rounds: int | None = None,
    seed: int = 0,
    config: HardwareConfig | None = None,
) -> dict[str, tuple[str, ...]]:
    """Chosen crossbar size per VGG16 layer for Base / +He / +Hy."""
    sim = _simulator(config)
    rounds = rounds if rounds is not None else default_rounds()
    net = vgg16()
    base_shape, _ = best_homogeneous(net, SQUARE_CANDIDATES, sim)
    he = autohet_search(
        net, SQUARE_CANDIDATES, rounds=rounds, simulator=sim,
        tile_shared=False, seed=seed,
    )
    hy = autohet_search(
        net, DEFAULT_CANDIDATES, rounds=rounds, simulator=sim,
        tile_shared=False, seed=seed,
    )
    return {
        "Base": tuple(str(base_shape) for _ in net.layers),
        "+He": tuple(str(s) for s in he.best_strategy),
        "+Hy": tuple(str(s) for s in hy.best_strategy),
    }


def print_table3(data: dict[str, tuple[str, ...]]) -> None:
    n = len(next(iter(data.values())))
    rows = [
        (f"L{i + 1}", *[data[variant][i] for variant in data]) for i in range(n)
    ]
    print_table(
        ["layer", *data.keys()],
        rows,
        title="Table 3 — crossbar size per VGG16 layer",
    )


# ======================================================================
# Table 4 — occupied tiles: +Hy vs All
# ======================================================================
def table4_tiles(
    networks: Sequence[Network] | None = None,
    *,
    rounds: int | None = None,
    seed: int = 0,
    config: HardwareConfig | None = None,
) -> dict[str, dict[str, int]]:
    """Occupied-tile counts with and without the tile-shared scheme.

    The +Hy strategy is searched once (no sharing); "All" re-allocates
    *the same strategy* with Algorithm 1 — isolating the allocation
    scheme's effect exactly as Table 4 does.
    """
    sim = _simulator(config)
    rounds = rounds if rounds is not None else default_rounds()
    nets = list(networks) if networks is not None else [alexnet(), vgg16(), resnet152()]
    out: dict[str, dict[str, int]] = {}
    for net in nets:
        hy = autohet_search(
            net, DEFAULT_CANDIDATES, rounds=rounds, simulator=sim,
            tile_shared=False, seed=seed,
        )
        shared = sim.evaluate(
            net, hy.best_strategy, tile_shared=True, detailed=False
        )
        out[net.name] = {
            "+Hy": hy.best_metrics.occupied_tiles,
            "All": shared.occupied_tiles,
        }
    return out


def print_table4(data: dict[str, dict[str, int]]) -> None:
    rows = []
    for variant in ("+Hy", "All"):
        rows.append((variant, *[data[m][variant] for m in data]))
    print_table(
        ["variant", *data.keys()],
        rows,
        title="Table 4 — occupied tiles (+Hy vs All)",
    )


# ======================================================================
# Figure 11 — sensitivity analysis (VGG16)
# ======================================================================
@dataclass(frozen=True)
class SensitivityPoint:
    label: str
    best_homo_rue: float
    autohet_rue: float

    @property
    def speedup(self) -> float:
        return self.autohet_rue / self.best_homo_rue if self.best_homo_rue else 0.0


def fig11a_sxb_rxb_ratio(
    ratios: Sequence[tuple[int, int]] = ((2, 3), (3, 2), (4, 1)),
    *,
    rounds: int | None = None,
    seed: int = 0,
    config: HardwareConfig | None = None,
) -> list[SensitivityPoint]:
    """RUE vs the SXB:RXB composition of a five-candidate set."""
    sim = _simulator(config)
    rounds = rounds if rounds is not None else default_rounds()
    net = vgg16()
    _, homo = best_homogeneous(net, SQUARE_CANDIDATES, sim)
    points = []
    for num_s, num_r in ratios:
        cands = ratio_candidates(num_s, num_r)
        res = autohet_search(net, cands, rounds=rounds, simulator=sim, seed=seed)
        points.append(
            SensitivityPoint(f"{num_s}S{num_r}R", homo.rue, res.best_metrics.rue)
        )
    return points


def fig11b_candidate_count(
    counts: Sequence[int] = (2, 4, 8),
    *,
    rounds: int | None = None,
    seed: int = 0,
    config: HardwareConfig | None = None,
) -> list[SensitivityPoint]:
    """RUE vs the number of crossbar candidates."""
    sim = _simulator(config)
    rounds = rounds if rounds is not None else default_rounds()
    net = vgg16()
    _, homo = best_homogeneous(net, SQUARE_CANDIDATES, sim)
    points = []
    for count in counts:
        cands = sized_candidates(count)
        res = autohet_search(net, cands, rounds=rounds, simulator=sim, seed=seed)
        points.append(
            SensitivityPoint(str(count), homo.rue, res.best_metrics.rue)
        )
    return points


def fig11c_pes_per_tile(
    pe_counts: Sequence[int] = (8, 16, 32),
    *,
    rounds: int | None = None,
    seed: int = 0,
    config: HardwareConfig | None = None,
) -> list[SensitivityPoint]:
    """RUE vs PEs per tile (tile allocation granularity)."""
    base_cfg = config if config is not None else HardwareConfig()
    rounds = rounds if rounds is not None else default_rounds()
    net = vgg16()
    points = []
    for pes in pe_counts:
        cfg = base_cfg.with_(pes_per_tile=pes)
        sim = Simulator(cfg)
        _, homo = best_homogeneous(net, SQUARE_CANDIDATES, sim)
        res = autohet_search(
            net, DEFAULT_CANDIDATES, rounds=rounds, simulator=sim, seed=seed
        )
        points.append(
            SensitivityPoint(str(pes), homo.rue, res.best_metrics.rue)
        )
    return points


def print_fig11(
    points: list[SensitivityPoint], *, panel: str, x_label: str
) -> None:
    print_table(
        [x_label, "Best-Homo RUE", "AutoHet RUE", "speedup"],
        [(p.label, p.best_homo_rue, p.autohet_rue, f"{p.speedup:.2f}x") for p in points],
        title=f"Figure 11({panel}) — sensitivity: RUE vs {x_label} (VGG16)",
    )


# ======================================================================
# Table 5 — area and latency
# ======================================================================
def table5_area_latency(
    *,
    rounds: int | None = None,
    seed: int = 0,
    config: HardwareConfig | None = None,
) -> list[AcceleratorRow]:
    """Area (um^2) and latency (ns) for the five SXB homos + AutoHet."""
    sim = _simulator(config)
    rounds = rounds if rounds is not None else default_rounds()
    net = vgg16()
    rows = [
        AcceleratorRow(f"SXB{s.rows}", sim.evaluate_homogeneous(net, s))
        for s in SQUARE_CANDIDATES
    ]
    search = autohet_search(
        net, DEFAULT_CANDIDATES, rounds=rounds, simulator=sim, seed=seed
    )
    rows.append(AcceleratorRow("AutoHet", search.best_metrics))
    return rows


def print_table5(rows: list[AcceleratorRow]) -> None:
    print_table(
        ["accelerator", "area_um2", "latency_ns"],
        [(r.label, r.metrics.area_um2, r.metrics.latency_ns) for r in rows],
        title="Table 5 — area occupancy and inference latency (VGG16)",
    )


# ======================================================================
# §4.5 — RL search-time split
# ======================================================================
def search_time_profile(
    *,
    rounds: int | None = None,
    seed: int = 0,
) -> SearchResult:
    """Run the VGG16 search and report the decision/simulator time split.

    Runs on the *uncached* reference simulator so the §4.5 claim —
    simulator feedback dominates the search — stays reproducible.
    """
    rounds = rounds if rounds is not None else default_rounds()
    sim = Simulator(cache=None, memoize_costs=False)
    return autohet_search(
        vgg16(), DEFAULT_CANDIDATES, rounds=rounds, simulator=sim, seed=seed
    )


def print_search_time(result: SearchResult) -> None:
    print_table(
        ["phase", "seconds", "share"],
        [
            ("decision (RL agent)", result.decision_seconds,
             f"{result.decision_seconds / result.total_seconds:.1%}"),
            ("simulator feedback", result.simulator_seconds,
             f"{result.simulator_fraction:.1%}"),
            ("learning (updates)", result.learning_seconds,
             f"{result.learning_seconds / result.total_seconds:.1%}"),
        ],
        title=f"§4.5 — search time, {result.rounds} rounds (VGG16)",
    )
    if result.cache_stats is not None:
        print(f"  {result.cache_stats.summary()}")
    print(
        f"  seed episodes: {result.seed_episodes}, "
        f"infeasible episodes: {result.infeasible_episodes}"
    )


# ======================================================================
# Evaluation-cache speedup: cached vs reference simulator hot path
# ======================================================================
def bench_model() -> str:
    """Model for the cache benchmark (env-overridable for CI smoke runs)."""
    return os.environ.get("REPRO_BENCH_MODEL", "vgg16")


@dataclass(frozen=True)
class CacheComparison:
    """One search algorithm timed on the cold vs cached simulator."""

    label: str
    model: str
    uncached_seconds: float
    cached_seconds: float
    identical: bool           #: cached run reproduced the cold result bit-for-bit
    infeasible: int           #: infeasible evaluations seen by the cached run
    cache_stats: CacheStats

    @property
    def speedup(self) -> float:
        return (
            self.uncached_seconds / self.cached_seconds
            if self.cached_seconds
            else 0.0
        )


def search_cache_profile(
    *,
    model: str | None = None,
    annealing_rounds: int = 300,
    seed: int = 0,
) -> list[CacheComparison]:
    """Time annealing + coordinate ascent on cold vs cached simulators.

    The cached configuration must reproduce the cold (reference) results
    bit-for-bit — :attr:`CacheComparison.identical` records the check —
    while the evaluation cache, memoised layer costs, and the aggregate
    allocation summary remove the simulator bottleneck (§4.5).
    """
    name = model if model is not None else bench_model()
    net = get_model(name)
    comparisons: list[CacheComparison] = []

    def cold_sim() -> Simulator:
        return Simulator(cache=None, memoize_costs=False)

    # --- simulated annealing -----------------------------------------
    t0 = time.perf_counter()
    cold = simulated_annealing(
        net, DEFAULT_CANDIDATES, cold_sim(), rounds=annealing_rounds, seed=seed
    )
    t1 = time.perf_counter()
    warm_sim = Simulator()
    warm = simulated_annealing(
        net, DEFAULT_CANDIDATES, warm_sim, rounds=annealing_rounds, seed=seed
    )
    t2 = time.perf_counter()
    comparisons.append(
        CacheComparison(
            label="annealing",
            model=name,
            uncached_seconds=t1 - t0,
            cached_seconds=t2 - t1,
            identical=(cold.strategy == warm.strategy
                       and cold.metrics == warm.metrics),
            infeasible=warm.infeasible,
            cache_stats=warm_sim.cache_stats(),
        )
    )

    # --- coordinate ascent (greedy on the global reward) --------------
    t0 = time.perf_counter()
    cold_strategy = greedy_reward_strategy(net, DEFAULT_CANDIDATES, cold_sim())
    t1 = time.perf_counter()
    warm_sim = Simulator()
    stats: dict[str, int] = {}
    warm_strategy = greedy_reward_strategy(
        net, DEFAULT_CANDIDATES, warm_sim, stats=stats
    )
    t2 = time.perf_counter()
    same = cold_strategy == warm_strategy and (
        cold_sim().evaluate(net, cold_strategy)
        == Simulator(cache=None).evaluate(net, warm_strategy)
    )
    comparisons.append(
        CacheComparison(
            label="coordinate-ascent",
            model=name,
            uncached_seconds=t1 - t0,
            cached_seconds=t2 - t1,
            identical=same,
            infeasible=stats.get("infeasible", 0),
            cache_stats=warm_sim.cache_stats(),
        )
    )
    return comparisons


@dataclass(frozen=True)
class VectorizedProfile:
    """The NumPy kernel path timed against the scalar reference.

    ``cold_single_us`` is the search-loop steady state: an evaluation
    whose *strategy* has never been seen (no evaluation-cache entry) on a
    simulator whose per-(network, config) shape tables are warm — the
    state every search iteration after the first few runs in.
    """

    model: str
    strategies: int                #: batch size scored
    cold_single_us: float          #: vectorized cold-cache evaluate
    scalar_single_us: float        #: materialising reference evaluate
    serial_scalar_seconds: float   #: reference loop over the batch
    batched_seconds: float         #: evaluate_many batched fast path
    identical: bool                #: batched results == reference loop

    @property
    def single_speedup(self) -> float:
        return (
            self.scalar_single_us / self.cold_single_us
            if self.cold_single_us
            else 0.0
        )

    @property
    def batch_speedup(self) -> float:
        return (
            self.serial_scalar_seconds / self.batched_seconds
            if self.batched_seconds
            else 0.0
        )

    @property
    def batched_us_per_strategy(self) -> float:
        return self.batched_seconds / self.strategies * 1e6


def vectorized_kernel_profile(
    *,
    model: str | None = None,
    strategies: int = 256,
    seed: int = 0,
) -> VectorizedProfile:
    """Time the vectorized cost-model core against the scalar reference.

    Scores ``strategies`` random candidate strategies three ways — the
    materialising reference loop, one vectorized evaluation at a time
    (cold cache), and the batched ``evaluate_many`` kernel path — and
    checks the batched results reproduce the reference bit-for-bit
    (infeasible verdicts included; docs/performance.md "Vectorized
    kernels").
    """
    import numpy as np

    name = model if model is not None else bench_model()
    net = get_model(name)
    rng = np.random.default_rng(seed)
    batch = [
        tuple(
            DEFAULT_CANDIDATES[i]
            for i in rng.integers(0, len(DEFAULT_CANDIDATES), size=net.num_layers)
        )
        for _ in range(strategies)
    ]

    reference = Simulator(cache=None, memoize_costs=False)
    t0 = time.perf_counter()
    expected = [
        reference.try_evaluate(net, s, detailed=False) for s in batch
    ]
    serial_seconds = time.perf_counter() - t0

    batched_sim = Simulator()
    t0 = time.perf_counter()
    results = batched_sim.evaluate_many(net, batch)
    batched_seconds = time.perf_counter() - t0

    # Cold-cache single evaluations: no evaluation cache, so every call
    # re-runs the kernels; the shape tables are warm after the batch ran
    # on the same network object.
    single_sim = Simulator(cache=None)
    for s in batch[: min(8, len(batch))]:
        single_sim.try_evaluate(net, s, detailed=False)
    reps = min(len(batch), 64)
    t0 = time.perf_counter()
    for s in batch[:reps]:
        single_sim.try_evaluate(net, s, detailed=False)
    cold_single_us = (time.perf_counter() - t0) / reps * 1e6

    scalar_reps = min(len(batch), 8)
    t0 = time.perf_counter()
    for s in batch[:scalar_reps]:
        reference.try_evaluate(net, s, detailed=False)
    scalar_single_us = (time.perf_counter() - t0) / scalar_reps * 1e6

    return VectorizedProfile(
        model=name,
        strategies=len(batch),
        cold_single_us=cold_single_us,
        scalar_single_us=scalar_single_us,
        serial_scalar_seconds=serial_seconds,
        batched_seconds=batched_seconds,
        identical=results == expected,
    )


def print_vectorized_profile(profile: VectorizedProfile) -> None:
    print_table(
        ["metric", "value"],
        [
            ("strategies scored", profile.strategies),
            ("reference loop", f"{profile.serial_scalar_seconds:.3f} s"),
            ("batched kernels", f"{profile.batched_seconds:.3f} s"),
            ("batch speedup", f"{profile.batch_speedup:.1f}x"),
            ("cold single evaluate", f"{profile.cold_single_us:.1f} us"),
            ("scalar single evaluate", f"{profile.scalar_single_us:.1f} us"),
            ("single speedup", f"{profile.single_speedup:.1f}x"),
            ("bit-identical", profile.identical),
        ],
        title=f"Vectorized cost-model kernels ({profile.model})",
    )


def print_search_cache(comparisons: list[CacheComparison]) -> None:
    print_table(
        ["search", "cold_s", "cached_s", "speedup", "identical",
         "hit_rate", "infeasible"],
        [
            (
                c.label,
                f"{c.uncached_seconds:.3f}",
                f"{c.cached_seconds:.3f}",
                f"{c.speedup:.1f}x",
                c.identical,
                f"{c.cache_stats.hit_rate:.1%}",
                c.infeasible,
            )
            for c in comparisons
        ],
        title=f"Evaluation cache — search speedup ({comparisons[0].model})",
    )
