"""The behavioral accelerator simulator — the "hardware feedback" source.

:class:`Simulator.evaluate` takes a network and a *strategy* (one crossbar
shape per layer — the RL agent's action sequence, Fig. 6 step 4) and
returns :class:`~repro.sim.metrics.SystemMetrics`: utilization, energy,
latency, area, tile occupancy (steps 5-6).  This plays the role MNSIM 2.0
plays in the paper (§4.1); see DESIGN.md for the substitution rationale.

Evaluation is pure and deterministic: map every layer (Eq. 4 math),
allocate tiles (tile-based, optionally tile-shared per §3.4), then roll up
the analytic energy / latency / area models.  Because it is pure, a
strategy-level :class:`~repro.sim.cache.EvaluationCache` sits in front of
it, and a miss runs one of two paths:

* the fast path, the ``(S, L)`` batch scorer
  (``repro.sim.kernels.score_strategy_batch``) over the aggregate
  allocation summary (``repro.core.allocation.summary``).  A cold
  :meth:`Simulator.evaluate` is a batch of one;
  :meth:`Simulator.evaluate_many` scores all its cold strategies in one
  pass;
* the materialised reference, which maps every layer, builds and
  validates the full tile plan, and calls the scalar cost models.

``Simulator(cache=None, memoize_costs=False)`` is the cold reference
oracle; results are bit-for-bit identical either way
(``tests/sim/test_vectorized_parity.py``).  See ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..arch.config import DEFAULT_CONFIG, CrossbarShape, HardwareConfig
from ..arch.mapping import LayerMapping, map_layer
from ..core.allocation import (
    Allocation,
    allocate_tile_based,
    apply_tile_sharing,
)
# Re-exported only so perfbench/layers.py can patch the name here: it
# wraps ``repro.sim.simulator.summarize_counts`` by name.
from ..core.allocation.summary import summarize_counts as summarize_counts
from ..models.graph import Network
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.trace import NULL_TRACER, Tracer
from . import kernels
from .area import allocation_area_um2
from .cache import EvaluationCache
from .energy import (
    layer_adc_conversions,
    layer_dac_conversions,
    layer_dynamic_energy,
    leakage_energy,
    pooling_energy,
)
from .kernels import InfeasibleScore, ScoringBase
from .latency import layer_latency_ns, pooling_latency_ns
from .metrics import EnergyBreakdown, LayerCost, SystemMetrics

#: A crossbar-configuration strategy: one shape per weight layer.
Strategy = tuple[CrossbarShape, ...]


class CapacityError(RuntimeError):
    """Raised when a strategy needs more tiles than one bank provides."""


def _emit_outcome(
    tracer: Tracer, network: Network, outcome: SystemMetrics | InfeasibleScore
) -> None:
    """Report one scored strategy: ``sim.infeasible`` or its metrics."""
    if isinstance(outcome, InfeasibleScore):
        tracer.event(
            obs_metrics.EVENT_INFEASIBLE,
            network=network.name,
            message=outcome.message,
        )
    else:
        obs_metrics.emit_system_metrics(tracer, outcome, network=network.name)


@dataclass(frozen=True)
class Simulator:
    """Deterministic behavioral model of the heterogeneous accelerator.

    A strategy that overflows the bank has one verdict on every path,
    :class:`~repro.sim.kernels.InfeasibleScore`: the batch scorer returns
    it, the cache stores it, and :meth:`evaluate` raises its message as
    a :class:`CapacityError`, from a miss or a hit alike.
    """

    config: HardwareConfig = DEFAULT_CONFIG
    #: raise :class:`CapacityError` when the allocation exceeds one bank
    enforce_capacity: bool = True
    #: strategy-level result cache; pass ``None`` to disable.  It belongs
    #: to the first thread that evaluates: one ``Simulator`` per thread.
    cache: EvaluationCache | None = field(
        default_factory=EvaluationCache, compare=False
    )
    #: score misses with the NumPy kernels (``repro.sim.kernels``) over
    #: the aggregate allocation summary; ``False`` runs the materialised
    #: reference instead.  Bit-identical results either way
    #: (``tests/sim/test_vectorized_parity.py``).
    memoize_costs: bool = True
    #: the strategy this simulator scored last, which the batch scorer
    #: diffs the next one against so that a neighbour recomputes only its
    #: changed layers.  It changes how much is recomputed, never a result
    #: bit (``tests/sim/test_vectorized_parity.py``,
    #: ``TestScoringOrderIndependence``).
    scoring_base: ScoringBase = field(
        default_factory=ScoringBase,
        init=False,
        compare=False,
        repr=False,
    )

    # ------------------------------------------------------------------
    def map_network(
        self, network: Network, strategy: Sequence[CrossbarShape]
    ) -> tuple[LayerMapping, ...]:
        """Map every layer onto its assigned crossbar type."""
        layers = network.layers
        if len(strategy) != len(layers):
            raise ValueError(
                f"strategy length {len(strategy)} != layer count {len(layers)}"
            )
        return tuple(map_layer(layer, shape) for layer, shape in zip(layers, strategy))

    def allocate(
        self,
        mappings: Sequence[LayerMapping],
        *,
        tile_shared: bool,
        tracer: Tracer = NULL_TRACER,
    ) -> Allocation:
        """Tile allocation, optionally followed by Algorithm 1 remapping.

        Always materialises (and validates) the full tile plan — use this
        for deployable plans.  Only the reference path (``memoize_costs``
        off) calls it; the batch scorer works from the aggregate summary.
        """
        allocation = allocate_tile_based(
            mappings, self.config.logical_xbars_per_tile
        )
        if tile_shared:
            allocation = apply_tile_sharing(allocation, tracer=tracer)
        # The message is the verdict the batch scorer returns and the
        # cache stores, so every path reports one text
        # (``tests/sim/test_infeasible_messages.py``).
        verdict = kernels.capacity_verdict(
            allocation.occupied_tiles,
            self.config,
            enforce_capacity=self.enforce_capacity,
        )
        if verdict is not None:
            raise CapacityError(verdict.message)
        return allocation

    # ------------------------------------------------------------------
    def evaluate(
        self,
        network: Network,
        strategy: Sequence[CrossbarShape],
        *,
        tile_shared: bool = True,
        detailed: bool = True,
    ) -> SystemMetrics:
        """Full evaluation of one (network, strategy) pair.

        Pure and deterministic; with a :attr:`cache` attached, repeat
        evaluations (including infeasible ones) return memoised results.
        """
        strategy = tuple(strategy)
        # Hot path: the ambient tracer is one module-attribute read, never
        # a function call (the cached-hit path budget is ~2µs).
        tracer = obs_trace._AMBIENT
        cache = self.cache
        key = None
        if cache is not None:
            key = EvaluationCache.make_key(
                self.config,
                network,
                strategy,
                tile_shared=tile_shared,
                detailed=detailed,
                enforce_capacity=self.enforce_capacity,
            )
            hit = cache.get(key)
            if hit is not None:
                if isinstance(hit, InfeasibleScore):
                    if tracer.enabled:
                        obs_metrics.emit_cache_lookup(
                            tracer, hit, network=network.name, infeasible=True
                        )
                    raise CapacityError(hit.message)
                if tracer.enabled:
                    obs_metrics.emit_cache_lookup(
                        tracer, hit, network=network.name
                    )
                return hit  # type: ignore[return-value]
            if tracer.enabled:
                obs_metrics.emit_cache_lookup(tracer, None, network=network.name)
        with tracer.span(
            obs_metrics.SPAN_EVALUATE,
            network=network.name,
            layers=len(strategy),
            tile_shared=tile_shared,
            detailed=detailed,
        ):
            if self.memoize_costs:
                (outcome,) = self._score_batch(
                    network, [strategy], tile_shared=tile_shared,
                    detailed=detailed, tracer=tracer,
                )
            else:
                try:
                    outcome = self._evaluate_reference(
                        network, strategy, tile_shared=tile_shared,
                        detailed=detailed, tracer=tracer,
                    )
                except CapacityError as exc:
                    outcome = InfeasibleScore(str(exc))
        if cache is not None:
            cache.put(key, outcome)
        if tracer.enabled:
            _emit_outcome(tracer, network, outcome)
        if isinstance(outcome, InfeasibleScore):
            raise CapacityError(outcome.message)
        return outcome

    def _evaluate_reference(
        self,
        network: Network,
        strategy: Strategy,
        *,
        tile_shared: bool,
        detailed: bool,
        tracer: Tracer = NULL_TRACER,
    ) -> SystemMetrics:
        """The reference oracle: materialise and validate the full tile
        plan, then run the scalar cost models one layer at a time."""
        cfg = self.config
        with tracer.span(obs_metrics.SPAN_MAP, network=network.name):
            mappings = self.map_network(network, strategy)
        with tracer.span(obs_metrics.SPAN_ALLOCATE, mode="materialized"):
            allocation = self.allocate(
                mappings, tile_shared=tile_shared, tracer=tracer
            )

        layer_costs: list[LayerCost] = []
        dynamic = EnergyBreakdown()
        latency = 0.0
        with tracer.span(obs_metrics.SPAN_COST, layers=len(mappings)):
            for mapping in mappings:
                e = layer_dynamic_energy(mapping, cfg)
                t = layer_latency_ns(mapping, cfg)
                dynamic = dynamic + e
                latency += t
                if detailed:
                    layer_costs.append(
                        LayerCost(
                            layer_index=mapping.layer.index,
                            shape_str=str(mapping.shape),
                            mvm_ops=mapping.layer.mvm_ops,
                            num_crossbars=mapping.num_crossbars,
                            adc_conversions=layer_adc_conversions(mapping, cfg),
                            dac_conversions=layer_dac_conversions(mapping, cfg),
                            energy=e,
                            latency_ns=t,
                            intra_utilization=mapping.utilization,
                        )
                    )

            pool_e = pooling_energy(network, cfg)
            latency += pooling_latency_ns(network, cfg)
            leak = leakage_energy(
                allocation.occupied_tiles,
                allocation.total_crossbar_slots,
                allocation.allocated_cells,
                latency,
                cfg,
            )
            breakdown = dynamic + EnergyBreakdown(pooling=pool_e, leakage=leak)

        return SystemMetrics(
            network_name=network.name,
            strategy=tuple(str(s) for s in strategy),
            utilization=allocation.utilization,
            energy_nj=breakdown.total,
            latency_ns=latency,
            area_um2=allocation_area_um2(allocation, cfg),
            occupied_tiles=allocation.occupied_tiles,
            occupied_crossbars=sum(m.num_crossbars for m in mappings),
            empty_crossbars=allocation.empty_crossbars,
            tile_shared=tile_shared,
            energy_breakdown=breakdown,
            layer_costs=tuple(layer_costs),
        )

    # ------------------------------------------------------------------
    def try_evaluate(
        self,
        network: Network,
        strategy: Sequence[CrossbarShape],
        *,
        tile_shared: bool = True,
        detailed: bool = True,
    ) -> SystemMetrics | None:
        """:meth:`evaluate`, but ``None`` for an infeasible strategy.

        The feasibility-tolerant entry point the search strategies use: a
        proposal that overflows the bank is a *skippable* point of the
        search space, not a crash.
        """
        try:
            return self.evaluate(
                network, strategy, tile_shared=tile_shared, detailed=detailed
            )
        except CapacityError:
            return None

    def evaluate_many(
        self,
        network: Network,
        strategies: Iterable[Sequence[CrossbarShape]],
        *,
        tile_shared: bool = True,
        detailed: bool = False,
    ) -> list[SystemMetrics | None]:
        """Evaluate a batch of strategies, serially, in order.

        Returns one entry per strategy, ``None`` for an infeasible one.
        """
        batch = [tuple(s) for s in strategies]
        if not batch:
            return []
        # The kernel path scores the whole batch in one (S, L) pass; the
        # reference path is a try_evaluate loop.  The tracer never picks
        # the path; it observes either one.
        if self.memoize_costs:
            return self._evaluate_many_batched(
                network, batch, tile_shared=tile_shared, detailed=detailed,
                tracer=obs_trace._AMBIENT,
            )
        return [
            self.try_evaluate(
                network, s, tile_shared=tile_shared, detailed=detailed
            )
            for s in batch
        ]

    def _evaluate_many_batched(
        self,
        network: Network,
        batch: list[Strategy],
        *,
        tile_shared: bool,
        detailed: bool,
        tracer: Tracer,
    ) -> list[SystemMetrics | None]:
        """Serial batch evaluation through the ``(S, L)`` kernel scorer.

        Replicates the serial loop's cache protocol — one lookup per
        strategy, one insert per cold unique strategy, duplicate
        occurrences resolving to hits — while scoring every cold strategy
        in a single kernel pass.  A duplicate whose entry was evicted
        before its turn (a cache smaller than the batch) counts the one
        miss the serial loop would and re-inserts the outcome scored for
        its first occurrence; it is not scored, or traced as scored, a
        second time.  A live tracer sees what the serial loop
        would report: one ``cache.hit``/``cache.miss`` per lookup, and
        ``alloc.group``, ``sim.infeasible`` and metric counters per scored
        strategy, with one ``sim.score_batch`` span in place of the
        per-strategy ``sim.evaluate`` spans.
        """
        results: list[SystemMetrics | None] = [None] * len(batch)
        if self.cache is None:
            unique: dict[Strategy, list[int]] = {}
            for i, strategy in enumerate(batch):
                unique.setdefault(strategy, []).append(i)
            scored = self._score_batch(
                network, list(unique),
                tile_shared=tile_shared, detailed=detailed, tracer=tracer,
            )
            for positions, outcome in zip(unique.values(), scored):
                if tracer.enabled:
                    _emit_outcome(tracer, network, outcome)
                value = None if isinstance(outcome, InfeasibleScore) else outcome
                for i in positions:
                    results[i] = value
            return results

        keys = [
            EvaluationCache.make_key(
                self.config,
                network,
                strategy,
                tile_shared=tile_shared,
                detailed=detailed,
                enforce_capacity=self.enforce_capacity,
            )
            for strategy in batch
        ]
        cache = self.cache

        def lookup(key: object) -> tuple[object, bool]:
            hit = cache.get(key)
            infeasible = isinstance(hit, InfeasibleScore)
            if tracer.enabled:
                obs_metrics.emit_cache_lookup(
                    tracer, hit, network=network.name, infeasible=infeasible
                )
            return hit, infeasible

        to_score: list[int] = []
        # cold key -> the value inserted for its first occurrence
        pending: dict[object, object] = {}
        # Duplicates of a cold key defer their lookup until after the
        # scored results are inserted, so they register as cache hits
        # exactly like the serial loop's second visit would.
        deferred: list[int] = []
        for i, key in enumerate(keys):
            if key in pending:
                deferred.append(i)
                continue
            hit, infeasible = lookup(key)
            if hit is None:
                pending[key] = None
                to_score.append(i)
            elif not infeasible:
                results[i] = hit  # type: ignore[assignment]
        if to_score:
            scored = self._score_batch(
                network, [batch[i] for i in to_score],
                tile_shared=tile_shared, detailed=detailed, tracer=tracer,
            )
            for i, outcome in zip(to_score, scored):
                if tracer.enabled:
                    _emit_outcome(tracer, network, outcome)
                if not isinstance(outcome, InfeasibleScore):
                    results[i] = outcome
                cache.put(keys[i], outcome)
                pending[keys[i]] = outcome
        for i in deferred:
            hit, infeasible = lookup(keys[i])
            if hit is None:
                # Evicted between the insert and this lookup (a cache
                # smaller than the batch).  The lookup counted the serial
                # loop's one miss; re-insert the outcome scored for the
                # first occurrence in place of scoring it again.
                hit = pending[keys[i]]
                cache.put(keys[i], hit)
                infeasible = isinstance(hit, InfeasibleScore)
            if not infeasible:
                results[i] = hit  # type: ignore[assignment]
        return results

    def _score_batch(
        self,
        network: Network,
        strategies: list[Strategy],
        *,
        tile_shared: bool,
        detailed: bool,
        tracer: Tracer,
    ) -> list[SystemMetrics | InfeasibleScore]:
        """One kernel pass in one ``sim.score_batch`` span.

        The caller reports each outcome (:func:`_emit_outcome`) once it
        has consumed it.
        """
        with tracer.span(
            obs_metrics.SPAN_SCORE_BATCH,
            network=network.name,
            strategies=len(strategies),
            tile_shared=tile_shared,
            detailed=detailed,
        ):
            return kernels.score_strategy_batch(
                network,
                strategies,
                self.config,
                tile_shared=tile_shared,
                enforce_capacity=self.enforce_capacity,
                detailed=detailed,
                tracer=tracer,
                base=self.scoring_base,
            )

    # ------------------------------------------------------------------
    def evaluate_homogeneous(
        self, network: Network, shape: CrossbarShape, *, tile_shared: bool = False
    ) -> SystemMetrics:
        """Evaluate a homogeneous accelerator (the §4.1 baselines).

        Baselines use the conventional tile-based allocation, hence
        ``tile_shared=False`` by default.
        """
        strategy = tuple(shape for _ in network.layers)
        return self.evaluate(network, strategy, tile_shared=tile_shared)

    def cache_stats(self):
        """Snapshot of the attached cache's counters (``None`` if off)."""
        return self.cache.stats() if self.cache is not None else None

