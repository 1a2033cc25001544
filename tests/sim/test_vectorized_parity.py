"""Differential battery: the vectorized kernel path vs the scalar reference.

The exactness contract of ``repro.sim.kernels`` is *bit-identical*
metrics — not approximately equal — because the NumPy kernels mirror the
scalar evaluation's arithmetic operation-for-operation (strict left
folds via ``cumsum``, identical association order, identical int→float
conversion points).  There are two paths: the materialising reference
and the ``(S, L)`` batch scorer, which a cold ``evaluate`` runs as a
batch of one.  These tests enforce the contract five ways:

* a hypothesis battery over random networks × strategies × configs,
  comparing the reference, ``evaluate``'s kernel path and a direct call
  of the batch scorer pairwise, infeasible verdicts included;
* the paper workloads (VGG16 et al.) under the paper's strategies;
* the batched ``evaluate_many`` fast path against the serial loop,
  duplicates and infeasible entries included, cache counters and all;
* one strategy scored after a neighbour, after a distant strategy,
  inside a batch and first, which reuse different amounts of the
  strategy scored before it;
* shapes outside a warm shape table, which extend it once.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import DEFAULT_CANDIDATES, CrossbarShape, HardwareConfig
from repro.arch.mapping import map_layer
from repro.models.datasets import CIFAR10
from repro.models.graph import Network
from repro.models.layers import LayerSpec, PoolSpec
from repro.sim import kernels
from repro.sim.simulator import CapacityError, Simulator

SHAPES = DEFAULT_CANDIDATES


def reference_sim(config=None):
    """The materialising scalar path — the semantic ground truth."""
    return Simulator(
        config=config or HardwareConfig(),
        cache=None,
        memoize_costs=False,
    )


def vector_sim(config=None):
    """The NumPy kernel path under test."""
    return Simulator(config=config or HardwareConfig(), cache=None)


def outcome(sim, network, strategy, *, tile_shared, detailed):
    """Metrics on success, the CapacityError message on infeasibility."""
    try:
        return sim.evaluate(
            network, strategy, tile_shared=tile_shared, detailed=detailed
        )
    except CapacityError as exc:
        return ("infeasible", str(exc))


def scored_outcome(network, strategy, config, *, tile_shared, detailed):
    """:func:`outcome` through the ``(S, L)`` batch scorer."""
    (scored,) = kernels.score_strategy_batch(
        network,
        [strategy],
        config,
        tile_shared=tile_shared,
        enforce_capacity=True,
        detailed=detailed,
    )
    if isinstance(scored, kernels.InfeasibleScore):
        return ("infeasible", scored.message)
    return scored


@st.composite
def network_and_strategy(draw):
    """A small random CONV/pool pipeline plus a per-layer shape choice."""
    depth = draw(st.integers(1, 5))
    items = []
    channels = CIFAR10.channels
    for _ in range(depth):
        out = draw(st.integers(1, 96))
        kernel = draw(st.sampled_from([1, 3]))
        items.append(
            LayerSpec.conv(
                channels, out, kernel, padding=1 if kernel == 3 else 0
            )
        )
        channels = out
        if draw(st.booleans()):
            items.append(PoolSpec(window=2, stride=2))
    network = Network.build("rand", CIFAR10, items)
    strategy = tuple(
        draw(st.sampled_from(SHAPES)) for _ in range(network.num_layers)
    )
    return network, strategy


class TestHypothesisDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        network_and_strategy(),
        st.booleans(),
        st.booleans(),
        # tiles_per_bank=6 makes a healthy fraction of draws infeasible,
        # so the CapacityError verdict (and message) parity is exercised
        # alongside the numeric parity.
        st.sampled_from([337, 6]),
    )
    def test_three_paths_agree_bit_for_bit(
        self, net_strat, tile_shared, detailed, tiles_per_bank
    ):
        network, strategy = net_strat
        config = HardwareConfig(tiles_per_bank=tiles_per_bank)
        results = [
            outcome(
                sim_factory(config),
                network,
                strategy,
                tile_shared=tile_shared,
                detailed=detailed,
            )
            for sim_factory in (reference_sim, vector_sim)
        ]
        results.append(
            scored_outcome(
                network,
                strategy,
                config,
                tile_shared=tile_shared,
                detailed=detailed,
            )
        )
        # Plain ==: SystemMetrics is a frozen dataclass of floats/ints,
        # so equality here means every field is bit-identical.
        assert results[0] == results[1] == results[2]

    @settings(max_examples=30, deadline=None)
    @given(network_and_strategy())
    def test_strategy_batch_scorer_matches_evaluate(self, net_strat):
        network, strategy = net_strat
        config = HardwareConfig()
        assert scored_outcome(
            network, strategy, config, tile_shared=True, detailed=True,
        ) == outcome(
            reference_sim(config), network, strategy,
            tile_shared=True, detailed=True,
        )


class TestPaperWorkloads:
    @pytest.mark.parametrize("net_fixture", ["lenet_net", "tiny_net", "vgg_net"])
    @pytest.mark.parametrize("tile_shared", [True, False])
    def test_uniform_strategies_unchanged(
        self, net_fixture, tile_shared, request
    ):
        network = request.getfixturevalue(net_fixture)
        for shape in SHAPES:
            strategy = tuple(shape for _ in range(network.num_layers))
            assert outcome(
                vector_sim(), network, strategy,
                tile_shared=tile_shared, detailed=True,
            ) == outcome(
                reference_sim(), network, strategy,
                tile_shared=tile_shared, detailed=True,
            )

    def test_vgg16_manual_hetero_unchanged(self, vgg_net):
        from repro.core.search.strategies import manual_hetero_strategy

        strategy = manual_hetero_strategy(vgg_net)
        assert vector_sim().evaluate(vgg_net, strategy) == reference_sim().evaluate(
            vgg_net, strategy
        )


class TestBatchedEvaluateMany:
    def batch_for(self, network, count=8):
        return [
            tuple(
                SHAPES[(i + j) % len(SHAPES)]
                for j in range(network.num_layers)
            )
            for i in range(count)
        ]

    def test_matches_serial_with_duplicates(self, lenet_net):
        batch = self.batch_for(lenet_net) * 2  # every strategy twice
        serial = [
            reference_sim().try_evaluate(lenet_net, s, detailed=False)
            for s in batch
        ]
        assert Simulator().evaluate_many(lenet_net, batch) == serial

    def test_cache_protocol_matches_serial(self, lenet_net):
        """Hit/miss/size counters replicate the serial loop exactly."""
        batch = self.batch_for(lenet_net, count=6) * 3
        serial_sim = Simulator()
        for s in batch:
            serial_sim.try_evaluate(lenet_net, s, detailed=False)
        batched_sim = Simulator()
        batched_sim.evaluate_many(lenet_net, batch)
        serial, batched = serial_sim.cache_stats(), batched_sim.cache_stats()
        assert (serial.hits, serial.misses, serial.size) == (
            batched.hits,
            batched.misses,
            batched.size,
        )

    def test_infeasible_entries_cached_and_reused(self, tiny_net):
        hopeless = Simulator(HardwareConfig(tiles_per_bank=1))
        batch = self.batch_for(tiny_net, count=4)
        assert hopeless.evaluate_many(tiny_net, batch) == [None] * 4
        stats = hopeless.cache_stats()
        assert stats.size == len(set(batch))
        assert hopeless.evaluate_many(tiny_net, batch) == [None] * 4
        after = hopeless.cache_stats()
        assert after.hits - stats.hits == len(batch)
        assert after.misses == stats.misses

    def test_infeasible_message_matches_serial(self, tiny_net):
        config = HardwareConfig(tiles_per_bank=1)
        strategy = self.batch_for(tiny_net, count=1)[0]
        with pytest.raises(CapacityError) as serial_exc:
            reference_sim(config).evaluate(tiny_net, strategy)
        scored = kernels.score_strategy_batch(
            tiny_net,
            [strategy],
            config,
            tile_shared=True,
            enforce_capacity=True,
        )[0]
        assert isinstance(scored, kernels.InfeasibleScore)
        assert scored.message == str(serial_exc.value)


class TestScoringOrderIndependence:
    """A strategy scores to the same bits whatever its ``Simulator``
    scored just before it: the evidence behind ``Simulator.scoring_base``
    in ``RESULT_INVARIANT_FIELDS``.

    The batch scorer diffs each strategy against the one scored before
    it and recomputes only the changed layers.  One strategy is scored
    right after a one-layer neighbour, right after a distant strategy,
    inside a coordinate-ascent batch, and first in a fresh simulator; all
    four must equal each other and the reference oracle, infeasible
    verdicts included.
    """

    LAYER = 9

    @staticmethod
    def target_for(network):
        """A mixed strategy: several shapes, groups of several sizes."""
        return tuple(
            SHAPES[(3 * i) % 5 if i % 4 else 1] for i in range(network.num_layers)
        )

    @classmethod
    def family(cls, strategy):
        """The strategy with layer ``LAYER`` set to each candidate."""
        layer = cls.LAYER
        return [
            strategy[:layer] + (shape,) + strategy[layer + 1:] for shape in SHAPES
        ]

    @staticmethod
    def distant(strategy):
        """Every layer on another candidate."""
        return tuple(SHAPES[(SHAPES.index(s) + 2) % len(SHAPES)] for s in strategy)

    @staticmethod
    def scored(sim, network, batch):
        """Score ``batch`` through ``sim``'s scorer and its base slot."""
        return [
            ("infeasible", result.message)
            if isinstance(result, kernels.InfeasibleScore)
            else result
            for result in kernels.score_strategy_batch(
                network,
                batch,
                sim.config,
                tile_shared=True,
                enforce_capacity=True,
                detailed=True,
                base=sim.scoring_base,
            )
        ]

    def four_ways(self, network, target, before, other, config):
        """``target`` right after ``before``, right after a distant
        strategy, inside a batch between ``before`` and ``other``, and
        first in a fresh simulator.  Each simulator but the last scores
        a third strategy first, so the base it hands on has already been
        replaced once."""
        far = self.distant(target)

        def after(*prefix):
            sim = vector_sim(config)
            for strategy in prefix:
                outcome(sim, network, strategy, tile_shared=True, detailed=True)
            return sim

        ways = {
            "after a neighbour": outcome(
                after(far, before), network, target,
                tile_shared=True, detailed=True,
            ),
            "after a distant strategy": outcome(
                after(before, far), network, target,
                tile_shared=True, detailed=True,
            ),
            "inside a batch": self.scored(
                after(far), network, [before, target, other]
            )[1],
            "first": outcome(
                vector_sim(config), network, target,
                tile_shared=True, detailed=True,
            ),
        }
        return ways

    @pytest.mark.parametrize("net_fixture", ["vgg_net", "resnet_net"])
    @pytest.mark.parametrize(
        "case", ["feasible", "overflowing neighbour", "overflowing target"]
    )
    def test_any_order_gives_the_reference_bits(self, net_fixture, case, request):
        network = request.getfixturevalue(net_fixture)
        # One layer's five choices, by tiles: the target in the middle has
        # a neighbour with fewer tiles and one with more.
        family = sorted(
            self.family(self.target_for(network)),
            key=lambda s: vector_sim().evaluate(network, s).occupied_tiles,
        )
        fewer, target, more = family[0], family[len(family) // 2], family[-1]
        tiles = [
            vector_sim().evaluate(network, s).occupied_tiles
            for s in (fewer, target, more)
        ]
        assert tiles[0] < tiles[1] < tiles[2]
        config, before = HardwareConfig(), fewer
        if case == "overflowing neighbour":
            # The bank holds the target exactly; the neighbour overflows.
            config, before = HardwareConfig(tiles_per_bank=tiles[1]), more
        elif case == "overflowing target":
            config = HardwareConfig(tiles_per_bank=tiles[1] - 1)
        expected = outcome(
            reference_sim(config), network, target, tile_shared=True, detailed=True
        )
        assert isinstance(expected, tuple) == (case == "overflowing target")
        if case == "overflowing neighbour":
            assert outcome(
                reference_sim(config), network, before,
                tile_shared=True, detailed=True,
            )[0] == "infeasible"
        others = [s for s in family if s not in (before, target)]
        ways = self.four_ways(network, target, before, others[0], config)
        for way, result in ways.items():
            assert result == expected, way


class TestWarmShapeTableExtension:
    """A gather that meets a shape its warm table lacks extends the table
    once, by exactly the new shapes, and still matches the reference."""

    NEW = (CrossbarShape(100, 200), CrossbarShape(48, 96))

    @pytest.fixture
    def warm(self, monkeypatch):
        """A fresh VGG16 whose table holds the candidates, and a counter
        of the table builds that follow."""
        from repro.models import vgg16

        network = vgg16()
        config = HardwareConfig()
        arrays = kernels.network_arrays(network)
        assert kernels.shape_table(arrays, config, SHAPES).shapes == SHAPES
        builds = []
        real = kernels._build_table

        def counting(net, cfg, shapes):
            builds.append(shapes)
            return real(net, cfg, shapes)

        monkeypatch.setattr(kernels, "_build_table", counting)

        def table():
            return kernels.network_constants(arrays, config).table

        return network, builds, table

    def strategy(self, network, new_shapes):
        """Off-candidate shapes on the first layers, 576x512 elsewhere."""
        big = CrossbarShape(576, 512)
        return tuple(new_shapes) + (big,) * (
            network.num_layers - len(new_shapes)
        )

    def test_evaluate_extends_the_table_once(self, warm):
        network, builds, table = warm
        strategy = self.strategy(network, self.NEW)
        for tile_shared in (True, False):
            result = outcome(
                vector_sim(), network, strategy,
                tile_shared=tile_shared, detailed=True,
            )
            assert not isinstance(result, tuple)  # feasible: real metrics
            assert result == outcome(
                reference_sim(), network, strategy,
                tile_shared=tile_shared, detailed=True,
            )
        assert builds == [SHAPES + self.NEW]
        assert table().shapes == SHAPES + self.NEW

    def test_evaluate_many_mixes_known_and_unknown(self, warm):
        network, builds, table = warm
        batch = [
            self.strategy(network, ()),
            self.strategy(network, self.NEW[:1]),
            self.strategy(network, (SHAPES[2],) + self.NEW[1:]),
            self.strategy(network, self.NEW),
            self.strategy(network, ()),
        ]
        assert Simulator(cache=None).evaluate_many(network, batch) == [
            reference_sim().try_evaluate(network, s, detailed=False)
            for s in batch
        ]
        assert builds == [SHAPES + self.NEW]
        assert table().shapes == SHAPES + self.NEW


class TestAdcChainInvariant:
    """Satellite: ``min(adc_sharing, used_columns_per_crossbar_max)``.

    The ADC chain length in :func:`repro.sim.latency.mvm_latency_ns`
    would silently zero the latency if a mapping could ever report zero
    used columns.  ``LayerMapping.__post_init__`` (MAP003) makes that
    state unconstructible — these tests pin both halves of the argument.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 512),
        st.integers(1, 512),
        st.sampled_from([1, 3, 5]),
        st.sampled_from(list(SHAPES)),
    )
    def test_mapped_layers_always_use_a_column(self, cin, cout, k, shape):
        mapping = map_layer(LayerSpec.conv(cin, cout, k, input_size=8), shape)
        assert mapping.used_columns_per_crossbar_max >= 1
        assert min(4, mapping.used_columns_per_crossbar_max) >= 1

    def test_degenerate_mapping_is_unconstructible(self):
        from repro.analysis.invariants import InvariantViolation
        from repro.arch.mapping import LayerMapping

        layer = LayerSpec.conv(3, 16, 3, input_size=8)
        with pytest.raises(InvariantViolation):
            LayerMapping(
                layer=layer,
                shape=CrossbarShape(64, 64),
                row_groups=0,
                col_groups=1,
                kernel_split=False,
            )
        with pytest.raises(InvariantViolation):
            LayerMapping(
                layer=layer,
                shape=CrossbarShape(64, 64),
                row_groups=1,
                col_groups=0,
                kernel_split=False,
            )
