"""Tests for the multi-model tile-sharing extension."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import CrossbarShape, DEFAULT_CANDIDATES
from repro.core.allocation import (
    allocate_multi_network,
    multi_network_tile_counts,
)
from repro.models import lenet, tiny_cnn
from repro.models.zoo import get_model


def simple_workloads(shape=CrossbarShape(72, 64)):
    a = lenet()
    b = tiny_cnn()
    return [
        (a, tuple(shape for _ in a.layers)),
        (b, tuple(shape for _ in b.layers)),
    ]


class TestAllocateMultiNetwork:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            allocate_multi_network([], 4)

    def test_rejects_strategy_mismatch(self):
        net = lenet()
        with pytest.raises(ValueError, match="strategy length"):
            allocate_multi_network([(net, (CrossbarShape(32, 32),))], 4)

    def test_slices_cover_all_layers(self):
        result = allocate_multi_network(simple_workloads(), 4)
        assert result.slices[0].name == "LeNet"
        assert result.slices[1].name == "TinyCNN"
        assert result.slices[0].stop == result.slices[1].start
        total = sum(s.stop - s.start for s in result.slices)
        assert total == len(result.allocation.mappings)

    def test_allocation_valid(self):
        result = allocate_multi_network(simple_workloads(), 4)
        result.allocation.validate()

    def test_never_more_tiles_than_separate(self):
        result = allocate_multi_network(simple_workloads(), 4)
        assert result.occupied_tiles <= result.separate_tiles
        assert result.tiles_saved >= 0

    def test_cross_model_sharing_happens(self):
        """Same-shape strategies leave merge opportunities across models."""
        result = allocate_multi_network(simple_workloads(), 8)
        shared = result.shared_tiles()
        # With an 8-slot tile and two small nets, at least one tile should
        # host layers from both models.
        assert len(shared) >= 1

    def test_model_tiles_unknown_name_raises_key_error(self):
        result = allocate_multi_network(simple_workloads(), 4)
        with pytest.raises(KeyError, match="'ResNet'.*'LeNet', 'TinyCNN'"):
            result.model_tiles("ResNet")

    def test_model_tiles_breakdown(self):
        result = allocate_multi_network(simple_workloads(), 4)
        for sl in result.slices:
            assert 1 <= result.model_tiles(sl.name) <= result.occupied_tiles

    def test_without_sharing_no_savings(self):
        result = allocate_multi_network(
            simple_workloads(), 4, tile_shared=False
        )
        assert result.tiles_saved == 0
        assert result.shared_tiles() == ()

    def test_heterogeneous_strategies_across_models(self):
        a, b = lenet(), tiny_cnn()
        workloads = [
            (a, tuple(CrossbarShape(36, 32) for _ in a.layers)),
            (b, tuple(CrossbarShape(288, 256) for _ in b.layers)),
        ]
        result = allocate_multi_network(workloads, 4)
        result.allocation.validate()
        # Different shapes can never share a tile.
        assert result.shared_tiles() == ()

    def test_utilization_at_least_best_solo(self):
        """Packing two models together never wastes more than separately."""
        result = allocate_multi_network(simple_workloads(), 4)
        assert 0 < result.utilization <= 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 12), st.sampled_from(DEFAULT_CANDIDATES))
    def test_invariants_property(self, capacity, shape):
        result = allocate_multi_network(simple_workloads(shape), capacity)
        result.allocation.validate()
        assert result.occupied_tiles <= result.separate_tiles
        # One copy each packs like no replication at all, so a serving
        # re-pack back to all-ones reports the initial tile count.
        ones = allocate_multi_network(
            simple_workloads(shape), capacity, replication=[1, 1]
        )
        assert ones.occupied_tiles == result.occupied_tiles


PARITY_MODELS = ("lenet", "tinycnn", "alexnet")


@st.composite
def packing_inputs(draw):
    """1-3 models with per-layer strategies, a capacity and replication."""
    names = draw(st.lists(st.sampled_from(PARITY_MODELS), min_size=1, max_size=3))
    workloads = []
    for name in names:
        net = get_model(name)
        strategy = draw(
            st.lists(
                st.sampled_from(DEFAULT_CANDIDATES),
                min_size=net.num_layers,
                max_size=net.num_layers,
            )
        )
        workloads.append((net, tuple(strategy)))
    capacity = draw(st.sampled_from((2, 4, 8, 16)))
    replication = draw(
        st.lists(st.integers(1, 4), min_size=len(names), max_size=len(names))
    )
    return workloads, capacity, replication, draw(st.booleans())


class TestTileCountParity:
    """``multi_network_tile_counts`` is the materialised packing, counted."""

    @settings(max_examples=40, deadline=None)
    @given(packing_inputs())
    def test_counts_equal_materialised(self, inputs):
        workloads, capacity, replication, tile_shared = inputs
        plan = allocate_multi_network(
            workloads, capacity, tile_shared=tile_shared, replication=replication
        )
        counts = multi_network_tile_counts(
            workloads, capacity, tile_shared=tile_shared, replication=replication
        )
        assert counts == (plan.occupied_tiles, plan.separate_tiles)

    @pytest.mark.parametrize(
        "workloads,capacity,replication",
        [
            pytest.param([], 4, None, id="empty"),
            pytest.param(
                [(lenet(), (CrossbarShape(32, 32),))], 4, None,
                id="strategy-length",
            ),
            pytest.param(simple_workloads(), 4, [1], id="replication-length"),
            pytest.param(simple_workloads(), 4, [1, 0], id="replication-zero"),
            pytest.param(simple_workloads(), 0, None, id="capacity-zero"),
        ],
    )
    def test_both_paths_reject_alike(self, workloads, capacity, replication):
        errors = []
        for pack in (allocate_multi_network, multi_network_tile_counts):
            with pytest.raises(ValueError) as info:
                pack(workloads, capacity, replication=replication)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
