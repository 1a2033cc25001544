"""Unit tests for the Network container."""

import dataclasses
import pickle

import pytest

from repro.models import CIFAR10, MNIST, Network
from repro.models.layers import LayerSpec, PoolSpec


def build_small():
    return Network.build(
        "small",
        CIFAR10,
        [
            LayerSpec.conv(3, 8, 3, padding=1, name="c1"),
            PoolSpec("max", 2, 2),
            LayerSpec.conv(8, 16, 3, padding=1, name="c2"),
            PoolSpec("max", 2, 2),
            LayerSpec.fc(16 * 8 * 8, 10, name="f1"),
        ],
    )


class TestBuild:
    def test_layer_count_excludes_pools(self):
        assert build_small().num_layers == 3

    def test_input_size_propagation(self):
        net = build_small()
        assert net.layers[0].input_size == 32
        assert net.layers[1].input_size == 16

    def test_indices_assigned_in_order(self):
        net = build_small()
        assert [l.index for l in net.layers] == [0, 1, 2]

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="input channels"):
            Network.build(
                "bad", CIFAR10, [LayerSpec.conv(4, 8, 3)]
            )

    def test_fc_flatten_mismatch_rejected(self):
        with pytest.raises(ValueError, match="FC layer"):
            Network.build(
                "bad",
                CIFAR10,
                [
                    LayerSpec.conv(3, 8, 3, padding=1),
                    LayerSpec.fc(999, 10),
                ],
            )

    def test_fc_accepts_channel_count_form(self):
        # An FC taking just the channel count (post global pooling to 1x1).
        net = Network.build(
            "net",
            MNIST,
            [
                LayerSpec.conv(1, 8, 3, padding=1),
                PoolSpec("avg", 28, 28),
                LayerSpec.fc(8, 10),
            ],
        )
        assert net.num_layers == 2

    def test_rejects_unknown_stage_type(self):
        with pytest.raises(TypeError):
            Network.build("bad", CIFAR10, ["not-a-layer"])  # type: ignore[list-item]


class TestAccessors:
    def test_total_weights(self):
        net = build_small()
        expected = 3 * 8 * 9 + 8 * 16 * 9 + 16 * 64 * 10
        assert net.total_weights == expected

    def test_total_macs_positive(self):
        assert build_small().total_macs > build_small().total_weights

    def test_conv_and_fc_partition(self):
        net = build_small()
        assert len(net.conv_layers()) == 2
        assert len(net.fc_layers()) == 1
        assert len(net.conv_layers()) + len(net.fc_layers()) == net.num_layers

    def test_pool_after(self):
        net = build_small()
        assert net.pool_after(0) is not None
        assert net.pool_after(2) is None

    def test_pool_after_out_of_range(self):
        with pytest.raises(IndexError):
            build_small().pool_after(99)

    def test_iteration_and_len(self):
        net = build_small()
        assert len(net) == 3
        assert [l.name for l in net] == ["c1", "c2", "f1"]

    def test_describe_lists_all_layers(self):
        text = build_small().describe()
        assert "L  1" in text and "L  3" in text
        assert "small" in text


class TestLayersStash:
    """``layers`` is built once at construction; identity stays field-only."""

    def test_repeat_calls_return_the_same_tuple(self):
        net = build_small()
        assert net.layers is net.layers
        assert net.layers == tuple(s.layer for s in net.stages if s.layer is not None)
        assert net.num_layers == len(net.layers) == 3

    def test_hash_and_eq_cover_fields_only(self):
        a, b = build_small(), build_small()
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.name, a.dataset, a.stages))
        assert a != dataclasses.replace(a, name="other")

    def test_fields_and_repr_carry_no_stash(self):
        net = build_small()
        assert [f.name for f in dataclasses.fields(net)] == ["name", "dataset", "stages"]
        assert "_layers" not in repr(net)

    def test_reduce_carries_fields_only(self):
        net = build_small()
        assert net.__reduce__() == (Network, (net.name, net.dataset, net.stages))
        assert b"_layers" not in pickle.dumps(net)

    def test_pickle_round_trip(self):
        net = build_small()
        copy = pickle.loads(pickle.dumps(net))
        assert copy == net and hash(copy) == hash(net)
        assert copy.layers == net.layers
        assert copy.layers is copy.layers  # the copy builds its own stash
