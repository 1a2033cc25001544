"""The zoo must reproduce paper Table 2 exactly."""

from collections import Counter

import pytest

from repro.models import (
    MNIST,
    alexnet,
    get_model,
    lenet,
    paper_workloads,
    resnet152,
    tiny_cnn,
    vgg16,
)
from repro.models.layers import LayerType


def conv_histogram(net):
    counts = Counter()
    for layer in net.layers:
        if layer.layer_type is LayerType.CONV:
            counts[(layer.kernel_size, layer.out_channels)] += 1
    return counts


class TestAlexNet:
    """Table 2: C3-64, C3-192, C3-384, 2C3-256, F4096, F4096, F10."""

    def test_structure(self):
        net = alexnet()
        convs = [(l.kernel_size, l.out_channels) for l in net.conv_layers()]
        assert convs == [(3, 64), (3, 192), (3, 384), (3, 256), (3, 256)]
        fcs = [l.out_channels for l in net.fc_layers()]
        assert fcs == [4096, 4096, 10]

    def test_dataset_is_mnist(self):
        assert alexnet().dataset.name == "MNIST"

    def test_layer_count(self):
        assert alexnet().num_layers == 8


class TestVGG16:
    """Table 2: 2C3-64, 2C3-128, 3C3-256, 6C3-512, F4096, F1000, F10."""

    def test_conv_structure(self):
        hist = conv_histogram(vgg16())
        assert hist[(3, 64)] == 2
        assert hist[(3, 128)] == 2
        assert hist[(3, 256)] == 3
        assert hist[(3, 512)] == 6

    def test_fc_structure(self):
        fcs = [l.out_channels for l in vgg16().fc_layers()]
        assert fcs == [4096, 1000, 10]

    def test_sixteen_weight_layers(self):
        assert vgg16().num_layers == 16

    def test_dataset_is_cifar10(self):
        assert vgg16().dataset.name == "CIFAR-10"

    def test_spatial_flow(self):
        net = vgg16()
        sizes = [l.input_size for l in net.conv_layers()]
        assert sizes == [32, 32, 16, 16, 8, 8, 8, 4, 4, 4, 2, 2, 2]


class TestResNet152:
    """Table 2: C7-64, 3C1-64, 8C1-128, 40C1-256, 12C1-512, 37C1-1024,
    4C1-2048, 3C3-64, 8C3-128, 36C3-256, 3C3-512, F1000."""

    EXPECTED = {
        (7, 64): 1,
        (1, 64): 3,
        (1, 128): 8,
        (1, 256): 40,
        (1, 512): 12,
        (1, 1024): 37,
        (1, 2048): 4,
        (3, 64): 3,
        (3, 128): 8,
        (3, 256): 36,
        (3, 512): 3,
    }

    def test_conv_histogram_matches_table2(self):
        assert dict(conv_histogram(resnet152())) == self.EXPECTED

    def test_single_fc_1000(self):
        fcs = resnet152().fc_layers()
        assert len(fcs) == 1 and fcs[0].out_channels == 1000

    def test_dataset_is_imagenet(self):
        assert resnet152().dataset.name == "ImageNet"

    def test_stem_sees_224(self):
        assert resnet152().layers[0].input_size == 224

    def test_final_stage_at_7x7(self):
        convs = [
            l for l in resnet152().conv_layers()
            if l.out_channels == 2048 and l.name.endswith("_c")
        ]
        assert len(convs) == 3
        assert all(l.input_size == 7 for l in convs)


class TestSmallNets:
    def test_lenet_structure(self):
        net = lenet()
        assert net.num_layers == 5
        assert [l.out_channels for l in net.fc_layers()] == [120, 84, 10]

    def test_tiny_cnn(self):
        net = tiny_cnn()
        assert net.num_layers == 4


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["alexnet", "vgg16", "VGG16", "resnet152", "ResNet-152", "lenet"]
    )
    def test_lookup_variants(self, name):
        assert get_model(name).num_layers > 0

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model("googlenet")

    def test_dataset_rebinding(self):
        net = get_model("lenet", "cifar-10")
        assert net.dataset.name == "CIFAR-10"
        assert net.layers[0].in_channels == 3

    def test_paper_workloads_pairing(self):
        nets = paper_workloads()
        assert [(n.name, n.dataset.name) for n in nets] == [
            ("AlexNet", "MNIST"),
            ("VGG16", "CIFAR-10"),
            ("ResNet152", "ImageNet"),
        ]
