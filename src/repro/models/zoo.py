"""Workload zoo: the paper's three DNNs (Table 2) plus small test nets.

The structures follow paper Table 2 exactly:

* **AlexNet**  — ``C3-64, C3-192, C3-384, 2C3-256, F4096, F4096, F10``
  evaluated on MNIST.
* **VGG16**    — ``2C3-64, 2C3-128, 3C3-256, 6C3-512, F4096, F1000, F10``
  evaluated on CIFAR-10 (13 CONV + 3 FC = 16 weight layers).
* **ResNet152** — ``C7-64, 3C1-64, 8C1-128, 40C1-256, 12C1-512, 37C1-1024,
  4C1-2048, 3C3-64, 8C3-128, 36C3-256, 3C3-512, F1000`` evaluated on
  ImageNet.  We generate the standard bottleneck sequence (including the
  four projection shortcuts), which reproduces those per-type counts —
  a pinned unit test checks every count against Table 2.

Residual additions own no weights and therefore no crossbars; for mapping
purposes ResNet152 is the ordered list of its weight layers, each annotated
with the feature-map size it sees (``Network.from_layers``).
"""

from __future__ import annotations

from typing import Callable, Sequence

from .datasets import CIFAR10, IMAGENET, MNIST, DatasetSpec, get_dataset
from .graph import Network
from .layers import LayerSpec, PoolSpec, Stage


def _from_layers(
    name: str, dataset: DatasetSpec, layers: Sequence[LayerSpec]
) -> Network:
    """Build a Network from pre-sized layers without sequential chaining.

    Used for topologies with parallel branches (ResNet shortcuts) where the
    strict channel-chaining of :meth:`Network.build` does not apply.  Input
    sizes must already be set on each layer.
    """
    indexed = tuple(
        Stage(layer=layer.with_index(i)) for i, layer in enumerate(layers)
    )
    return Network(name=name, dataset=dataset, stages=indexed)


# ----------------------------------------------------------------------
# AlexNet on MNIST (Table 2 row 1)
# ----------------------------------------------------------------------
def alexnet(dataset: DatasetSpec = MNIST) -> Network:
    """AlexNet with Table 2's all-3x3 structure."""
    conv = LayerSpec.conv
    fc = LayerSpec.fc
    pool = PoolSpec("max", 2, 2)
    # Spatial flow on 28x28: 28 -> pool 14 -> pool 7 -> pool 3.  The
    # same-padding convolutions preserve size, so the flatten width is
    # the input size through three pools.
    flat = dataset.image_size
    for _ in range(3):
        flat = pool.output_size(flat)
    items = [
        conv(dataset.channels, 64, 3, padding=1, name="conv1"),
        pool,
        conv(64, 192, 3, padding=1, name="conv2"),
        pool,
        conv(192, 384, 3, padding=1, name="conv3"),
        conv(384, 256, 3, padding=1, name="conv4"),
        conv(256, 256, 3, padding=1, name="conv5"),
        pool,
        fc(256 * flat * flat, 4096, name="fc1"),
        fc(4096, 4096, name="fc2"),
        fc(4096, dataset.num_classes, name="fc3"),
    ]
    return Network.build("AlexNet", dataset, items)


# ----------------------------------------------------------------------
# VGG16 on CIFAR-10 (Table 2 row 2)
# ----------------------------------------------------------------------
def vgg16(dataset: DatasetSpec = CIFAR10) -> Network:
    """VGG16 with Table 2's classifier head (F4096, F1000, F10)."""
    conv = LayerSpec.conv
    fc = LayerSpec.fc
    pool = PoolSpec("max", 2, 2)
    cfg = [
        (2, 64),
        (2, 128),
        (3, 256),
        (3, 512),
        (3, 512),
    ]
    items: list[LayerSpec | PoolSpec] = []
    channels = dataset.channels
    block_idx = 0
    for repeats, width in cfg:
        block_idx += 1
        for r in range(repeats):
            items.append(
                conv(channels, width, 3, padding=1, name=f"conv{block_idx}_{r + 1}")
            )
            channels = width
        items.append(pool)
    # 32 -> 16 -> 8 -> 4 -> 2 -> 1 spatial, so the flatten is 512*1*1.
    final_spatial = dataset.image_size // 2 ** len(cfg)
    items.append(fc(512 * final_spatial * final_spatial, 4096, name="fc1"))
    items.append(fc(4096, 1000, name="fc2"))
    items.append(fc(1000, dataset.num_classes, name="fc3"))
    return Network.build("VGG16", dataset, items)


# ----------------------------------------------------------------------
# ResNet152 on ImageNet (Table 2 row 3)
# ----------------------------------------------------------------------
def resnet152(dataset: DatasetSpec = IMAGENET) -> Network:
    """ResNet-152 bottleneck sequence, including projection shortcuts."""
    conv = LayerSpec.conv
    layers: list[LayerSpec] = []
    size = dataset.image_size
    # Stem: C7-64 stride 2, then 3x3/2 max pool.
    stem = conv(dataset.channels, 64, 7, stride=2, padding=3, input_size=size, name="conv1")
    layers.append(stem)
    size = stem.output_size  # 112
    size = PoolSpec("max", 3, 2).output_size(size)  # 56

    stage_cfg = [
        # (blocks, bottleneck width, stage stride)
        (3, 64, 1),
        (8, 128, 2),
        (36, 256, 2),
        (3, 512, 2),
    ]
    in_ch = 64
    for stage_idx, (blocks, width, stage_stride) in enumerate(stage_cfg, start=2):
        out_ch = width * 4
        for block in range(blocks):
            stride = stage_stride if block == 0 else 1
            prefix = f"conv{stage_idx}_{block + 1}"
            layers.append(
                conv(in_ch, width, 1, input_size=size, name=f"{prefix}_a")
            )
            mid = conv(
                width, width, 3, stride=stride, padding=1, input_size=size,
                name=f"{prefix}_b",
            )
            layers.append(mid)
            post = mid.output_size
            layers.append(
                conv(width, out_ch, 1, input_size=post, name=f"{prefix}_c")
            )
            if block == 0:
                # Projection shortcut on the stage's first block.
                layers.append(
                    conv(
                        in_ch, out_ch, 1, stride=stride, input_size=size,
                        name=f"{prefix}_down",
                    )
                )
            in_ch = out_ch
            size = post
    layers.append(LayerSpec.fc(2048, dataset.num_classes, name="fc"))
    return _from_layers("ResNet152", dataset, layers)


# ----------------------------------------------------------------------
# Small networks for tests, examples, and fast searches
# ----------------------------------------------------------------------
def lenet(dataset: DatasetSpec = MNIST) -> Network:
    """A LeNet-5-style network: small enough for exhaustive-search tests."""
    conv = LayerSpec.conv
    fc = LayerSpec.fc
    pool = PoolSpec("avg", 2, 2)
    # conv1 (pad 2) preserves the input size; conv2 (no pad) shrinks by 4.
    flat = ((dataset.image_size // 2) - 4) // 2
    items = [
        conv(dataset.channels, 6, 5, padding=2, name="conv1"),
        pool,
        conv(6, 16, 5, name="conv2"),
        pool,
        fc(16 * flat * flat, 120, name="fc1"),
        fc(120, 84, name="fc2"),
        fc(84, dataset.num_classes, name="fc3"),
    ]
    return Network.build("LeNet", dataset, items)


def tiny_cnn(dataset: DatasetSpec = CIFAR10) -> Network:
    """A 4-layer CNN used by unit tests and the quickstart example."""
    conv = LayerSpec.conv
    fc = LayerSpec.fc
    pool = PoolSpec("max", 2, 2)
    items = [
        conv(dataset.channels, 16, 3, padding=1, name="conv1"),
        pool,
        conv(16, 32, 3, padding=1, name="conv2"),
        pool,
        fc(32 * (dataset.image_size // 4) ** 2, 64, name="fc1"),
        fc(64, dataset.num_classes, name="fc2"),
    ]
    return Network.build("TinyCNN", dataset, items)


def _transformer_builder(dataset: DatasetSpec | None = None) -> Network:
    """Registry adapter: the transformer workload ignores image datasets."""
    from .transformer import transformer_lm

    return transformer_lm()


_MODEL_BUILDERS: dict[str, Callable[[], Network]] = {
    "alexnet": alexnet,
    "vgg16": vgg16,
    "resnet152": resnet152,
    "lenet": lenet,
    "tinycnn": tiny_cnn,
    "transformer": _transformer_builder,
}

#: The (model, dataset) pairings evaluated in the paper (§4.1).
PAPER_WORKLOADS: tuple[tuple[str, str], ...] = (
    ("alexnet", "mnist"),
    ("vgg16", "cifar-10"),
    ("resnet152", "imagenet"),
)


def get_model(name: str, dataset: str | DatasetSpec | None = None) -> Network:
    """Look up a workload by name, optionally rebinding its dataset."""
    key = name.lower().replace("-", "").replace("_", "")
    if key not in _MODEL_BUILDERS:
        raise KeyError(f"unknown model {name!r}; known: {sorted(_MODEL_BUILDERS)}")
    builder = _MODEL_BUILDERS[key]
    if dataset is None:
        return builder()
    spec = dataset if isinstance(dataset, DatasetSpec) else get_dataset(dataset)
    return builder(spec)  # type: ignore[call-arg]


def paper_workloads() -> tuple[Network, ...]:
    """The three (model, dataset) pairs of §4.1, in paper order."""
    return tuple(get_model(m, d) for m, d in PAPER_WORKLOADS)
