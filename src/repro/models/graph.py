"""Sequential network container.

A :class:`Network` is an ordered list of stages (weight layers and pooling
ops) plus a dataset descriptor.  On construction it propagates feature-map
sizes through the pipeline — so each :class:`~repro.models.layers.LayerSpec`
knows the ``ins`` it will see at inference time — and assigns layer indices.

Only the weight-bearing layers (``network.layers``) participate in crossbar
mapping and the RL search; pooling stages matter to the latency/energy
models and to feature-map-size propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .datasets import DatasetSpec
from .layers import LayerSpec, LayerType, PoolSpec, Stage


@dataclass(frozen=True)
class Network:
    """An immutable sequential DNN description bound to a dataset."""

    name: str
    dataset: DatasetSpec
    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        # The generated hash re-walks every stage and layer spec on each
        # call (~150 µs on ResNet152); hash once, as CrossbarShape does.
        object.__setattr__(self, "_hash", hash((self.name, self.dataset, self.stages)))
        # ``layers`` is read per RL step and per evaluation; build it once.
        object.__setattr__(
            self, "_layers", tuple(s.layer for s in self.stages if s.layer is not None)
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        # Fields only: ``_hash`` folds per-process ``str`` hashes, the
        # simulator's per-instance memo must not ride along, and
        # ``_layers`` is rebuilt from ``stages``.
        return (Network, (self.name, self.dataset, self.stages))

    @staticmethod
    def build(
        name: str,
        dataset: DatasetSpec,
        items: Sequence[LayerSpec | PoolSpec],
    ) -> "Network":
        """Assemble a network, propagating input sizes and indices.

        ``items`` alternates freely between :class:`LayerSpec` (shape
        placeholders — their ``input_size`` is overwritten here) and
        :class:`PoolSpec`.  The first layer's input size comes from the
        dataset; each CONV output feeds the next stage; the first FC layer
        flattens whatever spatial extent remains.
        """
        stages: list[Stage] = []
        size = dataset.image_size
        channels = dataset.channels
        index = 0
        for item in items:
            if isinstance(item, PoolSpec):
                size = item.output_size(size)
                stages.append(Stage(pool=item))
                continue
            if not isinstance(item, LayerSpec):
                raise TypeError(f"unsupported stage item: {item!r}")
            layer = item
            if layer.layer_type is LayerType.CONV:
                if layer.in_channels != channels:
                    raise ValueError(
                        f"layer {index} ({layer.name or layer.describe()}) expects "
                        f"{layer.in_channels} input channels but the pipeline "
                        f"provides {channels}"
                    )
                layer = layer.with_input_size(size).with_index(index)
                size = layer.output_size
                channels = layer.out_channels
            else:
                flat = channels * size * size
                if layer.in_channels not in (flat, channels):
                    raise ValueError(
                        f"FC layer {index} expects {layer.in_channels} inputs but "
                        f"the pipeline provides {flat} (= {channels}x{size}x{size})"
                    )
                layer = layer.with_index(index)
                size = 1
                channels = layer.out_channels
            stages.append(Stage(layer=layer))
            index += 1
        return Network(name=name, dataset=dataset, stages=tuple(stages))

    # ------------------------------------------------------------------
    @property
    def layers(self) -> tuple[LayerSpec, ...]:
        """The weight-bearing layers, in execution order."""
        return self._layers  # type: ignore[attr-defined]

    @property
    def num_layers(self) -> int:
        return len(self._layers)  # type: ignore[attr-defined]

    @property
    def total_weights(self) -> int:
        """Total scalar weight count across all layers."""
        return sum(layer.weight_count for layer in self.layers)

    @property
    def total_macs(self) -> int:
        """Total MAC operations for one inference pass."""
        return sum(layer.macs for layer in self.layers)

    def conv_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.layers if l.layer_type is LayerType.CONV)

    def fc_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.layers if l.layer_type is LayerType.FC)

    def pool_after(self, layer_index: int) -> PoolSpec | None:
        """The pooling stage immediately following weight layer ``layer_index``."""
        seen = -1
        for pos, stage in enumerate(self.stages):
            if stage.layer is not None:
                seen += 1
                if seen == layer_index:
                    if pos + 1 < len(self.stages) and self.stages[pos + 1].pool is not None:
                        return self.stages[pos + 1].pool
                    return None
        raise IndexError(f"layer index {layer_index} out of range")

    def pool_after_or_none(self, layer_index: int) -> PoolSpec | None:
        """:meth:`pool_after`, but ``None`` for an out-of-range index.

        The single source of truth for "does a pooling stage follow this
        layer?" used by every cost model (``repro.sim.energy`` /
        ``latency`` / ``kernels``) and the controller walk — cost rollups
        iterate candidate indices and must not treat a trailing layer as
        an error.
        """
        try:
            return self.pool_after(layer_index)
        except IndexError:
            return None

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.layers)

    def __len__(self) -> int:
        return self.num_layers

    def describe(self) -> str:
        """Multi-line structural summary (Table-2 style)."""
        lines = [f"{self.name} on {self.dataset.name} ({self.num_layers} weight layers)"]
        for layer in self.layers:
            lines.append(f"  L{layer.index + 1:>3}: {layer.describe()}")
        return "\n".join(lines)
