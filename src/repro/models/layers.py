"""Layer specifications for DNN workloads.

The AutoHet search (paper §3.2) never looks at weight *values*; every
decision is a function of layer *shapes*.  ``LayerSpec`` therefore captures
exactly the static features that feed the RL state vector (paper Table 1):

====  ========  =====================================================
No.   Symbol    Meaning
====  ========  =====================================================
1     ``k``     layer index (assigned by the network container)
2     ``t``     layer type: CONV -> 1, FC -> 0
3     ``inc``   number of channels in the input feature map
4     ``outc``  number of channels produced by the layer
5     ``ks``    number of elements of a convolution kernel (k*k)
6     ``s``     stride of the convolution
7     ``w``     number of weights in the layer
8     ``ins``   linear size of the (square) input feature map
====  ========  =====================================================

Fully-connected layers are treated as a special case of convolution with
``kernel_size == 1`` and ``stride == 1`` whose "channels" are the neuron
counts — exactly the convention of §3.2 ("we consider the FC layer as a
special kind of CONV layer").
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace


class LayerType(enum.Enum):
    """The two weight-bearing layer kinds the paper maps onto crossbars."""

    CONV = "conv"
    FC = "fc"

    @property
    def state_code(self) -> int:
        """Numeric code used in the RL state vector (CONV: 1, FC: 0)."""
        return 1 if self is LayerType.CONV else 0


@dataclass(frozen=True)
class LayerSpec:
    """Shape description of one weight-bearing DNN layer.

    Parameters
    ----------
    layer_type:
        ``LayerType.CONV`` or ``LayerType.FC``.
    in_channels:
        Input channels (``Cin``); for FC layers the number of input neurons.
    out_channels:
        Output channels (``Cout``); for FC layers the number of output
        neurons.
    kernel_size:
        Side length of the (square) convolution kernel.  Forced to 1 for FC
        layers.
    stride:
        Convolution stride.  Forced to 1 for FC layers.
    padding:
        Spatial zero padding applied on each border before convolving.
    input_size:
        Side length of the (square) input feature map this layer sees when
        run on its dataset.  ``1`` for FC layers.
    name:
        Optional human-readable name (e.g. ``"conv3_2"``).
    index:
        Position of the layer within its network (``k`` in Table 1);
        assigned by :class:`~repro.models.graph.Network`.
    """

    layer_type: LayerType
    in_channels: int
    out_channels: int
    kernel_size: int = 1
    stride: int = 1
    padding: int = 0
    input_size: int = 1
    name: str = ""
    index: int = 0

    def __post_init__(self) -> None:
        if self.in_channels <= 0 or self.out_channels <= 0:
            raise ValueError(
                f"channel counts must be positive, got "
                f"in={self.in_channels}, out={self.out_channels}"
            )
        if self.kernel_size <= 0:
            raise ValueError(f"kernel_size must be positive, got {self.kernel_size}")
        if self.stride <= 0:
            raise ValueError(f"stride must be positive, got {self.stride}")
        if self.padding < 0:
            raise ValueError(f"padding must be non-negative, got {self.padding}")
        if self.input_size <= 0:
            raise ValueError(f"input_size must be positive, got {self.input_size}")
        if self.layer_type is LayerType.FC:
            if self.kernel_size != 1 or self.stride != 1:
                raise ValueError("FC layers must have kernel_size == stride == 1")

    # ------------------------------------------------------------------
    # Derived shape quantities
    # ------------------------------------------------------------------
    @property
    def kernel_elems(self) -> int:
        """``ks`` in Table 1: elements of one 2-D kernel slice (k*k)."""
        return self.kernel_size * self.kernel_size

    @property
    def weight_count(self) -> int:
        """``w`` in Table 1: total scalar weights in the layer."""
        return self.in_channels * self.out_channels * self.kernel_elems

    @property
    def weight_matrix_shape(self) -> tuple[int, int]:
        """Shape of the unfolded weight matrix mapped onto crossbars.

        Per Fig. 7 the layer unfolds to ``Cin * k^2`` rows by ``Cout``
        columns: each kernel becomes one column.
        """
        return (self.in_channels * self.kernel_elems, self.out_channels)

    @property
    def output_size(self) -> int:
        """Side length of the (square) output feature map."""
        if self.layer_type is LayerType.FC:
            return 1
        out = (self.input_size + 2 * self.padding - self.kernel_size) // self.stride + 1
        return max(out, 1)

    @property
    def mvm_ops(self) -> int:
        """Matrix-vector multiplications needed for one inference pass.

        One MVM per output spatial position for CONV layers; a single MVM
        for FC layers.  This count scales the per-layer dynamic energy and
        latency in :mod:`repro.sim`.
        """
        if self.layer_type is LayerType.FC:
            return 1
        return self.output_size * self.output_size

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations for one inference pass."""
        return self.mvm_ops * self.weight_count

    # ------------------------------------------------------------------
    # Constructors and transforms
    # ------------------------------------------------------------------
    @staticmethod
    def conv(
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: int = 0,
        input_size: int = 1,
        name: str = "",
    ) -> "LayerSpec":
        """Build a convolutional layer spec."""
        return LayerSpec(
            LayerType.CONV,
            in_channels,
            out_channels,
            kernel_size=kernel_size,
            stride=stride,
            padding=padding,
            input_size=input_size,
            name=name,
        )

    @staticmethod
    def fc(in_features: int, out_features: int, *, name: str = "") -> "LayerSpec":
        """Build a fully-connected layer spec (k = s = 1 per §3.2)."""
        return LayerSpec(
            LayerType.FC,
            in_features,
            out_features,
            kernel_size=1,
            stride=1,
            padding=0,
            input_size=1,
            name=name,
        )

    def with_index(self, index: int) -> "LayerSpec":
        """Return a copy carrying its position within the network."""
        return replace(self, index=index)

    def with_input_size(self, input_size: int) -> "LayerSpec":
        """Return a copy seeing a different input feature-map size."""
        if self.layer_type is LayerType.FC:
            return self
        return replace(self, input_size=input_size)

    def state_features(self) -> tuple[int, int, int, int, int, int, int, int]:
        """The eight *static* Table-1 features ``(k, t, inc, outc, ks, s, w, ins)``."""
        return (
            self.index,
            self.layer_type.state_code,
            self.in_channels,
            self.out_channels,
            self.kernel_elems,
            self.stride,
            self.weight_count,
            self.input_size,
        )

    def describe(self) -> str:
        """One-line human-readable summary, e.g. ``C3-64 @32 (s1)``."""
        if self.layer_type is LayerType.FC:
            return f"F{self.out_channels} (in {self.in_channels})"
        return (
            f"C{self.kernel_size}-{self.out_channels} "
            f"(in {self.in_channels}, s{self.stride}, p{self.padding}, @{self.input_size})"
        )


@dataclass(frozen=True)
class PoolSpec:
    """A pooling stage between weight-bearing layers.

    Pooling layers own no weights and occupy no crossbars; they exist so
    the network container can propagate feature-map sizes correctly and so
    the latency/energy models can charge the pooling module (Fig. 1).
    """

    kind: str = "max"  # "max" or "avg"
    window: int = 2
    stride: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("max", "avg"):
            raise ValueError(f"pool kind must be 'max' or 'avg', got {self.kind!r}")
        if self.window <= 0 or self.stride <= 0:
            raise ValueError("pool window and stride must be positive")

    def output_size(self, input_size: int) -> int:
        """Feature-map side length after pooling."""
        return max(math.ceil((input_size - self.window + 1) / self.stride), 1)


@dataclass(frozen=True)
class Stage:
    """One step of a sequential network: a weight layer or a pooling op."""

    layer: LayerSpec | None = None
    pool: PoolSpec | None = None

    def __post_init__(self) -> None:
        if (self.layer is None) == (self.pool is None):
            raise ValueError("a Stage holds exactly one of layer / pool")
