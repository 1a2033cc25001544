"""System metrics: utilization, energy, area, latency, and RUE (§2.2).

The paper's headline metric is **RUE** — the Ratio of Utilization and
Energy, ``RUE = U / E`` — introduced in §2.2 to score utilization and
energy jointly.  Units follow the paper's figures: ``U`` is the crossbar
utilization in percent (Fig. 9b's axis runs 0..100) and ``E`` is the
inference energy in nanojoules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-component dynamic + static energy of one inference pass (nJ)."""

    adc: float = 0.0
    dac: float = 0.0
    crossbar: float = 0.0
    shift_add: float = 0.0
    adder_tree: float = 0.0
    buffer: float = 0.0
    bus: float = 0.0
    pooling: float = 0.0
    leakage: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.adc
            + self.dac
            + self.crossbar
            + self.shift_add
            + self.adder_tree
            + self.buffer
            + self.bus
            + self.pooling
            + self.leakage
        )

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            adc=self.adc + other.adc,
            dac=self.dac + other.dac,
            crossbar=self.crossbar + other.crossbar,
            shift_add=self.shift_add + other.shift_add,
            adder_tree=self.adder_tree + other.adder_tree,
            buffer=self.buffer + other.buffer,
            bus=self.bus + other.bus,
            pooling=self.pooling + other.pooling,
            leakage=self.leakage + other.leakage,
        )

    def scaled(self, factor: float) -> "EnergyBreakdown":
        return EnergyBreakdown(
            **{k: getattr(self, k) * factor for k in self.__dataclass_fields__}
        )


@dataclass(frozen=True)
class LayerCost:
    """Per-layer simulation outputs."""

    layer_index: int
    shape_str: str
    mvm_ops: int
    num_crossbars: int
    adc_conversions: int      #: total ADC conversions over the full pass
    dac_conversions: int      #: total DAC conversions over the full pass
    energy: EnergyBreakdown   #: layer energy, nJ
    latency_ns: float         #: layer latency contribution, ns
    intra_utilization: float  #: Eq. 4 utilization of this layer's array


class Deferred:
    """A float field that may be given as a computation run on first read.

    The field's value is a float or a zero-argument callable returning
    one.  The first read calls the callable and keeps the float in its
    place, so every reader sees the float: attribute access, and through
    it ``==``, ``hash``, ``repr``, ``dataclasses.replace`` and
    ``dataclasses.asdict``.  There is no class-level default, so the
    dataclass treats the field as required.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: object | None, objtype: type | None = None) -> float:
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if callable(value):
            # Two threads reading at once both compute the same float;
            # the lost write is benign.
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj: object, value: float | Callable[[], float]) -> None:
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class SystemMetrics:
    """Whole-system feedback for one (network, strategy) evaluation.

    This is the "direct hardware feedback" of Fig. 6 that drives the RL
    reward, and the record each benchmark prints.

    :attr:`area_um2` is :class:`Deferred`.  The batch scorer passes a
    computation (:func:`repro.sim.kernels.strategy_area_um2`), because
    no search reads area and its one-addition-per-tile fold is the
    largest single cost of scoring a ResNet152 strategy.  The reference
    path passes the float.  Every read gives the same bits either way,
    and a pickle or copy holds the float, never the computation or the
    network it reads.
    """

    network_name: str
    strategy: tuple[str, ...]          #: crossbar shape per layer, as strings
    utilization: float                 #: overall crossbar utilization, [0, 1]
    energy_nj: float                   #: inference energy, nJ
    latency_ns: float                  #: inference latency, ns
    area_um2: Deferred = Deferred()    #: accelerator area, um^2
    occupied_tiles: int
    occupied_crossbars: int            #: logical crossbars holding weights
    empty_crossbars: int               #: empty slots inside occupied tiles
    tile_shared: bool
    energy_breakdown: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    layer_costs: tuple[LayerCost, ...] = ()

    def __getstate__(self) -> dict[str, object]:
        return {**self.__dict__, "area_um2": self.area_um2}

    @property
    def utilization_percent(self) -> float:
        return self.utilization * 100.0

    @property
    def rue(self) -> float:
        """Ratio of Utilization (percent) to Energy (nJ) — the §2.2 metric."""
        return self.utilization_percent / self.energy_nj if self.energy_nj else 0.0

    @property
    def reward(self) -> float:
        """The RL reward ``R = u / e`` (Eq. 2).

        Uses the [0, 1] utilization fraction so that, as §3.2 notes, the
        energy magnitude dominates and the reward lands in [0, 1].
        """
        return self.utilization / self.energy_nj if self.energy_nj else 0.0

    def summary(self) -> str:
        return (
            f"{self.network_name}: U={self.utilization_percent:.1f}% "
            f"E={self.energy_nj:.3e} nJ  RUE={self.rue:.3e}  "
            f"A={self.area_um2:.3e} um^2  T={self.latency_ns:.3e} ns  "
            f"tiles={self.occupied_tiles}"
        )
