"""Behavioral ReRAM accelerator simulator (the MNSIM-role substrate)."""

from .area import (
    allocation_area_um2,
    crossbar_slot_area_um2,
    tile_area_um2,
)
from .cache import CacheStats, EvaluationCache, config_fingerprint, network_fingerprint
from .kernels import (
    MappingBatch,
    NetworkArrays,
    score_strategy_batch,
)
from .energy import (
    layer_adc_conversions,
    layer_dac_conversions,
    layer_dynamic_energy,
    leakage_energy,
    pooling_energy,
)
from .latency import layer_latency_ns, mvm_latency_ns, pooling_latency_ns
from .metrics import EnergyBreakdown, LayerCost, SystemMetrics
from .simulator import CapacityError, Simulator, Strategy

__all__ = [
    "allocation_area_um2",
    "crossbar_slot_area_um2",
    "tile_area_um2",
    "CacheStats",
    "EvaluationCache",
    "config_fingerprint",
    "network_fingerprint",
    "MappingBatch",
    "NetworkArrays",
    "score_strategy_batch",
    "layer_adc_conversions",
    "layer_dac_conversions",
    "layer_dynamic_energy",
    "leakage_energy",
    "pooling_energy",
    "layer_latency_ns",
    "mvm_latency_ns",
    "pooling_latency_ns",
    "EnergyBreakdown",
    "LayerCost",
    "SystemMetrics",
    "CapacityError",
    "Simulator",
    "Strategy",
]
