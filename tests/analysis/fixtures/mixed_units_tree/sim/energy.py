"""A toy cost model with one dimensional bug (UNI001).

``bad_total_cost`` adds nanojoules to nanoseconds; the ``ok_*``
functions compute with the units kept straight.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FanConfig:
    """A fan's per-spin energy and latency, and a dimensionless gain."""

    energy_fan_nj: float = 0.5
    latency_spin_ns: float = 12.0
    gain_fraction: float = 1.25


def ok_spin_energy_nj(config: FanConfig, spins: int) -> float:
    """A count scales any dimension: nJ per spin times spins is nJ."""
    return spins * config.energy_fan_nj


def ok_total_latency_ns(config: FanConfig, spins: int) -> float:
    """A literal accumulator takes the unit of what it accumulates, and
    comparing two latencies is dimensionally sound."""
    total = 0.0
    for _ in range(spins):
        total += config.latency_spin_ns
    if total < config.latency_spin_ns:
        return config.latency_spin_ns
    return total


def bad_total_cost(config: FanConfig) -> float:
    """UNI001: adds nanojoules to nanoseconds."""
    return config.energy_fan_nj + config.latency_spin_ns


def ok_total_energy_nj(config: FanConfig) -> float:
    """Negative twin: a pure-energy sum, scaled by a dimensionless gain."""
    return config.energy_fan_nj + config.energy_fan_nj * config.gain_fraction
