"""Fixture simulator whose evaluation breaks every part of the contract.

``undocumented_knob`` is absent from
``repro.sim.cache.FINGERPRINTED_FIELDS["HardwareConfig"]`` — reading it
inside ``evaluate`` is the canonical CAC001 finding.  The ``random``
call is a CAC003 sink: no cache key can cover it.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class HardwareConfig:
    weight_bits: int
    undocumented_knob: int


@dataclass
class Simulator:
    config: HardwareConfig

    def evaluate(self, scale: int) -> float:
        import random

        # Both findings below change the result without changing the key.
        noisy = self.config.weight_bits + random.random()
        return noisy * self.config.undocumented_knob * scale

    def try_evaluate(self, scale: int) -> float:
        return self.evaluate(scale)
