"""ReRAM device non-ideality models (extension beyond the paper).

The paper assumes ideal cells; real ReRAM suffers conductance variation
and stuck-at faults, and several of its citations ([24], [7]) motivate
variability-aware control.  This module injects the two standard fault
models into a functional layer engine so the accuracy impact of crossbar
choice can be studied:

* **Conductance variation** — each programmed cell's effective value is
  perturbed with lognormal multiplicative noise; on binary cells this is
  realised as a probability of reading the wrong level, derived from the
  noise magnitude.
* **Stuck-at faults** — a fraction of cells is stuck at LRS (reads 1) or
  HRS (reads 0) regardless of the programmed value.

Both models perturb the *cell planes* of a
:class:`~repro.sim.functional.FunctionalLayerEngine` in place, which keeps
the downstream bit-serial pipeline unchanged — faults propagate through
ADC, shift-add, and offset decoding exactly as they would in hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functional import FunctionalLayerEngine


@dataclass(frozen=True)
class VariationModel:
    """Fault-injection parameters."""

    #: std-dev of the lognormal conductance perturbation (sigma of ln G);
    #: a binary cell flips when its perturbed level crosses the sensing
    #: threshold, i.e. with probability P(|N(0, sigma)| > ln 2).
    conductance_sigma: float = 0.0
    #: fraction of cells stuck at LRS (always conduct, read as 1)
    stuck_at_on: float = 0.0
    #: fraction of cells stuck at HRS (never conduct, read as 0)
    stuck_at_off: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.conductance_sigma < 0:
            raise ValueError("conductance_sigma must be non-negative")
        for frac in (self.stuck_at_on, self.stuck_at_off):
            if not 0.0 <= frac <= 1.0:
                raise ValueError("stuck-at fractions must be in [0, 1]")
        if self.stuck_at_on + self.stuck_at_off > 1.0:
            raise ValueError("stuck-at fractions must sum to at most 1")

    @property
    def flip_probability(self) -> float:
        """Probability a 1-bit cell reads the wrong level under variation."""
        if self.conductance_sigma == 0.0:  # exactly 0.0 disables variation
            return 0.0
        from math import erf, log, sqrt

        z = log(2.0) / self.conductance_sigma
        return 1.0 - erf(z / sqrt(2.0))

    @property
    def is_ideal(self) -> bool:
        # Exactly 0.0 is each parameter's "disabled" value.
        return (
            self.conductance_sigma == 0.0
            and self.stuck_at_on == 0.0
            and self.stuck_at_off == 0.0
        )


def inject_faults(
    engine: FunctionalLayerEngine, model: VariationModel
) -> dict[str, int]:
    """Perturb an engine's programmed cell planes per the fault model.

    Returns counts of the injected fault events.  Idempotent only in the
    sense of applying to the *current* cell state; build a fresh engine to
    re-inject with different parameters.
    """
    if model.is_ideal:
        return {"flipped": 0, "stuck_on": 0, "stuck_off": 0}
    rng = np.random.default_rng(model.seed)
    cells = engine._cells  # (wbits, rg, rows, cout) binary planes
    flipped = stuck_on = stuck_off = 0

    p_flip = model.flip_probability
    if p_flip > 0.0:
        mask = rng.random(cells.shape) < p_flip
        flipped = int(mask.sum())
        cells[mask] ^= 1

    if model.stuck_at_on > 0.0 or model.stuck_at_off > 0.0:
        r = rng.random(cells.shape)
        on_mask = r < model.stuck_at_on
        off_mask = (r >= model.stuck_at_on) & (
            r < model.stuck_at_on + model.stuck_at_off
        )
        stuck_on = int((on_mask & (cells == 0)).sum())
        stuck_off = int((off_mask & (cells == 1)).sum())
        cells[on_mask] = 1
        cells[off_mask] = 0
    return {"flipped": flipped, "stuck_on": stuck_on, "stuck_off": stuck_off}


def relative_output_error(
    engine: FunctionalLayerEngine,
    reference_wq: np.ndarray,
    x_q: np.ndarray,
) -> float:
    """RMS error of the (possibly faulty) engine vs the exact product,
    normalised by the RMS of the exact product."""
    exact = np.atleast_2d(x_q) @ np.asarray(reference_wq, dtype=np.int64)
    actual = engine.mvm_batch(np.atleast_2d(x_q))
    denom = float(np.sqrt(np.mean(exact.astype(np.float64) ** 2))) or 1.0
    return float(np.sqrt(np.mean((actual - exact).astype(np.float64) ** 2))) / denom
