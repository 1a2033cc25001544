"""Stateful (model-based) property tests for the mutable hardware objects.

Hypothesis drives random operation sequences against the crossbar and the
tile, checking that bookkeeping invariants hold after every step — the
kind of bug ordinary example-based tests miss (double-programming windows,
erase/reprogram interleavings, capacity accounting drift).
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.arch.config import CrossbarShape
from repro.arch.crossbar import Crossbar
from repro.core.allocation.tiles import Tile

ROWS, COLS = 12, 6


class CrossbarMachine(RuleBasedStateMachine):
    """Program / evaluate / erase against a shadow NumPy model."""

    def __init__(self):
        super().__init__()
        self.xbar = Crossbar(CrossbarShape(ROWS, COLS))
        self.shadow = np.zeros((ROWS, COLS), dtype=np.int64)
        self.used = np.zeros((ROWS, COLS), dtype=bool)

    @rule(
        row=st.integers(0, ROWS - 1),
        col=st.integers(0, COLS - 1),
        length=st.integers(1, ROWS),
        seed=st.integers(0, 2**16),
    )
    def program_segment(self, row, col, length, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=length)
        end = row + length
        if end > ROWS or self.used[row:end, col].any():
            try:
                self.xbar.program(row, col, bits)
                raise AssertionError("expected rejection")
            except (ValueError, IndexError):
                return
        else:
            self.xbar.program(row, col, bits)
            self.shadow[row:end, col] = bits
            self.used[row:end, col] = True

    @rule(seed=st.integers(0, 2**16))
    def evaluate(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.integers(0, 2, size=ROWS)
        assert np.array_equal(self.xbar.mvm(v), v @ self.shadow)

    @rule()
    def erase(self):
        self.xbar.erase()
        self.shadow[:] = 0
        self.used[:] = False

    @invariant()
    def cells_match_shadow(self):
        assert np.array_equal(np.asarray(self.xbar.cells), self.shadow)

    @invariant()
    def used_mask_matches(self):
        assert np.array_equal(np.asarray(self.xbar.used_mask), self.used)

    @invariant()
    def counts_consistent(self):
        assert self.xbar.used_cells == int(self.used.sum())
        assert self.xbar.used_rows == int(self.used.any(axis=1).sum())
        assert self.xbar.used_cols == int(self.used.any(axis=0).sum())


class TileMachine(RuleBasedStateMachine):
    """Add / release occupants against shadow accounting."""

    CAPACITY = 6

    def __init__(self):
        super().__init__()
        self.tile = Tile(0, CrossbarShape(8, 8), self.CAPACITY)
        self.shadow: dict[int, int] = {}

    @rule(layer=st.integers(0, 4), count=st.integers(1, 6))
    def add(self, layer, count):
        free = self.CAPACITY - sum(self.shadow.values())
        if count > free:
            try:
                self.tile.add(layer, count)
                raise AssertionError("expected capacity rejection")
            except ValueError:
                return
        else:
            self.tile.add(layer, count)
            self.shadow[layer] = self.shadow.get(layer, 0) + count

    @rule(layer=st.integers(0, 4))
    def remove_layer(self, layer):
        # Simulate the tile-shared remap taking a layer's blocks away.
        if layer in self.shadow:
            del self.tile.occupants[layer]
            del self.shadow[layer]

    @invariant()
    def occupancy_consistent(self):
        assert self.tile.occupants == self.shadow
        assert self.tile.occupied == sum(self.shadow.values())
        assert self.tile.empty == self.CAPACITY - self.tile.occupied
        assert self.tile.occupied <= self.CAPACITY

    @invariant()
    def layers_sorted_unique(self):
        layers = self.tile.layers
        assert list(layers) == sorted(set(self.shadow))


TestCrossbarStateMachine = CrossbarMachine.TestCase
TestCrossbarStateMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestTileStateMachine = TileMachine.TestCase
TestTileStateMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
