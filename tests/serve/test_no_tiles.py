"""Serving never materialises a tile plan.

The engine and the drift policy read two integers per packing (occupied
and separate tiles), so every re-pack goes through
:func:`repro.core.allocation.multi_network_tile_counts`.  With tile and
plan construction made to fail, the reference scenario must still run
to completion and still re-allocate.
"""

import pytest

from repro.core.allocation.tiles import Allocation, Tile
from repro.serve import simulate, two_tenant_scenario


def test_serving_run_builds_no_tile_or_allocation(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"serving built a {type(self).__name__}")

    monkeypatch.setattr(Tile, "__init__", forbidden)
    monkeypatch.setattr(Allocation, "__init__", forbidden)
    with pytest.raises(AssertionError, match="built a Tile"):
        Tile(tile_id=0, shape=None, capacity=1)

    result = simulate(two_tenant_scenario())
    assert len(result.realloc_events) >= 1
    assert result.final_tiles <= result.tile_budget
