"""Tests for the benchmark harness (structure + fast shape checks)."""

import pytest

from repro.bench import (
    default_rounds,
    fig3_motivation,
    fig4_empty_crossbars,
    fig5_tradeoff,
    fig9_overall,
    fig10_ablation,
    fig11b_candidate_count,
    search_time_profile,
    table3_strategies,
    table4_tiles,
    table5_area_latency,
)
from repro.bench.reporting import format_table, format_value, normalize_series

FAST = dict(rounds=25, seed=0)


class TestReporting:
    def test_format_value_scales(self):
        assert format_value(3) == "3"
        assert format_value(0.5) == "0.500"
        assert format_value(1.5e-7) == "1.500e-07"
        assert format_value(2.29e10) == "2.290e+10"
        assert format_value("x") == "x"

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2), (30, 40)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(l) == len(lines[1]) for l in lines[1:])

    def test_normalize_series(self):
        assert normalize_series([2.0, 4.0]) == [1.0, 2.0]
        assert normalize_series([2.0, 4.0], to_min=False) == [0.5, 1.0]
        assert normalize_series([0.0, 0.0]) == [0.0, 0.0]

    def test_default_rounds_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RL_ROUNDS", "7")
        assert default_rounds() == 7


class TestStaticExperiments:
    def test_fig3_rows(self):
        rows = fig3_motivation()
        assert [r.label for r in rows] == [
            "32x32", "64x64", "128x128", "256x256", "512x512", "Manual-Hetero",
        ]
        assert rows[-1].rue == max(r.rue for r in rows)

    def test_fig4_structure(self):
        data = fig4_empty_crossbars()
        assert len(data) == 4
        for series in data.values():
            assert sorted(series) == [4, 8, 16, 32]
            values = [series[t] for t in sorted(series)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_fig5_pinned(self):
        rows = fig5_tradeoff()
        assert rows[0].utilization == pytest.approx(27 / 32)
        assert rows[1].utilization == pytest.approx(27 / 128)
        assert rows[0].activated_adcs == 256
        assert rows[1].activated_adcs == 128


class TestSearchExperiments:
    """Run on LeNet (fast) — the benchmarks run the full paper workloads."""

    def test_fig9_structure(self, lenet_net):
        results = fig9_overall([lenet_net], **FAST)
        assert len(results) == 1
        res = results[0]
        assert [r.label for r in res.rows][-1] == "AutoHet"
        assert len(res.rows) == 6
        assert res.rue_speedup >= 1.0  # seeded search can't lose

    def test_fig10_structure(self, lenet_net):
        results = fig10_ablation([lenet_net], **FAST)
        rows = results[0].rows
        assert [r.label for r in rows] == ["Base", "+He", "+Hy", "All"]
        assert rows[1].rue >= 0.99 * rows[0].rue  # +He >= Base (seeded)

    def test_table3_structure(self):
        data = table3_strategies(**FAST)
        assert set(data) == {"Base", "+He", "+Hy"}
        assert all(len(v) == 16 for v in data.values())
        assert len(set(data["Base"])) == 1  # homogeneous

    def test_table4_structure(self, lenet_net):
        data = table4_tiles([lenet_net], **FAST)
        row = data["LeNet"]
        assert row["All"] <= row["+Hy"]

    def test_fig11b_structure(self):
        points = fig11b_candidate_count(counts=(2, 4), **FAST)
        assert [p.label for p in points] == ["2", "4"]
        assert all(p.speedup > 0 for p in points)

    def test_table5_structure(self):
        rows = table5_area_latency(**FAST)
        assert [r.label for r in rows] == [
            "SXB32", "SXB64", "SXB128", "SXB256", "SXB512", "AutoHet",
        ]
        areas = [r.metrics.area_um2 for r in rows]
        assert areas[-1] == min(areas)  # AutoHet smallest (Table 5)

    def test_search_time_profile(self):
        result = search_time_profile(rounds=10, seed=0)
        assert result.total_seconds > 0
        assert 0 < result.simulator_fraction < 1
