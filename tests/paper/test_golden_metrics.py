"""Golden-snapshot regression test for the VGG16 baseline aggregates.

``golden_vgg16.json`` pins the simulator's headline numbers for a fixed
set of VGG16 baseline strategies (the §4.1 homogeneous accelerators,
the Fig. 3 hand-tuned heterogeneous split, and a candidate-cycling
mixed strategy).  The cost model is pure closed-form float math, so
the snapshot is compared at near-machine precision: any drift means a
cost-model change, intended or not, and intended changes must
regenerate the snapshot *in the same commit*.

Regenerate with::

    PYTHONPATH=src python tests/paper/test_golden_metrics.py --regen

and review the JSON diff — every changed number is a claimed change to
the reproduction's output.
"""

import json
import math
from pathlib import Path


from repro.arch.config import CrossbarShape, DEFAULT_CANDIDATES
from repro.core.search.strategies import (
    homogeneous_strategy,
    manual_hetero_strategy,
)
from repro.models import vgg16
from repro.sim import Simulator

GOLDEN_PATH = Path(__file__).with_name("golden_vgg16.json")

#: aggregates worth pinning; properties (rue, reward) included so the
#: snapshot also locks the derived-metric definitions
SCALAR_FIELDS = (
    "utilization",
    "energy_nj",
    "latency_ns",
    "area_um2",
    "occupied_tiles",
    "occupied_crossbars",
    "empty_crossbars",
    "rue",
    "reward",
)

RELATIVE_TOLERANCE = 1e-9


def baseline_strategies(network):
    """The named baseline configurations the snapshot covers."""
    return {
        "homogeneous_512x512": (
            homogeneous_strategy(network, CrossbarShape(512, 512)),
            True,
        ),
        "homogeneous_512x512_unshared": (
            homogeneous_strategy(network, CrossbarShape(512, 512)),
            False,
        ),
        "homogeneous_256x256": (
            homogeneous_strategy(network, CrossbarShape(256, 256)),
            True,
        ),
        "manual_hetero_fig3": (manual_hetero_strategy(network), True),
        "mixed_candidate_cycle": (
            tuple(
                DEFAULT_CANDIDATES[i % len(DEFAULT_CANDIDATES)]
                for i in range(network.num_layers)
            ),
            True,
        ),
    }


def compute_aggregates():
    network = vgg16()
    sim = Simulator()
    out = {}
    for name, (strategy, tile_shared) in baseline_strategies(network).items():
        metrics = sim.evaluate(
            network, strategy, tile_shared=tile_shared, detailed=True
        )
        entry = {field: getattr(metrics, field) for field in SCALAR_FIELDS}
        entry["adc_conversions"] = sum(
            c.adc_conversions for c in metrics.layer_costs
        )
        entry["dac_conversions"] = sum(
            c.dac_conversions for c in metrics.layer_costs
        )
        out[name] = entry
    return out


class TestGoldenMetrics:
    def test_snapshot_exists(self):
        assert GOLDEN_PATH.exists(), (
            "golden snapshot missing — regenerate with "
            "PYTHONPATH=src python tests/paper/test_golden_metrics.py --regen"
        )

    def test_vgg16_aggregates_match_snapshot(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        current = compute_aggregates()
        assert sorted(current) == sorted(golden), (
            "baseline set changed — regenerate the snapshot"
        )
        mismatches = []
        for name, expected in golden.items():
            actual = current[name]
            assert sorted(actual) == sorted(expected)
            for field, want in expected.items():
                got = actual[field]
                if isinstance(want, int):
                    ok = got == want
                else:
                    ok = math.isclose(got, want, rel_tol=RELATIVE_TOLERANCE)
                if not ok:
                    mismatches.append(f"{name}.{field}: {got!r} != {want!r}")
        assert not mismatches, (
            "cost-model output drifted from the golden snapshot:\n  "
            + "\n  ".join(mismatches)
            + "\nIf the change is intended, regenerate with "
            "PYTHONPATH=src python tests/paper/test_golden_metrics.py --regen"
        )

    def test_snapshot_sanity(self):
        """The snapshot itself stays physically plausible."""
        golden = json.loads(GOLDEN_PATH.read_text())
        for name, entry in golden.items():
            assert 0.0 < entry["utilization"] <= 1.0, name
            assert entry["energy_nj"] > 0.0, name
            assert entry["occupied_tiles"] > 0, name
        # Tile sharing must strictly help the 512x512 baseline (Alg. 1).
        assert (
            golden["homogeneous_512x512"]["occupied_tiles"]
            < golden["homogeneous_512x512_unshared"]["occupied_tiles"]
        )


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/paper/test_golden_metrics.py --regen")
    GOLDEN_PATH.write_text(
        json.dumps(compute_aggregates(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
