"""One-call runner for the complete paper evaluation.

``run_full_suite`` executes every §4 experiment at a chosen search budget
and returns a single JSON-ready document — the machine-readable
counterpart of EXPERIMENTS.md.  The CLI exposes it as
``python -m repro experiment all --export results.json``.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from .experiments import (
    default_rounds,
    fig3_motivation,
    fig4_empty_crossbars,
    fig5_tradeoff,
    fig9_overall,
    fig10_ablation,
    fig11a_sxb_rxb_ratio,
    fig11b_candidate_count,
    fig11c_pes_per_tile,
    search_time_profile,
    table3_strategies,
    table4_tiles,
    table5_area_latency,
)
from .export import (
    Records,
    ablation_to_records,
    fig4_to_records,
    fig5_to_records,
    overall_to_records,
    rows_to_records,
    sensitivity_to_records,
    table3_to_records,
    table4_to_records,
)

#: The experiments with flat records, in suite order:
#: ``name -> (runner(rounds, seed), to_records)``.  ``run_full_suite``
#: and ``repro experiment NAME --export PATH`` both read this table.
EXPORTERS: dict[
    str, tuple[Callable[[int | None, int], Any], Callable[[Any], Records]]
] = {
    "fig3": (lambda rounds, seed: fig3_motivation(), rows_to_records),
    "fig4": (lambda rounds, seed: fig4_empty_crossbars(), fig4_to_records),
    "fig5": (lambda rounds, seed: fig5_tradeoff(), fig5_to_records),
    "fig9": (
        lambda rounds, seed: fig9_overall(rounds=rounds, seed=seed),
        overall_to_records,
    ),
    "fig10": (
        lambda rounds, seed: fig10_ablation(rounds=rounds, seed=seed),
        ablation_to_records,
    ),
    "fig11a": (
        lambda rounds, seed: fig11a_sxb_rxb_ratio(rounds=rounds, seed=seed),
        lambda p: sensitivity_to_records(p, x_label="sxb_rxb_ratio"),
    ),
    "fig11b": (
        lambda rounds, seed: fig11b_candidate_count(rounds=rounds, seed=seed),
        lambda p: sensitivity_to_records(p, x_label="candidate_count"),
    ),
    "fig11c": (
        lambda rounds, seed: fig11c_pes_per_tile(rounds=rounds, seed=seed),
        lambda p: sensitivity_to_records(p, x_label="pes_per_tile"),
    ),
    "table3": (
        lambda rounds, seed: table3_strategies(rounds=rounds, seed=seed),
        table3_to_records,
    ),
    "table4": (
        lambda rounds, seed: table4_tiles(rounds=rounds, seed=seed),
        table4_to_records,
    ),
    "table5": (
        lambda rounds, seed: table5_area_latency(rounds=rounds, seed=seed),
        rows_to_records,
    ),
}


def run_full_suite(
    *, rounds: int | None = None, seed: int = 0, verbose: bool = False
) -> dict[str, Any]:
    """Run every figure/table experiment; returns one results document.

    The document maps experiment ids to flat record lists plus a ``meta``
    block (rounds, seed, wall-clock per experiment).
    """
    rounds = rounds if rounds is not None else default_rounds()
    doc: dict[str, Any] = {"meta": {"rounds": rounds, "seed": seed, "timing_s": {}}}

    for name, (runner, to_records) in EXPORTERS.items():
        t0 = time.perf_counter()
        doc[name] = to_records(runner(rounds, seed))
        doc["meta"]["timing_s"][name] = round(time.perf_counter() - t0, 3)
        if verbose:
            print(f"  {name}: {doc['meta']['timing_s'][name]:.1f}s")

    profile = search_time_profile(rounds=rounds, seed=seed)
    doc["search_time"] = [
        {
            "rounds": profile.rounds,
            "decision_seconds": profile.decision_seconds,
            "simulator_seconds": profile.simulator_seconds,
            "learning_seconds": profile.learning_seconds,
            "simulator_fraction": profile.simulator_fraction,
        }
    ]
    return doc


def summarize_suite(doc: dict[str, Any]) -> str:
    """A terse human summary of a suite document's headline numbers."""
    lines = [
        f"Full-suite results (rounds={doc['meta']['rounds']}, "
        f"seed={doc['meta']['seed']}):"
    ]
    by_model: dict[str, dict[str, float]] = {}
    for record in doc.get("fig9", []):
        by_model.setdefault(record["model"], {})[record["accelerator"]] = (
            record["rue"]
        )
    for model, rues in by_model.items():
        autohet = rues.get("AutoHet", 0.0)
        best_homo = max(v for k, v in rues.items() if k != "AutoHet")
        lines.append(
            f"  {model}: AutoHet RUE {autohet:.3e} "
            f"({autohet / best_homo:.2f}x best homogeneous)"
        )
    total = sum(doc["meta"]["timing_s"].values())
    lines.append(f"  total experiment time: {total:.1f}s")
    return "\n".join(lines)
