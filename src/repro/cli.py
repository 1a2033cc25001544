"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``search``     run the AutoHet RL search for a workload and print the
               learned strategy and metrics (``--trace PATH`` streams a
               JSONL trace of the whole search).
``baselines``  score the homogeneous baselines (and Manual-Hetero for
               VGG16) on the behavioral simulator.
``experiment`` regenerate one paper figure/table by name (accepts
               ``--trace PATH`` too).
``trace``      observability utilities: ``trace run`` performs a traced
               search end-to-end; ``trace summarize`` validates a JSONL
               trace against the schema and prints per-span p50/p95 and
               counter-stream rollups (docs/observability.md).
``serve``      run a request-level multi-tenant serving scenario through
               the discrete-event simulator and report p50/p95/p99
               latency + SLO attainment per tenant (docs/serving.md);
               takes a scenario JSON file or a builtin name, writes the
               JSON report with ``--out``, streams a trace with
               ``--trace``.
``models``     list the available workloads.
``check``      statically verify configs, candidate shapes, model
               mappings, allocation plans, and the source tree; exits
               nonzero on ERROR diagnostics (docs/static_analysis.md).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from functools import partial

from .arch.config import DEFAULT_CANDIDATES, SQUARE_CANDIDATES, CrossbarShape
from .obs import (
    JsonlSink,
    Tracer,
    configure_cli_logging,
    use_tracer,
)
from .bench import (
    print_fig3,
    print_fig4,
    print_fig5,
    print_fig9,
    print_fig10,
    print_fig11,
    print_search_cache,
    print_search_time,
    print_table3,
    print_table4,
    print_table5,
    search_cache_profile,
    search_time_profile,
)
from .bench.suite import EXPORTERS
from .core.autohet import autohet_multi_seed, autohet_search
from .core.search import manual_hetero_strategy
from .models.zoo import _MODEL_BUILDERS, get_model
from .sim.simulator import Simulator

#: How ``repro experiment NAME`` prints each exportable experiment; the
#: runner is the one ``EXPORTERS`` holds for ``--export`` and the suite.
_PRINTERS = {
    "fig3": print_fig3,
    "fig4": print_fig4,
    "fig5": print_fig5,
    "fig9": print_fig9,
    "fig10": print_fig10,
    "fig11a": partial(print_fig11, panel="a", x_label="SXB:RXB ratio"),
    "fig11b": partial(print_fig11, panel="b", x_label="candidate count"),
    "fig11c": partial(print_fig11, panel="c", x_label="PEs per tile"),
    "table3": print_table3,
    "table4": print_table4,
    "table5": print_table5,
}


def _print_exported(name: str):
    runner = EXPORTERS[name][0]
    printer = _PRINTERS[name]
    return lambda a: printer(runner(a.rounds, a.seed))


EXPERIMENTS = {
    **{name: _print_exported(name) for name in EXPORTERS},
    "search-time": lambda a: print_search_time(
        search_time_profile(rounds=a.rounds, seed=a.seed)
    ),
    "cache": lambda a: print_search_cache(search_cache_profile(seed=a.seed)),
    "all": lambda a: _run_all(a),
}


def _run_all(args) -> None:
    from .bench.suite import run_full_suite, summarize_suite

    doc = run_full_suite(rounds=args.rounds, seed=args.seed, verbose=True)
    print(summarize_suite(doc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AutoHet (ICPP 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="run the AutoHet RL search")
    p_search.add_argument("model", help="workload name (see `models`)")
    p_search.add_argument("--rounds", type=int, default=300)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument(
        "--seeds", default=None, metavar="LIST",
        help="comma-separated RL seeds for a multi-seed search sharing one "
             "evaluation cache, e.g. '0,1,2' (overrides --seed)",
    )
    p_search.add_argument(
        "--no-tile-shared", action="store_true",
        help="disable the tile-shared allocation scheme",
    )
    p_search.add_argument(
        "--candidates", default=None,
        help="comma-separated crossbar shapes, e.g. '32x32,72x64,576x512'",
    )
    p_search.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL observability trace of the search to PATH "
             "(inspect with `repro trace summarize PATH`)",
    )
    p_search.add_argument("--verbose", action="store_true")

    p_base = sub.add_parser("baselines", help="score homogeneous baselines")
    p_base.add_argument("model")

    p_exp = sub.add_parser("experiment", help="regenerate a paper figure/table")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--rounds", type=int, default=None)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument(
        "--export", default=None, metavar="PATH",
        help="also write the experiment's records to PATH "
             "(.json or .csv, by extension; flat-record experiments only)",
    )
    p_exp.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL observability trace of the experiment to PATH",
    )

    p_trace = sub.add_parser(
        "trace", help="observability traces (docs/observability.md)"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    t_run = trace_sub.add_parser(
        "run", help="run a traced AutoHet search and summarize the trace"
    )
    t_run.add_argument("model", help="workload name (see `models`)")
    t_run.add_argument(
        "--out", required=True, metavar="PATH", dest="trace",
        help="JSONL file the trace records are written to",
    )
    t_run.add_argument("--rounds", type=int, default=60)
    t_run.add_argument("--seed", type=int, default=0)
    t_run.add_argument(
        "--candidates", default=None,
        help="comma-separated crossbar shapes, e.g. '32x32,72x64,576x512'",
    )
    t_run.add_argument(
        "--no-tile-shared", action="store_true",
        help="disable the tile-shared allocation scheme",
    )
    t_run.set_defaults(seeds=None, verbose=False)
    t_sum = trace_sub.add_parser(
        "summarize",
        help="validate a JSONL trace against the schema and roll it up",
    )
    t_sum.add_argument("path", help="JSONL trace file to summarize")

    p_check = sub.add_parser(
        "check",
        help="statically verify configs / mappings / plans / source",
        description=(
            "Run the repro.analysis static verification passes. With no "
            "flags, checks the default platform, the default candidate "
            "set, and the source tree. Exits 1 if any ERROR diagnostic "
            "is found; see docs/static_analysis.md for the rule catalogue."
        ),
    )
    p_check.add_argument(
        "--config", default=None, metavar="PATH",
        help="JSON HardwareConfig (full or partial) to verify",
    )
    p_check.add_argument(
        "--shapes", default=None, metavar="LIST",
        help="comma-separated crossbar candidates to verify, e.g. '35x32,64x64'",
    )
    p_check.add_argument(
        "--model", default=None, metavar="NAME",
        help="workload whose graph (and mapping, with --strategy) to verify",
    )
    p_check.add_argument(
        "--strategy", default=None, metavar="PATH",
        help="JSON strategy file mapped+allocated statically against --model",
    )
    p_check.add_argument(
        "--plan", default=None, metavar="PATH",
        help="JSON allocation-plan document to verify (see repro.serialize)",
    )
    p_check.add_argument(
        "--source", nargs="?", const="", default=None, metavar="DIR",
        help="run the project AST lint rules over a source tree "
        "(default: the installed repro package)",
    )
    p_check.add_argument(
        "--cache-safety", action="store_true",
        help="run the interprocedural cache-key soundness / purity "
        "analysis over the memoized simulator call graph (CAC/PUR rules)",
    )
    p_check.add_argument(
        "--concurrency", action="store_true",
        help="check that no module outside repro.analysis starts a thread "
        "or a process (CON001: one Simulator per thread)",
    )
    p_check.add_argument(
        "--numeric", action="store_true",
        help="run the NumPy-aware numeric-safety pass over sim/ (NUM "
        "rules: dtype mixing, order-sensitive reductions, unguarded "
        "division/log/sqrt, float equality, nan/inf sinks)",
    )
    p_check.add_argument(
        "--kernel-parity", action="store_true",
        help="cross-check the scalar cost path's attribute read-set "
        "against the vectorized kernel coverage table (PAR001)",
    )
    p_check.add_argument(
        "--units", action="store_true",
        help="run the dimensional-analysis pass over the cost model "
        "(UNI rules: mixed-unit arithmetic, uncovered fields, bare "
        "conversion literals, declared-vs-inferred drift, tracer streams)",
    )
    p_check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format: human-readable text (default) or one JSON "
        "document with findings, summary counts, and ratchet violations",
    )
    p_check.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue (id, severity, anchor, title) "
        "and exit without running any pass",
    )
    p_check.add_argument(
        "--ratchet", default=None, metavar="PATH",
        help="JSON file mapping rule id -> grandfathered finding count; "
        "any rule exceeding its baseline fails the check even at WARNING",
    )
    p_check.add_argument(
        "--no-tile-shared", action="store_true",
        help="skip Algorithm 1 when allocating --model/--strategy",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run a multi-tenant serving scenario (docs/serving.md)",
        description=(
            "Drive request-level traffic across co-located tenant models "
            "through the deterministic discrete-event serving simulator "
            "and report per-tenant p50/p95/p99 latency and SLO attainment."
        ),
    )
    p_serve.add_argument(
        "scenario",
        help="scenario JSON file, or a builtin name (e.g. 'two-tenant')",
    )
    p_serve.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON report document to PATH",
    )
    p_serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL observability trace (serve.* streams) to PATH",
    )
    p_serve.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's arrival seed",
    )
    p_serve.add_argument(
        "--duration-s", type=float, default=None,
        help="override the scenario horizon, in seconds",
    )
    p_serve.add_argument(
        "--no-realloc", action="store_true",
        help="disable the re-allocation policy for this run",
    )

    sub.add_parser("models", help="list available workloads")
    return parser


#: The whole-tree ``repro check`` passes, in run order after the lint:
#: (flag, narration, ``repro.analysis`` entry point or per-module
#: ``TreePass``).  Each runs under its flag, or in the default sweep.
_TREE_PASSES = (
    ("cache_safety", "checking cache-key soundness of the memoized simulator",
     "analyze_cache_safety"),
    ("concurrency", "checking concurrency safety: no thread or process fan-out",
     "CONCURRENCY_PASS"),
    ("numeric", "checking numeric safety of the simulator tree", "NUMERIC_PASS"),
    ("kernel_parity", "checking scalar/vectorized kernel parity", "analyze_kernel_parity"),
    ("units", "checking dimensional consistency of the cost model", "UNITS_PASS"),
)


def cmd_check(args: argparse.Namespace) -> int:
    """Run the static verification passes and report diagnostics."""
    import json
    from pathlib import Path

    from . import analysis
    from .analysis.checkers import (
        check_candidate_set,
        check_config,
        check_config_dict,
        check_mappings,
        check_network,
        check_plan_dict,
    )
    from .analysis.invariants import Report, ratchet_violations
    from .analysis.walker import TreePass, sweep
    from .arch.config import DEFAULT_CONFIG
    from .arch.mapping import map_layer
    from .core.allocation import allocate_tile_based, apply_tile_sharing
    from .serialize import load_plan_dict, load_strategy

    def load_input(what, loader):
        try:
            return loader()
        except (OSError, ValueError) as exc:
            raise SystemExit(f"check: cannot load {what}: {exc}") from exc

    if args.list_rules:
        from .analysis.invariants import RULES

        rules = [RULES[rule_id] for rule_id in sorted(RULES)]
        if args.format == "json":
            print(
                json.dumps(
                    [
                        {
                            "rule": r.rule_id,
                            "severity": r.severity.value,
                            "anchor": r.anchor,
                            "title": r.title,
                        }
                        for r in rules
                    ],
                    indent=2,
                )
            )
        else:
            for r in rules:
                print(
                    f"{r.rule_id}  {r.severity.value.upper():<7} "
                    f"{r.anchor:<18} {r.title}"
                )
        return 0

    # Progress narration belongs to the text format only; a JSON consumer
    # gets exactly one document on stdout.
    say = (lambda *a, **k: None) if args.format == "json" else print

    report = Report()
    targeted = any(getattr(args, flag) for flag, _, _ in _TREE_PASSES) or any(
        v is not None
        for v in (args.config, args.shapes, args.model, args.plan, args.source)
    )

    shapes = (
        load_input(
            f"--shapes {args.shapes!r}",
            lambda: tuple(CrossbarShape.parse(t) for t in args.shapes.split(",")),
        )
        if args.shapes
        else DEFAULT_CANDIDATES
    )
    if args.shapes or not targeted:
        say(f"checking candidate set: {', '.join(map(str, shapes))}")
        report.extend(check_candidate_set(shapes))

    if args.config:
        say(f"checking config: {args.config}")
        report.extend(
            check_config_dict(
                load_input(
                    args.config, lambda: json.loads(Path(args.config).read_text())
                ),
                shapes,
            )
        )
    elif not targeted:
        say("checking default platform config")
        report.extend(check_config(DEFAULT_CONFIG, shapes))

    if args.model:
        network = get_model(args.model)
        say(f"checking model graph: {network.name}")
        report.extend(check_network(network))
        if args.strategy:
            strategy = load_input(
                args.strategy, lambda: load_strategy(args.strategy)
            )
            if len(strategy) != network.num_layers:
                raise SystemExit(
                    f"strategy length {len(strategy)} != "
                    f"{network.num_layers} layers of {network.name}"
                )
            say(f"checking mapping + allocation plan: {args.strategy}")
            mappings = [
                map_layer(layer, shape)
                for layer, shape in zip(network.layers, strategy)
            ]
            report.extend(check_mappings(mappings))
            allocation = allocate_tile_based(
                mappings, DEFAULT_CONFIG.logical_xbars_per_tile
            )
            if not args.no_tile_shared:
                allocation = apply_tile_sharing(allocation)
            report.extend(allocation.check())
    elif args.strategy:
        raise SystemExit("--strategy requires --model")

    if args.plan:
        say(f"checking allocation plan: {args.plan}")
        report.extend(
            check_plan_dict(load_input(args.plan, lambda: load_plan_dict(args.plan)))
        )

    # An explicit --source DIR points every tree pass at that tree (it
    # must be laid out like the repro package); default is the installed
    # package itself.
    root = Path(args.source) if args.source else None
    lint = ("source", f"linting source tree: {root or 'repro package'}", "LINT_PASS")
    selected = [
        (flag, narration, getattr(analysis, name))
        for flag, narration, name in (lint, *_TREE_PASSES)
        if not targeted or (args.source is not None if flag == "source" else getattr(args, flag))
    ]
    # One read of the tree runs every selected per-module pass.
    swept = sweep(root, {flag: e for flag, _, e in selected if isinstance(e, TreePass)})

    # A pass that refuses the tree (a missing or empty root, an
    # unparsable module) is reported on stderr and fails the run; the
    # other passes still run.
    refused = False
    for flag, narration, entry in selected:
        say(narration)
        outcome = swept.get(flag)
        if outcome is None:
            try:
                outcome = entry(root)
            except ValueError as exc:
                outcome = exc
        if isinstance(outcome, ValueError):
            print(f"check: --{flag.replace('_', '-')}: {outcome}", file=sys.stderr)
            refused = True
        else:
            report.extend(outcome)

    exit_code = 1 if refused else report.exit_code
    violations: list[str] = []
    if args.ratchet:
        baseline = load_input(
            args.ratchet, lambda: json.loads(Path(args.ratchet).read_text())
        )
        violations = ratchet_violations(report, baseline)
        if violations:
            exit_code = 1
    if args.format == "json":
        ordered = sorted(
            report.diagnostics,
            key=lambda d: (-d.severity.rank, d.rule_id, d.location),
        )
        print(
            json.dumps(
                {
                    "findings": [
                        {
                            "rule": d.rule_id,
                            "severity": d.severity.value,
                            "location": d.location,
                            "message": d.message,
                            "hint": d.hint,
                            "data": dict(d.data),
                        }
                        for d in ordered
                    ],
                    "summary": {
                        "errors": len(report.errors),
                        "warnings": len(report.warnings),
                        "total": len(report),
                    },
                    "ratchet_violations": violations,
                    "ok": exit_code == 0,
                },
                indent=2,
            )
        )
        return exit_code
    print(report.format())
    for line in violations:
        print(line)
    if exit_code == 0:
        print("check passed")
    return exit_code


@contextmanager
def _tracing(path: str | None):
    """Scoped ambient JSONL tracing for one CLI command (no-op if ``path``
    is falsy).  Flushes, closes, and reports the record count on exit."""
    if not path:
        yield None
        return
    sink = JsonlSink(path)
    tracer = Tracer([sink])
    try:
        with use_tracer(tracer):
            yield tracer
    finally:
        tracer.flush()
        sink.close()
        print(f"wrote {sink.emitted} trace records to {path}")


def cmd_search(args: argparse.Namespace) -> int:
    if args.verbose:
        configure_cli_logging()
    network = get_model(args.model)
    candidates = (
        tuple(CrossbarShape.parse(t) for t in args.candidates.split(","))
        if args.candidates
        else DEFAULT_CANDIDATES
    )
    with _tracing(args.trace):
        if args.seeds:
            seeds = tuple(int(s) for s in args.seeds.split(","))
            result, per_seed = autohet_multi_seed(
                network,
                candidates,
                seeds=seeds,
                rounds=args.rounds,
                tile_shared=not args.no_tile_shared,
                verbose=args.verbose,
            )
            print(
                f"multi-seed search over seeds {', '.join(map(str, seeds))}: "
                f"best RUE per seed = "
                f"{', '.join(f'{r.best_metrics.rue:.3e}' for r in per_seed)}"
            )
        else:
            result = autohet_search(
                network,
                candidates,
                rounds=args.rounds,
                tile_shared=not args.no_tile_shared,
                seed=args.seed,
                verbose=args.verbose,
            )
        if args.trace:
            # One detailed evaluation of the winner so the trace carries
            # the per-layer utilization / activated-ADC streams (the
            # search itself evaluates with detailed=False).
            Simulator().evaluate(
                network,
                result.best_strategy,
                tile_shared=not args.no_tile_shared,
                detailed=True,
            )
    print(result.summary())
    m = result.best_metrics
    print(
        f"  energy={m.energy_nj:.3e} nJ  area={m.area_um2:.3e} um^2  "
        f"latency={m.latency_ns:.3e} ns  tiles={m.occupied_tiles}"
    )
    print(
        f"  search: {result.total_seconds:.1f}s "
        f"({result.simulator_fraction:.0%} simulator feedback), "
        f"{result.infeasible_episodes} infeasible episodes"
    )
    if result.cache_stats is not None:
        print(f"  {result.cache_stats.summary()}")
    return 0


def cmd_baselines(args: argparse.Namespace) -> int:
    network = get_model(args.model)
    sim = Simulator()
    for shape in SQUARE_CANDIDATES:
        print(f"{shape!s:>14}: {sim.evaluate_homogeneous(network, shape).summary()}")
    if network.name == "VGG16":
        manual = sim.evaluate(
            network, manual_hetero_strategy(network), tile_shared=False,
            detailed=False,
        )
        print(f" Manual-Hetero: {manual.summary()}")
    return 0


def cmd_trace_run(args: argparse.Namespace) -> int:
    """Traced AutoHet search (``search --trace``), then its rollup."""
    cmd_search(args)
    return _summarize_trace_file(args.trace)


def _summarize_trace_file(path: str) -> int:
    """Validate + roll up one JSONL trace; returns the exit code."""
    import json

    from .bench.reporting import print_table
    from .obs import read_jsonl, summarize_records, validate_record

    try:
        records = list(read_jsonl(path))
    except OSError as exc:
        raise SystemExit(f"trace: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SystemExit(f"trace: {path} is not valid JSONL: {exc}") from exc

    problems: list[str] = []
    for index, record in enumerate(records):
        problems.extend(
            f"record {index}: {problem}" for problem in validate_record(record)
        )
    summary = summarize_records(records)
    print(
        f"{summary.records} records in {path}: "
        f"{len(summary.spans)} span names, "
        f"{len(summary.counters)} counter streams, "
        f"{sum(summary.events.values())} events"
    )
    if summary.spans:
        print_table(
            ("span", "count", "total ms", "p50 ms", "p95 ms", "max ms"),
            [
                (
                    s.name,
                    s.count,
                    s.total_ns / 1e6,
                    s.p50_ns / 1e6,
                    s.p95_ns / 1e6,
                    s.max_ns / 1e6,
                )
                for s in summary.spans.values()
            ],
            title="spans",
        )
    if summary.counters:
        print_table(
            ("counter", "count", "mean", "min", "max", "last"),
            [
                (c.name, c.count, c.mean, c.minimum, c.maximum, c.last)
                for c in summary.counters.values()
            ],
            title="counter streams",
        )
    if summary.events:
        print_table(
            ("event", "count"),
            sorted(summary.events.items()),
            title="events",
        )
    if problems:
        shown = problems[:20]
        print(f"\n{len(problems)} schema violations:")
        for line in shown:
            print(f"  {line}")
        if len(problems) > len(shown):
            print(f"  ... and {len(problems) - len(shown)} more")
        return 1
    print("\ntrace validates against schema v1")
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    return _summarize_trace_file(args.path)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run one serving scenario end-to-end and print the SLO report."""
    import json
    from dataclasses import replace
    from pathlib import Path

    from .bench.reporting import print_table
    from .serve import (
        BUILTIN_SCENARIOS,
        build_report,
        emit_report,
        load_scenario,
        simulate,
        validate_report,
    )

    if args.scenario in BUILTIN_SCENARIOS:
        scenario = BUILTIN_SCENARIOS[args.scenario]()
    else:
        try:
            scenario = load_scenario(args.scenario)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(
                f"serve: cannot load scenario {args.scenario!r}: {exc} "
                f"(builtins: {sorted(BUILTIN_SCENARIOS)})"
            ) from exc
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.duration_s is not None:
        scenario = replace(scenario, duration_ns=args.duration_s * 1e9)
    if args.no_realloc:
        scenario = replace(
            scenario, realloc=replace(scenario.realloc, enabled=False)
        )

    with _tracing(args.trace) as tracer:
        result = simulate(scenario)
        report = build_report(result)
        if tracer is not None:
            emit_report(tracer, report)

    problems = validate_report(report)
    if problems:
        raise SystemExit(
            "serve: internal error — report fails its own schema:\n  "
            + "\n  ".join(problems)
        )

    requests = report["requests"]
    print(
        f"scenario '{report['scenario']}' (seed {report['seed']}): "
        f"{requests['arrivals']} arrivals over "
        f"{report['duration_ns'] / 1e9:.3f}s — "
        f"{requests['completed']} completed, "
        f"{requests['rejected']} rejected, "
        f"{requests['in_flight']} in flight"
    )
    alloc = report["allocation"]
    print(
        f"allocation: {alloc['initial_tiles']} tiles initially, "
        f"{alloc['final_tiles']} at the end "
        f"(budget {alloc['tile_budget']}), "
        f"{len(report['realloc_events'])} re-allocation(s)"
    )
    for event in report["realloc_events"]:
        print(
            f"  t={event['t'] / 1e6:.1f}ms re-pack -> replication "
            f"{event['replication']} ({event['tiles']} tiles, "
            f"drift {event['drift']:.2f})"
        )
    print_table(
        ("tenant", "model", "done", "rej", "p50 ms", "p95 ms", "p99 ms",
         "SLO %"),
        [
            (
                name,
                entry["model"],
                entry["completed"],
                entry["rejected"],
                (entry["p50_ns"] or 0.0) / 1e6,
                (entry["p95_ns"] or 0.0) / 1e6,
                (entry["p99_ns"] or 0.0) / 1e6,
                100.0 * entry["slo_attainment"],
            )
            for name, entry in report["tenants"].items()
        ],
        title="per-tenant SLO report",
    )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote report to {args.out}")
    return 0


def cmd_models(_: argparse.Namespace) -> int:
    for name in sorted(_MODEL_BUILDERS):
        net = get_model(name)
        print(
            f"{name:>12}: {net.name} on {net.dataset.name} "
            f"({net.num_layers} layers, {net.total_weights / 1e6:.2f}M weights)"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "search":
        return cmd_search(args)
    if args.command == "baselines":
        return cmd_baselines(args)
    if args.command == "models":
        return cmd_models(args)
    if args.command == "check":
        return cmd_check(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "trace":
        if args.trace_command == "run":
            return cmd_trace_run(args)
        return cmd_trace_summarize(args)
    if args.command == "experiment":
        with _tracing(getattr(args, "trace", None)):
            if getattr(args, "export", None):
                return cmd_experiment_export(args)
            EXPERIMENTS[args.name](args)
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


def cmd_experiment_export(args: argparse.Namespace) -> int:
    from .bench.export import to_csv, to_json
    from .bench.suite import run_full_suite, summarize_suite

    if args.name == "all":
        doc = run_full_suite(rounds=args.rounds, seed=args.seed, verbose=True)
        import json as _json
        from pathlib import Path as _Path

        _Path(args.export).write_text(_json.dumps(doc, indent=2))
        print(summarize_suite(doc))
        print(f"wrote full suite document to {args.export}")
        return 0

    if args.name not in EXPORTERS:
        raise SystemExit(
            f"experiment {args.name!r} has no flat-record exporter; "
            f"exportable: {sorted(EXPORTERS)}"
        )
    runner, to_records = EXPORTERS[args.name]
    records = to_records(runner(args.rounds, args.seed))
    path = args.export
    writer = to_csv if str(path).endswith(".csv") else to_json
    writer(records, path)
    print(f"wrote {len(records)} records to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
