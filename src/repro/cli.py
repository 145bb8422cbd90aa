"""Command-line interface.

Usage::

    python -m repro sites                        # list bundled sites
    python -m repro replay w1 --strategy push_all --runs 5
    python -m repro suite w16                    # the six §5 deployments
    python -m repro order s4                     # §4.2 push-order pipeline
    python -m repro fig 5                        # regenerate a figure
    python -m repro fig 6 --jobs 8 --cache .repro-cache   # parallel + cached
    python -m repro population --quick           # cohort study smoke
    python -m repro abtest w1                    # §6 CDN A/B selection

Every command prints the same rows/series the corresponding paper
artefact reports.  Measurement commands run on the experiment engine:
``--jobs N`` fans cells *and their repeats* out across a warm
persistent worker pool (``--chunk RUNS`` pins the work unit size),
``--cache DIR`` (or ``$REPRO_CACHE_DIR``) reuses finished cells across
invocations, ``--force`` ignores cached entries, and ``--report``
prints the engine's per-grid timing/cache summary to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .errors import ConfigError
from .html.builder import build_site
from .html.spec import WebsiteSpec


def _all_sites() -> Dict[str, WebsiteSpec]:
    from .sites import realworld_sites, synthetic_sites

    sites: Dict[str, WebsiteSpec] = {}
    sites.update(synthetic_sites())
    sites.update(realworld_sites())
    return sites


def _resolve_site(key: str) -> WebsiteSpec:
    sites = _all_sites()
    if key not in sites:
        raise ConfigError(
            f"unknown site {key!r}; run `python -m repro sites` for the list"
        )
    return sites[key]


def _make_strategy(name: str, spec: WebsiteSpec):
    from .strategies import (
        NoPushStrategy,
        PushAllStrategy,
        PushByTypeStrategy,
        PushFirstNStrategy,
    )
    from .strategies.hints import HintAndPushStrategy, PreloadHintStrategy
    from .html.resources import ResourceType

    if name == "no_push":
        return NoPushStrategy()
    if name == "push_all":
        return PushAllStrategy()
    if name.startswith("push_") and name[5:].isdigit():
        return PushFirstNStrategy(int(name[5:]))
    if name == "push_css":
        return PushByTypeStrategy([ResourceType.CSS])
    if name == "push_images":
        return PushByTypeStrategy([ResourceType.IMAGE])
    if name == "hints":
        return PreloadHintStrategy()
    if name == "hint_and_push":
        return HintAndPushStrategy()
    if name == "custom":
        from .strategies.critical import critical_urls
        from .strategies.simple import PushListStrategy

        return PushListStrategy(critical_urls(spec), name="custom")
    raise ConfigError(
        f"unknown strategy {name!r} (no_push, push_all, push_<n>, push_css, "
        f"push_images, hints, hint_and_push, custom)"
    )


def _engine_from_args(args):
    """Build the experiment engine the flags describe.

    The returned engine is a context manager; commands use ``with`` so
    the warm worker pool is shut down when the command finishes.
    ``--jobs`` is clamped to the CPU count here, where the user-typed
    value arrives: oversubscribing a CPU-bound simulator only adds
    scheduler churn.
    """
    from .experiments.engine import (
        ExperimentEngine,
        ResultCache,
        SerialExecutor,
        WarmPoolExecutor,
        default_cache_dir,
    )

    jobs = min(args.jobs, os.cpu_count() or 1)
    if jobs > 1:
        executor = WarmPoolExecutor(jobs, chunk_runs=args.chunk)
    else:
        executor = SerialExecutor()
    cache = None
    if not args.no_cache:
        root = Path(args.cache) if args.cache else default_cache_dir()
        if root is not None:
            cache = ResultCache(root)
    return ExperimentEngine(executor=executor, cache=cache, force=args.force)


def _maybe_report(args, engine) -> None:
    if args.report and engine.reports:
        print(engine.render_reports(), file=sys.stderr)


def _write_json(path: str, document) -> None:
    """Write ``document`` to ``path`` as sorted JSON; say so on stderr."""
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {path}", file=sys.stderr)


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts: an integer >= 1, or a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("engine")
    group.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for cell execution (default: 1 = serial; "
        "clamped to the CPU count)",
    )
    group.add_argument(
        "--chunk", type=_positive_int, default=None, metavar="RUNS",
        help="max runs per scheduled work unit (default: auto-sized per grid)",
    )
    group.add_argument(
        "--cache", metavar="DIR", default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR; unset = off)",
    )
    group.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    group.add_argument(
        "--force", action="store_true",
        help="ignore cached cells, re-run and overwrite them",
    )
    group.add_argument(
        "--report", action="store_true",
        help="print the engine progress/timing report to stderr",
    )


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_sites(_args) -> int:
    from .sites import TABLE_1

    print("synthetic (§4.3):  " + " ".join(f"s{i}" for i in range(1, 11)))
    print("real-world (Tab. 1):")
    for key, label in TABLE_1.items():
        print(f"  {key:<4} {label}")
    return 0


def cmd_replay(args) -> int:
    from .experiments.engine import Cell

    spec = _resolve_site(args.site)
    strategy = _make_strategy(args.strategy, spec)
    with _engine_from_args(args) as engine:
        cell = engine.run_cell(Cell(spec=spec, strategy=strategy, runs=args.runs))
    print(
        f"{spec.name} × {args.runs} runs, strategy={strategy.name}\n"
        f"  PLT        median {cell.median_plt:8.1f} ms   σx̄ {cell.plt_std_error:6.2f}\n"
        f"  SpeedIndex median {cell.median_si:8.1f} ms   σx̄ {cell.si_std_error:6.2f}\n"
        f"  pushed bytes      {cell.pushed_bytes / 1000:8.1f} KB"
    )
    _maybe_report(args, engine)
    return 0


def cmd_suite(args) -> int:
    from .experiments.engine import Grid
    from .metrics import confidence_interval, relative_change
    from .strategies.critical import build_strategy_suite

    spec = _resolve_site(args.site)
    deployments = build_strategy_suite(spec)
    grid = Grid(name=f"suite/{spec.name}")
    for deployment in deployments:
        grid.add(
            deployment.spec, deployment.strategy, runs=args.runs,
            label=f"{spec.name}/{deployment.name}",
        )
    with _engine_from_args(args) as engine:
        cells = engine.run(grid)
    baseline = None
    print(f"{spec.name}: the six §5 deployments ({args.runs} runs each)")
    for deployment, cell in zip(deployments, cells):
        if deployment.name == "no_push":
            baseline = cell
            print(f"  {deployment.name:<26} SI {cell.median_si:7.0f} ms (baseline)")
            continue
        deltas = [
            relative_change(v, b) for v, b in zip(cell.si_values, baseline.si_values)
        ]
        center, half = confidence_interval(deltas, 0.95)
        print(
            f"  {deployment.name:<26} ΔSI {center:+7.2f}% ± {half:5.2f}"
            f"   pushed {cell.pushed_bytes / 1000:7.1f} KB"
        )
    _maybe_report(args, engine)
    return 0


def cmd_order(args) -> int:
    spec = _resolve_site(args.site)
    with _engine_from_args(args) as engine:
        order = engine.order_for(spec, runs=args.runs)
    print(f"computed push order for {spec.name} ({args.runs} traced runs):")
    for position, url in enumerate(order, start=1):
        print(f"  {position:>3}. {url}")
    _maybe_report(args, engine)
    return 0


def cmd_fig(args) -> int:
    from . import experiments as exp

    with _engine_from_args(args) as engine:
        return _run_fig(args, engine, exp)


def _run_fig(args, engine, exp) -> int:
    figure = args.figure
    if figure == "1":
        print(exp.run_fig1().render())
    elif figure == "2":
        config = exp.Fig2Config(sites=args.sites, runs=args.runs)
        print(exp.run_fig2(config, engine=engine).render())
    elif figure == "3":
        config = exp.Fig3Config(sites=args.sites, runs=args.runs)
        print(exp.run_fig3a(config, engine=engine).render())
        print(exp.run_fig3b(config, engine=engine).render())
    elif figure == "3a":
        print(
            exp.run_fig3a(
                exp.Fig3Config(sites=args.sites, runs=args.runs), engine=engine
            ).render()
        )
    elif figure == "3b":
        print(
            exp.run_fig3b(
                exp.Fig3Config(sites=args.sites, runs=args.runs), engine=engine
            ).render()
        )
    elif figure == "4":
        print(exp.run_fig4(exp.Fig4Config(runs=args.runs), engine=engine).render())
    elif figure == "5":
        print(exp.run_fig5(exp.Fig5Config(runs=args.runs), engine=engine).render())
    elif figure == "6":
        print(exp.run_fig6(exp.Fig6Config(runs=args.runs), engine=engine).render())
    else:
        raise ConfigError(
            f"unknown figure {figure!r} (1, 2, 3, 3a, 3b, 4, 5, 6; the "
            "extensions are the `fig7` and `fig8` commands)"
        )
    _maybe_report(args, engine)
    return 0


def cmd_fig7(args) -> int:
    from . import experiments as exp

    if args.quick:
        config = exp.Fig7Config.quick()
    else:
        config = exp.Fig7Config(runs=args.runs)
    if args.burst:
        config = dataclasses.replace(config, burst=True)
    with _engine_from_args(args) as engine:
        print(exp.run_fig7(config, engine=engine).render())
        _maybe_report(args, engine)
    return 0


def cmd_fig8(args) -> int:
    from . import experiments as exp

    if args.quick:
        config = exp.Fig8Config.quick()
    else:
        config = exp.Fig8Config(runs=args.runs)
    with _engine_from_args(args) as engine:
        result = exp.run_fig8(config, engine=engine)
        print(result.render())
        if args.fingerprints:
            _write_json(args.fingerprints, result.cell_fingerprints())
        _maybe_report(args, engine)
    return 0


def cmd_waterfall(args) -> int:
    from .browser.waterfall import render_waterfall
    from .replay import ReplayTestbed

    spec = _resolve_site(args.site)
    strategy = _make_strategy(args.strategy, spec)
    testbed = ReplayTestbed(built=build_site(spec), strategy=strategy)
    result = testbed.run()
    print(
        f"{spec.name} / {strategy.name}: PLT {result.plt_ms:.0f} ms, "
        f"SpeedIndex {result.speed_index_ms:.0f} ms\n"
    )
    print(render_waterfall(result, width=args.width))
    return 0


def cmd_trace(args) -> int:
    from .browser.waterfall import render_waterfall_from_trace
    from .replay import ReplayTestbed
    from .trace import Tracer, diff_traces, qlog_json, render_diff

    spec = _resolve_site(args.site)
    built = build_site(spec)

    def traced_run(strategy_name: str):
        strategy = _make_strategy(strategy_name, spec)
        testbed = ReplayTestbed(built=built, strategy=strategy)
        tracer = Tracer()
        result = testbed.run(seed=args.seed, tracer=tracer)
        return result, tracer.trace()

    result_a, trace_a = traced_run(args.strategy)
    result_b, trace_b = traced_run(args.vs)
    for result, trace in ((result_a, trace_a), (result_b, trace_b)):
        print(
            f"{spec.name} / {trace.meta['strategy']}: PLT {result.plt_ms:.0f} ms, "
            f"SpeedIndex {result.speed_index_ms:.0f} ms, "
            f"{len(trace.events)} trace events"
        )
        print(render_waterfall_from_trace(trace, width=args.width))
        print()
    print(render_diff(diff_traces(trace_a, trace_b)))
    if args.qlog:
        out = Path(args.qlog)
        out.mkdir(parents=True, exist_ok=True)
        for trace in (trace_a, trace_b):
            path = out / f"{spec.name}.{trace.meta['strategy']}.qlog.json"
            path.write_text(qlog_json(trace) + "\n", encoding="utf-8")
            print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_population(args) -> int:
    from .population import PopulationConfig, render_population, run_population

    config = PopulationConfig(
        loads=args.loads,
        batch_size=args.batch,
        seed=args.seed,
        strategy=args.strategy,
        quick=args.quick,
    )
    with _engine_from_args(args) as engine:
        result = run_population(config, engine=engine)
        print(render_population(result))
        if args.json:
            _write_json(args.json, result.to_json())
        _maybe_report(args, engine)
    return 0


def cmd_optimize(args) -> int:
    from .optimizer import OptimizeConfig, run_optimize

    config = OptimizeConfig.quick() if args.quick else OptimizeConfig()
    overrides = {}
    if args.sites:
        overrides["sites"] = tuple(args.sites)
    if args.conditions:
        overrides["conditions"] = tuple(args.conditions)
    if args.allocator:
        overrides["allocator"] = args.allocator
    if args.population is not None:
        overrides["population"] = args.population
    if args.rungs:
        overrides["rungs"] = tuple(args.rungs)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)
    with _engine_from_args(args) as engine:
        result = run_optimize(config, engine=engine)
        print(result.render())
        if args.table:
            result.table.save(args.table)
            print(f"wrote {args.table}", file=sys.stderr)
        if args.json:
            _write_json(args.json, result.to_json())
        _maybe_report(args, engine)
    return 0


def cmd_abtest(args) -> int:
    from .experiments.ab_testing import ABTestConfig, StrategySelector

    spec = _resolve_site(args.site)
    with _engine_from_args(args) as engine:
        selector = StrategySelector(
            spec, ABTestConfig(lab_runs=args.runs, rum_runs=args.rum_runs), engine=engine
        )
        print(selector.run().render())
        _maybe_report(args, engine)
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HTTP/2 Server Push replay testbed (CoNEXT'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("sites", help="list bundled website models").set_defaults(
        func=cmd_sites
    )

    replay = sub.add_parser("replay", help="replay one site under one strategy")
    replay.add_argument("site")
    replay.add_argument("--strategy", default="no_push")
    replay.add_argument("--runs", type=_positive_int, default=5)
    _add_engine_options(replay)
    replay.set_defaults(func=cmd_replay)

    suite = sub.add_parser("suite", help="run the six §5 deployments on a site")
    suite.add_argument("site")
    suite.add_argument("--runs", type=_positive_int, default=5)
    _add_engine_options(suite)
    suite.set_defaults(func=cmd_suite)

    order = sub.add_parser("order", help="compute the §4.2 push order for a site")
    order.add_argument("site")
    order.add_argument("--runs", type=_positive_int, default=5)
    _add_engine_options(order)
    order.set_defaults(func=cmd_order)

    fig = sub.add_parser("fig", help="regenerate a figure of the paper")
    fig.add_argument("figure", help="1, 2, 3, 3a, 3b, 4, 5, or 6")
    fig.add_argument("--sites", type=_positive_int, default=10)
    fig.add_argument("--runs", type=_positive_int, default=5)
    _add_engine_options(fig)
    fig.set_defaults(func=cmd_fig)

    fig7 = sub.add_parser(
        "fig7", help="push strategies under packet loss (extension)"
    )
    fig7.add_argument(
        "--quick", action="store_true", help="small CI-sized sweep"
    )
    fig7.add_argument(
        "--burst",
        action="store_true",
        help="Gilbert-Elliott burst loss instead of i.i.d.",
    )
    fig7.add_argument("--runs", type=_positive_int, default=5)
    _add_engine_options(fig7)
    fig7.set_defaults(func=cmd_fig7)

    fig8 = sub.add_parser(
        "fig8",
        help="push vs preload/103 Early Hints/QUIC (extension)",
    )
    fig8.add_argument(
        "--quick", action="store_true", help="small CI-sized sweep"
    )
    fig8.add_argument("--runs", type=_positive_int, default=5)
    fig8.add_argument(
        "--fingerprints", metavar="PATH", default=None,
        help="also write per-cell result fingerprints as JSON to PATH "
        "(diff two runs with it)",
    )
    _add_engine_options(fig8)
    fig8.set_defaults(func=cmd_fig8)

    waterfall = sub.add_parser("waterfall", help="render a load as an ASCII waterfall")
    waterfall.add_argument("site")
    waterfall.add_argument("--strategy", default="no_push")
    waterfall.add_argument("--width", type=_positive_int, default=60)
    waterfall.set_defaults(func=cmd_waterfall)

    trace = sub.add_parser(
        "trace", help="trace one site under two strategies and diff the loads"
    )
    trace.add_argument("site")
    trace.add_argument("--strategy", default="push_all")
    trace.add_argument("--vs", default="no_push", help="baseline strategy to diff against")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--width", type=_positive_int, default=60)
    trace.add_argument(
        "--qlog", metavar="DIR", default=None,
        help="also write the two qlog JSON exports to DIR",
    )
    trace.set_defaults(func=cmd_trace)

    population = sub.add_parser(
        "population",
        help="population-scale cohort study: paired push verdicts over "
        "mixed 3G/LTE/DSL/fiber client draws",
    )
    population.add_argument(
        "--quick", action="store_true",
        help="small sites and cohorts (CI smoke; also the golden config)",
    )
    population.add_argument(
        "--loads", type=_positive_int, default=200,
        help="simulated clients per cohort (default: 200)",
    )
    population.add_argument(
        "--batch", type=_positive_int, default=64,
        help="loads per engine grid; memory is O(batch), results are "
        "batch-size invariant (default: 64)",
    )
    population.add_argument("--seed", type=int, default=2018)
    population.add_argument(
        "--strategy", default="push_all",
        help="push strategy compared against no_push (default: push_all)",
    )
    population.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the study record as JSON to PATH",
    )
    _add_engine_options(population)
    population.set_defaults(func=cmd_population)

    optimize = sub.add_parser(
        "optimize",
        help="closed-loop push-policy search with an oracle-gap report "
        "(beyond the paper)",
    )
    optimize.add_argument(
        "--quick", action="store_true",
        help="CI-sized search: two small sites, tiny population, short rungs",
    )
    optimize.add_argument(
        "--sites", nargs="+", metavar="SITE", default=None,
        help="site keys to search (default: w1..w20, or the quick subset)",
    )
    optimize.add_argument(
        "--conditions", nargs="+", metavar="PROFILE", default=None,
        help="condition profiles to search under (default: clean_dsl lossy_dsl)",
    )
    optimize.add_argument(
        "--allocator", choices=["halving", "bandit"], default=None,
        help="run allocator: successive halving (default) or the "
        "successive-elimination bandit",
    )
    optimize.add_argument(
        "--population", type=int, default=None,
        help="non-anchor candidates per site (anchors always race)",
    )
    optimize.add_argument(
        "--rungs", nargs="+", type=int, metavar="RUNS", default=None,
        help="cumulative runs per halving rung (default: 2 5)",
    )
    optimize.add_argument("--seed", type=int, default=None, help="population seed")
    optimize.add_argument(
        "--table", metavar="PATH", help="write the policy-table JSON artifact"
    )
    optimize.add_argument(
        "--json", metavar="PATH",
        help="write the full result (table, oracle gap, search cost) as JSON",
    )
    _add_engine_options(optimize)
    optimize.set_defaults(func=cmd_optimize)

    abtest = sub.add_parser("abtest", help="CDN A/B strategy selection (§6)")
    abtest.add_argument("site")
    abtest.add_argument("--runs", type=_positive_int, default=3)
    abtest.add_argument("--rum-runs", type=_positive_int, default=7)
    _add_engine_options(abtest)
    abtest.set_defaults(func=cmd_abtest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
