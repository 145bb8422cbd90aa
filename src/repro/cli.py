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
artefact reports.  The commands are one table, :data:`COMMANDS`: each
``run(args, engine)`` returns the text to print and the files to
write, and :func:`main` alone builds the engine (``--jobs``,
``--chunk``, ``--cache`` or ``--no-cache``, ``--force``), prints,
writes, and emits the ``--report`` to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from .errors import ConfigError
from .html.builder import build_site
from .html.spec import WebsiteSpec

#: A command's stdout text and the files to write, as ``(path, document)``
#: pairs.  A ``None`` path (flag not given) writes nothing; a document
#: that is not text is written as sorted, indented JSON.
Output = Tuple[str, List[Tuple[Union[str, Path, None], object]]]


def _resolve_site(key: str) -> WebsiteSpec:
    """argparse ``type=`` for a site key: its spec, or a ConfigError."""
    from .sites import realworld_sites, synthetic_sites

    sites = {**synthetic_sites(), **realworld_sites()}
    if key not in sites:
        raise ConfigError(f"unknown site {key!r}; run `python -m repro sites` for the list")
    return sites[key]


def _make_strategy(name: str, spec: WebsiteSpec):
    from .html.resources import ResourceType
    from .strategies import (
        HintAndPushStrategy, NoPushStrategy, PreloadHintStrategy, PushAllStrategy,
        PushByTypeStrategy, PushFirstNStrategy, PushListStrategy,
    )
    from .strategies.critical import critical_urls

    factories = {
        "no_push": NoPushStrategy,
        "push_all": PushAllStrategy,
        "push_css": lambda: PushByTypeStrategy([ResourceType.CSS]),
        "push_images": lambda: PushByTypeStrategy([ResourceType.IMAGE]),
        "hints": PreloadHintStrategy,
        "hint_and_push": HintAndPushStrategy,
        "custom": lambda: PushListStrategy(critical_urls(spec), name="custom"),
    }
    if name in factories:
        return factories[name]()
    if name.startswith("push_") and name[5:].isdigit():
        return PushFirstNStrategy(int(name[5:]))
    raise ConfigError(
        f"unknown strategy {name!r} (no_push, push_all, push_<n>, push_css, "
        f"push_images, hints, hint_and_push, custom)"
    )


def _engine_from_args(args):
    """Build the experiment engine the flags describe.

    The returned engine is a context manager, so the warm worker pool
    is shut down when the command finishes.  ``--jobs`` is clamped to
    the CPU count here, where the user-typed value arrives:
    oversubscribing a CPU-bound simulator only adds scheduler churn.
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


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts: an integer >= 1, or a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# ----------------------------------------------------------------------
# commands: each returns (stdout text, files to write)
# ----------------------------------------------------------------------
def _sites(_args, _engine) -> Output:
    from .sites import TABLE_1

    lines = ["synthetic (§4.3):  " + " ".join(f"s{i}" for i in range(1, 11))]
    lines.append("real-world (Tab. 1):")
    lines.extend(f"  {key:<4} {label}" for key, label in TABLE_1.items())
    return "\n".join(lines), []


def _replay(args, engine) -> Output:
    from .experiments.engine import Cell

    strategy = _make_strategy(args.strategy, args.site)
    cell = engine.run_cell(Cell(spec=args.site, strategy=strategy, runs=args.runs))
    return (
        f"{args.site.name} × {args.runs} runs, strategy={strategy.name}\n"
        f"  PLT        median {cell.median_plt:8.1f} ms   σx̄ {cell.plt_std_error:6.2f}\n"
        f"  SpeedIndex median {cell.median_si:8.1f} ms   σx̄ {cell.si_std_error:6.2f}\n"
        f"  pushed bytes      {cell.pushed_bytes / 1000:8.1f} KB"
    ), []


def _suite(args, engine) -> Output:
    from .experiments.engine import Grid
    from .metrics import paired_change
    from .strategies.critical import build_strategy_suite

    deployments = build_strategy_suite(args.site)
    grid = Grid(name=f"suite/{args.site.name}")
    for deployment in deployments:
        grid.add(
            deployment.spec, deployment.strategy, runs=args.runs,
            label=f"{args.site.name}/{deployment.name}",
        )
    baseline = None
    lines = [f"{args.site.name}: the six §5 deployments ({args.runs} runs each)"]
    for deployment, cell in zip(deployments, engine.run(grid)):
        if deployment.name == "no_push":
            baseline = cell
            lines.append(f"  {deployment.name:<26} SI {cell.median_si:7.0f} ms (baseline)")
            continue
        center, half = paired_change(cell.si_values, baseline.si_values)
        lines.append(
            f"  {deployment.name:<26} ΔSI {center:+7.2f}% ± {half:5.2f}"
            f"   pushed {cell.pushed_bytes / 1000:7.1f} KB"
        )
    return "\n".join(lines), []


def _order(args, engine) -> Output:
    order = engine.order_for(args.site, runs=args.runs)
    lines = [f"computed push order for {args.site.name} ({args.runs} traced runs):"]
    lines.extend(f"  {position:>3}. {url}" for position, url in enumerate(order, start=1))
    return "\n".join(lines), []


def _fig(args, engine) -> Output:
    from . import experiments as exp

    sized = dict(sites=args.sites, runs=args.runs)
    #: Figure -> the runners whose renders it prints, in order.
    runners = {
        "1": (exp.run_fig1,),
        "2": (lambda: exp.run_fig2(exp.Fig2Config(**sized), engine=engine),),
        "3a": (lambda: exp.run_fig3a(exp.Fig3Config(**sized), engine=engine),),
        "3b": (lambda: exp.run_fig3b(exp.Fig3Config(**sized), engine=engine),),
        "4": (lambda: exp.run_fig4(exp.Fig4Config(runs=args.runs), engine=engine),),
        "5": (lambda: exp.run_fig5(exp.Fig5Config(runs=args.runs), engine=engine),),
        "6": (lambda: exp.run_fig6(exp.Fig6Config(runs=args.runs), engine=engine),),
    }
    runners["3"] = runners["3a"] + runners["3b"]
    if args.figure not in runners:
        raise ConfigError(
            f"unknown figure {args.figure!r} (1, 2, 3, 3a, 3b, 4, 5, 6; the "
            "extensions are the `fig7` and `fig8` commands)"
        )
    return "\n".join(run().render() for run in runners[args.figure]), []


def _fig7(args, engine) -> Output:
    from . import experiments as exp

    config = exp.Fig7Config.quick() if args.quick else exp.Fig7Config(runs=args.runs)
    if args.burst:
        config = dataclasses.replace(config, burst=True)
    return exp.run_fig7(config, engine=engine).render(), []


def _fig8(args, engine) -> Output:
    from . import experiments as exp

    config = exp.Fig8Config.quick() if args.quick else exp.Fig8Config(runs=args.runs)
    result = exp.run_fig8(config, engine=engine)
    return result.render(), [(args.fingerprints, result.cell_fingerprints())]


def _waterfall(args, _engine) -> Output:
    from .browser.waterfall import render_waterfall
    from .replay import ReplayTestbed

    strategy = _make_strategy(args.strategy, args.site)
    result = ReplayTestbed(built=build_site(args.site), strategy=strategy).run()
    return (
        f"{args.site.name} / {strategy.name}: PLT {result.plt_ms:.0f} ms, "
        f"SpeedIndex {result.speed_index_ms:.0f} ms\n\n"
        + render_waterfall(result, width=args.width)
    ), []


def _trace(args, _engine) -> Output:
    from .browser.waterfall import render_waterfall_from_trace
    from .replay import ReplayTestbed
    from .trace import Tracer, diff_traces, qlog_json, render_diff

    built = build_site(args.site)
    lines, traces, files = [], [], []
    for name in (args.strategy, args.vs):
        tracer = Tracer()
        testbed = ReplayTestbed(built=built, strategy=_make_strategy(name, args.site))
        result = testbed.run(seed=args.seed, tracer=tracer)
        trace = tracer.trace()
        traces.append(trace)
        lines += [
            f"{args.site.name} / {trace.meta['strategy']}: PLT {result.plt_ms:.0f} ms, "
            f"SpeedIndex {result.speed_index_ms:.0f} ms, "
            f"{len(trace.events)} trace events",
            render_waterfall_from_trace(trace, width=args.width),
            "",
        ]
        if args.qlog:
            path = Path(args.qlog) / f"{args.site.name}.{trace.meta['strategy']}.qlog.json"
            files.append((path, qlog_json(trace)))
    lines.append(render_diff(diff_traces(*traces)))
    return "\n".join(lines), files


def _population(args, engine) -> Output:
    from .population import PopulationConfig, render_population, run_population

    config = PopulationConfig(
        loads=args.loads, batch_size=args.batch, seed=args.seed,
        strategy=args.strategy, quick=args.quick,
    )
    result = run_population(config, engine=engine)
    return render_population(result), [(args.json, result.to_json())]


def _optimize(args, engine) -> Output:
    from .optimizer import OptimizeConfig, run_optimize

    config = OptimizeConfig.quick() if args.quick else OptimizeConfig()
    # Each of these flags, when given, overrides the same-named field.
    overrides = {
        name: tuple(value) if isinstance(value, list) else value
        for name in ("sites", "conditions", "allocator", "population", "rungs", "seed")
        if (value := getattr(args, name)) is not None
    }
    result = run_optimize(dataclasses.replace(config, **overrides), engine=engine)
    return result.render(), [(args.table, result.table.to_json()), (args.json, result.to_json())]


def _abtest(args, engine) -> Output:
    from .experiments.ab_testing import ABTestConfig, StrategySelector

    config = ABTestConfig(lab_runs=args.runs, rum_runs=args.rum_runs)
    return StrategySelector(args.site, config, engine=engine).run().render(), []


# ----------------------------------------------------------------------
# the command table
# ----------------------------------------------------------------------
def _arg(*flags, **options) -> Tuple[tuple, dict]:
    return flags, options


_SITE = _arg("site", type=_resolve_site)
_STRATEGY = _arg("--strategy", default="no_push")
_WIDTH = _arg("--width", type=_positive_int, default=60)
_QUICK = _arg("--quick", action="store_true", help="small CI-sized sweep")


def _runs(default: int) -> Tuple[tuple, dict]:
    return _arg("--runs", type=_positive_int, default=default)


#: The engine options every engine command takes, and the two cache
#: flags, which exclude each other.
_ENGINE_ARGS = (
    _arg("--jobs", type=_positive_int, default=1,
         help="worker processes for cell execution (default: 1 = serial; "
         "clamped to the CPU count)"),
    _arg("--chunk", type=_positive_int, default=None, metavar="RUNS",
         help="max runs per scheduled work unit (default: auto-sized per grid)"),
    _arg("--force", action="store_true", help="ignore cached cells, re-run and overwrite them"),
    _arg("--report", action="store_true", help="print the engine progress/timing report to stderr"),
)
_CACHE_ARGS = (
    _arg("--cache", metavar="DIR", default=None,
         help="result-cache directory (default: $REPRO_CACHE_DIR; unset = off)"),
    _arg("--no-cache", action="store_true", help="disable the result cache"),
)


@dataclasses.dataclass(frozen=True)
class Command:
    help: str
    run: Callable[[argparse.Namespace, object], Output]
    args: Tuple[Tuple[tuple, dict], ...] = ()
    #: Takes the engine options and runs on an experiment engine.
    engine: bool = True


COMMANDS: Dict[str, Command] = {
    "sites": Command("list bundled website models", _sites, engine=False),
    "replay": Command("replay one site under one strategy", _replay, (_SITE, _STRATEGY, _runs(5))),
    "suite": Command("run the six §5 deployments on a site", _suite, (_SITE, _runs(5))),
    "order": Command("compute the §4.2 push order for a site", _order, (_SITE, _runs(5))),
    "fig": Command("regenerate a figure of the paper", _fig, (
        _arg("figure", help="1, 2, 3, 3a, 3b, 4, 5, or 6"),
        _arg("--sites", type=_positive_int, default=10),
        _runs(5),
    )),
    "fig7": Command("push strategies under packet loss (extension)", _fig7, (
        _QUICK,
        _arg("--burst", action="store_true", help="Gilbert-Elliott burst loss instead of i.i.d."),
        _runs(5),
    )),
    "fig8": Command("push vs preload/103 Early Hints/QUIC (extension)", _fig8, (
        _QUICK,
        _runs(5),
        _arg("--fingerprints", metavar="PATH", default=None,
             help="also write per-cell result fingerprints as JSON to PATH "
             "(diff two runs with it)"),
    )),
    "waterfall": Command("render a load as an ASCII waterfall", _waterfall,
                         (_SITE, _STRATEGY, _WIDTH), engine=False),
    "trace": Command("trace one site under two strategies and diff the loads", _trace, (
        _SITE,
        _arg("--strategy", default="push_all"),
        _arg("--vs", default="no_push", help="baseline strategy to diff against"),
        _arg("--seed", type=int, default=0),
        _WIDTH,
        _arg("--qlog", metavar="DIR", default=None,
             help="also write the two qlog JSON exports to DIR"),
    ), engine=False),
    "population": Command(
        "population-scale cohort study: paired push verdicts over "
        "mixed 3G/LTE/DSL/fiber client draws", _population, (
            _arg("--quick", action="store_true",
                 help="small sites and cohorts (CI smoke; also the golden config)"),
            _arg("--loads", type=_positive_int, default=200,
                 help="simulated clients per cohort (default: 200)"),
            _arg("--batch", type=_positive_int, default=64,
                 help="loads per engine grid; memory is O(batch), results are "
                 "batch-size invariant (default: 64)"),
            _arg("--seed", type=int, default=2018),
            _arg("--strategy", default="push_all",
                 help="push strategy compared against no_push (default: push_all)"),
            _arg("--json", metavar="PATH", default=None,
                 help="also write the study record as JSON to PATH"),
        ),
    ),
    "optimize": Command(
        "closed-loop push-policy search with an oracle-gap report "
        "(beyond the paper)", _optimize, (
            _arg("--quick", action="store_true",
                 help="CI-sized search: two small sites, tiny population, short rungs"),
            _arg("--sites", nargs="+", metavar="SITE", default=None,
                 help="site keys to search (default: w1..w20, or the quick subset)"),
            _arg("--conditions", nargs="+", metavar="PROFILE", default=None,
                 help="condition profiles to search under (default: clean_dsl lossy_dsl)"),
            _arg("--allocator", choices=["halving", "bandit"], default=None,
                 help="run allocator: successive halving (default) or the "
                 "successive-elimination bandit"),
            _arg("--population", type=int, default=None,
                 help="non-anchor candidates per site (anchors always race)"),
            _arg("--rungs", nargs="+", type=int, metavar="RUNS", default=None,
                 help="cumulative runs per halving rung (default: 2 5)"),
            _arg("--seed", type=int, default=None, help="population seed"),
            _arg("--table", metavar="PATH", help="write the policy-table JSON artifact"),
            _arg("--json", metavar="PATH",
                 help="write the full result (table, oracle gap, search cost) as JSON"),
        ),
    ),
    "abtest": Command("CDN A/B strategy selection (§6)", _abtest, (
        _SITE, _runs(3), _arg("--rum-runs", type=_positive_int, default=7)
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HTTP/2 Server Push replay testbed (CoNEXT'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        command_parser = sub.add_parser(name, help=command.help)
        _add_args(command_parser, command.args)
        if command.engine:
            group = command_parser.add_argument_group("engine")
            _add_args(group, _ENGINE_ARGS)
            _add_args(group.add_mutually_exclusive_group(), _CACHE_ARGS)
    return parser


def _add_args(container, specs) -> None:
    for flags, options in specs:
        container.add_argument(*flags, **options)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = COMMANDS[args.command]
        engine = _engine_from_args(args) if command.engine else None
        with contextlib.nullcontext() if engine is None else engine:
            text, files = command.run(args, engine)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    for path, document in files:
        if path is None:
            continue
        if not isinstance(document, str):
            document = json.dumps(document, indent=2, sort_keys=True)
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(document + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
    if engine is not None and args.report and engine.reports:
        print(engine.render_reports(), file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
