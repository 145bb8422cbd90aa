"""The four page-load workloads and the check on what they output.

A workload is a fixed list of *timed units*; one unit is one page load
(one site's six-cell grid on ``fig6_grid``).  Everything is generated
from the seed here; the program under measurement only ever sees the
generated specs.  Why each workload exists is recorded in ``spec.WHY``
and in README.md.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

from repro.errors import ReproError
from repro.experiments.engine import ExperimentEngine, Grid, SerialExecutor
from repro.html import ResourceSpec, ResourceType, WebsiteSpec, build_site
from repro.netsim import conditions
from repro.replay.recorder import record_site
from repro.replay.testbed import ReplayTestbed
from repro.sites import TOP_100_PROFILE, generate_corpus, realworld_sites
from repro.strategies import simple
from repro.strategies.critical import build_strategy_suite
from repro.strategies.order import computed_push_order

try:  # the fork/prefix layer is a candidate for deletion (ROADMAP item 3)
    from repro.experiments.runner import prefix_cache_stats
except ImportError:
    prefix_cache_stats = None

from tracing import Spans

#: Page weights the corpus sites are picked to match (p10..p90 of
#: ``TOP_100_PROFILE``).  Picking to fixed targets instead of taking the
#: first N sites keeps the work per pass the same for every seed, so
#: ``loads_per_s`` is "at a stated input size" and seeds are comparable.
PAGE_BYTES_RANGE = (1_600_000, 3_400_000)
CORPUS_SIZE = 100
ORDER_RUNS = 2

#: Passes are kept to 1.5-3 s so that a run of ``spec.RUN_SECONDS``
#: replays every operation about ten times: on a shared box whose speed
#: flips between two modes within seconds, a per-operation median needs
#: that many samples.
DSL_SITES = 16
LOSSY_SITES = 12
SMALL_SITES, SMALL_SEEDS, SMALL_IMAGES = 6, 3, 240
FIG6_SITE_STEP, FIG6_RUNS = 2, 1
WARMUP_OPS = 10

#: CELLULAR_3G is left out on purpose: 1.4 % of its TCP loads (8 of 576
#: over six seeds) back off past the 300 s simulated timeout, and the
#: driver's contract asks for workloads on which no operation fails.
#: README.md names the failing loads for a later correctness issue.
LOSSY_CONDITIONS = {
    "lossy_dsl": conditions.LOSSY_DSL,
    "cellular_lte": conditions.CELLULAR_LTE,
    "lossy_dsl_quic": conditions.LOSSY_DSL.with_transport("quic"),
}


@dataclass(frozen=True)
class Op:
    """Identity of one page load."""

    site: str
    condition: str
    strategy: str
    seed: int
    #: ``spec.total_bytes()``: a cold-cache load moves at least this much.
    page_bytes: int

    def label(self, workload: str) -> tuple:
        return (workload, self.site, self.condition, self.strategy, self.seed)


class Load(NamedTuple):
    """What one finished load reported (``None`` = not observable)."""

    plt_ms: float
    speed_index_ms: float
    downlink_bytes: int
    uplink_bytes: int
    pushed_bytes: int
    requests: int
    connections: int
    events: Optional[int] = None
    frames: Optional[int] = None
    packets_seen: int = 0
    packets_dropped: int = 0


class Failure(NamedTuple):
    error: str


Outcome = Union[Load, Failure]


class ReplayUnit:
    """One direct ``ReplayTestbed.run``."""

    def __init__(self, op: Op, testbed: ReplayTestbed):
        self.ops = [op]
        self._testbed = testbed

    def run(self) -> List[Outcome]:
        probes = []
        try:
            result = self._testbed.run(seed=self.ops[0].seed, probe=probes.append)
        except ReproError as err:
            return [Failure(f"{type(err).__name__}: {err}")]
        probe = probes[0]
        seen = dropped = 0
        for link in (probe.topology.downlink, probe.topology.uplink):
            pipeline = link.impairments
            if pipeline is not None:
                seen += pipeline.packets_seen
                dropped += pipeline.packets_dropped
        return [
            Load(
                result.plt_ms,
                result.speed_index_ms,
                result.downlink_bytes,
                result.uplink_bytes,
                result.pushed_bytes,
                result.requests,
                result.connections,
                probe.events_processed,
                probe.server_frames,
                seen,
                dropped,
            )
        ]


class GridUnit:
    """One site's strategy grid through the shared experiment engine."""

    def __init__(self, ops: List[Op], engine: ExperimentEngine, grid: Grid):
        self.ops = ops
        self._engine = engine
        self._grid = grid

    def run(self) -> List[Outcome]:
        try:
            summaries = self._engine.run(self._grid)
        except ReproError as err:
            return [Failure(f"{type(err).__name__}: {err}")] * len(self.ops)
        return [
            Load(
                stats.plt_ms,
                stats.speed_index_ms,
                stats.downlink_bytes,
                stats.uplink_bytes,
                stats.pushed_bytes,
                stats.requests,
                stats.connections,
            )
            for summary in summaries
            for stats in summary.run_stats
        ]


@dataclass
class Workload:
    name: str
    units: list

    @property
    def ops(self) -> List[Op]:
        return [op for unit in self.units for op in unit.ops]

    def head(self, op_count: int) -> list:
        """The leading units that cover at least ``op_count`` loads."""
        units, covered = [], 0
        for unit in self.units:
            if covered >= op_count:
                break
            units.append(unit)
            covered += len(unit.ops)
        return units


# ----------------------------------------------------------------------
# building
# ----------------------------------------------------------------------
def pick_sites(corpus: Sequence, count: int) -> list:
    """The ``count`` corpus sites closest to evenly spaced page weights."""
    low, high = PAGE_BYTES_RANGE
    pool = list(corpus)
    chosen = []
    for index in range(count):
        target = low + (high - low) * index / (count - 1)
        best = min(pool, key=lambda site: abs(site.spec.total_bytes() - target))
        pool.remove(best)
        chosen.append(best)
    return chosen


def small_site(index: int, seed: int) -> WebsiteSpec:
    """Single-origin page of many one-DATA-frame images."""
    rng = random.Random(f"small-{seed}-{index}")
    images = [
        ResourceSpec(
            name=f"i{number}.png",
            rtype=ResourceType.IMAGE,
            size=rng.randint(200, 1400),
            body_fraction=rng.random(),
            visual_weight=1.0 if number < 24 else 0.0,
            above_fold=number < 24,
        )
        for number in range(SMALL_IMAGES)
    ]
    return WebsiteSpec(
        name=f"small-{index}",
        primary_domain=f"small{index}.example",
        html_size=40_000,
        resources=images,
    )


def _deploy(spec: WebsiteSpec, spans: Spans):
    with spans.span("html.build_site", site=spec.name):
        built = build_site(spec)
    with spans.span("replay.record_site", site=spec.name):
        db = record_site(built)
    return built, db


def _push_all_in_order(built, db, seed: int, spans: Spans):
    """Section 4.2: recover the push order from no-push loads."""
    with spans.span("strategies.push_order", site=built.spec.name):
        testbed = ReplayTestbed(
            built=built,
            conditions=conditions.DSL_TESTBED,
            strategy=simple.NoPushStrategy(),
            db=db,
        )
        timelines = [
            testbed.run(seed=seed + run).timeline for run in range(ORDER_RUNS)
        ]
        order = computed_push_order(timelines, built.html_url)
    return simple.PushAllStrategy(order=order)


def _corpus_sites(seed: int, count: int, spans: Spans) -> list:
    with spans.span("sites.generate"):
        corpus = generate_corpus(TOP_100_PROFILE, CORPUS_SIZE, seed=seed)
    return pick_sites(corpus, count)


def _replay_units(spec, built, db, network: Dict[str, object], strategies, seeds):
    units = []
    for condition_name, condition in network.items():
        for strategy in strategies:
            testbed = ReplayTestbed(
                built=built, conditions=condition, strategy=strategy, db=db
            )
            for load_seed in seeds:
                op = Op(
                    spec.name, condition_name, strategy.name, load_seed,
                    spec.total_bytes(),
                )
                units.append(ReplayUnit(op, testbed))
    return units


def _build_replay_dsl(seed: int, spans: Spans) -> list:
    units = []
    for index, site in enumerate(_corpus_sites(seed, DSL_SITES, spans)):
        built, db = _deploy(site.spec, spans)
        base = seed * 10_000 + index * 100
        strategies = (
            simple.NoPushStrategy(),
            _push_all_in_order(built, db, base + 50, spans),
        )
        units += _replay_units(
            site.spec, built, db, {"dsl_testbed": conditions.DSL_TESTBED},
            strategies, [base],
        )
    return units


def _build_replay_lossy(seed: int, spans: Spans) -> list:
    units = []
    for index, site in enumerate(_corpus_sites(seed, LOSSY_SITES, spans)):
        built, db = _deploy(site.spec, spans)
        base = seed * 10_000 + index * 100
        # One strategy per site, alternating: both strategies meet every
        # condition, and twelve sites average out per-site cost better
        # than six sites loaded twice.
        if index % 2:
            strategy = _push_all_in_order(built, db, base + 50, spans)
        else:
            strategy = simple.NoPushStrategy()
        units += _replay_units(
            site.spec, built, db, LOSSY_CONDITIONS, (strategy,), [base]
        )
    return units


def _build_small_objects(seed: int, spans: Spans) -> list:
    units = []
    for index in range(SMALL_SITES):
        with spans.span("sites.generate"):
            spec = small_site(index, seed)
        built, db = _deploy(spec, spans)
        base = seed * 10_000 + index * 100
        units += _replay_units(
            spec, built, db, {"dsl_testbed": conditions.DSL_TESTBED},
            (simple.NoPushStrategy(), simple.PushAllStrategy()),
            [base + run for run in range(SMALL_SEEDS)],
        )
    return units


def _build_fig6_grid(seed: int, spans: Spans) -> list:
    with spans.span("sites.generate"):
        sites = realworld_sites()
    # force=True: the engine's in-process result tier would otherwise
    # answer every pass after the first from memory.
    engine = ExperimentEngine(executor=SerialExecutor(), cache=None, force=True)
    units = []
    for index, (key, spec) in enumerate(list(sites.items())[::FIG6_SITE_STEP]):
        with spans.span("strategies.suite", site=key):
            suite = build_strategy_suite(spec)
        seed_base = seed * 1_000 + index * 31
        grid = Grid(name=f"fig6-{key}")
        ops = []
        for deployment in suite:
            grid.add(
                deployment.spec,
                deployment.strategy,
                runs=FIG6_RUNS,
                seed_base=seed_base,
                label=f"{key}/{deployment.name}",
                reduce="summary",
            )
            ops += [
                Op(
                    key, "dsl_testbed", deployment.name, seed_base + run,
                    deployment.spec.total_bytes(),
                )
                for run in range(FIG6_RUNS)
            ]
        units.append(GridUnit(ops, engine, grid))
    return units


_BUILDERS = {
    "replay_dsl": _build_replay_dsl,
    "replay_lossy": _build_replay_lossy,
    "small_objects": _build_small_objects,
    "fig6_grid": _build_fig6_grid,
}


def build_workload(name: str, seed: int, spans: Spans) -> Workload:
    return Workload(name, _BUILDERS[name](seed, spans))


# ----------------------------------------------------------------------
# running and checking
# ----------------------------------------------------------------------
#: ``reference_kernel_wall()`` on this sandbox in its usual state.
REFERENCE_KERNEL_S = 0.0005


def reference_kernel_wall() -> float:
    """Wall of a fixed piece of interpreter work that knows nothing of
    the program.

    The host runs the same code 0.8x to 1.4x as fast from one second to
    the next (neighbours' load moves its clock).  Timed right before a
    piece of work, this tells how fast the host was just then.
    """
    start = time.perf_counter()
    table, acc, buffer = {}, 0, bytearray()
    for index in range(4000):
        table[index & 255] = acc
        acc = (acc * 31 + index) & 0xFFFFFFFF
        if not index & 63:
            buffer += acc.to_bytes(4, "big")
    return time.perf_counter() - start


@dataclass
class PassResult:
    #: Wall of each unit, restated at the reference host speed.
    walls: List[float]
    #: Wall of the reference kernel before each unit.
    kernel_walls: List[float]
    outcomes: List[Outcome]
    prefix_hits: int = 0
    prefix_misses: int = 0


def run_pass(units: Sequence) -> PassResult:
    """Replay ``units`` once, closed loop, timing each unit."""
    before = prefix_cache_stats() if prefix_cache_stats else None
    clock = time.perf_counter
    walls: List[float] = []
    kernel_walls: List[float] = []
    outcomes: List[Outcome] = []
    for unit in units:
        kernel_wall = reference_kernel_wall()
        start = clock()
        result = unit.run()
        wall = clock() - start
        kernel_walls.append(kernel_wall)
        walls.append(wall * REFERENCE_KERNEL_S / kernel_wall)
        outcomes += result
    result = PassResult(walls, kernel_walls, outcomes)
    if before is not None:
        after = prefix_cache_stats()
        result.prefix_hits = after["hits"] - before["hits"]
        result.prefix_misses = after["misses"] - before["misses"]
    return result


def digest_of(ops: Sequence[Op], outcomes: Sequence[Outcome]) -> str:
    """SHA-256 over every simulated statistic of every operation."""
    sha = hashlib.sha256()
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, Failure):
            fields: tuple = ("failed",)
        else:
            fields = tuple(outcome[:9])
        sha.update(repr((op.site, op.condition, op.strategy, op.seed) + fields).encode())
    return sha.hexdigest()


def violations_of(ops: Sequence[Op], outcomes: Sequence[Outcome]) -> List[str]:
    """Invariants every finished load must satisfy."""
    broken = []
    for op, load in zip(ops, outcomes):
        if isinstance(load, Failure):
            continue
        problems = []
        if not load.plt_ms > 0:
            problems.append(f"plt_ms={load.plt_ms}")
        if op.strategy.startswith("no_push") and load.pushed_bytes != 0:
            problems.append(f"pushed {load.pushed_bytes} B under {op.strategy}")
        if load.pushed_bytes > load.downlink_bytes:
            problems.append("pushed_bytes > downlink_bytes")
        if load.downlink_bytes < op.page_bytes:
            problems.append(
                f"downlink {load.downlink_bytes} B < page {op.page_bytes} B"
            )
        if problems:
            broken.append(f"{op}: {'; '.join(problems)}")
    return broken


def counters_of(outcomes: Sequence[Outcome]) -> Dict[str, float]:
    """Work totals over the finished loads of one pass."""
    loads = [outcome for outcome in outcomes if isinstance(outcome, Load)]
    return {
        "loads": len(loads),
        "events": sum(load.events or 0 for load in loads),
        "frames": sum(load.frames or 0 for load in loads),
        "wire_bytes": sum(load.downlink_bytes + load.uplink_bytes for load in loads),
        "connections": sum(load.connections for load in loads),
        "packets_seen": sum(load.packets_seen for load in loads),
        "packets_dropped": sum(load.packets_dropped for load in loads),
        "pushed_bytes": sum(load.pushed_bytes for load in loads),
        "requests": sum(load.requests for load in loads),
    }
