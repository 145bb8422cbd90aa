#!/usr/bin/env python
"""Benchmark-trajectory harness: protocol micros + end-to-end replays.

Runs two tiers of benchmarks and records the results in
``BENCH_replay.json`` at the repository root so every PR leaves a perf
trajectory behind:

* **protocol micros** — HPACK round trips, frame parsing, Huffman
  coding; fixed iteration counts, pure wall-clock.  Beside them, the
  number of Python-level calls one HPACK round trip makes
  (``sys.setprofile``, so the same on every machine); ``--check`` fails
  if it rises above the committed ``current`` section's.
* **end-to-end replay** — a fig-3-shaped grid (small synthetic corpus,
  no-push baseline vs push-all in computed order, serial, cache off),
  timed as a whole.  Alongside the wall time the harness collects
  **determinism counters** (simulator events processed, HTTP/2 frames
  on the wire, bytes on both links, and a PLT checksum) from every
  replay: optimizations must leave these byte-for-byte identical, so a
  counter drift flags a semantics change even when the tests pass.
* **tracing overhead** — the same fig-3-shaped grid with the trace
  subsystem disabled (every hook pays one attribute check) and with a
  live tracer per replay.  ``--check`` fails if the off-mode wall
  exceeds the replay section's by more than measurement noise, or if
  either pass drifts any determinism counter.
* **grid throughput** — the same fig-3-shaped grid submitted through
  the experiment engine under each executor: serial and the warm
  worker pool, plus a warm rerun that measures the in-process LRU
  tier.  Every executor must produce fingerprint-identical results
  (``identical_outputs``), which ``--check`` enforces alongside the
  determinism counters.
* **closed-loop optimizer** — one pinned push-policy search cell
  (one Table-1 site, clean + lossy DSL, successive halving against the
  CRN-paired baseline).  Records the arm-runs scheduled vs exhaustive
  (evaluations saved by pruning) and the content-addressed
  ``table_sha``.  ``--check`` fails if pruning saves nothing, if the
  halving winner is not the full-budget exhaustive argmin, or if the
  table sha drifts from the recorded baseline.
* **population streaming** — a one-cohort population study at 1x and
  10x load counts, recording loads/sec and the tracemalloc peak at
  both scales (plus ``ru_maxrss`` for context).  The study streams
  through bounded reducers, so ``--check`` fails if the 10x peak
  exceeds ~2x the 1x peak — the constant-memory contract of the
  population layer.

Usage::

    PYTHONPATH=src python benchmarks/run_perf.py --record-baseline
    # ... optimize ...
    PYTHONPATH=src python benchmarks/run_perf.py            # fills "current"
    PYTHONPATH=src python benchmarks/run_perf.py --quick    # CI smoke (1 rep)

``--quick`` only reduces timing repetitions; the replay grid and the
micro iteration counts are identical in every mode, so the determinism
counters are mode-independent and CI can assert them against the
committed baseline exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.h2.frames import DataFrame, FrameReader  # noqa: E402
from repro.h2.hpack import HpackDecoder, HpackEncoder  # noqa: E402
from repro.h2.hpack.huffman import huffman_decode, huffman_encode  # noqa: E402
from repro.experiments.engine import (  # noqa: E402
    ExperimentEngine,
    Grid,
    SerialExecutor,
    WarmPoolExecutor,
    fingerprint,
)
from repro.experiments.seeds import condition_seed, load_seed  # noqa: E402
from repro.html.builder import build_site  # noqa: E402
from repro.netsim.conditions import DSL_TESTBED  # noqa: E402
from repro.replay.testbed import ReplayTestbed  # noqa: E402
from repro.sites.corpus import TOP_100_PROFILE, generate_corpus  # noqa: E402
from repro.strategies.order import computed_push_order  # noqa: E402
from repro.strategies.simple import NoPushStrategy, PushAllStrategy  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_replay.json"

#: The replay grid is frozen: counters must be comparable across PRs.
GRID_SITES = 3
GRID_SEED = 2018
GRID_RUNS = 3
GRID_ORDER_RUNS = 2

HEADERS = [
    (":method", "GET"),
    (":scheme", "https"),
    (":authority", "www.example.com"),
    (":path", "/assets/app-39fa2bb1.js"),
    ("accept-encoding", "gzip, deflate"),
    ("accept-language", "en-US,en;q=0.9"),
    ("user-agent", "Mozilla/5.0 (X11; Linux x86_64) repro/1.0"),
    ("cookie", "session=0123456789abcdef; theme=dark"),
]

HUFFMAN_SAMPLE = (
    b"/assets/vendor.bundle-39fa2bb1.min.js?cache=31536000&v=2018 "
    b"text/html; charset=utf-8 gzip, deflate, br Mozilla/5.0 repro"
)


# ----------------------------------------------------------------------
# protocol micros
# ----------------------------------------------------------------------
def _time_loop(fn, iterations: int) -> float:
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return time.perf_counter() - start


def run_micros() -> Dict[str, float]:
    encoder, decoder = HpackEncoder(), HpackDecoder()

    def hpack_round_trip():
        decoder.decode(encoder.encode(HEADERS))

    wire = b"".join(
        DataFrame(stream_id=1, data=b"x" * 1400).serialize() for _ in range(100)
    )

    def frame_parse():
        FrameReader().feed(wire)

    encoded = huffman_encode(HUFFMAN_SAMPLE)

    def huffman_round_trip():
        huffman_decode(huffman_encode(HUFFMAN_SAMPLE))

    assert huffman_decode(encoded) == HUFFMAN_SAMPLE
    return {
        "hpack_round_trip_2k_s": _time_loop(hpack_round_trip, 2_000),
        "frame_parse_100x500_s": _time_loop(frame_parse, 500),
        "huffman_round_trip_2k_s": _time_loop(huffman_round_trip, 2_000),
    }


def count_hpack_calls() -> float:
    """Python-level calls per HPACK round trip, machine-independent.

    Each block is the micro's header list with its own ``:path``, as
    every request of a page load has: seven fields the codec should
    answer from its tables and one literal to insert and — once the
    table is full — evict for.  (Under constant headers every block
    after the first is eight index hits, and the insert half of the hot
    path would go unwatched.)  An uncounted pass goes first, so that
    what the process encoded earlier cannot move the count: work done
    once per distinct field per process is not part of it.
    """
    blocks = 2_000
    block_headers = []
    for index in range(blocks):
        headers = list(HEADERS)
        headers[3] = (":path", f"/assets/app-{index:08x}.js")
        block_headers.append(headers)
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    for profile in (None, count):
        encoder, decoder = HpackEncoder(), HpackDecoder()
        sys.setprofile(profile)
        try:
            for headers in block_headers:
                decoder.decode(encoder.encode(headers))
        finally:
            sys.setprofile(None)
    return calls[0] / blocks


# ----------------------------------------------------------------------
# end-to-end replay benchmark (fig-3-shaped, serial, cache off)
# ----------------------------------------------------------------------
class Counters:
    """Determinism counters accumulated across every replay of the grid."""

    def __init__(self):
        self.replays = 0
        self.events_processed = 0
        self.frames = 0
        self.downlink_bytes = 0
        self.uplink_bytes = 0
        self.plt_checksum = 0.0

    def probe(self, view) -> None:
        self.replays += 1
        self.events_processed += view.events_processed
        self.frames += view.server_frames

    def observe_result(self, result) -> None:
        self.downlink_bytes += result.downlink_bytes
        self.uplink_bytes += result.uplink_bytes
        # PLT values are exact simulated milliseconds; rounding keeps the
        # checksum JSON-stable without losing discriminating power.
        self.plt_checksum = round(self.plt_checksum + result.plt_ms, 4)

    def to_json(self) -> Dict[str, object]:
        return {
            "replays": self.replays,
            "events_processed": self.events_processed,
            "frames_on_wire": self.frames,
            "downlink_bytes": self.downlink_bytes,
            "uplink_bytes": self.uplink_bytes,
            "plt_checksum_ms": self.plt_checksum,
        }


def run_replay_grid(counters: Optional[Counters], tracer_factory=None) -> None:
    """One serial pass over the frozen fig-3-shaped grid.

    ``tracer_factory`` (when given) supplies one fresh tracer per
    replay; the trace benchmark uses it to measure tracing overhead and
    to assert that traced runs leave every determinism counter intact.
    """
    probe = counters.probe if counters is not None else None

    def tracer():
        return tracer_factory() if tracer_factory is not None else None

    corpus = generate_corpus(TOP_100_PROFILE, GRID_SITES, seed=GRID_SEED)
    for site_index, site in enumerate(corpus):
        built = build_site(site.spec)
        # §4.2: recover the push order from no-push loads.
        order_timelines = []
        for run_index in range(GRID_ORDER_RUNS):
            testbed = ReplayTestbed(
                built=built, conditions=DSL_TESTBED, strategy=NoPushStrategy()
            )
            result = testbed.run(
                seed=load_seed(site_index, run_index), probe=probe, tracer=tracer()
            )
            if counters is not None:
                counters.observe_result(result)
            order_timelines.append(result.timeline)
        order = computed_push_order(order_timelines, built.html_url)
        for strategy in (NoPushStrategy(), PushAllStrategy(order=order)):
            testbed = ReplayTestbed(
                built=built, conditions=DSL_TESTBED, strategy=strategy
            )
            for run_index in range(GRID_RUNS):
                # condition_seed is unused with fixed DSL conditions but
                # kept in the derivation to mirror run_repeated exactly.
                condition_seed(site_index, run_index)
                result = testbed.run(
                    seed=load_seed(site_index, run_index), probe=probe, tracer=tracer()
                )
                if counters is not None:
                    counters.observe_result(result)


def run_replay_benchmark(repetitions: int) -> Dict[str, object]:
    counters = Counters()
    start = time.perf_counter()
    run_replay_grid(counters)
    walls = [time.perf_counter() - start]
    for _ in range(repetitions - 1):
        start = time.perf_counter()
        run_replay_grid(None)
        walls.append(time.perf_counter() - start)
    return {
        "wall_s": min(walls),
        "wall_all_s": walls,
        "counters": counters.to_json(),
    }


# ----------------------------------------------------------------------
# tracing overhead (off-mode cost + on-mode determinism, fig-3-shaped)
# ----------------------------------------------------------------------
#: Off-mode tracing runs the byte-identical workload of the replay
#: section, so its wall may differ from ``replay.wall_s`` only by
#: measurement noise; ``--check`` enforces this generous bound.
TRACE_OFF_NOISE_FACTOR = 1.5


def run_trace_benchmark(repetitions: int) -> Dict[str, object]:
    """Measure tracing: off-mode overhead and on-mode determinism.

    * ``wall_off_s`` — the frozen grid with tracing compiled in but
      disabled (every hook pays one attribute check); compared against
      the replay section's wall under ``--check``.
    * ``wall_on_s`` + ``events_traced`` — the same grid with a live
      tracer per replay.
    * ``counters_off`` / ``counters_on`` — determinism counters from
      both passes; tracing must leave them byte-for-byte identical.
    """
    from repro.trace import Tracer

    counters_off = Counters()
    start = time.perf_counter()
    run_replay_grid(counters_off)
    walls_off = [time.perf_counter() - start]
    for _ in range(repetitions - 1):
        start = time.perf_counter()
        run_replay_grid(None)
        walls_off.append(time.perf_counter() - start)

    tracers: List[Tracer] = []

    def factory() -> Tracer:
        tracer = Tracer()
        tracers.append(tracer)
        return tracer

    counters_on = Counters()
    start = time.perf_counter()
    run_replay_grid(counters_on, tracer_factory=factory)
    wall_on = time.perf_counter() - start
    events_traced = sum(len(tracer.events()) for tracer in tracers)
    return {
        "wall_off_s": min(walls_off),
        "wall_on_s": wall_on,
        "events_traced": events_traced,
        "counters_off": counters_off.to_json(),
        "counters_on": counters_on.to_json(),
    }


# ----------------------------------------------------------------------
# grid throughput (engine + executors, fig-3-shaped)
# ----------------------------------------------------------------------
GRID_BENCH_WORKERS = 8


def _engine_grid(engine: ExperimentEngine) -> Grid:
    """The frozen fig-3-shaped grid, declared through the engine so the
    §4.2 push orders are computed by the executor under test too."""
    corpus = generate_corpus(TOP_100_PROFILE, GRID_SITES, seed=GRID_SEED)
    orders = engine.orders_for(
        [site.spec for site in corpus], runs=GRID_ORDER_RUNS
    )
    grid = Grid(name="bench-grid")
    for index, (site, order) in enumerate(zip(corpus, orders)):
        grid.add(site.spec, NoPushStrategy(), runs=GRID_RUNS, seed_base=index)
        grid.add(
            site.spec, PushAllStrategy(order=order), runs=GRID_RUNS, seed_base=index
        )
    return grid


def run_grid_benchmark(repetitions: int) -> Dict[str, object]:
    """Time the same grid through each executor; outputs must agree."""

    def timed(executor) -> tuple:
        """Best-of-``repetitions`` over one (possibly persistent) executor."""
        walls, prints = [], None
        try:
            for _ in range(repetitions):
                engine = ExperimentEngine(executor=executor, cache=None, force=True)
                start = time.perf_counter()
                results = engine.run(_engine_grid(engine))
                walls.append(time.perf_counter() - start)
                prints = [fingerprint(result) for result in results]
        finally:
            executor.close()
        return min(walls), prints

    serial_wall, serial_prints = timed(SerialExecutor())
    # The pool persists across repetitions — exactly how experiment
    # drivers hold it across grids — so reps after the first measure the
    # warm steady state.
    warm_wall, warm_prints = timed(WarmPoolExecutor(GRID_BENCH_WORKERS))
    # One worker per CPU — the size the CLI clamps ``--jobs`` to; on a
    # one-CPU host this is the serial executor, not an oversubscribed pool.
    per_cpu_wall, per_cpu_prints = timed(WarmPoolExecutor())
    # LRU tier: the same grid resubmitted to a warm engine is answered
    # entirely from the in-process memory cache.
    with WarmPoolExecutor(GRID_BENCH_WORKERS) as executor:
        engine = ExperimentEngine(executor=executor, cache=None)
        grid = _engine_grid(engine)
        engine.run(grid)
        start = time.perf_counter()
        rerun = engine.run(grid)
        lru_wall = time.perf_counter() - start
        lru_prints = [fingerprint(result) for result in rerun]
    identical = serial_prints == warm_prints == per_cpu_prints == lru_prints
    best_warm = min(warm_wall, per_cpu_wall)
    cpus = os.cpu_count() or 1
    return {
        "cpus": cpus,
        "workers": {"forced": GRID_BENCH_WORKERS, "per_cpu": cpus},
        "wall_s": {
            "serial": serial_wall,
            "warm_pool": warm_wall,
            "warm_per_cpu": per_cpu_wall,
            "warm_lru_rerun": lru_wall,
        },
        "speedup_warm_vs_serial": round(serial_wall / best_warm, 3),
        "speedup_lru_vs_serial": round(serial_wall / lru_wall, 3),
        "identical_outputs": identical,
    }


# ----------------------------------------------------------------------
# population streaming (constant-memory contract)
# ----------------------------------------------------------------------
POPULATION_BASE_LOADS = 12
POPULATION_SCALE = 10
#: The 10x study may peak at most this multiple of the 1x study's
#: traced peak; with materialized run lists the ratio would be ~10x.
POPULATION_MEMORY_FACTOR = 2.0


def run_population_benchmark() -> Dict[str, object]:
    """Stream a one-cohort study at 1x and 10x loads; peak must not scale.

    Memory is observed with :mod:`tracemalloc` (``reset_peak`` between
    scales), which sees exactly the Python allocations the streaming
    refactor bounds; ``ru_maxrss`` is recorded for context but is
    monotone over the process lifetime, so it cannot express the
    per-scale comparison.  A throwaway warm-up study runs first and
    each measured study starts from a collected heap — otherwise
    import-time caches and GC timing land in the small base peak and
    jitter the ratio by tens of percent.
    """
    import gc
    import resource
    import tracemalloc

    from repro.population import PopulationConfig, run_population
    from repro.population.cohorts import QUICK_PROFILE, Cohort
    from repro.population.profiles import population_sampler

    cohort = Cohort(
        name="bench/wired",
        spec=generate_corpus(QUICK_PROFILE, 1, seed=GRID_SEED)[0].spec,
        sampler=population_sampler("wired"),
        description="perf-harness cohort",
    )

    def study(loads: int) -> Dict[str, object]:
        config = PopulationConfig(
            loads=loads, batch_size=16, seed=GRID_SEED, cohorts=[cohort]
        )
        engine = ExperimentEngine(executor=SerialExecutor(), cache=None)
        gc.collect()
        tracemalloc.start()
        tracemalloc.reset_peak()
        start = time.perf_counter()
        result = run_population(config, engine=engine)
        wall = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        replays = loads * 2  # paired arms
        return {
            "loads": loads,
            "replays": replays,
            "wall_s": wall,
            "loads_per_s": round(replays / wall, 3),
            "tracemalloc_peak_bytes": peak,
            "verdicts": [acc.verdict for acc in result.cohorts],
        }

    study(POPULATION_BASE_LOADS)  # warm-up: imports, freelists, memo caches
    base = study(POPULATION_BASE_LOADS)
    scaled = study(POPULATION_BASE_LOADS * POPULATION_SCALE)
    ratio = (
        scaled["tracemalloc_peak_bytes"] / base["tracemalloc_peak_bytes"]
        if base["tracemalloc_peak_bytes"]
        else 0.0
    )
    return {
        "base": base,
        "scaled": scaled,
        "scale": POPULATION_SCALE,
        "memory_ratio": round(ratio, 3),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


# ----------------------------------------------------------------------
# closed-loop optimizer
# ----------------------------------------------------------------------
def run_optimizer_benchmark() -> Dict[str, object]:
    """One pinned search cell: halving race + exhaustive reference.

    The halving run records the search-cost accounting (arm-runs
    scheduled vs exhaustive).  A second run with a single full-budget
    rung and ``eta=1`` — no pruning of any kind — is the exhaustive
    reference: both searches are deterministic, so the halving winner
    must select the exact same policy per cell, or pruning changed a
    decision it claims only to accelerate.
    """
    import dataclasses

    from repro.optimizer import OptimizeConfig, run_optimize

    config = OptimizeConfig(
        sites=("w3",),
        conditions=("clean_dsl", "lossy_dsl"),
        rungs=(2, 3),
        population=4,
        neighbors_per_anchor=1,
        restarts=2,
    )
    start = time.perf_counter()
    result = run_optimize(
        config, engine=ExperimentEngine(executor=SerialExecutor(), cache=None)
    )
    wall = time.perf_counter() - start
    exhaustive_config = dataclasses.replace(
        config, rungs=(config.rungs[-1],), eta=1
    )
    exhaustive = run_optimize(
        exhaustive_config,
        engine=ExperimentEngine(executor=SerialExecutor(), cache=None),
    )
    matches = all(
        result.table.lookup(entry.site, entry.condition) is not None
        and result.table.lookup(entry.site, entry.condition).policy
        == entry.policy
        for entry in exhaustive.table.entries
    )
    return {
        "wall_s": round(wall, 3),
        "evaluations": result.stats["evaluations"],
        "exhaustive_evaluations": result.stats["exhaustive"],
        "evaluations_saved": result.stats["saved"],
        "saved_pct": round(result.stats["saved_pct"], 2),
        "table_sha": result.table.sha(),
        "winners": {
            f"{entry.site}/{entry.condition}": entry.source
            for entry in result.table.entries
        },
        "matches_exhaustive_argmin": matches,
    }


# ----------------------------------------------------------------------
# result recording
# ----------------------------------------------------------------------
def build_section(repetitions: int) -> Dict[str, object]:
    # Micros are best-of-repetitions like every timed section: single
    # samples on a shared host are too noisy for the --check bound.
    micros = run_micros()
    for _ in range(repetitions - 1):
        for name, value in run_micros().items():
            if value < micros[name]:
                micros[name] = value
    replay = run_replay_benchmark(repetitions)
    trace = run_trace_benchmark(repetitions)
    grid = run_grid_benchmark(repetitions)
    population = run_population_benchmark()
    optimizer = run_optimizer_benchmark()
    return {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "micros": micros,
        "hpack_pycalls_per_round_trip": count_hpack_calls(),
        "replay": replay,
        "trace": trace,
        "grid": grid,
        "population": population,
        "optimizer": optimizer,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record-baseline",
        action="store_true",
        help="record this run as the pre-optimization baseline",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="single timing repetition (CI smoke); counters are unaffected",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless determinism counters match the baseline"
        " (count-based only; wall times never fail the check)",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="result JSON path"
    )
    args = parser.parse_args(argv)

    repetitions = 1 if args.quick else 3
    section = build_section(repetitions)

    document: Dict[str, object] = {"schema": 1}
    if args.output.exists():
        document = json.loads(args.output.read_text())
    committed_hpack_calls = document.get("current", {}).get(
        "hpack_pycalls_per_round_trip"
    )
    if args.record_baseline:
        document["baseline"] = section
        document.pop("current", None)
        document.pop("speedup", None)
    else:
        document["current"] = section

    baseline = document.get("baseline")
    current = document.get("current")
    counters_match: Optional[bool] = None
    if baseline and current:
        speedup = {
            "replay": round(
                baseline["replay"]["wall_s"] / current["replay"]["wall_s"], 3
            ),
            "micros": {
                name: round(baseline["micros"][name] / current["micros"][name], 3)
                for name in current["micros"]
                if name in baseline["micros"]
            },
        }
        counters_match = (
            baseline["replay"]["counters"] == current["replay"]["counters"]
        )
        speedup["counters_match"] = counters_match
        # The grid section compares executors within one run, so it
        # needs no baseline section to report a speedup.
        if "grid" in current:
            speedup["grid_warm_vs_serial"] = current["grid"][
                "speedup_warm_vs_serial"
            ]
        document["speedup"] = speedup
        print(f"replay speedup vs baseline: {speedup['replay']}x")
        print(f"determinism counters match baseline: {counters_match}")
        if not counters_match:
            print("WARNING: determinism counters drifted", file=sys.stderr)

    args.output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    label = "baseline" if args.record_baseline else "current"
    print(f"{label} replay wall: {section['replay']['wall_s']:.3f} s")
    for name, value in section["micros"].items():
        print(f"{label} {name}: {value:.3f} s")
    hpack_calls = section["hpack_pycalls_per_round_trip"]
    print(f"{label} hpack python calls per round trip: {hpack_calls}")
    grid = section["grid"]
    for name, value in grid["wall_s"].items():
        print(f"{label} grid {name}: {value:.3f} s")
    print(
        f"{label} grid warm vs serial: {grid['speedup_warm_vs_serial']}x "
        f"(cpus={grid['cpus']}, identical_outputs={grid['identical_outputs']})"
    )
    trace = section["trace"]
    print(
        f"{label} trace off/on wall: {trace['wall_off_s']:.3f} / "
        f"{trace['wall_on_s']:.3f} s ({trace['events_traced']} events traced)"
    )
    optimizer = section["optimizer"]
    print(
        f"{label} optimizer: {optimizer['evaluations']} arm-runs vs "
        f"{optimizer['exhaustive_evaluations']} exhaustive "
        f"({optimizer['saved_pct']}% saved), "
        f"argmin match={optimizer['matches_exhaustive_argmin']}, "
        f"table_sha={optimizer['table_sha'][:12]}"
    )
    population = section["population"]
    print(
        f"{label} population: {population['scaled']['loads_per_s']} loads/s, "
        f"peak 1x/{population['scale']}x = "
        f"{population['base']['tracemalloc_peak_bytes']:,} / "
        f"{population['scaled']['tracemalloc_peak_bytes']:,} bytes "
        f"(ratio {population['memory_ratio']})"
    )
    print(json.dumps(section["replay"]["counters"], indent=2, sort_keys=True))
    failures = []
    if args.check:
        if counters_match is not True:
            failures.append("determinism counters drifted from baseline")
        if not grid["identical_outputs"]:
            failures.append("executors disagreed on grid outputs")
        replay_counters = section["replay"]["counters"]
        if trace["counters_off"] != replay_counters:
            failures.append("tracing-off pass drifted the determinism counters")
        if trace["counters_on"] != replay_counters:
            failures.append("tracing-on pass drifted the determinism counters")
        if trace["events_traced"] <= 0:
            failures.append("tracing-on pass captured no events")
        bound = TRACE_OFF_NOISE_FACTOR * section["replay"]["wall_s"]
        if trace["wall_off_s"] > bound:
            failures.append(
                f"tracing-off wall {trace['wall_off_s']:.3f}s exceeds the "
                f"noise bound {bound:.3f}s — disabled hooks are too expensive"
            )
        if committed_hpack_calls is not None and hpack_calls > committed_hpack_calls:
            failures.append(
                f"an hpack round trip makes {hpack_calls} python calls, up "
                f"from the committed {committed_hpack_calls}"
            )
        if optimizer["evaluations_saved"] <= 0:
            failures.append(
                "successive halving scheduled no fewer arm-runs than "
                "exhaustive evaluation — pruning is not engaging"
            )
        if not optimizer["matches_exhaustive_argmin"]:
            failures.append(
                "the halving winner differs from the full-budget "
                "exhaustive argmin on the pinned search cell"
            )
        if baseline and "optimizer" in baseline:
            if optimizer["table_sha"] != baseline["optimizer"]["table_sha"]:
                failures.append(
                    "optimizer policy-table sha drifted from the recorded "
                    "baseline — the search is no longer bit-reproducible"
                )
        if population["memory_ratio"] > POPULATION_MEMORY_FACTOR:
            failures.append(
                f"population memory peak grew {population['memory_ratio']}x "
                f"over a {population['scale']}x load scale (bound "
                f"{POPULATION_MEMORY_FACTOR}x) — the streaming pipeline is "
                "accumulating per-load state"
            )
    for failure in failures:
        print(f"check FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
