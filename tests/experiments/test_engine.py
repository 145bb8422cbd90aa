"""Engine tests: executor equivalence, result cache, cell keys.

The engine's contract is that a cell's result depends only on the cell
itself: the serial and parallel executors must agree bit for bit, a
cache hit must return exactly the stored record, and the cache key must
change whenever anything that determines the outcome changes.
"""

import json

import pytest

from repro.errors import ConfigError, ExperimentError
from repro.experiments import run_repeated
from repro.experiments.engine import (
    Cell,
    ExperimentEngine,
    Grid,
    ResultCache,
    SerialExecutor,
    WarmPoolExecutor,
    fingerprint,
)
from repro.experiments.seeds import condition_seed, impairment_seed, load_seed
from repro.html import build_site
from repro.netsim.conditions import CABLE, DSL_TESTBED, FixedConditions
from repro.replay.testbed import ReplayTestbed
from repro.sites.synthetic import s2_landing, synthetic_sites
from repro.strategies.order import computed_push_order
from repro.strategies.simple import NoPushStrategy, PushAllStrategy, PushFirstNStrategy


def small_grid() -> Grid:
    sites = synthetic_sites()
    grid = Grid(name="test")
    for index, name in enumerate(["s1", "s2"]):
        grid.add(sites[name], NoPushStrategy(), runs=2, seed_base=index)
        grid.add(sites[name], PushAllStrategy(), runs=2, seed_base=index)
    return grid


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
def handrolled_loads(spec, strategy, runs, seed_base=0):
    """The §4.1 loop spelled out on the bare testbed, no engine."""
    built = build_site(spec)
    return [
        ReplayTestbed(built=built, conditions=DSL_TESTBED, strategy=strategy).run(
            seed=load_seed(seed_base, run),
            impairment_seed=impairment_seed(seed_base, run),
        )
        for run in range(runs)
    ]


def test_serial_matches_handrolled_loop():
    spec = s2_landing()
    direct = handrolled_loads(spec, PushAllStrategy(), runs=2, seed_base=3)
    engine = ExperimentEngine()
    cell = engine.run_cell(Cell(spec=spec, strategy=PushAllStrategy(), runs=2, seed_base=3))
    assert cell.results == direct
    assert run_repeated(spec, PushAllStrategy(), runs=2, seed_base=3) == cell


def test_serial_and_parallel_executors_agree():
    grid = small_grid()
    serial = ExperimentEngine(executor=SerialExecutor()).run(grid)
    # The constructor takes the worker count as given, so this is a real
    # two-process pool even on a 1-CPU machine.
    with WarmPoolExecutor(max_workers=2) as executor:
        parallel = ExperimentEngine(executor=executor).run(grid)
    assert len(serial) == len(parallel) == 4
    for left, right in zip(serial, parallel):
        assert left == right  # full RepeatedResult equality incl. timelines


def test_results_align_with_grid_order():
    grid = small_grid()
    results = ExperimentEngine().run(grid)
    for cell, result in zip(grid.cells, results):
        assert result.site == cell.spec.name
        assert result.strategy == cell.strategy_name


@pytest.mark.parametrize("runs", [0, -2])
def test_cell_without_runs_is_a_config_error(runs):
    """``runs=0`` used to be one run under the pool and none under the
    serial executor; now no executor ever sees such a cell."""
    with pytest.raises(ConfigError, match="at least one run"):
        Cell(spec=s2_landing(), strategy=None, runs=runs)
    with pytest.raises(ConfigError, match="at least one run"):
        Grid().add(s2_landing(), NoPushStrategy(), runs=runs)


def test_plan_chunks_rejects_an_empty_chunk_size():
    from repro.experiments.engine.executors import plan_chunks

    cell = Cell(spec=s2_landing(), strategy=None, runs=3)
    with pytest.raises(ConfigError, match="chunk_runs"):
        plan_chunks([cell], workers=2, chunk_runs=0)
    assert [(c.run_lo, c.run_hi) for c in plan_chunks([cell], 2, chunk_runs=2)] == [
        (0, 2),
        (2, 3),
    ]


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
def test_cache_hit_returns_byte_identical_records(tmp_path):
    grid = small_grid()
    cache = ResultCache(tmp_path)
    engine = ExperimentEngine(cache=cache)
    cold = engine.run(grid)
    stored = [cache.load_bytes(cell.key()) for cell in grid.cells]
    assert all(blob is not None for blob in stored)

    warm = engine.run(grid)
    assert [cache.load_bytes(cell.key()) for cell in grid.cells] == stored
    assert warm == cold
    assert engine.reports[0].cache_hits == 0
    assert engine.reports[1].cache_hits == len(grid.cells)
    assert engine.reports[1].cells_executed == 0


def test_cache_shared_across_engines(tmp_path):
    grid = small_grid()
    ExperimentEngine(cache=ResultCache(tmp_path)).run(grid)
    second = ExperimentEngine(cache=ResultCache(tmp_path))
    second.run(grid)
    assert second.last_report.cache_hits == len(grid.cells)


def test_force_ignores_cache_entries(tmp_path):
    grid = small_grid()
    ExperimentEngine(cache=ResultCache(tmp_path)).run(grid)
    forced = ExperimentEngine(cache=ResultCache(tmp_path), force=True)
    forced.run(grid)
    assert forced.last_report.cache_hits == 0


def test_records_jsonl_written(tmp_path):
    grid = small_grid()
    cache = ResultCache(tmp_path)
    ExperimentEngine(cache=cache).run(grid)
    lines = cache.records_path.read_text().strip().splitlines()
    assert len(lines) == len(grid.cells)
    record = json.loads(lines[0])
    assert record["site"] == "s1"
    assert record["cache_hit"] is False
    assert record["wall_ms"] > 0
    assert record["key"] == grid.cells[0].key()


# ----------------------------------------------------------------------
# two-tier cache
# ----------------------------------------------------------------------
def test_memory_tier_dedupes_across_grids_without_disk_cache():
    """The in-process LRU is always on: resubmitting a grid to the same
    engine serves every cell from memory even with no cache directory."""
    grid = small_grid()
    engine = ExperimentEngine(cache=None)
    cold = engine.run(grid)
    warm = engine.run(grid)
    assert warm == cold
    assert engine.reports[0].cache_hits == 0
    assert engine.reports[1].cache_hits == len(grid.cells)
    assert all(r.cache_tier == "memory" for r in engine.reports[1].records)


def test_disk_hits_promote_into_memory_tier(tmp_path):
    grid = small_grid()
    ExperimentEngine(cache=ResultCache(tmp_path)).run(grid)
    second = ExperimentEngine(cache=ResultCache(tmp_path))
    second.run(grid)
    assert all(r.cache_tier == "disk" for r in second.last_report.records)
    second.run(grid)
    assert all(r.cache_tier == "memory" for r in second.last_report.records)


def test_memory_cache_lru_eviction():
    from repro.experiments.engine import MemoryResultCache

    lru = MemoryResultCache(capacity=2)
    lru.put("a", "ra")
    lru.put("b", "rb")
    assert lru.get("a") == "ra"  # refreshes a
    lru.put("c", "rc")  # evicts b
    assert lru.get("b") is None
    assert lru.get("a") == "ra"
    assert lru.get("c") == "rc"


def test_corrupt_cache_entry_is_quarantined_and_recomputed(tmp_path, caplog):
    grid = small_grid()
    cache = ResultCache(tmp_path)
    cold = ExperimentEngine(cache=cache).run(grid)
    key = grid.cells[0].key()
    path = cache.cell_path(key)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])  # simulate a torn write

    import logging

    with caplog.at_level(logging.WARNING, logger="repro.experiments.cache"):
        second = ExperimentEngine(cache=ResultCache(tmp_path))
        warm = second.run(grid)
    assert warm == cold  # recomputed, not silently dropped
    assert any("quarantined" in message for message in caplog.messages)
    assert path.with_suffix(".pkl.corrupt").exists()
    assert not second.last_report.records[0].cache_hit
    assert all(r.cache_hit for r in second.last_report.records[1:])
    # The recomputed entry is valid again.
    assert ResultCache(tmp_path).load(key) is not None


def test_foreign_header_cache_entry_is_quarantined(tmp_path):
    grid = small_grid()
    cache = ResultCache(tmp_path)
    ExperimentEngine(cache=cache).run(grid)
    key = grid.cells[0].key()
    cache.cell_path(key).write_bytes(b"not a cache entry at all")
    assert ResultCache(tmp_path).load(key) is None
    assert cache.cell_path(key).with_suffix(".pkl.corrupt").exists()


def _stored_cell(tmp_path):
    grid = small_grid()
    cache = ResultCache(tmp_path)
    ExperimentEngine(cache=cache).run(grid)
    return cache, grid.cells[0].key()


def test_incompatible_cache_payload_is_quarantined(tmp_path):
    """A checksummed payload from another code version: the class it
    names no longer exists, so unpickling raises and the entry goes."""
    import pickle

    from repro import checksummed
    from repro.experiments.engine.cache import CELL_MAGIC

    cache, key = _stored_cell(tmp_path)
    path = cache.cell_path(key)
    payload = pickle.dumps(ExperimentError("x")).replace(
        b"ExperimentError", b"RetiredErrorKin"
    )
    checksummed.write(path, CELL_MAGIC, payload)
    assert cache.load(key) is None
    assert path.with_suffix(".pkl.corrupt").exists()


def test_unrelated_unpickle_error_propagates(tmp_path, monkeypatch):
    """Only an incompatible payload is quarantined; a bug surfaces."""
    cache, key = _stored_cell(tmp_path)

    def broken(_payload):
        raise KeyError("not a payload problem")

    monkeypatch.setattr("repro.experiments.engine.cache.pickle.loads", broken)
    with pytest.raises(KeyError):
        cache.load(key)
    assert cache.cell_path(key).exists()


def test_corrupt_order_json_is_quarantined_and_recomputed(tmp_path):
    spec = s2_landing()
    engine = ExperimentEngine(cache=ResultCache(tmp_path))
    expected = engine.order_for(spec, runs=2)
    order_files = list((tmp_path / "orders").glob("*.json"))
    assert len(order_files) == 1
    order_files[0].write_text('["truncated')
    other = ExperimentEngine(cache=ResultCache(tmp_path))
    assert other.order_for(spec, runs=2) == expected


def test_cell_store_is_atomic_no_tmp_left_behind(tmp_path):
    grid = small_grid()
    cache = ResultCache(tmp_path)
    ExperimentEngine(cache=cache).run(grid)
    assert list(tmp_path.rglob("*.tmp")) == []


# ----------------------------------------------------------------------
# batched order computation
# ----------------------------------------------------------------------
def test_orders_for_matches_order_for(tmp_path):
    sites = synthetic_sites()
    specs = [sites["s1"], sites["s2"], sites["s1"]]
    engine = ExperimentEngine(cache=ResultCache(tmp_path))
    batched = engine.orders_for(specs, runs=2)
    reference = ExperimentEngine(cache=None)
    assert batched == [reference.order_for(spec, runs=2) for spec in specs]
    # The duplicate spec was computed once, in a single grid submission.
    assert len(engine.reports) == 1
    assert engine.last_report.cells_done == 2


# ----------------------------------------------------------------------
# cell keys
# ----------------------------------------------------------------------
def test_cell_key_is_stable():
    sites = synthetic_sites()
    a = Cell(spec=sites["s2"], strategy=PushAllStrategy(), runs=2, seed_base=1)
    b = Cell(spec=synthetic_sites()["s2"], strategy=PushAllStrategy(), runs=2, seed_base=1)
    assert a.key() == b.key()


def test_cell_key_changes_with_every_input():
    sites = synthetic_sites()
    base = Cell(spec=sites["s2"], strategy=PushAllStrategy(), runs=2, seed_base=1)
    variants = [
        Cell(spec=sites["s3"], strategy=PushAllStrategy(), runs=2, seed_base=1),
        Cell(spec=sites["s2"], strategy=NoPushStrategy(), runs=2, seed_base=1),
        Cell(spec=sites["s2"], strategy=PushFirstNStrategy(1), runs=2, seed_base=1),
        Cell(spec=sites["s2"], strategy=PushAllStrategy(), runs=3, seed_base=1),
        Cell(spec=sites["s2"], strategy=PushAllStrategy(), runs=2, seed_base=2),
        Cell(
            spec=sites["s2"], strategy=PushAllStrategy(), runs=2, seed_base=1,
            conditions=FixedConditions(CABLE),
        ),
    ]
    keys = {base.key()} | {variant.key() for variant in variants}
    assert len(keys) == 1 + len(variants)


def test_cell_key_ignores_label():
    sites = synthetic_sites()
    a = Cell(spec=sites["s2"], strategy=None, runs=2, label="x")
    b = Cell(spec=sites["s2"], strategy=None, runs=2, label="y")
    assert a.key() == b.key()


def test_strategy_order_is_part_of_key():
    sites = synthetic_sites()
    spec = sites["s2"]
    urls = [res.url(spec.primary_domain) for res in spec.resources[:2]]
    a = Cell(spec=spec, strategy=PushAllStrategy(order=urls), runs=2)
    b = Cell(spec=spec, strategy=PushAllStrategy(order=list(reversed(urls))), runs=2)
    assert a.key() != b.key()


def test_fingerprint_handles_sets_of_enums():
    from repro.html.resources import ResourceType
    from repro.strategies.simple import PushByTypeStrategy

    a = PushByTypeStrategy([ResourceType.CSS, ResourceType.JS])
    b = PushByTypeStrategy([ResourceType.JS, ResourceType.CSS])
    assert fingerprint(a) == fingerprint(b)


# ----------------------------------------------------------------------
# shared order memoization
# ----------------------------------------------------------------------
def test_order_for_matches_compute_order_for(tmp_path):
    """Named for the retired ``runner.compute_order_for``; its §4.2
    steps (no-push loads, dependency trees, vote) are spelled out here."""
    spec = s2_landing()
    timelines = [load.timeline for load in handrolled_loads(spec, NoPushStrategy(), 2)]
    expected = computed_push_order(timelines, build_site(spec).html_url)
    engine = ExperimentEngine(cache=ResultCache(tmp_path))
    assert engine.order_for(spec, runs=2) == expected
    # Second call is served from the in-memory memo (no new report).
    reports = len(engine.reports)
    assert engine.order_for(spec, runs=2) == expected
    assert len(engine.reports) == reports
    # A fresh engine on the same cache reads the persisted order.
    other = ExperimentEngine(cache=ResultCache(tmp_path))
    assert other.order_for(spec, runs=2) == expected
    assert other.reports == []


# ----------------------------------------------------------------------
# satellite fixes: pushed_bytes aggregation and seed derivation
# ----------------------------------------------------------------------
def test_pushed_bytes_aggregates_and_detects_disagreement():
    spec = s2_landing()
    repeated = run_repeated(spec, PushAllStrategy(), runs=2)
    assert len(set(repeated.pushed_bytes_per_run)) == 1
    assert repeated.pushed_bytes == repeated.results[0].pushed_bytes

    tampered = type(repeated)(
        site=repeated.site,
        strategy=repeated.strategy,
        results=list(repeated.results),
    )
    tampered.results[1] = run_repeated(spec, NoPushStrategy(), runs=1).results[0]
    with pytest.raises(ExperimentError, match="pushed_bytes disagree"):
        tampered.pushed_bytes


def test_seed_derivation_matches_frozen_formulas():
    # The exact constants are load-bearing: they reproduce the numbers
    # of the original serial loops and key every cached cell.
    assert condition_seed(7, 3) == (7 * 1_000_003 + 3) ^ 0x5EED
    assert load_seed(7, 3) == 7 * 1000 + 3
    assert condition_seed(0, 0) != load_seed(0, 0)


def test_internet_conditions_cell_deterministic_across_executors():
    from repro.netsim.conditions import InternetConditions

    spec = s2_landing()
    cell = Cell(
        spec=spec, strategy=None, runs=3, seed_base=5,
        conditions=InternetConditions(),
    )
    serial = ExperimentEngine().run_cell(cell)
    with WarmPoolExecutor(max_workers=2) as executor:
        parallel = ExperimentEngine(executor=executor).run(Grid(cells=[cell, cell]))
    assert parallel[0] == serial
    assert parallel[1] == serial
