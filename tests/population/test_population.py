"""Population layer: sampling determinism, invariances, golden record.

The load-bearing guarantees:

* a load's client draw depends only on (study seed, cohort, load index)
  — so studies are batch-size and executor invariant, bit for bit;
* accumulators merge associatively (sharded studies equal streamed
  ones);
* the pinned golden record reproduces exactly, serial and pooled;
* the study's memory peak does not grow with its load count.
"""

from __future__ import annotations

import gc
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.experiments.engine import ExperimentEngine, SerialExecutor, WarmPoolExecutor
from repro.experiments.seeds import population_seed_base
from repro.netsim.conditions import PROFILES
from repro.population import (
    PopulationConfig,
    PopulationSampler,
    population_sampler,
    quick_cohorts,
    render_population,
    run_population,
)
from repro.population.cohorts import QUICK_PROFILE, Cohort
from repro.population.report import CohortAccumulator
from repro.sites.corpus import generate_corpus

GOLDEN_PATH = Path(__file__).parent.parent / "experiments" / "golden_population_cell.json"

#: The pinned study configuration behind the golden record.  Changing
#: any of these (or anything upstream of them: seeds, sampler draw
#: order, simulator behaviour) invalidates the golden file — see the
#: regeneration note in test_golden_population_record.
GOLDEN_CONFIG = dict(loads=6, batch_size=4, seed=7, quick=True)


# ----------------------------------------------------------------------
# Sampler
# ----------------------------------------------------------------------
def test_sampler_is_deterministic_in_its_rng():
    sampler = population_sampler("global")
    a = sampler.sample(random.Random(42))
    b = sampler.sample(random.Random(42))
    assert a == b
    assert a != sampler.sample(random.Random(43))


def test_sampler_mixes_profiles():
    sampler = population_sampler("global")
    rtts = {sampler.sample(random.Random(i)).congestion_control for i in range(40)}
    # Both cubic (cellular) and reno (wired) clients must appear.
    assert rtts == {"cubic", "reno"}


def test_sampler_validates():
    with pytest.raises(ConfigError):
        PopulationSampler([])
    with pytest.raises(ConfigError):
        PopulationSampler([("clean_dsl", 0.0)])
    with pytest.raises(ConfigError):
        population_sampler("nonexistent")
    with pytest.raises(ConfigError):
        PopulationSampler([("not_a_profile", 1.0)])


def test_device_delay_reaches_conditions():
    sampler = population_sampler("wired")
    delays = {
        sampler.sample(random.Random(i)).server_delay_ms for i in range(60)
    }
    expected = {d.processing_delay_ms for d in sampler.devices}
    assert delays == expected  # wired bases have server_delay_ms == 0


def test_population_seed_base_is_injective_locally():
    seen = set()
    for cohort in range(3):
        for load in range(200):
            seen.add(population_seed_base(7, cohort, load))
    assert len(seen) == 3 * 200


# ----------------------------------------------------------------------
# Accumulators
# ----------------------------------------------------------------------
def _fake_summary(plt, pushed=0):
    from repro.experiments.reducers import CellSummary, RunStats

    stats = RunStats(
        plt_ms=plt,
        speed_index_ms=plt * 0.8,
        first_visual_change_ms=0.0,
        pushed_bytes=pushed,
        downlink_bytes=0,
        uplink_bytes=0,
        connections=1,
        requests=1,
    )
    return CellSummary("s", "x", (stats,))


def test_accumulator_merge_matches_streaming():
    pairs = [(100.0 + i * 7, 90.0 + i * 5) for i in range(50)]
    whole = CohortAccumulator("c", "push_all")
    for base, push in pairs:
        whole.add_pair(_fake_summary(base), _fake_summary(push, pushed=10))
    left = CohortAccumulator("c", "push_all")
    right = CohortAccumulator("c", "push_all")
    for base, push in pairs[:20]:
        left.add_pair(_fake_summary(base), _fake_summary(push, pushed=10))
    for base, push in pairs[20:]:
        right.add_pair(_fake_summary(base), _fake_summary(push, pushed=10))
    left.merge(right)
    assert left.loads == whole.loads
    assert left.helped == whole.helped
    assert left.treatment.pushed_bytes_total == whole.treatment.pushed_bytes_total
    assert left.baseline.plt_digest.count == whole.baseline.plt_digest.count


def test_verdict_logic():
    helps = CohortAccumulator("c", "push_all")
    for i in range(10):
        helps.add_pair(_fake_summary(1000.0 + i), _fake_summary(800.0 + i))
    assert helps.verdict == "push_helps"
    hurts = CohortAccumulator("c", "push_all")
    for i in range(10):
        hurts.add_pair(_fake_summary(800.0 + i), _fake_summary(1000.0 + i))
    assert hurts.verdict == "push_hurts"
    neutral = CohortAccumulator("c", "push_all")
    for i in range(10):
        neutral.add_pair(_fake_summary(1000.0 + i), _fake_summary(1000.0 + i))
    assert neutral.verdict == "neutral"


# ----------------------------------------------------------------------
# Study invariances + golden record
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_study():
    config = PopulationConfig(**GOLDEN_CONFIG)
    engine = ExperimentEngine(executor=SerialExecutor(), cache=None)
    return run_population(config, engine=engine)


def test_golden_population_record(golden_study):
    """Pinned study record; regenerate only for intentional semantic
    changes::

        PYTHONPATH=src python - <<'PY'
        import json
        from repro.population import PopulationConfig, run_population
        res = run_population(PopulationConfig(loads=6, batch_size=4,
                                              seed=7, quick=True))
        open("tests/experiments/golden_population_cell.json", "w").write(
            json.dumps(res.to_json(), indent=2, sort_keys=True) + "\n")
        PY
    """
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden_study.to_json() == golden


def test_study_is_batch_size_invariant(golden_study):
    config = PopulationConfig(**{**GOLDEN_CONFIG, "batch_size": 1})
    rerun = run_population(
        config, engine=ExperimentEngine(executor=SerialExecutor(), cache=None)
    )
    assert rerun.to_json() == golden_study.to_json()


def test_study_is_executor_invariant(golden_study):
    config = PopulationConfig(**GOLDEN_CONFIG)
    with WarmPoolExecutor(max_workers=2) as executor:
        pooled = run_population(
            config, engine=ExperimentEngine(executor=executor, cache=None)
        )
    assert pooled.to_json() == golden_study.to_json()


def test_render_population_mentions_every_cohort(golden_study):
    text = render_population(golden_study)
    for cohort in quick_cohorts():
        assert cohort.name in text
    assert "verdict=" in text


def test_config_validation():
    with pytest.raises(ConfigError):
        run_population(PopulationConfig(loads=0, quick=True))
    with pytest.raises(ConfigError):
        run_population(PopulationConfig(batch_size=0, quick=True))
    with pytest.raises(ConfigError):
        run_population(PopulationConfig(strategy="no_push", quick=True, loads=1))


# ----------------------------------------------------------------------
# Constant memory in the load count
# ----------------------------------------------------------------------
def test_study_memory_does_not_scale_with_loads():
    """Loads stream through bounded reducers in batches, so ten times
    the loads leave the traced allocation peak where it was: the ratio
    reads ~1.0.  The peak is one replay's working set (~1.6 MB here),
    so the bound is tight — a driver that keeps every load's
    ``PageLoadResult`` (~3.5 kB each) reads ~1.18 at 40 loads, under
    the 2x that would take some 500 loads to reach.  A warm-up study
    goes first, so import-time work and the site memo land in neither
    measured peak."""
    cohort = Cohort(
        name="memory/wired",
        spec=generate_corpus(QUICK_PROFILE, 1, seed=2018)[0].spec,
        sampler=population_sampler("wired"),
    )

    def traced_peak(loads: int) -> int:
        config = PopulationConfig(loads=loads, batch_size=4, cohorts=[cohort])
        engine = ExperimentEngine(executor=SerialExecutor(), cache=None)
        gc.collect()
        tracemalloc.start()
        try:
            run_population(config, engine=engine)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(1)
    base = traced_peak(4)
    assert traced_peak(40) / base <= 1.1
