"""Self-test of the ledger itself (``run.py --selftest``)."""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from tracing import CallCounter, LayerMap, Spans, StackSampler  # noqa: E402


def small_units(seed: int, loads: int = 4) -> workloads.Workload:
    workload = workloads.build_workload("small_objects", seed, Spans())
    workload.units = workload.head(loads)
    return workload


# ----------------------------------------------------------------------
def test_digest_is_pass_invariant_and_seed_sensitive():
    workload = small_units(seed=11)
    first = workloads.run_pass(workload.units)
    second = workloads.run_pass(workload.units)
    digest = workloads.digest_of(workload.ops, first.outcomes)
    assert digest == workloads.digest_of(workload.ops, second.outcomes)
    assert not workloads.violations_of(workload.ops, first.outcomes)

    other = small_units(seed=12)
    assert digest != workloads.digest_of(
        other.ops, workloads.run_pass(other.units).outcomes
    )


def test_sampler_charges_a_synthetic_stack_to_the_right_layer():
    sampler = StackSampler(LayerMap("/x/src/repro"))
    sampler.charge(  # innermost first: stdlib called by sim called by netsim
        [
            "/usr/lib/python3.11/heapq.py",
            "/x/src/repro/sim/fastcore.py",
            "/x/src/repro/netsim/tcp.py",
            "/x/src/repro/replay/testbed.py",
            "/x/benchmarks/ledger/worker.py",
        ]
    )
    sampler.charge(["/usr/lib/python3.11/json/encoder.py", "/x/benchmarks/ledger/worker.py"])
    sampler.charge(["/x/src/repro/units.py"])
    assert sampler.total == 3
    assert sampler.self_samples == {"sim": 1, "other": 1, "misc": 1}
    assert sampler.incl_samples == {"sim": 1, "netsim": 1, "replay": 1, "other": 1, "misc": 1}


def test_call_counter_repeats_exactly():
    workload = small_units(seed=11, loads=2)
    layers = LayerMap(str(Path(worker.repro.__file__).resolve().parent))
    counts = []
    for _ in range(2):
        counter = CallCounter(layers)
        with counter.counting():
            workloads.run_pass(workload.units)
        counts.append(counter.calls)
    assert counts[0] == counts[1]
    assert counts[0]["h2"] > counts[0]["netsim"] > 0


class Boom(ReproError):
    pass


class FailingTestbed:
    def run(self, seed, probe):
        raise Boom("deliberate")


def test_failing_operation_counts_as_failed_and_earns_no_throughput():
    workload = small_units(seed=11, loads=1)
    op = workload.ops[0]
    workload.units.append(workloads.ReplayUnit(op, FailingTestbed()))
    log = harness.PassLog("t")
    reply = log.add(worker.Worker(workload, Spans()).timed_pass())
    assert reply["attempted"] == 2
    assert [failure[-1] for failure in reply["failed"]] == ["Boom: deliberate"]
    assert log.failed_share == 0.5
    assert log.loads_ok == 1
    assert log.loads_per_s() == 1 / log.typical_wall()
    assert not log.problems()


# ----------------------------------------------------------------------
ALLOWED_IMPORTS = {
    "repro": set(),
    "repro.errors": {"ReproError"},
    "repro.sites": {"generate_corpus", "TOP_100_PROFILE", "realworld_sites"},
    "repro.html": {
        "WebsiteSpec", "ResourceSpec", "ResourceType", "build_site", "HtmlTokenizer",
    },
    "repro.replay.recorder": {"record_site"},
    "repro.replay.testbed": {"ReplayTestbed"},
    "repro.netsim": {"Topology", "conditions"},
    "repro.strategies": {"simple"},
    "repro.strategies.critical": {"build_strategy_suite"},
    "repro.strategies.order": {"computed_push_order"},
    "repro.experiments.engine": {"ExperimentEngine", "Grid", "SerialExecutor"},
    "repro.experiments.runner": {"prefix_cache_stats"},
    "repro.sim": {"new_simulator"},
    "repro.h2": {"FrameReader", "DataFrame"},
    "repro.h2.hpack": {"HpackEncoder", "HpackDecoder"},
    "repro.metrics.speedindex": {"speed_index_of"},
}
FORBIDDEN_NAMES = {
    "LegacyParallelExecutor", "WarmPoolExecutor", "ParallelExecutor",
    "FastSimulator", "Simulator", "set_core_mode", "use_fastcore",
    "fork_enabled", "set_fork_mode", "PrefixCache",
}
MODE_SWITCH = re.compile(r"REPRO_[A-Z]")


def import_rule_breaches(source: str) -> list:
    breaches = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro" and alias.name not in ALLOWED_IMPORTS:
                    breaches.append(f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            allowed = ALLOWED_IMPORTS.get(node.module)
            for alias in node.names:
                if allowed is None or alias.name not in allowed:
                    breaches.append(f"from {node.module} import {alias.name}")
        elif isinstance(node, ast.Attribute):
            private = node.attr.startswith("_") and not node.attr.endswith("__")
            own = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            if private and not own:
                breaches.append(f"private attribute .{node.attr}")
            if node.attr in FORBIDDEN_NAMES:
                breaches.append(f"forbidden name .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            breaches.append(f"forbidden name {node.id}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if MODE_SWITCH.search(node.value):
                breaches.append(f"mode switch named in {node.value!r}")
    return breaches


def test_import_rule_holds_for_every_file_here():
    for path in sorted(HERE.glob("*.py")):
        assert import_rule_breaches(path.read_text()) == [], path.name


def test_import_rule_scan_catches_breaches():
    switch = "REPRO" + "_FORK"  # spelled in two halves so this file passes its own scan
    bad = (
        "import os\n"
        "from repro.sim import FastSimulator\n"
        "from repro.experiments.engine import WarmPoolExecutor\n"
        f"os.environ['{switch}'] = '0'\n"
        "page._pending\n"
    )
    found = import_rule_breaches(bad)
    assert "from repro.sim import FastSimulator" in found
    assert "from repro.experiments.engine import WarmPoolExecutor" in found
    assert f"mode switch named in '{switch}'" in found
    assert "private attribute ._pending" in found


# ----------------------------------------------------------------------
def test_manifest_is_the_generated_one():
    """``BENCHMARK.json`` is ``spec.py``'s output, within the contract's sizes."""
    assert json.loads((run.ROOT / "BENCHMARK.json").read_text()) == spec.manifest()
    assert len(spec.END_TO_END) <= 16 and len(spec.PER_LAYER) <= 128


def _entry(value, samples):
    return {"value": value, "samples": samples}


def test_compare_verdicts():
    higher = spec.Metric("loads_per_s", "loads/s", "higher", 0.10)
    steady_a = _entry(10.0, [9.9, 10.0, 10.1, 10.0])
    assert run.verdict(higher, steady_a, _entry(9.5, [9.4, 9.5, 9.6, 9.5]), False) == "same"
    assert run.verdict(higher, steady_a, _entry(8.5, [8.4, 8.5, 8.6, 8.5]), False) == "worse"
    assert run.verdict(higher, steady_a, _entry(8.5, [8.4, 8.5, 8.6, 8.5]), True) == "unresolved"
    wide = _entry(10.0, [8.0, 10.0, 12.0, 9.0])
    assert run.verdict(higher, wide, _entry(10.0, [9.9, 10.0, 10.1, 10.0]), False) == "unresolved"
    # spread wider than the bound, but every B run beats every A run
    assert run.verdict(higher, wide, _entry(20.0, [19.0, 20.0, 21.0, 20.0]), False) == "same"


def test_the_two_recorded_sets_agree():
    """The committed pair of full runs: same outputs, no ``worse``."""
    first = json.loads(run.LEDGER_FILE.read_text())["workloads"]
    second = json.loads((HERE / "LEDGER-second-run.json").read_text())["workloads"]
    exact = [metric.name for metric in spec.WORK_COUNTERS]
    exact += [m.name for m in spec.PER_LAYER if m.name.endswith(".pycalls_per_load")]
    for name in spec.WORKLOADS:
        assert first[name]["digest"] == second[name]["digest"]
        assert first[name]["failed_share"] == second[name]["failed_share"]
        for metric in exact:
            assert first[name]["per_layer"][metric] == second[name]["per_layer"][metric]
    assert run.compare(str(run.LEDGER_FILE), str(HERE / "LEDGER-second-run.json")) == 0
