"""Names, units, directions and bounds of every metric the ledger prints.

``BENCHMARK.json`` at the repository root is generated from here
(``python3 benchmarks/ledger/spec.py > BENCHMARK.json``); this module
adds what that file has no key for: which end-to-end metric each layer
metric should move, and on which workload (choosing-metrics §3).
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple

from tracing import REPORTED_LAYERS


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end: share of the parent's median it may worsen by.
    #: Per-layer metrics are not gated and carry 0.0.
    bound: float = 0.0


WHY = {
    "replay_dsl": (
        "paper's DSL testbed shape: ~2.5 MB pages, body bytes dominate, "
        "so H2 DATA-path and TCP hot-path work must show here"
    ),
    "replay_lossy": (
        "same layers under loss: retransmission, RTO/delayed-ACK timers, "
        "reordering, impairments, QUIC recovery; guards the non-fast path"
    ),
    "small_objects": (
        "240 tiny images per page: header, scheduler and bookkeeping bound; "
        "a DATA-path optimisation predicts no change here"
    ),
    "fig6_grid": (
        "paper's section 5 grid through the experiment engine on small pages: "
        "per-load fixed cost, reducers, fork/prefix layer; bypassed by the others"
    ),
}
WORKLOADS = tuple(WHY)


END_TO_END: List[Metric] = [
    # successful loads per pass / typical pass wall at the reference host
    # speed (see harness.PassLog)
    Metric("loads_per_s", "loads/s", "higher", 0.10),
    # worker launch -> first operation ready, median of fresh launches;
    # raw wall, so it moves with the host: medians of ten runs taken
    # 20-40 minutes apart differed by up to 15 % (README.md)
    Metric("setup_s", "s", "lower", 0.25),
    # ru_maxrss of the workload's worker after its last timed pass
    Metric("peak_rss_mb", "MB", "lower", 0.10),
]

#: A pass whose walls spread wider than this is flagged, not argued with.
NOISY_PASS_IQR = 0.15

SETUP_SPANS = {
    "sites.generate_ms": "sites.generate",
    "html.build_site_ms": "html.build_site",
    "replay.record_site_ms": "replay.record_site",
    "strategies.push_order_ms": "strategies.push_order",
    "strategies.suite_ms": "strategies.suite",
}

DRIVES = {
    "sim.drive_us_per_event": "us",
    "h2.drive_us_per_data_frame": "us",
    "h2.drive_us_per_header_block": "us",
    "netsim.drive_us_per_wire_kb": "us",
    "netsim.drive_lossy_us_per_wire_kb": "us",
    "html.drive_us_per_kb": "us",
    "metrics.speed_index_us": "us",
}


#: Exact on every run of one commit; part of the digest where observable.
WORK_COUNTERS = [
    Metric("sim.events_per_load", "count", "lower"),
    Metric("h2.frames_per_load", "count", "lower"),
    Metric("netsim.wire_kb_per_load", "kB", "lower"),
    Metric("netsim.connections_per_load", "count", "lower"),
    Metric("netsim.drop_share", "ratio", "lower"),
    Metric("server.pushed_kb_per_load", "kB", "lower"),
    Metric("browser.requests_per_load", "count", "lower"),
    Metric("experiments.prefix_hit_share", "ratio", "higher"),
]


def _per_layer() -> List[Metric]:
    metrics = []
    for layer in REPORTED_LAYERS:
        metrics += [
            Metric(f"{layer}.self_share", "ratio", "lower"),
            Metric(f"{layer}.self_ms_per_load", "ms", "lower"),
            Metric(f"{layer}.incl_share", "ratio", "lower"),
            Metric(f"{layer}.pycalls_per_load", "count", "lower"),
        ]
    metrics += [Metric(name, "ms", "lower") for name in SETUP_SPANS]
    metrics += [
        Metric("replay.run_ms_p50", "ms", "lower"),
        Metric("replay.run_ms_p75", "ms", "lower"),
        Metric("experiments.engine_run_ms", "ms", "lower"),
        Metric("trace_overhead_share", "ratio", "lower"),
        *WORK_COUNTERS,
        # unit costs: not gated, a change that removes events raises them
        Metric("sim.self_us_per_event", "us", "lower"),
        Metric("h2.self_us_per_frame", "us", "lower"),
        Metric("netsim.self_us_per_wire_kb", "us", "lower"),
        Metric("replay.us_per_event", "us", "lower"),
    ]
    metrics += [Metric(name, unit, "lower") for name, unit in DRIVES.items()]
    return metrics


PER_LAYER: List[Metric] = _per_layer()

#: Written down before measuring: when the layer metric on the left
#: falls, ``loads_per_s`` should rise on ``rises_on`` and stay put on
#: ``flat_on``.  A faster layer saves at most its self-share of a pass.
INTERACTIONS: List[Dict[str, str]] = [
    {
        "layer_metric": "h2.self_ms_per_load via the DATA path "
        "(h2.drive_us_per_data_frame, h2.self_us_per_frame)",
        "rises_on": "replay_dsl, replay_lossy",
        "flat_on": "small_objects, fig6_grid (small bodies)",
    },
    {
        "layer_metric": "h2.self_ms_per_load via headers/scheduling "
        "(h2.drive_us_per_header_block, h2.pycalls_per_load)",
        "rises_on": "small_objects",
        "flat_on": "replay_dsl (< 5 %)",
    },
    {
        "layer_metric": "netsim.self_ms_per_load, netsim.drive_us_per_wire_kb",
        "rises_on": "replay_dsl, replay_lossy",
        "flat_on": "small_objects (small netsim share)",
    },
    {
        "layer_metric": "netsim.drive_lossy_us_per_wire_kb",
        "rises_on": "replay_lossy only",
        "flat_on": "replay_dsl, small_objects, fig6_grid (no loss)",
    },
    {
        "layer_metric": "sim.self_us_per_event, sim.drive_us_per_event",
        "rises_on": "all four, by at most sim.self_share",
        "flat_on": "-",
    },
    {
        "layer_metric": "browser.self_ms_per_load",
        "rises_on": "small_objects",
        "flat_on": "replay_dsl",
    },
    {
        "layer_metric": "experiments.self_share, replay.self_share (world "
        "building), experiments.prefix_hit_share",
        "rises_on": "fig6_grid",
        "flat_on": "the three replay workloads (engine bypassed)",
    },
    {
        "layer_metric": "html.build_site_ms, strategies.suite_ms, "
        "strategies.push_order_ms, replay.record_site_ms",
        "rises_on": "- (setup_s falls instead, mostly fig6_grid and replay_dsl)",
        "flat_on": "loads_per_s everywhere",
    },
    {
        "layer_metric": "sim.events_per_load, h2.frames_per_load, "
        "netsim.wire_kb_per_load",
        "rises_on": "must not move at all for a pure speed-up (in the digest)",
        "flat_on": "-",
    },
]


#: How long one ``--workload`` run measures.
RUN_SECONDS = 22


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=1))
