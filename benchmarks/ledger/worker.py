"""Workload worker: one subprocess per workload, driven over stdin/stdout.

Launch → set-up (imports, site generation, ``build_site``,
``record_site``, push-order loads, strategy suites, warm-up) → one
``ready`` line → then one JSON command per line until ``quit``.  The
parent times launch→ready from outside as ``setup_s`` and keeps only
one worker running at a time.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import repro  # noqa: E402

import spec  # noqa: E402
import workloads  # noqa: E402
from tracing import CallCounter, LayerMap, Spans, StackSampler  # noqa: E402

#: The count pass covers this many loads; the counts repeat exactly.
COUNT_OPS = 16
SPANS_DIR = HERE / "out"


class Worker:
    """A built, warmed-up workload answering the parent's commands."""

    def __init__(self, workload: workloads.Workload, spans: Spans):
        self.workload = workload
        self.spans = spans
        self.layers = LayerMap(str(Path(repro.__file__).resolve().parent))

    # -- commands ------------------------------------------------------
    def timed_pass(self, sampler: Optional[StackSampler] = None) -> dict:
        units = self.workload.units
        gc.collect()
        if sampler is not None:
            sampler.start()
        try:
            with self.spans.span("pass", traced=sampler is not None) as span:
                result = workloads.run_pass(units)
        finally:
            if sampler is not None:
                sampler.stop()
        ops = self.workload.ops
        failed = [
            list(op.label(self.workload.name)) + [outcome.error]
            for op, outcome in zip(ops, result.outcomes)
            if isinstance(outcome, workloads.Failure)
        ]
        reply = {
            "wall": span["end"] - span["start"],
            "walls": result.walls,
            "kernel_walls": result.kernel_walls,
            "unit_ops": [len(unit.ops) for unit in units],
            "attempted": len(ops),
            "failed": failed,
            "digest": workloads.digest_of(ops, result.outcomes),
            "violations": workloads.violations_of(ops, result.outcomes),
            "counters": workloads.counters_of(result.outcomes),
            "prefix_hits": result.prefix_hits,
            "prefix_misses": result.prefix_misses,
        }
        if sampler is not None:
            reply["samples"] = {
                "total": sampler.total,
                "self": sampler.self_samples,
                "incl": sampler.incl_samples,
            }
        return reply

    def count_pass(self) -> dict:
        units = self.workload.head(COUNT_OPS)
        # Untimed rehearsal: leaves the program's own caches (engine LRU,
        # prefix cache) in the state a repeat of these units finds them
        # in, so the counted calls do not depend on what ran before.
        workloads.run_pass(units)
        counts = []
        for _ in range(2):
            counter = CallCounter(self.layers)
            with self.spans.span("count_pass"), counter.counting():
                result = workloads.run_pass(units)
            counts.append(counter.calls)
        return {
            "loads": workloads.counters_of(result.outcomes)["loads"],
            "pycalls": counts[0],
            # counts are a claimable, noise-free cost: they must repeat
            "repeats": counts[0] == counts[1],
        }

    def setup_spans_ms(self) -> dict:
        """Per-call medians of the set-up spans (0.0 = never called)."""
        out = {}
        for name in spec.SETUP_SPANS.values():
            durations = sorted(self.spans.durations_ms(name))
            out[name] = durations[len(durations) // 2] if durations else 0.0
        return out


def set_up(name: str, seed: int, limit: int) -> Worker:
    """Everything ``setup_s`` pays for after the imports."""
    spans = Spans()
    with spans.span("setup"):
        workload = workloads.build_workload(name, seed, spans)
        if limit:
            workload.units = workload.head(limit)
        with spans.span("warmup"):
            workloads.run_pass(workload.head(workloads.WARMUP_OPS))
    return Worker(workload, spans)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--limit", type=int, default=0, help="first N loads only")
    args = parser.parse_args()

    worker = set_up(args.workload, args.seed, args.limit)
    send({"event": "ready", "loads": len(worker.workload.ops)})
    traced = False
    for line in sys.stdin:
        command = json.loads(line)["cmd"]
        if command == "pass":
            send(worker.timed_pass())
        elif command == "traced":
            traced = True
            send(worker.timed_pass(StackSampler(worker.layers)))
        elif command == "count":
            send(worker.count_pass())
        elif command == "stats":
            send(
                {
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    / 1024.0,
                    "setup_spans_ms": worker.setup_spans_ms(),
                }
            )
        elif command == "quit":
            break
        else:
            raise SystemExit(f"unknown command {command!r}")
    if traced:  # the traced run's spans, written out when it ends
        SPANS_DIR.mkdir(exist_ok=True)
        dump = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps(worker.spans.records))
    return 0


def send(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
