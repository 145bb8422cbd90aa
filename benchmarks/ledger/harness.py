"""Parent side of the ledger: launch workers, time passes, derive metrics."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import spec
from tracing import REPORTED_LAYERS, fold_layers

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_LAUNCHES = 5
QUIT_TIMEOUT_S = 30


class WorkerError(RuntimeError):
    """A worker or drive subprocess exited without answering."""


def _worker_env() -> Dict[str, str]:
    """The caller's environment with every mode switch scrubbed, so the
    program's default modes are what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkerHandle:
    """One live workload worker; ``setup_s`` is launch → ready."""

    def __init__(self, workload: str, seed: int, limit: int):
        self.workload = workload
        started = time.perf_counter()
        self._proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "worker.py"),
                "--workload", workload, "--seed", str(seed), "--limit", str(limit),
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_worker_env(),
        )
        try:
            self._read()  # the ready line
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _read(self) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            code = self._proc.wait()
            raise WorkerError(f"{self.workload} worker exited with code {code}")
        return json.loads(line)

    def call(self, command: str) -> dict:
        self._proc.stdin.write(json.dumps({"cmd": command}) + "\n")
        self._proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        proc = self._proc
        if proc.poll() is None:
            try:
                proc.stdin.write('{"cmd": "quit"}\n')
                proc.stdin.close()
                proc.wait(timeout=QUIT_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                proc.kill()
                proc.wait()
        proc.stdout.close()


def run_drives(scale: float = 1.0) -> Dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(HERE / "drives.py"), "--scale", str(scale)],
        stdout=subprocess.PIPE, text=True, env=_worker_env(),
    )
    if done.returncode != 0:
        raise WorkerError(f"drives exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


class PassLog:
    """Replies of one workload's passes, and what they add up to."""

    def __init__(self, workload: str):
        self.workload = workload
        self.replies: List[dict] = []

    def add(self, reply: dict) -> dict:
        self.replies.append(reply)
        return reply

    # -- output check --------------------------------------------------
    @property
    def digest(self) -> str:
        return self.replies[0]["digest"]

    def problems(self) -> List[str]:
        if not self.replies:
            return []
        found = []
        digests = {reply["digest"] for reply in self.replies}
        if len(digests) > 1:
            found.append(f"{self.workload}: digest differs between passes: {sorted(digests)}")
        for violation in self.replies[0]["violations"]:
            found.append(f"{self.workload}: invariant broken: {violation}")
        return found

    @property
    def attempted(self) -> int:
        return sum(reply["attempted"] for reply in self.replies)

    @property
    def failed(self) -> int:
        return sum(len(reply["failed"]) for reply in self.replies)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted

    # -- timing (every wall restated at the reference host speed) -------
    @property
    def pass_walls(self) -> List[float]:
        return [sum(reply["walls"]) for reply in self.replies]

    def kernel_ms(self) -> float:
        """Median wall of the reference kernel: how fast the host was."""
        return 1000.0 * statistics.median(
            wall for reply in self.replies for wall in reply["kernel_walls"]
        )

    def unit_medians(self) -> List[float]:
        """Each timed unit's median wall across the passes."""
        return [
            statistics.median(walls)
            for walls in zip(*(reply["walls"] for reply in self.replies))
        ]

    def typical_wall(self) -> float:
        """Sum of the per-unit medians: one pass with every unit having a
        typical day.  Steadier on a shared box than the median pass, whose
        every sample carries whatever burst hit that pass."""
        return sum(self.unit_medians())

    @property
    def loads_ok(self) -> int:
        """Successful loads per pass; a failed load earns no throughput."""
        return self.replies[0]["counters"]["loads"]

    def loads_per_s(self) -> float:
        return self.loads_ok / self.typical_wall()

    def loads_per_s_by_pass(self) -> List[float]:
        return [self.loads_ok / wall for wall in self.pass_walls]

    @property
    def noisy(self) -> bool:
        return spread(self.pass_walls) > spec.NOISY_PASS_IQR


def _percentile(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


class Session:
    """One workload's measurement, the same for every way of running it.

    ``SETUP_LAUNCHES`` fresh workers are launched in turn for ``setup_s``
    and the last one is kept; the caller then asks for rounds of passes
    (one workload alone for a time budget, or four workloads taking
    turns) and finally for the report: checks, end-to-end metrics and,
    after traced rounds, the per-layer ledger.
    """

    def __init__(self, workload: str, seed: int, launches: int = SETUP_LAUNCHES, limit: int = 0):
        self.workload = workload
        self.setups: List[float] = []
        for _ in range(launches - 1):
            probe = WorkerHandle(workload, seed, limit)
            probe.close()
            self.setups.append(probe.setup_s)
        self._worker = WorkerHandle(workload, seed, limit)
        self.setups.append(self._worker.setup_s)
        self.untraced = PassLog(workload)
        self.traced = PassLog(workload)
        #: (untraced, traced) walls of neighbouring passes: on a machine
        #: whose speed drifts only neighbours give an overhead worth reading.
        self._pairs: List[Tuple[float, float]] = []

    def close(self) -> None:
        self._worker.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def round(self, traced: bool) -> float:
        """One untraced pass and, when tracing, a traced one next to it.

        Returns the wall spent.  End-to-end numbers only ever come from
        the untraced passes.
        """
        reply = self.untraced.add(self._worker.call("pass"))
        spent = reply["wall"]
        if traced:
            with_sampler = self.traced.add(self._worker.call("traced"))
            self._pairs.append((sum(reply["walls"]), sum(with_sampler["walls"])))
            spent += with_sampler["wall"]
        return spent

    def report(self) -> dict:
        """Output checks and every metric the rounds so far support."""
        log = self.untraced
        problems = log.problems() + self.traced.problems()
        if self.traced.replies and self.traced.digest != log.digest:
            problems.append(f"{self.workload}: traced passes changed the digest")
        stats = self._worker.call("stats")
        out = {
            "loads_per_pass": log.replies[0]["attempted"],
            "passes": len(log.replies),
            "digest": log.digest,
            "attempted": log.attempted + self.traced.attempted,
            "failed": log.failed + self.traced.failed,
            "failed_share": log.failed_share,
            # loads are deterministic: one pass's list is every pass's list
            "failures": log.replies[0]["failed"],
            "noisy": log.noisy,
            "pass_walls_s": log.pass_walls,
            "reference_kernel_ms": log.kernel_ms(),
            "end_to_end": {
                "loads_per_s": _entry(log.loads_per_s(), log.loads_per_s_by_pass()),
                "setup_s": _entry(statistics.median(self.setups), self.setups),
                "peak_rss_mb": _entry(stats["peak_rss_mb"], [stats["peak_rss_mb"]]),
            },
        }
        if self._pairs:
            count = self._worker.call("count")
            if not count["repeats"]:
                problems.append(f"{self.workload}: call counts differ between two count passes")
            out["per_layer"] = self._per_layer(count, stats["setup_spans_ms"])
        out["problems"] = problems
        return out

    def _per_layer(self, count: dict, setup_spans_ms: Dict[str, float]) -> Dict[str, float]:
        """Every workload-dependent ``spec.PER_LAYER`` metric.

        Shares come from the traced passes' samples; milliseconds apply
        those shares to the *untraced* typical pass, so tracing overhead
        never enters a time.
        """
        log = self.untraced
        loads = max(1, log.loads_ok)
        pass_ms = log.typical_wall() * 1000.0
        totals = {"self": {}, "incl": {}}
        sampled = 0
        for reply in self.traced.replies:
            sampled += reply["samples"]["total"]
            for kind, bucket in totals.items():
                for layer, hits in reply["samples"][kind].items():
                    bucket[layer] = bucket.get(layer, 0) + hits
        self_share = {k: v / sampled for k, v in fold_layers(totals["self"]).items()}
        incl_share = {k: v / sampled for k, v in fold_layers(totals["incl"]).items()}
        pycalls = fold_layers(count["pycalls"])
        counted_loads = max(1, count["loads"])

        out: Dict[str, float] = {}
        for layer in REPORTED_LAYERS:
            out[f"{layer}.self_share"] = self_share[layer]
            out[f"{layer}.self_ms_per_load"] = self_share[layer] * pass_ms / loads
            out[f"{layer}.incl_share"] = incl_share[layer]
            out[f"{layer}.pycalls_per_load"] = pycalls[layer] / counted_loads
        for name, span_name in spec.SETUP_SPANS.items():
            out[name] = setup_spans_ms[span_name]

        reply = log.replies[0]
        per_load_ms = [
            wall * 1000.0 / ops for wall, ops in zip(log.unit_medians(), reply["unit_ops"])
        ]
        out["replay.run_ms_p50"] = _percentile(per_load_ms, 0.50)
        out["replay.run_ms_p75"] = _percentile(per_load_ms, 0.75)
        is_grid = max(reply["unit_ops"]) > 1
        out["experiments.engine_run_ms"] = (
            statistics.median(log.unit_medians()) * 1000.0 if is_grid else 0.0
        )
        out["trace_overhead_share"] = statistics.median(
            with_sampler / without - 1.0 for without, with_sampler in self._pairs
        )

        work = reply["counters"]
        wire_kb = work["wire_bytes"] / 1000.0
        lookups = reply["prefix_hits"] + reply["prefix_misses"]
        out["sim.events_per_load"] = work["events"] / loads
        out["h2.frames_per_load"] = work["frames"] / loads
        out["netsim.wire_kb_per_load"] = wire_kb / loads
        out["netsim.connections_per_load"] = work["connections"] / loads
        out["netsim.drop_share"] = (
            work["packets_dropped"] / work["packets_seen"] if work["packets_seen"] else 0.0
        )
        out["server.pushed_kb_per_load"] = work["pushed_bytes"] / 1000.0 / loads
        out["browser.requests_per_load"] = work["requests"] / loads
        out["experiments.prefix_hit_share"] = reply["prefix_hits"] / lookups if lookups else 0.0

        def unit_cost(layer: str, amount: float) -> float:
            # 0.0 where the work count is not observable (the engine hides
            # the probe on fig6_grid).
            return self_share[layer] * pass_ms * 1000.0 / amount if amount else 0.0

        out["sim.self_us_per_event"] = unit_cost("sim", work["events"])
        out["h2.self_us_per_frame"] = unit_cost("h2", work["frames"])
        out["netsim.self_us_per_wire_kb"] = unit_cost("netsim", wire_kb)
        out["replay.us_per_event"] = pass_ms * 1000.0 / work["events"] if work["events"] else 0.0
        return out


def _entry(value: float, samples: Sequence[float]) -> dict:
    """A gated metric with the samples behind its value."""
    q1, median, q3 = quartiles(samples)
    return {"value": value, "samples": list(samples), "q1": q1, "median": median, "q3": q3}
