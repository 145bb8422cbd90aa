#!/usr/bin/env python3
"""The repository's benchmark: host cost of simulating page loads.

Four closed-loop, single-client workloads (one operation = one page
load), end-to-end host-throughput metrics measured with tracing off,
and a per-layer cost ledger measured from outside the program.  See
README.md in this directory for the protocol.

    run.py --workload W --seed N --seconds S --trace 0|1   one workload, JSON last line
    run.py [--seed N] [--passes P] [--strict]              the whole ledger
    run.py --smoke | --selftest | --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spec  # noqa: E402
from harness import Session, spread  # noqa: E402

#: This PR's recorded full run: a copy of its ``out/ledger-seed2018.json``.
LEDGER_FILE = HERE / "LEDGER.json"
WORKLOADS = spec.WORKLOADS
DEFAULT_SEED = 2018
DEFAULT_PASSES = 10
SMOKE_OPS = 12


def say(*parts) -> None:
    print(*parts, file=sys.stderr)


def recorded_problems(name: str, seed: int, report: dict, strict: bool) -> List[str]:
    """Compare one workload's report with the recorded run of the same seed."""
    if not LEDGER_FILE.exists():
        return []
    record = json.loads(LEDGER_FILE.read_text())
    before = record["workloads"].get(name)
    if record["seed"] != seed or before is None:
        return []
    found = []
    if report["failed_share"] > before["failed_share"]:
        found.append(
            f"{name}: failed_share {report['failed_share']:.4f} exceeds the "
            f"recorded {before['failed_share']:.4f}"
        )
    if report["digest"] != before["digest"]:
        drift = f"digest_drift: {name}: {before['digest'][:16]} -> {report['digest'][:16]}"
        if strict:
            found.append(drift)
        else:
            say(drift)
    return found


def checked(name: str, seed: int, report: dict, strict: bool, smoke: bool = False) -> List[str]:
    """Name the failing operations and list what makes the run incorrect."""
    for failure in report["failures"]:
        say("FAILED OPERATION (workload, site, condition, strategy, seed, error):", failure)
    problems = list(report["problems"])
    if not smoke:  # a smoke run replays only the head of each operation list
        problems += recorded_problems(name, seed, report, strict)
    for problem in problems:
        say("CHECK FAILED:", problem)
    return problems


# ----------------------------------------------------------------------
# one workload, as the driver calls it
# ----------------------------------------------------------------------
def run_one(workload: str, seed: int, seconds: float, trace: bool, strict: bool) -> int:
    # setup_s is an end-to-end metric: a traced run does not pay for it
    with Session(workload, seed, launches=1 if trace else harness.SETUP_LAUNCHES) as session:
        spent = 0.0
        while spent < seconds or len(session.untraced.replies) < 2:
            spent += session.round(traced=trace)
        report = session.report()
    if trace:
        values = {**report["per_layer"], **harness.run_drives()}
        metrics = spec.PER_LAYER
    else:
        values = {name: entry["value"] for name, entry in report["end_to_end"].items()}
        metrics = spec.END_TO_END
    problems = checked(workload, seed, report, strict)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    metric.name: {"value": values[metric.name], "unit": metric.unit}
                    for metric in metrics
                },
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# the whole ledger
# ----------------------------------------------------------------------
def run_ledger(seed: int, passes: int, smoke: bool) -> dict:
    """Round-robin the four workloads; return the result document."""
    sessions: Dict[str, Session] = {}
    reports = {}
    try:
        for name in WORKLOADS:
            say(f"set-up {name}")
            if smoke:
                sessions[name] = Session(name, seed, launches=1, limit=SMOKE_OPS)
            else:
                sessions[name] = Session(name, seed)
        # Interleaved so minute-scale drift of a shared machine lands on
        # every workload equally; only one worker runs at a time.
        for index in range(passes):
            for name, session in sessions.items():
                wall = session.round(traced=True)
                say(f"round {index + 1}/{passes} {name} {wall:.2f} s")
        for name, session in sessions.items():
            reports[name] = session.report()
    finally:
        for session in sessions.values():
            session.close()
    for name, report in reports.items():
        report["why"] = spec.WHY[name]
    say("layer drives")
    drives = harness.run_drives(0.1 if smoke else 1.0)
    return {
        "schema_version": 2,
        "command": [*spec.manifest()["command"], "--seed", str(seed), "--passes", str(passes)],
        "seed": seed,
        "passes": passes,
        "smoke": smoke,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "interactions": spec.INTERACTIONS,
        "drives": drives,
        "workloads": reports,
    }


def print_ledger(document: dict) -> None:
    for name, entry in document["workloads"].items():
        flag = "  ** noisy **" if entry["noisy"] else ""
        print(
            f"\n== {name}: {entry['loads_per_pass']} loads/pass x {entry['passes']} "
            f"passes, digest {entry['digest'][:16]}{flag}"
        )
        print(f"   {entry['why']}")
        for metric in spec.END_TO_END:
            value = entry["end_to_end"][metric.name]
            print(
                f"  {metric.name:<34}{value['value']:>14.4f} {metric.unit:<8}"
                f"q1 {value['q1']:.4f}  q3 {value['q3']:.4f}  "
                f"({metric.better} is better, bound {metric.bound:.0%})"
            )
        print(f"  {'failed_share':<34}{entry['failed_share']:>14.4f} ratio")
        print(f"  {'reference_kernel_ms':<34}{entry['reference_kernel_ms']:>14.4f} ms")
        for metric in spec.PER_LAYER:
            if metric.name not in spec.DRIVES:
                print(f"  {metric.name:<34}{entry['per_layer'][metric.name]:>14.4f} {metric.unit}")
    print("\n== layer drives (workload independent)")
    for name, unit in spec.DRIVES.items():
        print(f"  {name:<34}{document['drives'][name]:>14.4f} {unit}")


# ----------------------------------------------------------------------
# compare two result files
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: A vs B, choosing-metrics §6.5."""
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    worse = 0
    print(f"A = {path_a}\nB = {path_b}")
    for name in a:
        if name not in b:
            continue
        if a[name]["digest"] != b[name]["digest"]:
            print(f"{name}: digest differs (simulated outputs changed)")
        share_a, share_b = a[name]["failed_share"], b[name]["failed_share"]
        worse += share_b > share_a
        print(
            f"{name:<14}{'failed_share':<13}A {share_a:.4f}  B {share_b:.4f}  "
            f"(may not rise at all)  {'worse' if share_b > share_a else 'same'}"
        )
        for metric in spec.END_TO_END:
            va, vb = (side[name]["end_to_end"][metric.name] for side in (a, b))
            outcome = verdict(metric, va, vb, a[name]["noisy"] or b[name]["noisy"])
            worse += outcome == "worse"
            print(
                f"{name:<14}{metric.name:<13}"
                f"A {va['value']:.4f} [{va['q1']:.4f}, {va['q3']:.4f}]  "
                f"B {vb['value']:.4f} [{vb['q1']:.4f}, {vb['q3']:.4f}]  "
                f"B/A {vb['value'] / va['value']:.3f} (base A {va['value']:.4f} "
                f"{metric.unit})  {outcome}"
            )
    return 1 if worse else 0


def verdict(metric: spec.Metric, a: dict, b: dict, noisy: bool) -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    unsteady = noisy or max(spread(a["samples"]), spread(b["samples"])) > metric.bound
    if unsteady:
        every_b_better = max(sign * x for x in b["samples"]) < min(sign * x for x in a["samples"])
        return "same" if every_b_better else "unresolved"
    worsened = sign * (b["value"] - a["value"]) / a["value"]
    return "worse" if worsened > metric.bound else "same"


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=DEFAULT_PASSES)
    parser.add_argument("--strict", action="store_true", help="digest_drift is fatal")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(HERE / "test_ledger.py")]
        ).returncode
    if not (ROOT / "src" / "repro").is_dir():
        say(f"error: no program to measure under {ROOT / 'src'}")
        return 2
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.strict)

    document = run_ledger(args.seed, 1 if args.smoke else args.passes, args.smoke)
    print_ledger(document)
    problems = [
        problem
        for name, report in document["workloads"].items()
        for problem in checked(name, args.seed, report, args.strict, args.smoke)
    ]
    out = harness.OUT_DIR / f"ledger-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nresults written to {out}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
