#!/usr/bin/env python3
"""The paper's §5 evaluation on the w1 (wikipedia) site model.

Measures all six strategy deployments — no push, no push optimized
(critical CSS extracted penthouse-style), push all, push all optimized,
push critical, push critical optimized — each over several runs, and
prints the Fig. 6-style relative SpeedIndex changes with confidence
intervals and pushed-byte totals.

w1 is the paper's flagship example: a 236 KB HTML whose CSS the browser
prioritizes *below* the document, so the unmodified server sends the
entire HTML before the stylesheet.  Interleaving the critical CSS after
a few KB of HTML repairs exactly that.

Run:  python examples/six_strategies_wikipedia.py
"""

from repro.experiments import run_repeated
from repro.metrics import confidence_interval, relative_change
from repro.sites.realworld import w1_wikipedia
from repro.strategies.critical import build_strategy_suite

RUNS = 5


def main() -> None:
    spec = w1_wikipedia()
    suite = build_strategy_suite(spec)
    print(f"site: {spec.name} — HTML {spec.html_size / 1000:.0f} KB, "
          f"{len(spec.resources)} objects\n")

    baseline = None
    print(f"{'deployment':<26} {'ΔSpeedIndex':>14} {'pushed':>10}")
    for deployment in suite:
        cell = run_repeated(deployment.spec, deployment.strategy, runs=RUNS)
        if deployment.name == "no_push":
            baseline = cell
            print(f"{deployment.name:<26} {'(baseline)':>14} {0.0:>8.1f}KB"
                  f"   SI = {cell.median_si:.0f} ms")
            continue
        deltas = [
            relative_change(value, base)
            for value, base in zip(cell.si_values, baseline.si_values)
        ]
        center, half = confidence_interval(deltas, level=0.995)
        print(
            f"{deployment.name:<26} {center:+8.2f}%±{half:4.2f} "
            f"{cell.pushed_bytes / 1000:>8.1f}KB"
        )


if __name__ == "__main__":
    main()
