#!/usr/bin/env python3
"""The §4.2 push-order pipeline on a synthetic shop site.

1. Load the site repeatedly *without* push, tracing every request and
   its HTTP/2 priority.
2. Build a dependency tree per run (fonts hang off their stylesheet,
   script-injected images off their script).
3. Traverse each tree by priority and majority-vote the orders.
4. Push the first n objects of the computed order and compare.

Run:  python examples/push_order_pipeline.py
"""

from repro.experiments import run_repeated
from repro.html import build_site
from repro.sites.synthetic import s4_shop
from repro.strategies import NoPushStrategy, PushFirstNStrategy
from repro.strategies.order import DependencyTree, computed_push_order

RUNS = 5


def main() -> None:
    spec = s4_shop()
    built = build_site(spec)

    # Step 1: traced no-push loads.
    baseline = run_repeated(spec, NoPushStrategy(), runs=RUNS)
    timelines = [result.timeline for result in baseline.results]

    # Step 2-3: dependency tree + majority vote.
    tree = DependencyTree.from_timeline(timelines[0], built.html_url)
    print(f"dependency tree of {spec.name}: {len(tree)} resources")
    order = computed_push_order(timelines, built.html_url)
    print("computed push order (first 8):")
    for url in order[:8]:
        print("   ", url)

    # Step 4: push the first n objects of that order.
    print(f"\n{'strategy':<10} {'PLT':>8} {'SpeedIndex':>11}")
    print(f"{'no_push':<10} {baseline.median_plt:7.0f}ms {baseline.median_si:10.0f}ms")
    for n in (1, 5, 10):
        cell = run_repeated(spec, PushFirstNStrategy(n, order=order), runs=RUNS)
        print(f"{cell.strategy:<10} {cell.median_plt:7.0f}ms {cell.median_si:10.0f}ms")


if __name__ == "__main__":
    main()
