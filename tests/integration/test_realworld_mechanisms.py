"""Each §5 case-study mechanism, asserted on its Table 1 site model.

These are the claims the paper makes per site; the models must
reproduce them (see EXPERIMENTS.md for the measured magnitudes).
"""

import pytest

from repro.experiments import run_repeated
from repro.metrics.speedindex import first_visual_change
from repro.sites.realworld import (
    w1_wikipedia,
    w7_reddit,
    w9_paypal,
    w10_walmart,
    w16_twitter,
    w17_cnn,
)
from repro.strategies.critical import build_strategy_suite

RUNS = 2


def deployment_si(spec, *names):
    """Median SI per requested deployment name."""
    suite = {d.name: d for d in build_strategy_suite(spec)}
    out = {}
    for name in names:
        deployment = suite[name]
        out[name] = run_repeated(deployment.spec, deployment.strategy, runs=RUNS)
    return out


class TestW1Wikipedia:
    """Large HTML, CSS prioritized below it: interleaving wins big."""

    @pytest.fixture(scope="class")
    def cells(self):
        return deployment_si(
            w1_wikipedia(), "no_push", "push_all", "push_critical_optimized"
        )

    def test_interleaving_wins_at_least_30pct(self, cells):
        baseline = cells["no_push"].median_si
        optimized = cells["push_critical_optimized"].median_si
        assert optimized < baseline * 0.7

    def test_plain_push_all_does_not_help(self, cells):
        # The pushed objects wait behind the full HTML (Fig. 5a).
        baseline = cells["no_push"].median_si
        assert cells["push_all"].median_si > baseline * 0.9

    def test_critical_pushes_an_order_of_magnitude_less(self, cells):
        assert (
            cells["push_critical_optimized"].pushed_bytes
            < 0.2 * cells["push_all"].pushed_bytes
        )


class TestW7Reddit:
    """A large blocking head JS dominates: CSS tricks barely help."""

    def test_no_push_optimized_is_a_wash(self):
        cells = deployment_si(w7_reddit(), "no_push", "no_push_optimized")
        baseline = cells["no_push"].median_si
        assert abs(cells["no_push_optimized"].median_si - baseline) < 0.1 * baseline


class TestW9Paypal:
    """No blocking code until the end: plain push-all helps, the
    interleaving deployment does not."""

    @pytest.fixture(scope="class")
    def cells(self):
        return deployment_si(
            w9_paypal(), "no_push", "push_all", "push_critical_optimized"
        )

    def test_push_all_helps(self, cells):
        assert cells["push_all"].median_si < cells["no_push"].median_si

    def test_interleaving_does_not_help(self, cells):
        assert (
            cells["push_critical_optimized"].median_si
            > cells["no_push"].median_si * 0.95
        )


class TestW10Walmart:
    """Image-heavy with inlined JS: push-all causes contention, the
    critical-only push merely avoids the damage."""

    @pytest.fixture(scope="class")
    def cells(self):
        return deployment_si(
            w10_walmart(), "no_push", "push_all_optimized", "push_critical"
        )

    def test_push_all_detrimental(self, cells):
        assert cells["push_all_optimized"].median_si > cells["no_push"].median_si * 1.05

    def test_push_critical_reduces_detriment(self, cells):
        assert (
            cells["push_critical"].median_si
            < cells["push_all_optimized"].median_si
        )
        assert (
            cells["push_critical"].median_si
            < cells["no_push"].median_si * 1.05
        )


class TestW16Twitter:
    """Small HTML with HTML-dependent CSS: interleaving still wins with
    a tiny pushed payload."""

    def test_interleaving_wins_cheaply(self):
        cells = deployment_si(
            w16_twitter(), "no_push", "push_all", "push_critical_optimized"
        )
        baseline = cells["no_push"].median_si
        optimized = cells["push_critical_optimized"]
        assert optimized.median_si < baseline * 0.8
        assert optimized.pushed_bytes < 0.25 * cells["push_all"].pushed_bytes


class TestW17Cnn:
    """369 requests over 81 servers: push dilutes; only the first
    visual change improves."""

    @pytest.fixture(scope="class")
    def cells(self):
        return deployment_si(w17_cnn(), "no_push", "push_critical_optimized")

    def test_speed_index_unmoved(self, cells):
        baseline = cells["no_push"].median_si
        optimized = cells["push_critical_optimized"].median_si
        assert abs(optimized - baseline) < 0.1 * baseline

    def test_first_visual_change_improves(self, cells):
        fvc_base = first_visual_change(cells["no_push"].results[0].timeline)
        fvc_opt = first_visual_change(
            cells["push_critical_optimized"].results[0].timeline
        )
        assert fvc_opt < fvc_base
