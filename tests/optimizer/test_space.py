"""Policy-space value objects, site classes, and the candidate seed."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.experiments.seeds import candidate_seed
from repro.optimizer import PushPolicy, site_class
from repro.sites import realworld_sites
from repro.strategies.table import TablePolicyStrategy


def test_policy_validation():
    with pytest.raises(ConfigError):
        PushPolicy(variant="quantum")
    with pytest.raises(ConfigError):
        PushPolicy(urls=("a", "b"), critical_count=3)
    with pytest.raises(ConfigError):
        PushPolicy(urls=("a", "a"))


def test_policy_json_round_trip_and_fingerprint_stability():
    policy = PushPolicy(
        variant="optimized",
        urls=("https://d/a.css", "https://d/b.js"),
        critical_count=1,
        interleave_offset=252,
    )
    assert PushPolicy.from_json(policy.to_json()) == policy
    assert policy.fingerprint() == PushPolicy.from_json(policy.to_json()).fingerprint()
    # Different content, different address.
    assert policy.fingerprint() != PushPolicy(variant="optimized").fingerprint()


def test_policy_as_strategy_embeds_fingerprint():
    policy = PushPolicy(urls=("https://d/a.css",))
    strategy = policy.as_strategy()
    assert isinstance(strategy, TablePolicyStrategy)
    assert policy.fingerprint()[:12] in strategy.name
    # Same policy → same strategy name → same cell cache keys.
    assert strategy.name == policy.as_strategy().name


def test_empty_policy_is_legal_and_pushes_nothing():
    policy = PushPolicy()
    assert policy.push_count == 0
    assert not policy.interleaving


def test_site_class_is_deterministic_and_covers_corpus():
    sites = realworld_sites()
    classes = {key: site_class(spec) for key, spec in sites.items()}
    assert classes == {key: site_class(spec) for key, spec in sites.items()}
    known = {
        "many_objects",
        "script_blocking",
        "style_blocking",
        "image_heavy",
        "small_static",
    }
    assert set(classes.values()) <= known
    # The paper's verdict-flipping structure must actually discriminate:
    # the corpus is not one single class.
    assert len(set(classes.values())) >= 3
    assert classes["w17"] == "many_objects"  # CNN, 160 objects in Table 1


# ----------------------------------------------------------------------
# candidate_seed: the CRN / cache-addressability contract
# ----------------------------------------------------------------------
def test_candidate_seed_pairs_arms_and_ignores_fingerprint():
    """The seed stream depends on (site, run) only: every candidate of
    one site is CRN-paired with the baseline at every run index."""
    a = candidate_seed("w3", "fp-aaaa", 0)
    b = candidate_seed("w3", "fp-bbbb", 0)
    assert a == b
    assert candidate_seed("w3", "fp-aaaa", 1) != a
    assert candidate_seed("w4", "fp-aaaa", 0) != a


def test_candidate_seed_is_rung_geometry_independent():
    """Run r's seed never depends on which rung requested it."""
    first = [candidate_seed("w9", "fp", run) for run in range(5)]
    assert [candidate_seed("w9", "fp", run) for run in range(5)] == first
    assert len(set(first)) == 5


def test_candidate_seed_validation():
    with pytest.raises(ValueError):
        candidate_seed("w3", "", 0)
    with pytest.raises(ValueError):
        candidate_seed("w3", "fp", -1)
