"""Tests for network condition profiles."""

import random

import pytest

from repro.netsim.conditions import (
    CABLE,
    CELLULAR,
    DSL_TESTBED,
    FixedConditions,
    InternetConditions,
    NetworkConditions,
)


def test_dsl_testbed_matches_paper():
    # §4.1: 50 ms RTT, 16 Mbit/s down, 1 Mbit/s up, deterministic.
    assert DSL_TESTBED.rtt_ms == 50.0
    assert DSL_TESTBED.downlink_bytes_per_ms == pytest.approx(2000.0)
    assert DSL_TESTBED.uplink_bytes_per_ms == pytest.approx(125.0)
    assert DSL_TESTBED.loss_rate == 0.0
    assert DSL_TESTBED.jitter_ms == 0.0


def test_one_way_is_half_rtt():
    assert DSL_TESTBED.one_way_ms == 25.0


def test_with_rtt_returns_new_instance():
    faster = DSL_TESTBED.with_rtt(20.0)
    assert faster.rtt_ms == 20.0
    assert DSL_TESTBED.rtt_ms == 50.0
    assert faster.downlink_bytes_per_ms == DSL_TESTBED.downlink_bytes_per_ms


def test_profiles_are_distinct():
    assert CABLE.downlink_bytes_per_ms > DSL_TESTBED.downlink_bytes_per_ms
    assert CELLULAR.rtt_ms > DSL_TESTBED.rtt_ms


def test_fixed_conditions_always_identical():
    sampler = FixedConditions(DSL_TESTBED)
    rng = random.Random(0)
    assert sampler.sample(rng) is DSL_TESTBED
    assert sampler.sample(rng) is DSL_TESTBED


def test_internet_conditions_vary_per_run():
    sampler = InternetConditions()
    rng = random.Random(42)
    samples = [sampler.sample(rng) for _ in range(10)]
    rtts = {round(sample.rtt_ms, 3) for sample in samples}
    assert len(rtts) == 10  # all different


def test_internet_conditions_bounded_loss():
    sampler = InternetConditions(max_loss=0.01)
    rng = random.Random(1)
    for _ in range(50):
        sample = sampler.sample(rng)
        assert 0.0 <= sample.loss_rate <= 0.01
        assert sample.rtt_ms > 0
        assert sample.downlink_bytes_per_ms > 0


def test_internet_conditions_deterministic_given_rng():
    sampler = InternetConditions()
    a = sampler.sample(random.Random(7))
    b = sampler.sample(random.Random(7))
    assert a == b


def test_conditions_immutable():
    with pytest.raises(Exception):
        DSL_TESTBED.rtt_ms = 1  # frozen dataclass


# ------------------------------------------------- validation (PR 3)
def test_negative_rtt_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="rtt_ms"):
        NetworkConditions(rtt_ms=-1.0)


def test_zero_mss_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="mss"):
        NetworkConditions(mss=0)


def test_zero_bandwidth_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="downlink"):
        NetworkConditions(downlink_bytes_per_ms=0.0)


def test_out_of_range_loss_rate_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="loss_rate"):
        NetworkConditions(loss_rate=1.5)
    with pytest.raises(ConfigError, match="loss_rate"):
        NetworkConditions(loss_rate=-0.1)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "field",
    [
        "rtt_ms",
        "downlink_bytes_per_ms",
        "uplink_bytes_per_ms",
        "loss_rate",
        "jitter_ms",
        "server_delay_ms",
        "mss",
    ],
)
def test_non_finite_conditions_rejected(field, value):
    # An infinite delay or rate used to construct and then stall the
    # load until the simulator's timeout.
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match=field):
        NetworkConditions(**{field: value})


def _impairment_specs():
    from repro.netsim.impairment import (
        BandwidthVariationSpec,
        GilbertElliottLoss,
        IIDLoss,
        JitterSpec,
        ReorderSpec,
    )

    ge = {"p_enter_bad": 0.1, "p_exit_bad": 0.3}
    return [
        (IIDLoss, {"rate": 0.1}, "rate"),
        (GilbertElliottLoss, ge, "p_enter_bad"),
        (GilbertElliottLoss, ge, "p_exit_bad"),
        (GilbertElliottLoss, ge, "good_loss"),
        (GilbertElliottLoss, ge, "bad_loss"),
        (JitterSpec, {"max_ms": 2.0}, "max_ms"),
        (ReorderSpec, {"rate": 0.1}, "rate"),
        (ReorderSpec, {"rate": 0.1}, "extra_delay_ms"),
        (BandwidthVariationSpec, {"amplitude": 0.2}, "amplitude"),
        (BandwidthVariationSpec, {"amplitude": 0.2}, "interval_ms"),
    ]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "spec, valid, field",
    _impairment_specs(),
    ids=[f"{spec.__name__}.{field}" for spec, _valid, field in _impairment_specs()],
)
def test_non_finite_impairment_fields_rejected(spec, valid, field, value):
    from repro.errors import ConfigError

    spec(**valid)  # the base arguments are valid
    with pytest.raises(ConfigError, match=f"{spec.__name__}.{field}"):
        spec(**{**valid, field: value})


def test_unknown_congestion_control_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="congestion control"):
        NetworkConditions(congestion_control="bbr")


def test_profile_lookup():
    from repro.errors import ConfigError
    from repro.netsim.conditions import LOSSY_DSL, PROFILES, profile

    assert profile("lossy_dsl") is LOSSY_DSL
    assert set(PROFILES) >= {
        "clean_dsl",
        "lossy_dsl",
        "cellular_3g",
        "cellular_lte",
        "fiber",
    }
    with pytest.raises(ConfigError, match="unknown network profile"):
        profile("dialup")


def test_lossy_profiles_carry_impairments():
    from repro.netsim.conditions import CELLULAR_3G, CELLULAR_LTE, LOSSY_DSL

    for conditions in (LOSSY_DSL, CELLULAR_3G, CELLULAR_LTE):
        assert conditions.impairment is not None
        assert conditions.impairment.enabled
    assert CELLULAR_3G.congestion_control == "cubic"


def test_with_impairment_helpers():
    from repro.netsim.impairment import IIDLoss, ImpairmentConfig

    lossy = DSL_TESTBED.with_impairment(ImpairmentConfig(loss=IIDLoss(0.01)))
    assert lossy.impairment.loss.rate == 0.01
    assert DSL_TESTBED.impairment is None  # original untouched
    cubic = DSL_TESTBED.with_congestion_control("cubic")
    assert cubic.congestion_control == "cubic"
    assert DSL_TESTBED.congestion_control == "reno"


# ------------------------------------------------- transport (PR 8)
def test_unknown_transport_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="transport"):
        NetworkConditions(transport="h3")


def test_quic_0rtt_requires_quic_transport():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="quic_0rtt"):
        NetworkConditions(quic_0rtt=True)  # default transport is tcp
    NetworkConditions(transport="quic", quic_0rtt=True)  # fine


def test_with_transport_helper():
    quic = DSL_TESTBED.with_transport("quic")
    assert quic.transport == "quic"
    assert not quic.quic_0rtt
    resumed = DSL_TESTBED.with_transport("quic", quic_0rtt=True)
    assert resumed.quic_0rtt
    assert DSL_TESTBED.transport == "tcp"  # original untouched


def test_transport_does_not_perturb_historical_fingerprints():
    """`transport`/`quic_0rtt` at their defaults must be invisible to
    the engine's cache keys (FINGERPRINT_NEUTRAL), or every cached
    TCP cell from earlier PRs would miss."""
    from repro.experiments.engine.fingerprint import jsonable

    assert "transport" not in jsonable(DSL_TESTBED)
    assert "quic_0rtt" not in jsonable(DSL_TESTBED)
    quic = DSL_TESTBED.with_transport("quic")
    assert jsonable(quic)["transport"] == "quic"
