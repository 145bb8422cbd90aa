"""Network substrate: links, TCP, handshakes, and condition profiles.

This package replaces the paper's Linux network namespaces + ``tc``
emulation with a deterministic discrete-event model (see DESIGN.md §2).
"""

from .conditions import (
    CABLE,
    CELLULAR,
    CELLULAR_3G,
    CELLULAR_LTE,
    DSL_TESTBED,
    FIBER,
    LOSSY_DSL,
    PROFILES,
    ConditionSampler,
    FixedConditions,
    InternetConditions,
    NetworkConditions,
    profile,
)
from .congestion import CONGESTION_CONTROLS, CubicCC, RenoCC, make_congestion_control
from .handshake import TLS12_HANDSHAKE, TLS13_HANDSHAKE, HandshakeModel
from .impairment import (
    BandwidthVariationSpec,
    GilbertElliottLoss,
    IIDLoss,
    ImpairmentConfig,
    ImpairmentPipeline,
    JitterSpec,
    ReorderSpec,
)
from .link import SharedLink
from .tcp import MSS, TcpConnection
from .topology import Host, Topology

__all__ = [
    "BandwidthVariationSpec",
    "CABLE",
    "CELLULAR",
    "CELLULAR_3G",
    "CELLULAR_LTE",
    "CONGESTION_CONTROLS",
    "ConditionSampler",
    "CubicCC",
    "DSL_TESTBED",
    "FIBER",
    "FixedConditions",
    "GilbertElliottLoss",
    "HandshakeModel",
    "Host",
    "IIDLoss",
    "ImpairmentConfig",
    "ImpairmentPipeline",
    "InternetConditions",
    "JitterSpec",
    "LOSSY_DSL",
    "MSS",
    "NetworkConditions",
    "PROFILES",
    "RenoCC",
    "ReorderSpec",
    "SharedLink",
    "TLS12_HANDSHAKE",
    "TLS13_HANDSHAKE",
    "TcpConnection",
    "Topology",
    "make_congestion_control",
    "profile",
]
