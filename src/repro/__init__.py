"""repro — a reproduction of "Is the Web ready for HTTP/2 Server Push?"
(Zimmermann, Wolters, Hohlfeld, Wehrle — CoNEXT 2018).

The package provides an HTTP/2 record-and-replay testbed built on a
deterministic discrete-event network simulation, a family of Server
Push strategies including the paper's Interleaving Push scheduler, a
Chromium-like browser model producing PLT and SpeedIndex, and one
experiment module per figure/table of the paper.

Quickstart::

    from repro import ResourceSpec, ResourceType, WebsiteSpec, replay_site
    from repro.strategies import PushAllStrategy

    spec = WebsiteSpec(
        name="demo",
        primary_domain="demo.example",
        html_size=30_000,
        resources=[ResourceSpec("main.css", ResourceType.CSS, 20_000, in_head=True)],
    )
    result = replay_site(spec, strategy=PushAllStrategy())
    print(result.plt_ms, result.speed_index_ms)
"""

from .browser import BrowserCache, BrowserConfig, PageLoad
from .errors import (
    BrowserError,
    ConfigError,
    FlowControlError,
    HpackError,
    NetworkError,
    ProtocolError,
    ReplayError,
    ReproError,
    SimulationError,
    StreamError,
)
from .html import BuiltSite, ResourceSpec, ResourceType, WebsiteSpec, build_site
from .netsim import DSL_TESTBED, InternetConditions, NetworkConditions
from .replay import PageLoadResult, RecordDatabase, ReplayTestbed, replay_site
from .strategies import (
    NoPushStrategy,
    PushAllStrategy,
    PushByTypeStrategy,
    PushFirstNStrategy,
    PushListStrategy,
    PushPlan,
    PushStrategy,
)

__version__ = "1.0.0"

__all__ = [
    "BrowserCache",
    "BrowserConfig",
    "BrowserError",
    "BuiltSite",
    "ConfigError",
    "DSL_TESTBED",
    "FlowControlError",
    "HpackError",
    "InternetConditions",
    "NetworkConditions",
    "NetworkError",
    "NoPushStrategy",
    "PageLoad",
    "PageLoadResult",
    "ProtocolError",
    "PushAllStrategy",
    "PushByTypeStrategy",
    "PushFirstNStrategy",
    "PushListStrategy",
    "PushPlan",
    "PushStrategy",
    "RecordDatabase",
    "ReplayError",
    "ReplayTestbed",
    "ReproError",
    "ResourceSpec",
    "ResourceType",
    "SimulationError",
    "StreamError",
    "WebsiteSpec",
    "build_site",
    "replay_site",
]
