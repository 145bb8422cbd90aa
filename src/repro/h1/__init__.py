"""HTTP/1.1 baseline: textual protocol, 6 connections/origin, no push."""

from .connection import H1ClientConnection, H1ServerConnection
from .pool import MAX_CONNECTIONS_PER_ORIGIN, H1OriginPool
from .server import H1ReplayServer

__all__ = [
    "H1ClientConnection",
    "H1OriginPool",
    "H1ReplayServer",
    "H1ServerConnection",
    "MAX_CONNECTIONS_PER_ORIGIN",
]
