"""HTTP/2 origin servers for the replay testbed."""

from .h2server import ReplayServer, ServerFarm
from .scheduler import InterleavingScheduler

__all__ = [
    "InterleavingScheduler",
    "ReplayServer",
    "ServerFarm",
]
