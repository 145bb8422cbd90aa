"""A from-scratch HTTP/2 implementation (RFC 7540 + RFC 7541).

Frames, HPACK, streams, the priority dependency tree, and connection
logic — everything Server Push needs, running over the simulated TCP
byte stream.  Flow-control windows are plain int fields on
:class:`H2Stream` and :class:`H2Connection`; the connection enforces
RFC 7540 §6.9 where WINDOW_UPDATE, SETTINGS and DATA arrive.
"""

from .connection import H2Connection
from .constants import (
    CONNECTION_PREFACE,
    DEFAULT_INITIAL_WINDOW_SIZE,
    DEFAULT_MAX_FRAME_SIZE,
    DEFAULT_WEIGHT,
    ErrorCode,
    Flag,
    FrameType,
    SettingCode,
    StreamState,
)
from .frames import (
    ContinuationFrame,
    DataFrame,
    Frame,
    FrameReader,
    GoAwayFrame,
    HeadersFrame,
    PingFrame,
    PriorityData,
    PriorityFrame,
    PushPromiseFrame,
    RstStreamFrame,
    SettingsFrame,
    WindowUpdateFrame,
)
from .priority import PriorityTree
from .settings import Settings
from .stream import H2Stream

__all__ = [
    "CONNECTION_PREFACE",
    "ContinuationFrame",
    "DEFAULT_INITIAL_WINDOW_SIZE",
    "DEFAULT_MAX_FRAME_SIZE",
    "DEFAULT_WEIGHT",
    "DataFrame",
    "ErrorCode",
    "Flag",
    "Frame",
    "FrameReader",
    "FrameType",
    "GoAwayFrame",
    "H2Connection",
    "H2Stream",
    "HeadersFrame",
    "PingFrame",
    "PriorityData",
    "PriorityFrame",
    "PriorityTree",
    "PushPromiseFrame",
    "RstStreamFrame",
    "SettingCode",
    "Settings",
    "SettingsFrame",
    "StreamState",
    "WindowUpdateFrame",
]
