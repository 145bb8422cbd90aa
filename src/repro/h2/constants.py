"""HTTP/2 protocol constants (RFC 7540)."""

from __future__ import annotations

import enum

#: The client connection preface (RFC 7540 §3.5).
CONNECTION_PREFACE = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

#: Fixed size of every frame header.
FRAME_HEADER_SIZE = 9

#: Default and maximum frame payload sizes (§4.2).
DEFAULT_MAX_FRAME_SIZE = 16_384
ABSOLUTE_MAX_FRAME_SIZE = 16_777_215

#: Default flow-control window (§6.9.2).
DEFAULT_INITIAL_WINDOW_SIZE = 65_535
MAX_WINDOW_SIZE = 2**31 - 1

#: Default HPACK dynamic-table size (§6.5.2).
DEFAULT_HEADER_TABLE_SIZE = 4_096

#: Default priority weight (§5.3.5); wire value 15 means weight 16.
DEFAULT_WEIGHT = 16


class FrameType(enum.IntEnum):
    """Frame type codes (RFC 7540 §6)."""

    DATA = 0x0
    HEADERS = 0x1
    PRIORITY = 0x2
    RST_STREAM = 0x3
    SETTINGS = 0x4
    PUSH_PROMISE = 0x5
    PING = 0x6
    GOAWAY = 0x7
    WINDOW_UPDATE = 0x8
    CONTINUATION = 0x9


class Flag(enum.IntFlag):
    """Frame flags; meaning depends on the frame type."""

    NONE = 0x0
    END_STREAM = 0x1     # DATA, HEADERS
    ACK = 0x1            # SETTINGS, PING
    END_HEADERS = 0x4    # HEADERS, PUSH_PROMISE, CONTINUATION
    PADDED = 0x8         # DATA, HEADERS, PUSH_PROMISE
    PRIORITY = 0x20      # HEADERS


class ErrorCode(enum.IntEnum):
    """Error codes for RST_STREAM and GOAWAY (RFC 7540 §7)."""

    NO_ERROR = 0x0
    PROTOCOL_ERROR = 0x1
    INTERNAL_ERROR = 0x2
    FLOW_CONTROL_ERROR = 0x3
    SETTINGS_TIMEOUT = 0x4
    STREAM_CLOSED = 0x5
    FRAME_SIZE_ERROR = 0x6
    REFUSED_STREAM = 0x7
    CANCEL = 0x8
    COMPRESSION_ERROR = 0x9
    CONNECT_ERROR = 0xA
    ENHANCE_YOUR_CALM = 0xB
    INADEQUATE_SECURITY = 0xC
    HTTP_1_1_REQUIRED = 0xD


class SettingCode(enum.IntEnum):
    """SETTINGS parameter identifiers (RFC 7540 §6.5.2)."""

    HEADER_TABLE_SIZE = 0x1
    ENABLE_PUSH = 0x2
    MAX_CONCURRENT_STREAMS = 0x3
    INITIAL_WINDOW_SIZE = 0x4
    MAX_FRAME_SIZE = 0x5
    MAX_HEADER_LIST_SIZE = 0x6


class StreamState(enum.IntEnum):
    """Stream lifecycle states (RFC 7540 §5.1).  The three closed ones,
    ``>= CLOSED``, remember how: END_STREAM both ways, or a RST_STREAM
    sent (local) or received (remote)."""

    IDLE = 0
    RESERVED_LOCAL = 1
    RESERVED_REMOTE = 2
    OPEN = 3
    HALF_CLOSED_LOCAL = 4
    HALF_CLOSED_REMOTE = 5
    CLOSED = 6
    RESET_LOCAL = 7
    RESET_REMOTE = 8
