"""Reference frame encoder: RFC 7540 §4.1 and §6 layouts over plain values.

``repro.h2.frames`` writes each frame type's layout once, in a
``pack_*`` function that both ``Frame.serialize`` and the connection's
send path call.  The flags a payload implies (PADDED, PRIORITY) follow
the payload alone, here as there.  This module is what those functions replaced, kept so
``tests/property/test_property_pack.py`` has something independent to
compare against: the frame objects' former ``payload()`` +
``_effective_flags()`` serialization, and the connection's former
header-block split (first fragment without END_HEADERS, then
CONTINUATION frames of at most the peer's max frame size), written with
``struct`` straight from the RFC — no frame objects, no enums.
"""

import struct
from typing import List, Optional, Tuple

DATA, HEADERS, PRIORITY, RST_STREAM, SETTINGS = 0x0, 0x1, 0x2, 0x3, 0x4
PUSH_PROMISE, PING, GOAWAY, WINDOW_UPDATE, CONTINUATION = 0x5, 0x6, 0x7, 0x8, 0x9

END_HEADERS = 0x4
PADDED = 0x8
PRIORITY_FLAG = 0x20

#: (depends_on, weight, exclusive)
Priority = Tuple[int, int, bool]


def frame(frame_type: int, flags: int, stream_id: int, payload: bytes) -> bytes:
    """§4.1: 24-bit length, type, flags, R bit + 31-bit stream id."""
    return (
        struct.pack(">I", len(payload))[1:]
        + bytes((frame_type, flags))
        + struct.pack(">I", stream_id & 0x7FFFFFFF)
        + payload
    )


def priority_block(priority: Priority) -> bytes:
    depends_on, weight, exclusive = priority
    return struct.pack(">IB", depends_on | (0x80000000 if exclusive else 0), weight - 1)


def padded(
    frame_type: int, flags: int, stream_id: int, payload: bytes, pad_length: Optional[int]
) -> bytes:
    """§6.1, §6.2, §6.6: a pad length (``None``: unpadded; 0 is a legal
    length) wraps the payload in the Pad Length octet and that many
    zero octets, and sets PADDED; without one, PADDED is cleared."""
    if pad_length is not None:
        body = bytes([pad_length]) + payload + b"\x00" * pad_length
        return frame(frame_type, flags | PADDED, stream_id, body)
    return frame(frame_type, flags & ~PADDED, stream_id, payload)


def data(stream_id: int, flags: int, payload: bytes, pad_length: Optional[int] = None) -> bytes:
    return padded(DATA, flags, stream_id, payload, pad_length)


def headers(
    stream_id: int,
    flags: int,
    block: bytes,
    priority: Optional[Priority] = None,
    pad_length: Optional[int] = None,
) -> bytes:
    """§6.2: a priority block sets PRIORITY; without one, it is cleared."""
    if priority is not None:
        flags |= PRIORITY_FLAG
        block = priority_block(priority) + block
    else:
        flags &= ~PRIORITY_FLAG
    return padded(HEADERS, flags, stream_id, block, pad_length)


def priority_frame(stream_id: int, flags: int, priority: Priority) -> bytes:
    return frame(PRIORITY, flags, stream_id, priority_block(priority))


def rst_stream(stream_id: int, flags: int, error_code: int) -> bytes:
    return frame(RST_STREAM, flags, stream_id, struct.pack(">I", error_code))


def settings(stream_id: int, flags: int, values: dict) -> bytes:
    body = b"".join(struct.pack(">HI", key, values[key]) for key in sorted(values))
    return frame(SETTINGS, flags, stream_id, body)


def push_promise(
    stream_id: int,
    flags: int,
    promised_stream_id: int,
    block: bytes,
    pad_length: Optional[int] = None,
) -> bytes:
    body = struct.pack(">I", promised_stream_id & 0x7FFFFFFF) + block
    return padded(PUSH_PROMISE, flags, stream_id, body, pad_length)


def ping(stream_id: int, flags: int, opaque: bytes) -> bytes:
    return frame(PING, flags, stream_id, opaque)


def goaway(
    stream_id: int, flags: int, last_stream_id: int, error_code: int, debug: bytes
) -> bytes:
    body = struct.pack(">II", last_stream_id & 0x7FFFFFFF, error_code) + debug
    return frame(GOAWAY, flags, stream_id, body)


def window_update(stream_id: int, flags: int, increment: int) -> bytes:
    return frame(WINDOW_UPDATE, flags, stream_id, struct.pack(">I", increment & 0x7FFFFFFF))


def continuation(stream_id: int, flags: int, block: bytes) -> bytes:
    return frame(CONTINUATION, flags, stream_id, block)


def header_block(
    stream_id: int,
    flags: int,
    block: bytes,
    max_frame_size: int,
    priority: Optional[Priority] = None,
    promised_stream_id: Optional[int] = None,
) -> List[bytes]:
    """The frames one HEADERS (or PUSH_PROMISE) header block goes out as."""
    if promised_stream_id is None:
        overhead = 0 if priority is None else 5
    else:
        overhead = 4

    def first(fragment: bytes, first_flags: int) -> bytes:
        if promised_stream_id is None:
            return headers(stream_id, first_flags, fragment, priority)
        return push_promise(stream_id, first_flags, promised_stream_id, fragment)

    if overhead + len(block) <= max_frame_size:
        return [first(block, flags)]
    room = max_frame_size - overhead
    frames = [first(block[:room], flags & ~END_HEADERS)]
    rest = block[room:]
    while rest:
        chunk, rest = rest[:max_frame_size], rest[max_frame_size:]
        frames.append(continuation(stream_id, 0 if rest else END_HEADERS, chunk))
    return frames
