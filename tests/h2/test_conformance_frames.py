"""RFC 7540 frame rules outside §5.1 and §6.9, checked by a peer written
from the RFC.

Each case drives one ``H2Connection`` with frames packed by
``tests/support/h2peer.py`` and reads back what it raises.  The model
raises every violation as a connection error (§5.4.1), with its RFC
7540 §7 ``error_code``.
"""

import pytest

from repro.errors import FlowControlError, ProtocolError
from tests.support.h2peer import (
    FLOW_CONTROL_ERROR,
    PROTOCOL_ERROR,
    SETTINGS,
    SETTINGS_ENABLE_PUSH,
    SETTINGS_INITIAL_WINDOW_SIZE,
    H2Peer,
    of_type,
    settings_pairs,
)


def raises(peer, error, code, *frames):
    """Send ``frames``; the connection raises ``error`` with ``code``."""
    with pytest.raises(error) as excinfo:
        peer.send(*frames)
    assert type(excinfo.value) is error
    assert excinfo.value.error_code == code


# ---------------------------------------------------------------------------
# §6.5.3: a SETTINGS frame's values are processed in the order they appear
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("role", ["server", "client"])
def test_an_invalid_enable_push_before_a_valid_repeat_is_protocol_error(role):
    # §6.5.2: ENABLE_PUSH other than 0 or 1 is a PROTOCOL_ERROR.  The
    # later 1 does not make the 5 before it valid: each value is
    # processed in turn.
    peer = H2Peer(role)
    peer.handshake()
    raises(
        peer, ProtocolError, PROTOCOL_ERROR,
        settings_pairs((SETTINGS_ENABLE_PUSH, 5), (SETTINGS_ENABLE_PUSH, 1)),
    )


@pytest.mark.parametrize("role", ["server", "client"])
def test_an_oversized_initial_window_before_a_valid_repeat_is_flow_control_error(role):
    # §6.5.2: INITIAL_WINDOW_SIZE above 2^31-1 is a FLOW_CONTROL_ERROR,
    # whatever value of it comes later in the frame.
    peer = H2Peer(role)
    peer.handshake()
    raises(
        peer, FlowControlError, FLOW_CONTROL_ERROR,
        settings_pairs((SETTINGS_INITIAL_WINDOW_SIZE, 2**31), (SETTINGS_INITIAL_WINDOW_SIZE, 100)),
    )


def test_valid_repeats_are_accepted_and_the_last_value_stands():
    # §6.5.3: a valid earlier value is applied and then replaced; the
    # frame is acknowledged once.
    peer = H2Peer("server")
    peer.handshake()
    peer.send(
        settings_pairs(
            (SETTINGS_INITIAL_WINDOW_SIZE, 2**31 - 1), (SETTINGS_INITIAL_WINDOW_SIZE, 100)
        )
    )
    assert peer.conn.remote_settings.initial_window_size == 100
    assert len(of_type(peer.receive(), SETTINGS)) == 1
