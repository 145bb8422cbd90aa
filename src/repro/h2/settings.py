"""Connection settings state (RFC 7540 §6.5)."""

from __future__ import annotations

from typing import Dict

from ..errors import FlowControlError, ProtocolError
from .constants import (
    DEFAULT_HEADER_TABLE_SIZE,
    DEFAULT_INITIAL_WINDOW_SIZE,
    DEFAULT_MAX_FRAME_SIZE,
    MAX_WINDOW_SIZE,
    SettingCode,
)

#: Parameter identifiers as plain ints, resolved once: ``int(SettingCode.X)``
#: is an enum attribute load and a conversion on every read.  The
#: connection reads ``Settings._values`` by these keys on its per-stream
#: and per-header-block paths.
HEADER_TABLE_SIZE = int(SettingCode.HEADER_TABLE_SIZE)
ENABLE_PUSH = int(SettingCode.ENABLE_PUSH)
MAX_CONCURRENT_STREAMS = int(SettingCode.MAX_CONCURRENT_STREAMS)
INITIAL_WINDOW_SIZE = int(SettingCode.INITIAL_WINDOW_SIZE)
MAX_FRAME_SIZE = int(SettingCode.MAX_FRAME_SIZE)
MAX_HEADER_LIST_SIZE = int(SettingCode.MAX_HEADER_LIST_SIZE)

_DEFAULTS: Dict[int, int] = {
    HEADER_TABLE_SIZE: DEFAULT_HEADER_TABLE_SIZE,
    ENABLE_PUSH: 1,
    MAX_CONCURRENT_STREAMS: 2**31 - 1,
    INITIAL_WINDOW_SIZE: DEFAULT_INITIAL_WINDOW_SIZE,
    MAX_FRAME_SIZE: DEFAULT_MAX_FRAME_SIZE,
    MAX_HEADER_LIST_SIZE: 2**31 - 1,
}


class Settings:
    """One peer's settings as currently acknowledged."""

    def __init__(self, **overrides: int):
        self._values = dict(_DEFAULTS)
        for name, value in overrides.items():
            code = SettingCode[name.upper()]
            self._set(int(code), value)

    def _set(self, code: int, value: int) -> None:
        if code == ENABLE_PUSH and value not in (0, 1):
            raise ProtocolError("ENABLE_PUSH must be 0 or 1")
        if code == INITIAL_WINDOW_SIZE and not 0 <= value <= MAX_WINDOW_SIZE:
            # §6.5.2; a negative value can only come from a config.
            raise FlowControlError(f"INITIAL_WINDOW_SIZE {value} outside 0..2^31-1")
        if code == MAX_FRAME_SIZE and not (
            DEFAULT_MAX_FRAME_SIZE <= value <= 16_777_215
        ):
            raise ProtocolError("MAX_FRAME_SIZE out of range")
        self._values[code] = value

    def apply(self, changes: Dict[int, int]) -> None:
        """Apply a received SETTINGS frame's parameters.

        Unknown identifiers are ignored per §6.5.2.
        """
        for code, value in changes.items():
            if code in self._values:
                self._set(code, value)

    def as_dict(self) -> Dict[int, int]:
        """Non-default parameters, for building a SETTINGS frame."""
        return {
            code: value for code, value in self._values.items() if value != _DEFAULTS[code]
        }

    @property
    def header_table_size(self) -> int:
        return self._values[HEADER_TABLE_SIZE]

    @property
    def enable_push(self) -> bool:
        return bool(self._values[ENABLE_PUSH])

    @property
    def initial_window_size(self) -> int:
        return self._values[INITIAL_WINDOW_SIZE]

    @property
    def max_frame_size(self) -> int:
        return self._values[MAX_FRAME_SIZE]
