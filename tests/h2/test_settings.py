"""Tests for SETTINGS state."""

import pytest

from repro.errors import FlowControlError, ProtocolError
from repro.h2.constants import SettingCode
from repro.h2.settings import Settings


def test_defaults_match_rfc():
    settings = Settings()
    assert settings.header_table_size == 4096
    assert settings.enable_push is True
    assert settings.initial_window_size == 65_535
    assert settings.max_frame_size == 16_384


def test_overrides_by_name():
    settings = Settings(enable_push=0, initial_window_size=6 * 1024 * 1024)
    assert settings.enable_push is False
    assert settings.initial_window_size == 6 * 1024 * 1024


def test_as_dict_only_non_defaults():
    settings = Settings(enable_push=0)
    assert settings.as_dict() == {int(SettingCode.ENABLE_PUSH): 0}
    assert Settings().as_dict() == {}


def test_apply_received_settings():
    settings = Settings()
    settings.apply({int(SettingCode.ENABLE_PUSH): 0, int(SettingCode.MAX_FRAME_SIZE): 32_768})
    assert settings.enable_push is False
    assert settings.max_frame_size == 32_768


def test_unknown_setting_ignored():
    settings = Settings()
    settings.apply({0x99: 12345})  # §6.5.2: must ignore


def test_invalid_enable_push_rejected():
    with pytest.raises(ProtocolError):
        Settings(enable_push=2)


def test_invalid_window_rejected():
    # §6.5.2: 0..2^31-1; a negative window can only come from a config.
    for value in (2**31, -1):
        with pytest.raises(FlowControlError):
            Settings(initial_window_size=value)


def test_invalid_frame_size_rejected():
    with pytest.raises(ProtocolError):
        Settings(max_frame_size=100)
    with pytest.raises(ProtocolError):
        Settings(max_frame_size=2**24)
