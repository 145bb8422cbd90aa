"""Tests for ``repro.span``: ``bytes(span)`` of either kind of body."""

from repro.span import Span


def test_bytes_of_a_whole_bytes_source_is_the_source():
    source = b"recorded body" * 10
    assert bytes(Span(source)) is source
    assert bytes(Span(source, 2, 5)) == source[2:5]


def test_bytes_of_a_view_source_is_bytes():
    source = memoryview(b"\x00" * 64).toreadonly()
    whole = bytes(Span(source))
    assert type(whole) is bytes and whole == b"\x00" * 64
    part = bytes(Span(memoryview(b"ab"), 1))
    assert type(part) is bytes and part == b"b"
