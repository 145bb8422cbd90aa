"""Tests for Cache Digests (draft-ietf-httpbis-cache-digest)."""

import pytest

from repro.errors import ProtocolError
from repro.h2.cache_digest import DEFAULT_P, CacheDigest

URLS = [f"https://cd.example/asset-{index}.css" for index in range(40)]


def test_contains_all_inserted_urls():
    digest = CacheDigest.from_urls(URLS)
    for url in URLS:
        assert digest.contains(url)  # no false negatives, ever


def test_empty_digest_contains_nothing():
    digest = CacheDigest.from_urls([])
    assert not digest.contains("https://cd.example/x.css")
    assert len(digest) == 0


def test_false_positive_rate_bounded():
    digest = CacheDigest.from_urls(URLS, p=2**7)
    probes = [f"https://cd.example/missing-{index}.js" for index in range(3000)]
    false_positives = sum(1 for url in probes if digest.contains(url))
    # Expected rate ~1/P = ~0.8%; allow generous slack.
    assert false_positives / len(probes) < 0.05


def test_encode_decode_round_trip():
    digest = CacheDigest.from_urls(URLS)
    restored = CacheDigest.decode(digest.encode())
    assert restored.n == digest.n
    assert restored.p == digest.p
    for url in URLS:
        assert restored.contains(url)


def test_header_value_round_trip():
    digest = CacheDigest.from_urls(URLS)
    value = digest.to_header_value()
    assert "=" not in value  # base64url unpadded
    restored = CacheDigest.from_header_value(value)
    for url in URLS:
        assert restored.contains(url)


def test_compact_wire_size():
    # GCS: roughly log2(P) + 2 bits per entry; far below raw hashes.
    digest = CacheDigest.from_urls(URLS, p=DEFAULT_P)
    assert digest.wire_size < len(URLS) * 4


def test_invalid_p_rejected():
    with pytest.raises(ProtocolError):
        CacheDigest.from_urls(URLS, p=100)  # not a power of two


def test_malformed_header_rejected():
    with pytest.raises(ProtocolError):
        CacheDigest.from_header_value("%%%not-base64%%%")


@pytest.mark.parametrize(
    "value",
    [
        pytest.param("A", id="one-char"),  # no base64 quantum has that length
        pytest.param("a=b", id="mid-padding"),
        pytest.param("caf\u00e9", id="non-ascii"),
        pytest.param("", id="empty"),  # decodes; the 10-bit N/P preamble is missing
        pytest.param("AAAA", id="open-unary"),  # preamble present, unary run never ends
    ],
)
def test_every_malformed_header_is_a_protocol_error(value):
    with pytest.raises(ProtocolError):
        CacheDigest.from_header_value(value)


def test_server_serves_malformed_digest_as_no_digest():
    from repro.server.h2server import ReplayServer

    assert ReplayServer._parse_cache_digest([("cache-digest", "AAAA")]) is None
    good = CacheDigest.from_urls(URLS).to_header_value()
    parsed = ReplayServer._parse_cache_digest([("Cache-Digest", good)])
    assert all(parsed.contains(url) for url in URLS)


def test_server_does_not_swallow_a_bug_in_digest_handling(monkeypatch):
    """Only ``ProtocolError`` means "malformed"; a model bug propagates
    instead of silently serving as "no digest"."""
    from repro.server.h2server import ReplayServer

    def broken(cls, data):
        raise AttributeError("model bug")

    monkeypatch.setattr(CacheDigest, "decode", classmethod(broken))
    with pytest.raises(AttributeError, match="model bug"):
        ReplayServer._parse_cache_digest([("cache-digest", "AAAA")])


def test_deterministic_encoding():
    a = CacheDigest.from_urls(URLS).encode()
    b = CacheDigest.from_urls(list(URLS)).encode()
    assert a == b
