"""RFC 7541 Appendix C: the worked header-block examples, as hex.

Each example is a sequence of header blocks fed to one decoder; after
every block the decoded header list and the dynamic table's size must be
the RFC's.  C.2's four examples each start from an empty table.  C.3
and C.5 use raw literals only.  C.4 and C.6 are the same requests and
responses with Huffman-coded literals: this codec's Huffman code is not
Appendix B's (EXPERIMENTS.md known deviation 8), so they are strict
xfails until ROADMAP item 6(h) replaces it.
"""

from __future__ import annotations

import pytest

from repro.h2.hpack import HpackDecoder

#: C.3 / C.4: three requests on one connection, 4 096-octet table.
REQUESTS = [
    (
        [
            (":method", "GET"),
            (":scheme", "http"),
            (":path", "/"),
            (":authority", "www.example.com"),
        ],
        57,
    ),
    (
        [
            (":method", "GET"),
            (":scheme", "http"),
            (":path", "/"),
            (":authority", "www.example.com"),
            ("cache-control", "no-cache"),
        ],
        110,
    ),
    (
        [
            (":method", "GET"),
            (":scheme", "https"),
            (":path", "/index.html"),
            (":authority", "www.example.com"),
            ("custom-key", "custom-value"),
        ],
        164,
    ),
]

#: C.5 / C.6: three responses on one connection, 256-octet table, so
#: the second and third evict.
RESPONSES = [
    (
        [
            (":status", "302"),
            ("cache-control", "private"),
            ("date", "Mon, 21 Oct 2013 20:13:21 GMT"),
            ("location", "https://www.example.com"),
        ],
        222,
    ),
    (
        [
            (":status", "307"),
            ("cache-control", "private"),
            ("date", "Mon, 21 Oct 2013 20:13:21 GMT"),
            ("location", "https://www.example.com"),
        ],
        222,
    ),
    (
        [
            (":status", "200"),
            ("cache-control", "private"),
            ("date", "Mon, 21 Oct 2013 20:13:22 GMT"),
            ("location", "https://www.example.com"),
            ("content-encoding", "gzip"),
            ("set-cookie", "foo=ASDJKHQKBZXOQWEOPIUAXQWEOIU; max-age=3600; version=1"),
        ],
        215,
    ),
]

C_3_BLOCKS = [
    "8286 8441 0f77 7777 2e65 7861 6d70 6c65 2e63 6f6d",
    "8286 84be 5808 6e6f 2d63 6163 6865",
    "8287 85bf 400a 6375 7374 6f6d 2d6b 6579 0c63 7573 746f 6d2d 7661 6c75 65",
]

C_4_BLOCKS = [
    "8286 8441 8cf1 e3c2 e5f2 3a6b a0ab 90f4 ff",
    "8286 84be 5886 a8eb 1064 9cbf",
    "8287 85bf 4088 25a8 49e9 5ba9 7d7f 8925 a849 e95b b8e8 b4bf",
]

C_5_BLOCKS = [
    """4803 3330 3258 0770 7269 7661 7465 611d
       4d6f 6e2c 2032 3120 4f63 7420 3230 3133
       2032 303a 3133 3a32 3120 474d 546e 1768
       7474 7073 3a2f 2f77 7777 2e65 7861 6d70
       6c65 2e63 6f6d""",
    "4803 3330 37c1 c0bf",
    """88c1 611d 4d6f 6e2c 2032 3120 4f63 7420
       3230 3133 2032 303a 3133 3a32 3220 474d
       54c0 5a04 677a 6970 7738 666f 6f3d 4153
       444a 4b48 514b 425a 584f 5157 454f 5049
       5541 5851 5745 4f49 553b 206d 6178 2d61
       6765 3d33 3630 303b 2076 6572 7369 6f6e
       3d31""",
]

C_6_BLOCKS = [
    """4882 6402 5885 aec3 771a 4b61 96d0 7abe
       9410 54d4 44a8 2005 9504 0b81 66e0 82a6
       2d1b ff6e 919d 29ad 1718 63c7 8f0b 97c8
       e9ae 82ae 43d3""",
    "4883 640e ffc1 c0bf",
    """88c1 6196 d07a be94 1054 d444 a820 0595
       040b 8166 e084 a62d 1bff c05a 839b d9ab
       77ad 94e7 821d d7f2 e6c7 b335 dfdf cd5b
       3960 d5af 2708 7f36 72c1 ab27 0fb5 291f
       9587 3160 65c0 03ed 4ee5 b106 3d50 07""",
]

HUFFMAN = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 6(h): the Huffman code is not RFC 7541 Appendix B's "
    "(known deviation 8)",
)

EXAMPLES = [
    pytest.param(
        4096,
        ["400a 6375 7374 6f6d 2d6b 6579 0d63 7573 746f 6d2d 6865 6164 6572"],
        [([("custom-key", "custom-header")], 55)],
        id="C.2.1-literal-with-indexing",
    ),
    pytest.param(
        4096,
        ["040c 2f73 616d 706c 652f 7061 7468"],
        [([(":path", "/sample/path")], 0)],
        id="C.2.2-literal-without-indexing",
    ),
    pytest.param(
        4096,
        ["1008 7061 7373 776f 7264 0673 6563 7265 74"],
        [([("password", "secret")], 0)],
        id="C.2.3-literal-never-indexed",
    ),
    pytest.param(4096, ["82"], [([(":method", "GET")], 0)], id="C.2.4-indexed"),
    pytest.param(4096, C_3_BLOCKS, REQUESTS, id="C.3-requests"),
    pytest.param(4096, C_4_BLOCKS, REQUESTS, id="C.4-requests-huffman", marks=HUFFMAN),
    pytest.param(256, C_5_BLOCKS, RESPONSES, id="C.5-responses"),
    pytest.param(256, C_6_BLOCKS, RESPONSES, id="C.6-responses-huffman", marks=HUFFMAN),
]


@pytest.mark.parametrize("table_size, blocks, steps", EXAMPLES)
def test_appendix_c_example(table_size, blocks, steps):
    decoder = HpackDecoder(max_table_size=table_size)
    assert len(blocks) == len(steps)
    for step, (block, (headers, size)) in enumerate(zip(blocks, steps), 1):
        decoded = decoder.decode(bytes.fromhex("".join(block.split())))
        assert decoded == headers, f"block {step}"
        assert decoder.table.size == size, f"block {step}"
