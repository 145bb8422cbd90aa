"""Layer drives: each layer's public entry points exercised alone.

Run as a subprocess of its own (``drives.py --scale S``); prints one
JSON object of unit costs.  A drive isolates a layer from the page-load
mix: when ``h2.self_ms_per_load`` falls, the drive says whether the
DATA path or the header path paid for it.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.h2 import DataFrame, FrameReader  # noqa: E402
from repro.h2.hpack import HpackDecoder, HpackEncoder  # noqa: E402
from repro.html import HtmlTokenizer, build_site  # noqa: E402
from repro.metrics.speedindex import speed_index_of  # noqa: E402
from repro.netsim import Topology, conditions  # noqa: E402
from repro.replay.testbed import ReplayTestbed  # noqa: E402
from repro.sim import new_simulator  # noqa: E402
from repro.sites import TOP_100_PROFILE, generate_corpus  # noqa: E402

REPEATS = 5

REQUEST_HEADERS = [
    (":method", "GET"),
    (":scheme", "https"),
    (":authority", "www.example.com"),
    (":path", "/assets/app-39fa2bb1.js"),
    ("accept", "*/*"),
    ("accept-encoding", "gzip, deflate, br"),
    ("accept-language", "en-US,en;q=0.9"),
    ("user-agent", "Mozilla/5.0 (X11; Linux x86_64) Chrome/64.0.3282.140"),
    ("referer", "https://www.example.com/"),
]


def median_seconds(run) -> float:
    """Median wall of ``REPEATS`` calls (``run`` returns nothing timed)."""
    walls = []
    for _ in range(REPEATS):
        gc.collect()
        start = time.perf_counter()
        run()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def drive_sim(events: int) -> float:
    """µs per scheduled-and-dispatched callback."""

    def run():
        sim = new_simulator()
        fired = [0]

        def tick():
            fired[0] += 1

        for index in range(events):
            sim.schedule(index % 97 * 0.01, tick)
        sim.run()
        if fired[0] != events:
            raise RuntimeError(f"sim drive dispatched {fired[0]} of {events}")

    return median_seconds(run) / events * 1e6


def drive_data_frames(frames: int) -> float:
    """µs per 16 KiB DATA frame, serialise + parse."""
    payload = b"\xa5" * 16_384

    def run():
        reader = FrameReader()
        parsed = 0
        for _ in range(frames):
            parsed += len(reader.feed(DataFrame(stream_id=1, data=payload).serialize()))
        if parsed != frames:
            raise RuntimeError(f"frame drive parsed {parsed} of {frames}")

    return median_seconds(run) / frames * 1e6


def drive_header_blocks(blocks: int) -> float:
    """µs per request header block, HPACK encode + decode."""

    def run():
        encoder, decoder = HpackEncoder(), HpackDecoder()
        for index in range(blocks):
            headers = list(REQUEST_HEADERS)
            headers[3] = (":path", f"/assets/img-{index}.png")
            if decoder.decode(encoder.encode(headers)) != headers:
                raise RuntimeError("hpack drive round trip differs")

    return median_seconds(run) / blocks * 1e6


def drive_transfer(network, size: int) -> float:
    """µs per wire kB of a raw server→client transfer, no HTTP/2."""
    chunk = b"\x5a" * 65_536
    wire_bytes = [0]

    def run():
        sim = new_simulator()
        topology = Topology(sim, network)
        topology.add_host("10.9.0.1", ["drive.example"])
        received = [0]

        def on_connection(connection):
            remaining = [size]

            def pump():
                while remaining[0] > 0:
                    accepted = connection.server.send(chunk[: remaining[0]])
                    if accepted == 0:
                        return
                    remaining[0] -= accepted

            def on_data(data):
                received[0] += len(data)

            connection.client.on_data = on_data
            connection.server.on_writable = pump
            pump()

        topology.open_connection("drive.example", on_connection)
        sim.run(until=600_000.0)
        if received[0] != size:
            raise RuntimeError(f"transfer drive delivered {received[0]} of {size} B")
        wire_bytes[0] = (
            topology.downlink.bytes_transmitted + topology.uplink.bytes_transmitted
        )

    return median_seconds(run) / (wire_bytes[0] / 1000.0) * 1e6


def drive_tokenizer(built, rounds: int) -> float:
    """µs per kB of built HTML through the tokenizer."""

    def run():
        for _ in range(rounds):
            tokenizer = HtmlTokenizer()
            for offset in range(0, len(built.html), 16_384):
                tokenizer.feed(built.html[offset:offset + 16_384])

    return median_seconds(run) / (rounds * len(built.html) / 1000.0) * 1e6


def drive_speed_index(built, rounds: int) -> float:
    """µs per ``speed_index_of`` over a finished load's timeline."""
    timeline = ReplayTestbed(built=built).run(seed=1).timeline

    def run():
        for _ in range(rounds):
            speed_index_of(timeline)

    return median_seconds(run) / rounds * 1e6


def run_drives(scale: float) -> dict:
    def sized(count: int) -> int:
        return max(1, int(count * scale))

    built = build_site(generate_corpus(TOP_100_PROFILE, 1, seed=2018)[0].spec)
    return {
        "sim.drive_us_per_event": drive_sim(sized(200_000)),
        "h2.drive_us_per_data_frame": drive_data_frames(sized(100_000)),
        "h2.drive_us_per_header_block": drive_header_blocks(sized(20_000)),
        "netsim.drive_us_per_wire_kb": drive_transfer(
            conditions.DSL_TESTBED, sized(40_000_000)
        ),
        "netsim.drive_lossy_us_per_wire_kb": drive_transfer(
            conditions.LOSSY_DSL, sized(40_000_000)
        ),
        "html.drive_us_per_kb": drive_tokenizer(built, sized(400)),
        "metrics.speed_index_us": drive_speed_index(built, sized(50_000)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    print(json.dumps(run_drives(args.scale)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
