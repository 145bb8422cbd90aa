"""Bodies by reference: windows onto immutable ``bytes``.

Nothing the simulator measures depends on what a response body
*contains* — round trips, contention for the downlink and interleaving
offsets are functions of byte counts and timing.  A body therefore
travels from the record database to the browser as :class:`Span`
objects, ``(source, start, stop)`` windows onto the recorded ``bytes``:
cutting a DATA frame, segmenting, retransmitting and reassembling are
integer arithmetic, and the content is sliced out only by whoever reads
it (the HTML tokenizer, the CSS and JS scanners).
"""

from __future__ import annotations

from typing import List, Optional


class Span:
    """The window ``source[start:stop]``; treated as immutable."""

    __slots__ = ("source", "start", "stop")

    def __init__(self, source: bytes, start: int = 0, stop: Optional[int] = None):
        self.source = source
        self.start = start
        self.stop = len(source) if stop is None else stop

    def __len__(self) -> int:
        return self.stop - self.start

    def tobytes(self) -> bytes:
        """The content; the source object itself when the window covers it."""
        return self.source[self.start : self.stop]

    #: ``bytes(span)`` keeps working for ``on_stream_data`` consumers
    #: written when QUIC stream payloads were ``bytes``.
    __bytes__ = tobytes


class SpanBuffer:
    """A body received as spans, in order.

    A span that continues the previous one extends it in place, so a
    body that arrives whole *is* its source object again: nothing is
    copied on the way in, and :meth:`tobytes` of a fully received
    recorded body returns the recorded ``bytes``.
    """

    __slots__ = ("size", "_runs")

    def __init__(self) -> None:
        #: Bytes received so far.
        self.size = 0
        #: ``[source, start, stop]`` per maximal contiguous run.
        self._runs: List[list] = []

    def append(self, span: Span) -> None:
        self.size += span.stop - span.start
        runs = self._runs
        if runs:
            last = runs[-1]
            if last[2] == span.start and last[0] is span.source:
                last[2] = span.stop
                return
        runs.append([span.source, span.start, span.stop])

    def __len__(self) -> int:
        return self.size

    def tobytes(self) -> bytes:
        runs = self._runs
        if len(runs) == 1:
            source, start, stop = runs[0]
            return source[start:stop]
        return b"".join(source[start:stop] for source, start, stop in runs)
