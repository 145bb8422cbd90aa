"""Bodies by reference: windows onto immutable ``bytes``.

Nothing the simulator measures depends on what a response body
*contains* — round trips, contention for the downlink and interleaving
offsets are functions of byte counts and timing.  A body therefore
travels from the record database to the browser as :class:`Span`
objects, ``(source, start, stop)`` windows onto the recorded ``bytes``:
cutting a DATA frame, segmenting, retransmitting and reassembling are
integer arithmetic, and the content is sliced out only by whoever reads
it (the HTML tokenizer, the CSS and JS scanners).

A recorded body is a :data:`Body`: ``bytes`` for what is read (HTML,
CSS, JS), a read-only ``memoryview`` for what is not (images, fonts,
other; ``repro.html.builder`` stores none of their bytes).  A span of
either is the same integer arithmetic.
"""

from __future__ import annotations

from typing import List, Optional, Union

#: A recorded response body: ``bytes``, or a read-only ``memoryview``
#: for a body nothing reads.
Body = Union[bytes, memoryview]


class Span:
    """The window ``source[start:stop]``; treated as immutable."""

    __slots__ = ("source", "start", "stop")

    def __init__(self, source: Body, start: int = 0, stop: Optional[int] = None):
        self.source = source
        self.start = start
        self.stop = len(source) if stop is None else stop

    def __len__(self) -> int:
        return self.stop - self.start

    def tobytes(self) -> Body:
        """The content, sliced from the source: the source object itself
        when the window covers a ``bytes`` source, a view of the same
        buffer when the source is a ``memoryview``."""
        return self.source[self.start : self.stop]

    def __bytes__(self) -> bytes:
        """``bytes(span)``, for ``on_stream_data`` consumers written when
        QUIC stream payloads were ``bytes``: of a ``bytes`` source the
        window covers, the source object itself; else a copy."""
        return bytes(self.source[self.start : self.stop])


class SpanBuffer:
    """A body received as spans, in order.

    A span that continues the previous one extends it in place, so a
    body that arrives whole *is* its source object again: nothing is
    copied on the way in, and :meth:`tobytes` of a fully received
    recorded ``bytes`` body returns that object (of a ``memoryview``
    body, a view of the same buffer).
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

    def tobytes(self) -> Body:
        """The content; in several runs, joined into new ``bytes``."""
        runs = self._runs
        if len(runs) == 1:
            source, start, stop = runs[0]
            return source[start:stop]
        return b"".join(source[start:stop] for source, start, stop in runs)
