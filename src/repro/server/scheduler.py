"""The h2o-style interleaving scheduler.

A connection with no scheduler installed follows the unmodified h2o
discipline: strict adherence to the RFC 7540 priority tree, where a
pushed stream is a child of its parent and therefore only sends when
the parent is idle, blocked, or finished (Fig. 5a).

:class:`InterleavingScheduler` is the paper's modification (§5): the
parent (HTML) stream is *stopped* after a configured byte offset, the
critical pushed streams are transmitted in order, and only then does
the HTML resume.  Non-critical pushes stay children of the parent and
drain afterwards as usual.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..h2.connection import H2Connection


class InterleavingScheduler:
    """Pause the parent stream at ``offset``; send critical pushes; resume.

    Installed as ``conn.scheduler``: the connection asks :meth:`select`
    for the stream of each DATA frame, reports the frame to
    :meth:`on_data_sent`, and a peer's RST_STREAM to
    :meth:`on_stream_reset`.
    """

    name = "interleaving"

    def __init__(self, parent_stream_id: int, offset: int, critical_stream_ids: List[int]):
        if offset < 0:
            raise ValueError("interleave offset must be non-negative")
        self.parent_stream_id = parent_stream_id
        self.offset = offset
        self.critical_order = list(critical_stream_ids)
        self._critical_pending = set(critical_stream_ids)
        self._activated = False
        self._finished = not critical_stream_ids

    def activate(self, conn: H2Connection) -> None:
        """Install the pause point on the parent stream."""
        if self.parent_stream_id not in conn.streams:
            raise ValueError(f"unknown parent stream {self.parent_stream_id}")
        if not self._finished:
            conn.pause_stream_at(self.parent_stream_id, self.offset)
        self._activated = True

    # ------------------------------------------------------------------
    def select(self, conn: H2Connection, ready: Set[int]) -> Optional[int]:
        """Pick one of ``ready``, or ``None`` to send nothing now.

        ``ready`` is the connection's *live* ready set, not a copy: it
        changes as frames go out, so read it during the call only and
        never mutate it.
        """
        if not self._finished:
            # Phase 1: the HTML head, up to the pause offset.
            if self.parent_stream_id in ready:
                return self.parent_stream_id
            # Phase 2: critical pushes, in strategy order.
            for stream_id in self.critical_order:
                if stream_id in ready and stream_id in self._critical_pending:
                    return stream_id
        # Phase 3: normal priority-tree operation (HTML rest, other pushes).
        return conn.priority_tree.select(ready)

    def on_data_sent(self, conn: H2Connection, stream_id: int, size: int, end: bool) -> None:
        conn.priority_tree.charge(stream_id, size)
        if self._finished or not end:
            return
        if stream_id in self._critical_pending:
            self._critical_pending.discard(stream_id)
            if not self._critical_pending:
                self._resume_parent(conn)

    def on_stream_reset(self, conn: H2Connection, stream_id: int) -> None:
        """A cancelled critical push must not leave the HTML paused."""
        if self._finished:
            return
        if stream_id == self.parent_stream_id:
            self._finished = True
            return
        if stream_id in self._critical_pending:
            self._critical_pending.discard(stream_id)
            if not self._critical_pending:
                self._resume_parent(conn)

    def _resume_parent(self, conn: H2Connection) -> None:
        self._finished = True
        if self.parent_stream_id in conn.streams:
            conn.pause_stream_at(self.parent_stream_id, None)
