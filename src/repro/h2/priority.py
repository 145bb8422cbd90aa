"""HTTP/2 stream priority dependency tree (RFC 7540 §5.3).

The tree is both a bookkeeping structure (parents, weights, exclusive
insertion, reprioritization with the §5.3.3 cycle-avoidance move) and a
scheduler: :meth:`PriorityTree.select` picks the stream that should
send next, replicating h2o's discipline —

* a stream with data ready is served before any of its descendants;
  children receive bandwidth only while their ancestors are idle or
  blocked;
* siblings share in proportion to their weights (weighted fair queueing
  via per-node virtual time).

This is the exact property the paper's Interleaving Push modification
works around: a pushed stream, made a child of the HTML stream, is
starved until the HTML finishes or blocks (Fig. 5a).
"""

from __future__ import annotations

from typing import Collection, Dict, Optional, Set

from ..errors import ProtocolError
from .constants import DEFAULT_WEIGHT


class PriorityNode:
    """One stream in the dependency tree."""

    __slots__ = ("stream_id", "parent", "children", "weight", "virtual_time")

    def __init__(self, stream_id: int, parent: Optional["PriorityNode"], weight: int):
        self.stream_id = stream_id
        self.parent = parent
        self.children: Dict[int, PriorityNode] = {}
        self.weight = weight
        #: WFQ virtual time among siblings; lower is served first.
        self.virtual_time = 0.0


def _service_order(node: PriorityNode):
    """Sibling order of service: lowest virtual time, then stream id."""
    return (node.virtual_time, node.stream_id)


def _check_weight(weight: int) -> None:
    """§5.3.2: a weight is 1..256 (``charge`` divides by it)."""
    if not 1 <= weight <= 256:
        raise ProtocolError(f"stream weight {weight} outside 1..256")


class PriorityTree:
    """Dependency tree rooted at the virtual stream 0."""

    def __init__(self):
        self._root = PriorityNode(0, None, DEFAULT_WEIGHT)
        self._nodes: Dict[int, PriorityNode] = {0: self._root}

    # ------------------------------------------------------------------
    # structure manipulation
    # ------------------------------------------------------------------
    def __contains__(self, stream_id: int) -> bool:
        return stream_id in self._nodes

    def insert(
        self,
        stream_id: int,
        depends_on: int = 0,
        weight: int = DEFAULT_WEIGHT,
        exclusive: bool = False,
    ) -> None:
        """Add a new stream below ``depends_on``.

        A dependency on an unknown stream is treated as a dependency on
        the root (RFC 7540 §5.3.1 allows this for closed streams).
        """
        if stream_id == 0:
            raise ProtocolError("stream 0 cannot carry priority")
        if stream_id in self._nodes:
            raise ProtocolError(f"stream {stream_id} already prioritized")
        if depends_on == stream_id:
            raise ProtocolError(f"stream {stream_id} cannot depend on itself")
        if not 1 <= weight <= 256:
            _check_weight(weight)  # raises; inline test: one insert per stream
        parent = self._nodes.get(depends_on, self._root)
        node = PriorityNode(stream_id, parent, weight)
        if exclusive:
            self._adopt_children(node, parent)
        # The node joins at the 0.0 it was built with, not at its
        # siblings' floor: known deviation 6 (EXPERIMENTS.md).
        parent.children[stream_id] = node
        self._nodes[stream_id] = node

    def reprioritize(
        self,
        stream_id: int,
        depends_on: int = 0,
        weight: int = DEFAULT_WEIGHT,
        exclusive: bool = False,
    ) -> None:
        """Move an existing stream (PRIORITY frame semantics)."""
        if depends_on == stream_id:
            raise ProtocolError(f"stream {stream_id} cannot depend on itself")
        node = self._nodes.get(stream_id)
        if node is None:
            self.insert(stream_id, depends_on, weight, exclusive)
            return
        if node is self._root:
            # Stream 0 carries no priority (§6.3).  The parent written
            # below could be the root itself, and ``select`` would then
            # never return.
            raise ProtocolError("stream 0 cannot carry priority")
        _check_weight(weight)
        new_parent = self._nodes.get(depends_on, self._root)
        # §5.3.3: if the new parent is a descendant of the moved node,
        # first move the new parent up to the moved node's old parent.
        if self._is_descendant(new_parent, node):
            self._detach(new_parent)
            old_parent = node.parent if node.parent is not None else self._root
            new_parent.parent = old_parent
            old_parent.children[new_parent.stream_id] = new_parent
        self._detach(node)
        node.weight = weight
        if exclusive:
            self._adopt_children(node, new_parent)
        node.parent = new_parent
        new_parent.children[stream_id] = node
        node.virtual_time = self._min_sibling_vt(new_parent)

    def remove(self, stream_id: int) -> None:
        """Remove a closed stream; its children move to its parent.

        Promoted children are brought up to the virtual-time floor of
        their new sibling set (start-time fairness): a stream that sat
        idle below a finished sibling must not preempt streams that
        have been sending all along.
        """
        node = self._nodes.pop(stream_id, None)
        if node is None:
            return
        parent = node.parent if node.parent is not None else self._root
        if node.children:
            # Only promotion needs the floor; a leaf (every pushed image
            # below the HTML stream) leaves without scanning its siblings.
            floor = min(
                (child.virtual_time for child in parent.children.values() if child is not node),
                default=node.virtual_time,
            )
            for child in list(node.children.values()):
                child.parent = parent
                child.virtual_time = max(child.virtual_time, floor)
                parent.children[child.stream_id] = child
        if node.parent is not None:  # _detach, inline: one remove per stream
            parent.children.pop(stream_id, None)

    def parent_of(self, stream_id: int) -> Optional[int]:
        node = self._nodes.get(stream_id)
        if node is None or node.parent is None:
            return None
        return node.parent.stream_id

    def weight_of(self, stream_id: int) -> int:
        return self._nodes[stream_id].weight

    def children_of(self, stream_id: int) -> Set[int]:
        return set(self._nodes[stream_id].children)

    def release(self) -> None:
        """Unlink every node from its parent and children: parent and
        child pointers make the tree cyclic by construction."""
        for node in self._nodes.values():
            node.parent = None
            node.children.clear()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def select(self, ready: Collection[int]) -> Optional[int]:
        """Pick the stream to serve next among ``ready`` stream ids.

        Walks from the root: a ready node wins over its descendants;
        among sibling subtrees that contain ready nodes, the one with
        the lowest virtual time wins.  That is the first ready node of
        a pre-order walk taking siblings in service order.  A node with
        one child is stepped through in place (a push chain is hundreds
        deep, and the usual answer is the root's only child); the
        explicit stack of the walk exists only from the first node with
        several children on.  ``ready`` is only probed for membership,
        never copied.
        """
        if not ready:
            return None
        node = self._root
        stack = None
        while True:
            if node.stream_id in ready:
                return node.stream_id
            children = node.children
            if len(children) == 1:
                (node,) = children.values()
                continue
            if children:
                siblings = sorted(children.values(), key=_service_order, reverse=True)
                if stack:
                    stack.extend(siblings)
                else:
                    stack = siblings
            if not stack:
                return None
            node = stack.pop()

    def charge(self, stream_id: int, size: int) -> None:
        """Account ``size`` bytes sent on ``stream_id`` for WFQ."""
        node = self._nodes.get(stream_id)
        if node is None:
            return
        node.virtual_time += size / node.weight

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _detach(self, node: PriorityNode) -> None:
        if node.parent is not None:
            node.parent.children.pop(node.stream_id, None)

    def _adopt_children(self, node: PriorityNode, parent: PriorityNode) -> None:
        for child in list(parent.children.values()):
            if child is node:
                continue
            parent.children.pop(child.stream_id)
            child.parent = node
            node.children[child.stream_id] = child

    def _is_descendant(self, node: PriorityNode, ancestor: PriorityNode) -> bool:
        current = node.parent
        while current is not None:
            if current is ancestor:
                return True
            current = current.parent
        return False

    def _min_sibling_vt(self, parent: PriorityNode) -> float:
        siblings = [child.virtual_time for child in parent.children.values()]
        return min(siblings) if siblings else 0.0
