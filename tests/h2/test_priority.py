"""Tests for the RFC 7540 §5.3 priority tree and its scheduler."""

import pytest

from repro.errors import ProtocolError
from repro.h2.priority import PriorityTree


def test_insert_and_parent():
    tree = PriorityTree()
    tree.insert(1, depends_on=0, weight=256)
    tree.insert(3, depends_on=1, weight=220)
    assert tree.parent_of(1) == 0
    assert tree.parent_of(3) == 1
    assert tree.weight_of(3) == 220


def test_dependency_on_unknown_stream_goes_to_root():
    tree = PriorityTree()
    tree.insert(5, depends_on=99)
    assert tree.parent_of(5) == 0


def test_self_dependency_rejected():
    tree = PriorityTree()
    with pytest.raises(ProtocolError):
        tree.insert(1, depends_on=1)


def test_the_root_gets_no_parent():
    # Stream 0 is the root: a dependency for it is refused, not written.
    tree = PriorityTree()
    with pytest.raises(ProtocolError):
        tree.reprioritize(0, depends_on=3)
    assert tree.parent_of(0) is None
    tree.insert(1)
    assert tree.select({1}) == 1


def test_duplicate_insert_rejected():
    tree = PriorityTree()
    tree.insert(1)
    with pytest.raises(ProtocolError):
        tree.insert(1)


@pytest.mark.parametrize("weight", [0, -1, 257])
def test_weight_outside_1_to_256_rejected(weight):
    # ``charge`` divides by the weight; §5.3.2 bounds it where it enters.
    tree = PriorityTree()
    with pytest.raises(ProtocolError):
        tree.insert(1, weight=weight)
    tree.insert(1)
    with pytest.raises(ProtocolError):
        tree.reprioritize(1, weight=weight)
    assert tree.weight_of(1) == 16


def test_exclusive_insert_adopts_children():
    tree = PriorityTree()
    tree.insert(1)
    tree.insert(3)
    tree.insert(5, depends_on=0, exclusive=True)
    assert tree.parent_of(1) == 5
    assert tree.parent_of(3) == 5
    assert tree.parent_of(5) == 0


def test_remove_promotes_children():
    tree = PriorityTree()
    tree.insert(1)
    tree.insert(3, depends_on=1)
    tree.insert(5, depends_on=3)
    tree.remove(3)
    assert tree.parent_of(5) == 1
    assert 3 not in tree


def test_reprioritize_moves_stream():
    tree = PriorityTree()
    tree.insert(1)
    tree.insert(3)
    tree.reprioritize(3, depends_on=1, weight=100)
    assert tree.parent_of(3) == 1
    assert tree.weight_of(3) == 100


def test_reprioritize_descendant_cycle_resolution():
    # §5.3.3: moving a stream under its own descendant first moves the
    # descendant up.
    tree = PriorityTree()
    tree.insert(1)
    tree.insert(3, depends_on=1)
    tree.insert(5, depends_on=3)
    tree.reprioritize(1, depends_on=5)
    assert tree.parent_of(5) == 0
    assert tree.parent_of(1) == 5
    assert tree.parent_of(3) == 1


def test_reprioritize_unknown_inserts():
    tree = PriorityTree()
    tree.reprioritize(7, depends_on=0, weight=16)
    assert 7 in tree


class TestScheduling:
    def test_parent_served_before_children(self):
        # The h2o discipline: a pushed stream (child) sends only when
        # the parent has nothing to send (Fig. 5a).
        tree = PriorityTree()
        tree.insert(1, weight=256)
        tree.insert(2, depends_on=1, weight=16)
        assert tree.select({1, 2}) == 1
        assert tree.select({2}) == 2

    def test_empty_ready_set(self):
        tree = PriorityTree()
        tree.insert(1)
        assert tree.select(set()) is None

    def test_weighted_sharing_between_siblings(self):
        tree = PriorityTree()
        tree.insert(1, weight=200)
        tree.insert(3, weight=100)
        sent = {1: 0, 3: 0}
        for _ in range(300):
            stream = tree.select({1, 3})
            sent[stream] += 1
            tree.charge(stream, 1000)
        ratio = sent[1] / sent[3]
        assert 1.7 < ratio < 2.3  # proportional to weights

    def test_deep_descendant_served_when_ancestors_idle(self):
        tree = PriorityTree()
        tree.insert(1)
        tree.insert(3, depends_on=1)
        tree.insert(5, depends_on=3)
        assert tree.select({5}) == 5

    def test_push_chain_deeper_than_the_recursion_limit(self):
        # Pushes form a sequential dependency chain; the walk is a loop,
        # so chain depth is not bounded by the interpreter's stack.
        import sys

        tree = PriorityTree()
        depth = sys.getrecursionlimit() + 50
        for index in range(depth):
            tree.insert(2 * index + 1, depends_on=max(2 * index - 1, 0))
        deepest = 2 * depth - 1
        assert tree.select({deepest}) == deepest
        assert tree.select({deepest + 2}) is None  # not in the tree

    def test_ready_subtree_with_lower_virtual_time_wins(self):
        # Sibling subtrees are taken in service order even when the
        # ready stream sits below an idle sibling.
        tree = PriorityTree()
        tree.insert(1)
        tree.insert(3)
        tree.insert(5, depends_on=1)
        tree.charge(3, 5_000)  # 3 has been served; 1's subtree has not
        assert tree.select({3, 5}) == 5
        tree.charge(1, 10_000)
        assert tree.select({3, 5}) == 3

    def test_select_does_not_touch_the_ready_set(self):
        tree = PriorityTree()
        tree.insert(1)
        tree.insert(3, depends_on=1)
        ready = frozenset({3})  # a frozenset cannot be mutated or need copying
        assert tree.select(ready) == 3

    def test_promoted_child_does_not_preempt_long_runner(self):
        # Regression test: children promoted on stream close must not
        # restart the WFQ race against a sibling that has been sending.
        tree = PriorityTree()
        tree.insert(1, weight=100)          # long-running stream
        tree.insert(3, weight=100)          # sibling that closes
        tree.insert(5, depends_on=3, weight=100)  # idle child of 3
        for _ in range(50):
            assert tree.select({1}) == 1
            tree.charge(1, 1000)
        tree.remove(3)  # 5 promoted next to 1
        # 5 should now share ~50/50, not monopolize until it catches up.
        sent = {1: 0, 5: 0}
        for _ in range(100):
            stream = tree.select({1, 5})
            sent[stream] += 1
            tree.charge(stream, 1000)
        assert sent[1] >= 40

    @pytest.mark.xfail(
        strict=True,
        reason="known deviation 6 (EXPERIMENTS.md): insert() leaves a new node at "
        "the virtual time 0.0 it was built with instead of its siblings' floor, so "
        "a new stream always joins below siblings that have been sending",
    )
    def test_new_stream_joins_at_the_sibling_floor(self):
        """Start-time fairness on arrival, as ``remove`` applies it on
        promotion: a stream that joins two siblings already at virtual
        times 1000 and 500 starts at their floor, 500 — it shares from
        now on, it does not first catch up on what they sent before it
        existed."""
        tree = PriorityTree()
        tree.insert(1, weight=1)
        tree.insert(3, weight=1)
        tree.charge(1, 1_000)
        tree.charge(3, 500)
        tree.insert(5, weight=1)
        assert tree._nodes[5].virtual_time == 500.0
        # Served at once (ties go to the lower id), then turn and turn
        # about with 3 — not 500 octets in a row first.
        order = []
        for _ in range(4):
            chosen = tree.select({1, 3, 5})
            order.append(chosen)
            tree.charge(chosen, 100)
        assert order == [3, 5, 3, 5]

    def test_charge_unknown_stream_is_noop(self):
        tree = PriorityTree()
        tree.charge(99, 1000)  # must not raise

    def test_children_of(self):
        tree = PriorityTree()
        tree.insert(1)
        tree.insert(3, depends_on=1)
        tree.insert(5, depends_on=1)
        assert tree.children_of(1) == {3, 5}
