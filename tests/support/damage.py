"""Hypothesis strategies that damage a real artifact.

A reader of a saved artifact (a qlog export, a policy table) must
return a well-typed result or raise the package's typed error, whatever
the damage.  :func:`damaged_json` breaks one node of a JSON document,
chosen by a random walk from the root so the document's skeleton is hit
as often as its leaves.
"""

from __future__ import annotations

import copy

from hypothesis import strategies as st

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


@st.composite
def damaged_json(draw, document):
    """``document`` (left intact) with one node replaced by an arbitrary
    JSON value or deleted.  Returns (damaged copy, path to the node)."""
    root = {"root": copy.deepcopy(document)}
    parent, key, path = root, "root", []
    while True:
        node = parent[key]
        if not isinstance(node, (dict, list)) or not node or draw(st.integers(0, 4)) == 0:
            break
        parent = node
        if isinstance(node, dict):
            key = draw(st.sampled_from(sorted(node)))
        else:
            key = draw(st.integers(0, len(node) - 1))
        path.append(key)
    if path and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return root["root"], path
