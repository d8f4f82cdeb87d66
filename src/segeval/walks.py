"""Enumeration of head-to-leaf walks and adjacent node pairs.

All meta-metrics are computed over walks: maximal directed paths from the
head node to a node with no outgoing edges.  Error counts strictly increase
along a walk, so expanding each node into its images yields the in-order
(image, error count) sequence the ordering score correlates.

Enumeration is exhaustive (SEGs are small by construction) and ordered
lexicographically by node-id sequence so downstream reports are byte-stable.
Nothing is cached on the SEG: each call returns a new list, and callers that
read a SEG's walks twice hold them in a plan (``metametrics._SegPlan``).
"""

from __future__ import annotations

from typing import Literal

from .errors import ValidationError
from .seg import SemanticErrorGraph

PairMode = Literal["per-walk", "unique-edge"]

PAIR_MODES = ("per-walk", "unique-edge")


def enumerate_walks(seg: SemanticErrorGraph) -> list[tuple[str, ...]]:
    """Every head-to-leaf path as a node-id tuple, exactly once, in lexicographic order."""
    children = seg.children()
    walks: list[tuple[str, ...]] = []
    stack = [(seg.head().id,)]
    while stack:
        path = stack.pop()
        if (kids := children.get(path[-1])) is None:  # an unvalidated graph's edge to an undefined node
            raise ValidationError(f"seg {seg.id}: edge references unknown node {path[-1]!r}")
        if not kids:
            walks.append(path)
        for kid in kids:
            stack.append(path + (kid,))
    walks.sort()
    return walks


def adjacent_pairs(walks: list[tuple[str, ...]], mode: PairMode = "per-walk") -> list[tuple[str, str]]:
    """Consecutive node pairs over ``walks``, one shared tuple per distinct edge.

    per-walk: a pair appears once per walk that traverses it (an edge shared
    by k walks contributes k entries).  unique-edge: deduplicated to the
    traversed edge set, keeping first-traversal order.
    """
    if mode not in PAIR_MODES:
        raise ValueError(f"unknown pair mode: {mode!r}")
    edges: dict[tuple[str, str], tuple[str, str]] = {}
    pairs = [edges.setdefault(p, p) for walk in walks for p in zip(walk, walk[1:])]
    return list(edges) if mode == "unique-edge" else pairs
