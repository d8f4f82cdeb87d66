"""Enumeration of head-to-leaf walks and adjacent node pairs.

All meta-metrics are computed over walks: maximal directed paths from the
head node to a node with no outgoing edges.  Error counts strictly increase
along a walk, so expanding each node into its images yields the in-order
(image, error count) sequence the ordering score correlates.

Enumeration is exhaustive (SEGs are small by construction) and ordered
lexicographically by node-id sequence so downstream reports are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .seg import SemanticErrorGraph

PairMode = Literal["per-walk", "unique-edge"]

PAIR_MODES = ("per-walk", "unique-edge")


@dataclass(frozen=True)
class Walk:
    seg_id: str
    node_ids: tuple[str, ...]


def enumerate_walks(seg: SemanticErrorGraph) -> list[Walk]:
    """Every head-to-leaf path, exactly once, in lexicographic node-id order."""
    children = seg.children()
    walks: list[tuple[str, ...]] = []
    stack = [(seg.head().id,)]
    while stack:
        path = stack.pop()
        kids = children[path[-1]]
        if not kids:
            walks.append(path)
        for kid in kids:
            stack.append(path + (kid,))
    walks.sort()
    return [Walk(seg_id=seg.id, node_ids=w) for w in walks]


def walk_triples(seg: SemanticErrorGraph, walk: Walk) -> list[tuple[str, int]]:
    """Expand a walk into per-image (image_id, error_count) pairs.

    Images appear in the order listed on each node; nodes in walk order.
    """
    nodes = seg.node_map()
    entries: list[tuple[str, int]] = []
    for node_id in walk.node_ids:
        if node_id not in nodes:
            raise KeyError(f"walk references unknown node {node_id!r} in seg {seg.id}")
        node = nodes[node_id]
        entries.extend((img, node.error_count) for img in node.images)
    return entries


def adjacent_pairs(seg: SemanticErrorGraph, mode: PairMode = "per-walk") -> list[tuple[str, str]]:
    """Consecutive node pairs over all walks.

    per-walk: a pair appears once per walk that traverses it (an edge shared
    by k walks contributes k entries).  unique-edge: deduplicated to the
    traversed edge set, keeping first-traversal order.
    """
    if mode not in PAIR_MODES:
        raise ValueError(f"unknown pair mode: {mode!r}")
    pairs: list[tuple[str, str]] = []
    for walk in enumerate_walks(seg):
        ids = walk.node_ids
        pairs.extend(zip(ids, ids[1:]))
    if mode == "unique-edge":
        seen: set[tuple[str, str]] = set()
        unique = []
        for p in pairs:
            if p not in seen:
                seen.add(p)
                unique.append(p)
        return unique
    return pairs
