"""Enumeration of head-to-leaf walks and adjacent node pairs.

All meta-metrics are computed over walks: maximal directed paths from the
head node to a node with no outgoing edges.  Error counts strictly increase
along a walk, so expanding each node into its images yields the in-order
(image, error count) sequence the ordering score correlates.

Enumeration is exhaustive (SEGs are small by construction) and ordered
lexicographically by node-id sequence so downstream reports are byte-stable.
Each SEG object derives its walks and per-walk pairs once; every call here
returns a fresh list of them.
"""

from __future__ import annotations

from typing import Literal

from .seg import SemanticErrorGraph

PairMode = Literal["per-walk", "unique-edge"]

PAIR_MODES = ("per-walk", "unique-edge")


def enumerate_walks(seg: SemanticErrorGraph) -> list[tuple[str, ...]]:
    """Every head-to-leaf path as a node-id tuple, exactly once, in lexicographic order."""
    return list(seg._walk_data[0])


def adjacent_pairs(seg: SemanticErrorGraph, mode: PairMode = "per-walk") -> list[tuple[str, str]]:
    """Consecutive node pairs over all walks.

    per-walk: a pair appears once per walk that traverses it (an edge shared
    by k walks contributes k entries).  unique-edge: deduplicated to the
    traversed edge set, keeping first-traversal order.
    """
    if mode not in PAIR_MODES:
        raise ValueError(f"unknown pair mode: {mode!r}")
    pairs = seg._walk_data[1]
    return list(dict.fromkeys(pairs)) if mode == "unique-edge" else list(pairs)
