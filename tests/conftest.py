"""Shared SEG builders for the test suite."""

from __future__ import annotations

import pytest

from segeval.seg import ErrorEdge, ErrorNode, SegCollection, SemanticErrorGraph
from segeval.metametrics import ScoreTable


def make_seg(
    nodes: list[tuple[str, int, list[str]]],
    edges: list[tuple[str, str]] | list[tuple[str, str, int]],
    seg_id: str = "seg",
    subset: str = "synth",
    prompt: str = "a test prompt",
) -> SemanticErrorGraph:
    """Build a SEG from (id, error_count, images) nodes and (src, dst[, weight]) edges."""
    node_objs = tuple(
        ErrorNode(id=nid, error_count=count, images=tuple(images))
        for nid, count, images in nodes
    )
    edge_objs = []
    for edge in edges:
        src, dst = edge[0], edge[1]
        weight = edge[2] if len(edge) > 2 else 1
        labels = tuple(f"err{k}" for k in range(weight))
        edge_objs.append(ErrorEdge(src=src, dst=dst, error_labels=labels, weight=weight))
    return SemanticErrorGraph(
        id=seg_id, prompt=prompt, subset=subset, nodes=node_objs, edges=tuple(edge_objs)
    )


def chain_seg(
    images_per_node: list[int], seg_id: str = "chain", subset: str = "synth"
) -> SemanticErrorGraph:
    """Unit-weight chain 0 -> 1 -> ... with the given image counts."""
    nodes = [
        (str(i), i, [f"{i}-{j}.jpg" for j in range(k)])
        for i, k in enumerate(images_per_node)
    ]
    edges = [(str(i), str(i + 1)) for i in range(len(images_per_node) - 1)]
    return make_seg(nodes, edges, seg_id=seg_id, subset=subset)


def stacked_diamond(k: int, seg_id: str = "diamonds") -> SemanticErrorGraph:
    """k diamonds in a row, one image per node: 3k+1 nodes and 2^k walks."""
    nodes = [("0", 0, ["0.jpg"])]
    edges = []
    for i in range(k):
        top, left, right, join = str(2 * i), f"{2 * i + 1}a", f"{2 * i + 1}b", str(2 * i + 2)
        nodes += [(left, 2 * i + 1, [f"{left}.jpg"]), (right, 2 * i + 1, [f"{right}.jpg"])]
        nodes.append((join, 2 * i + 2, [f"{join}.jpg"]))
        edges += [(top, left), (top, right), (left, join), (right, join)]
    return make_seg(nodes, edges, seg_id=seg_id)


def table_for(
    seg: SemanticErrorGraph, scores: list[float], metric: str = "m"
) -> ScoreTable:
    """Assign scores to the SEG's images in node-listing order."""
    images = seg.image_ids()
    assert len(images) == len(scores)
    return ScoreTable(
        metric_name=metric,
        entries={(seg.id, img): s for img, s in zip(images, scores)},
    )


@pytest.fixture
def diamond() -> SemanticErrorGraph:
    """0 -> {1a, 1b} -> 2, one image per node."""
    return make_seg(
        nodes=[
            ("0", 0, ["0-0.jpg"]),
            ("1a", 1, ["1a-0.jpg"]),
            ("1b", 1, ["1b-0.jpg"]),
            ("2", 2, ["2-0.jpg"]),
        ],
        edges=[("0", "1a"), ("0", "1b"), ("1a", "2"), ("1b", "2")],
        seg_id="diamond",
    )


def collection_of(*segs: SemanticErrorGraph) -> SegCollection:
    return SegCollection(tuple(sorted(segs, key=lambda s: s.id)))
