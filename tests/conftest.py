"""Shared SEG builders, seeded CSV files and table-view checks for the test suite."""

from __future__ import annotations

import csv
import random

import pytest

from segeval.fileio import csv_row
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


CSV_FAULTS = ("none", "duplicate", "short", "long", "oversized", "not-utf8", "bad-header", "empty")


def seeded_csv(rng: random.Random, header: list[str], rows: list[list[str]], bad_values=()) -> tuple[bytes, str]:
    """``rows`` under ``header`` as CSV bytes with at most one kind of fault, and that kind's name.

    The faults are those of :data:`CSV_FAULTS` and a last field taken from
    ``bad_values``.  A duplicate repeats the first three fields of the first
    row or a later one, once or twice.  A non-UTF-8 byte comes past the first
    8 KiB.  Blank lines, a byte-order mark, CRLF line ends and quoted
    newlines inside fields, after which record and physical line numbers
    differ, come and go at random.
    """
    rows = [list(row) for row in rows]
    values = {f"value {v!r}": v for v in bad_values}
    fault = rng.choice(CSV_FAULTS + tuple(values))
    for row in rng.sample(rows, min(len(rows), rng.choice([0, 0, 1, 2]))):
        row[1] += "\nwrapped"
    where = rng.randint(0, len(rows))
    if fault == "duplicate":
        for _ in range(rng.randint(1, 2)):
            source = rows[0] if rng.random() < 0.5 else rng.choice(rows)
            rows.insert(rng.randint(1, len(rows)), source[:3] + [rng.choice(rows)[3]])
    elif fault == "short":
        rows.insert(where, ["s0", "a.jpg", "q0", "x"][: rng.randint(1, 3)])
    elif fault == "long":
        rows.insert(where, ["s0", "long.jpg", "q0", "x", "extra"])
    elif fault == "oversized":
        rows.insert(where, ["s0", "x" * (csv.field_size_limit() + 1), "q0", "1"])
    elif fault in values:
        rows.insert(where, ["s0", "bad.jpg", "q0", values[fault]])
    lines = [csv_row(row) for row in rows]
    for _ in range(rng.choice([0, 0, 1, 3])):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["\n", "\r\n"]))
    head = "" if fault == "empty" else csv_row(header[:3] + ["x"] if fault == "bad-header" else header)
    if fault == "empty" and rng.random() < 0.5:
        lines = []
    text = head + "".join(lines)
    if rng.random() < 0.3:
        text = text.replace("\n", "\r\n")
    data = text.encode()
    if fault == "not-utf8":
        padding = "".join(csv_row(["pad", f"pad-{k}.jpg", "q0", "0.5"]) for k in range(8192 // 20))
        data += padding.encode() + b"s0,\xff.jpg,q0,1\n"
    if rng.random() < 0.3:
        data = "\ufeff".encode() + data
    return data, fault


def identity_pattern(objects) -> list[int]:
    """Each object's index among the distinct objects by identity, in order of first appearance."""
    first: dict[int, int] = {}
    return [first.setdefault(id(obj), len(first)) for obj in objects]


def regrouped(keys):
    """``keys`` grouped by all but their last field, in the order of each group's first key, then in their own order."""
    first: dict[tuple, int] = {}
    return sorted(keys, key=lambda key: first.setdefault(key[:-1], len(first)))


# keys no table holds: a non-tuple (an unhashable list among them), tuples one field short and one too long,
# a nested tuple, unhashable fields, and a missing group and last field; "abc" and ["a", "b", "c"] unpack to
# ("a", "b", "c"), and (("a", "b"), "c") holds its fields
MISSING_KEYS = [
    "abc", ["a", "b", "c"], ("a", "b"), ("a", "b", "c", "d"), (("a", "b"), "c"), (["a"], "b", "c"),
    "s0", ["s0", "a.jpg"], ("s0",), ("s0", "a.jpg", "m"), (["s0"], "a.jpg"), ("zz", "a.jpg"), ("s0", "zz"),
]


def assert_view_reads_as(view, want: dict) -> None:
    """``view`` reads as the non-empty dict ``want``: items and their order, len, in, get, repr, and == and !=
    both ways; each of :data:`MISSING_KEYS`, none of which ``want`` holds, is missing, and a lookup raises KeyError(key)."""
    assert dict(view) == want and list(view.items()) == list(want.items()) and len(view) == len(want)
    assert repr(view) == repr(want)
    assert view == want and want == view and not view != want and not want != view
    (first, value), *_ = want.items()
    other = {**want, (*first[:-1], "zz"): value}
    assert view != other and other != view and not view == other and not other == view
    for key, value in want.items():
        assert key in view and view[key] == value and view.get(key) == value
    for key in MISSING_KEYS:
        assert key not in view and view.get(key, "none") == "none"
        with pytest.raises(KeyError) as info:
            view[key]
        assert info.value.args == (key,)
