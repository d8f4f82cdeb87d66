"""Semantic error graph (SEG) data model, validation, and on-disk format.

A SEG is a prompt plus a DAG of image-bearing nodes.  Every edge adds one or
more concrete errors (its weight, >= 1) and every node is labeled with the
weighted shortest-path distance from the single head node, its error count.

One graph per JSON file:

    {"id": str, "prompt": str, "subset": "synth"|"nat"|"real",
     "nodes": [{"id": str, "error_count": int, "images": [str, ...]}, ...],
     "edges": [{"from": str, "to": str, "error_labels": [str, ...],
                "weight": int (optional)}, ...]}

Field names are exact and case-sensitive; an unknown field is ignored and
noted.  Validation never raises on bad graph structure: violations, lint and
those notes are data, collected into a :class:`ValidationReport`.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import NamedTuple

from .errors import ParseError, ValidationError
from .fileio import fields, nonempty_path, read_json, str_list

SUBSETS = ("synth", "nat", "real")

# Core error taxonomy; free-form labels are also accepted.
ERROR_LABELS = ("verbal", "composition", "missing_object", "wrong_attribute")

# Expected total images per graph; outside this range is a lint warning only.
IMAGE_COUNT_RANGE = (4, 76)

# Most head-to-leaf walks, and walk-images (each walk's images, summed over walks), a valid graph may have.
# Scoring enumerates every walk and reads each walk-image, and k stacked diamonds already make 2^k walks.
_MAX_WALKS, _MAX_WALK_IMAGES = 2**16, 2**22


class ErrorNode(NamedTuple):
    """A set of images sharing the same accumulated error count."""

    id: str
    error_count: int
    images: tuple[str, ...]


class ErrorEdge(NamedTuple):
    """A parent->child step adding ``weight`` errors (one per label, min 1)."""

    src: str
    dst: str
    error_labels: tuple[str, ...] = ()
    weight: int = 1

    @staticmethod
    def default_weight(error_labels: tuple[str, ...]) -> int:
        return max(1, len(error_labels))


class SemanticErrorGraph(NamedTuple):
    id: str
    prompt: str
    subset: str
    nodes: tuple[ErrorNode, ...]
    edges: tuple[ErrorEdge, ...]

    def children(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            if e.src in out:
                out[e.src].append(e.dst)
        return out

    def head(self) -> ErrorNode:
        """The unique zero-count, in-degree-0 node of a valid graph."""
        roots = _roots(self)
        if len(roots) != 1:
            raise ValidationError(f"seg {self.id}: expected exactly one head node, found {len(roots)}")
        return roots[0]

    def image_ids(self) -> list[str]:
        return [img for n in self.nodes for img in n.images]


class SegCollection:
    """SEGs that :func:`check_seg` passes, as a tuple in the order given; ``load_segs`` sorts by id."""

    def __init__(self, segs: Iterable[SemanticErrorGraph]) -> None:
        self.__dict__["segs"] = tuple(map(check_seg, segs))

    @classmethod
    def _of_valid(cls, segs: tuple[SemanticErrorGraph, ...]) -> "SegCollection":
        """A collection of ``segs``, which :func:`validate_seg` has accepted, checked no further."""
        collection = object.__new__(cls)
        collection.__dict__["segs"] = segs
        return collection

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"SegCollection(segs={self.segs!r})"

    def __eq__(self, other: object) -> bool:
        return self.segs == other.segs if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.segs,))

    def __iter__(self):
        return iter(self.segs)

    def __len__(self) -> int:
        return len(self.segs)

    def filter_subset(self, subset: str | None) -> "SegCollection":
        if subset is None:
            return self
        if subset not in SUBSETS:
            raise ValueError(f"unknown subset: {subset!r}")
        return SegCollection._of_valid(tuple(s for s in self.segs if s.subset == subset))


class ValidationReport:
    """A SEG's violations and lint warnings, collected into lists."""

    def __init__(self, seg_id: str, violations: list[str] | None = None, warnings: list[str] | None = None) -> None:
        self.seg_id = seg_id
        self.violations = [] if violations is None else violations
        self.warnings = [] if warnings is None else warnings

    def __repr__(self) -> str:
        return f"ValidationReport(seg_id={self.seg_id!r}, violations={self.violations!r}, warnings={self.warnings!r})"

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    __hash__ = None  # its lists are filled in place

    @property
    def ok(self) -> bool:
        return not self.violations


def _roots(seg: SemanticErrorGraph) -> list[ErrorNode]:
    """The nodes no edge points to, in node order."""
    targets = {e.dst for e in seg.edges}
    return [n for n in seg.nodes if n.id not in targets]


def _shortest_counts(succs: dict[str, list[tuple[str, int]]], order: list[str] | None, head_id: str) -> dict[str, int] | None:
    """Weighted shortest-path distance from the head to every node it reaches; None if it reaches a negative cycle.

    Bellman-Ford: one round in Kahn's ``order`` on a DAG.  On a cyclic graph
    (``order`` None), rounds in node order until one changes nothing; a
    round |V|+1 that still lowers a distance has met a negative-weight cycle.
    """
    dist = {head_id: 0}
    for _ in range(1 if order is not None else len(succs) + 1):
        changed = False
        for u in order if order is not None else succs:
            if (d := dist.get(u)) is not None:  # reached from the head
                for v, w in succs[u]:
                    if d + w < dist.get(v, d + w + 1):
                        dist[v] = d + w
                        changed = True
        if order is not None or not changed:
            return dist
    return None


def _topological_order(succs: dict[str, list[tuple[str, int]]]) -> list[str] | None:
    """Kahn's order of ``succs``, {node: [(child, weight), ...]}: every node after its parents.

    A child that is not a node is skipped.  None when the graph has a directed
    cycle.  Iterative, so graph depth is bounded only by memory.
    """
    indeg = dict.fromkeys(succs, 0)
    for kids in succs.values():
        for m, _ in kids:
            if m in indeg:
                indeg[m] += 1
    order = [n for n, d in indeg.items() if d == 0]
    for n in order:  # grows while it is walked
        for m, _ in succs[n]:
            if m in indeg:
                indeg[m] -= 1
                if indeg[m] == 0:
                    order.append(m)
    return order if len(order) == len(indeg) else None


def validate_seg(seg: SemanticErrorGraph) -> ValidationReport:
    """Check every structural invariant; violations are reported, not raised."""
    rep = ValidationReport(seg_id=seg.id)
    v = rep.violations.append

    if not seg.id:
        v("empty seg id")
    if seg.subset not in SUBSETS:
        v(f"unknown subset {seg.subset!r}")
    if len(seg.nodes) < 2:
        v(f"graph has {len(seg.nodes)} node(s), at least 2 required")

    succs: dict[str, list[tuple[str, int]]] = {}  # node -> (child, weight) edges; non-node children kept
    seen_images: set[str] = set()
    for n in seg.nodes:
        if not n.id:
            v("empty node id")
        if n.id in succs:
            v(f"duplicate node id {n.id!r}")
        succs[n.id] = []
        if not n.images:
            v(f"node {n.id!r} has no images")
        for img in n.images:
            if not img:
                v(f"node {n.id!r} has an empty image id")
            elif img in seen_images:
                v(f"duplicate image id {img!r}")
            seen_images.add(img)
        if n.error_count < 0:
            v(f"node {n.id!r} has negative error_count {n.error_count}")

    counts = {n.id: n.error_count for n in seg.nodes}
    seen_edges: set[tuple[str, str]] = set()
    for e in seg.edges:
        if (e.src, e.dst) in seen_edges:
            v(f"duplicate edge {e.src}->{e.dst}")
        seen_edges.add((e.src, e.dst))
        if e.src not in succs:
            v(f"edge references unknown node {e.src!r}")
        else:
            succs[e.src].append((e.dst, e.weight))
        if e.dst not in succs:
            v(f"edge references unknown node {e.dst!r}")
        if e.src == e.dst:
            v(f"self-loop at node {e.src!r}")
        if e.weight < 1:
            v(f"edge {e.src}->{e.dst} has non-positive weight {e.weight}")
        expected_w = ErrorEdge.default_weight(e.error_labels)
        if e.weight != expected_w:
            v(
                f"edge {e.src}->{e.dst} weight {e.weight} disagrees with its "
                f"{len(e.error_labels)} error label(s) (expected {expected_w})"
            )
        if e.src in counts and e.dst in counts and counts[e.dst] <= counts[e.src]:
            v(f"error_count not increasing along edge {e.src}->{e.dst}")

    roots = _roots(seg)
    head = None
    if not roots:
        v("no head node (every node has an incoming edge)")
    elif len(roots) > 1:
        v("multiple head nodes: " + ", ".join(sorted(n.id for n in roots)))
    else:
        head = roots[0]
        if head.error_count != 0:
            v(f"head node {head.id!r} has error_count {head.error_count}, expected 0")

    order = _topological_order(succs)
    if order is None:
        v("graph contains a directed cycle")
    elif head is not None:
        # per node, capped so ints stay small: walks to a leaf and walk-images (work starts as its image count)
        walks, work = {}, {n.id: len(n.images) for n in seg.nodes}
        for n in reversed(order):
            w, x = (0, 0) if succs[n] else (1, 0)  # a leaf is one walk
            for k, _ in succs[n]:  # a non-node child adds nothing; a plain loop beats two list sums here
                w, x = w + walks.get(k, 0), x + work.get(k, 0)
            walks[n], work[n] = min(w, _MAX_WALKS + 1), min(work[n] * w + x, _MAX_WALK_IMAGES + 1)
        if walks[head.id] > _MAX_WALKS:
            v(f"graph has at least {walks[head.id]} head-to-leaf walks (limit {_MAX_WALKS})")
        elif work[head.id] > _MAX_WALK_IMAGES:
            v(f"graph has at least {work[head.id]} walk-images (limit {_MAX_WALK_IMAGES})")

    if head is not None and (dist := _shortest_counts(succs, order, head.id)) is None:
        v("graph has a negative-weight cycle")  # distances are undefined, so no per-node check
    elif head is not None:
        for n in seg.nodes:
            if n.id == head.id:
                continue
            if n.id not in dist:
                v(f"node {n.id!r} not reachable from head {head.id!r}")
            elif n.error_count != dist[n.id]:
                v(f"error_count mismatch at node {n.id}: expected {dist[n.id]}")

    total_images = len(seg.image_ids())
    lo, hi = IMAGE_COUNT_RANGE
    if not lo <= total_images <= hi:
        rep.warnings.append(
            f"total image count {total_images} outside expected range [{lo}, {hi}]"
        )
    return rep


def check_seg(seg: SemanticErrorGraph) -> SemanticErrorGraph:
    """``seg`` if it is valid, else ValidationError ``seg S: <first violation>`` carrying every violation."""
    if violations := validate_seg(seg).violations:
        raise ValidationError(f"seg {seg.id}: {violations[0]}", violations)
    return seg


# ---------------------------------------------------------------------------
# parsing / serialization


_SEG_FIELDS = {"id": str, "prompt": str, "subset": str, "nodes": list, "edges": list}
_NODE_FIELDS = {"id": str, "error_count": int, "images": list}
_EDGE_FIELDS = {"error_labels": list, "from": str, "to": str}
_EDGE_KNOWN = {*_EDGE_FIELDS, "weight"}
_WEIGHT_FIELD = {"weight": int}
# each core label as its own string, so an edge holds ERROR_LABELS' strings, not one decoded per use
_SHARED_LABELS = {label: label for label in ERROR_LABELS}


def parse_seg(data: dict, source: str = "<data>") -> tuple[SemanticErrorGraph, list[str]]:
    """``(seg, notes)`` from a decoded JSON object; strict about schema, not structure.

    One note per unknown key, in key order (seg, nodes[i], edges[i]): ``<where>: ignoring unknown field 'k'``.
    An edge's ``src`` and ``dst`` are the id strings of the nodes they name, and each label in
    :data:`ERROR_LABELS` is that module string, so the JSON's repeats are not held once per use.
    """
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object", source=source)
    seg_id, prompt, subset, raw_nodes, raw_edges = fields(data, _SEG_FIELDS, "seg", source)
    notes = [f"seg: ignoring unknown field {k!r}" for k in data if k not in _SEG_FIELDS]
    if subset not in SUBSETS:
        raise ParseError(f"seg: field 'subset' must be one of {'/'.join(SUBSETS)}, got {subset!r}", source=source)

    nodes = []
    for i, nd in enumerate(raw_nodes):
        where = f"nodes[{i}]"
        node_id, count, images = fields(nd, _NODE_FIELDS, where, source)
        notes += [f"{where}: ignoring unknown field {k!r}" for k in nd if k not in _NODE_FIELDS]
        nodes.append(ErrorNode(node_id, count, str_list(images, "images", where, source)))

    edges = []
    ids = {n.id: n.id for n in nodes}
    for i, ed in enumerate(raw_edges):
        where = f"edges[{i}]"
        labels, src, dst = fields(ed, _EDGE_FIELDS, where, source)
        notes += [f"{where}: ignoring unknown field {k!r}" for k in ed if k not in _EDGE_KNOWN]
        labels = str_list(labels, "error_labels", where, source)
        labels = tuple(map(_SHARED_LABELS.get, labels, labels))
        if "weight" in ed:
            (weight,) = fields(ed, _WEIGHT_FIELD, where, source)
        else:
            weight = ErrorEdge.default_weight(labels)
        edges.append(ErrorEdge(ids.get(src, src), ids.get(dst, dst), labels, weight))

    return SemanticErrorGraph(seg_id, prompt, subset, tuple(nodes), tuple(edges)), notes


def seg_to_dict(seg: SemanticErrorGraph) -> dict:
    return {
        "id": seg.id,
        "prompt": seg.prompt,
        "subset": seg.subset,
        "nodes": [
            {"id": n.id, "error_count": n.error_count, "images": list(n.images)}
            for n in seg.nodes
        ],
        "edges": [
            {"from": e.src, "to": e.dst, "error_labels": list(e.error_labels), "weight": e.weight}
            for e in seg.edges
        ],
    }


def load_seg_file(path: str | Path) -> tuple[SemanticErrorGraph, list[str]]:
    """``(seg, notes)`` of one SEG file, as :func:`parse_seg` gives them."""
    source = str(path if isinstance(path, Path) else Path(path))  # a Path from seg_paths is not parsed again
    return parse_seg(read_json(source), source=source)


def write_seg_file(seg: SemanticErrorGraph, path: str | Path) -> None:
    path = Path(path)
    path.write_text(json.dumps(seg_to_dict(seg), indent=2) + "\n", encoding="utf-8")


def seg_paths(path: str | Path) -> list[Path]:
    """SEG files under ``path``: the file itself, or dir/*.json sorted."""
    path = nonempty_path(path)
    if path.is_file():
        return [path]
    if path.is_dir():
        return sorted(path.glob("*.json"), key=lambda p: os.path.normcase(p.name))  # as Path orders them
    raise FileNotFoundError(f"{path}: path does not exist")


def check_seg_files(
    paths: Sequence[str | Path],
) -> Iterator[tuple[Path, SemanticErrorGraph | ParseError, ValidationReport | None]]:
    """Parse and validate each SEG file under ``paths`` once, in argument order.

    Every path is expanded first: a missing one raises OSError, one without
    SEG files ParseError.  Yields ``(file, seg, report)``, or ``(file, error,
    None)`` for a file that does not parse.  A report's warnings are the
    file's unknown-field notes, then its lint.  A seg id that an earlier file
    defined is the first violation of the later file's report.
    """
    files: list[Path] = []
    for path in paths:
        found = seg_paths(path)
        if not found:
            raise ParseError("no SEG files found", source=str(path))
        files += found
    first_file: dict[str, Path] = {}  # seg id -> the first file defining it
    for f in dict.fromkeys(files) if len(paths) > 1 else files:  # one directory lists a file once
        try:
            seg, notes = load_seg_file(f)
        except ParseError as exc:
            yield f, exc, None
            continue
        report = validate_seg(seg)
        report.warnings[:0] = notes
        if (prev := first_file.setdefault(seg.id, f)) is not f:
            report.violations.insert(0, f"duplicate seg id {seg.id!r} (already defined in {prev})")
        yield f, seg, report


def load_segs(path: str | Path) -> tuple[SegCollection, list[str]]:
    """Load and validate every SEG under ``path``: ``(collection sorted by id, ["<file>: <report warning>", ...])``.

    Raises the first ParseError of :func:`check_seg_files`, and one
    ValidationError listing every violation, a repeated seg id included.
    """
    segs, violations, warnings = [], [], []
    for f, seg, rep in check_seg_files([path]):
        if rep is None:
            raise seg
        warnings += (f"{f}: {w}" for w in rep.warnings)
        violations.extend(f"{f}: seg {seg.id}: {msg}" for msg in rep.violations)
        segs.append(seg)
    if violations:
        raise ValidationError(f"{len(violations)} validation violation(s)", violations=violations)
    return SegCollection._of_valid(tuple(sorted(segs, key=lambda s: s.id))), warnings
