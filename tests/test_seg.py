"""SEG data model: validation semantics and the on-disk format."""

from __future__ import annotations

import heapq
import itertools
import json
import random

import pytest

import segeval.seg
from segeval.errors import ParseError, ValidationError
from segeval.seg import (
    ErrorEdge,
    ErrorNode,
    SemanticErrorGraph,
    load_seg_file,
    load_segs,
    parse_seg,
    seg_to_dict,
    validate_seg,
    write_seg_file,
)
from segeval.synth import SynthConfig, generate_segs
from segeval.walks import enumerate_walks

from conftest import chain_seg, make_seg, stacked_diamond


def test_minimal_valid_chain():
    seg = chain_seg([1, 1, 1])
    report = validate_seg(seg)
    assert report.ok
    assert report.violations == []


def test_error_count_mismatch_names_node_and_expected_value():
    seg = make_seg(
        nodes=[("0", 0, ["a"]), ("1", 1, ["b"]), ("2", 3, ["c"])],
        edges=[("0", "1"), ("1", "2")],
    )
    report = validate_seg(seg)
    assert not report.ok
    assert any("error_count mismatch at node 2: expected 2" in v for v in report.violations)


def test_two_zero_count_roots_flagged_as_multiple_heads():
    seg = make_seg(
        nodes=[("0", 0, ["a"]), ("0b", 0, ["b"]), ("1", 1, ["c"])],
        edges=[("0", "1"), ("0b", "1")],
    )
    report = validate_seg(seg)
    assert any("multiple head nodes" in v for v in report.violations)


def test_weighted_shortest_path_consistency():
    # 0 ->(2) 1, 0 ->(1) mid ->(1) 1: both in-paths give count 2
    seg = make_seg(
        nodes=[("0", 0, ["a"]), ("m", 1, ["b"]), ("1", 2, ["c"])],
        edges=[("0", "1", 2), ("0", "m", 1), ("m", "1", 1)],
    )
    assert validate_seg(seg).ok


def test_recomputed_counts_reproduce_stored_counts_on_valid_graphs(diamond):
    assert validate_seg(diamond).ok


def test_stored_counts_equal_exhaustive_path_minimum():
    """Independent oracle: min summed weight over every head-to-node path."""
    from segeval.synth import SynthConfig, generate_segs

    def exhaustive_counts(seg):
        adj = {n.id: [] for n in seg.nodes}
        indeg = {n.id: 0 for n in seg.nodes}
        for e in seg.edges:
            adj[e.src].append((e.dst, e.weight))
            indeg[e.dst] += 1
        (head,) = [nid for nid, d in indeg.items() if d == 0]
        best = {head: 0}

        def descend(node, dist):
            for child, w in adj[node]:
                d = dist + w
                if child not in best or d < best[child]:
                    best[child] = d
                descend(child, d)

        descend(head, 0)
        return best

    collection = generate_segs(
        SynthConfig(seed=63, seg_count=40, branch_probability=0.7,
                    multi_error_edge_probability=0.4)
    )
    for seg in collection:
        expected = exhaustive_counts(seg)
        for node in seg.nodes:
            assert node.error_count == expected[node.id]


def test_validate_is_deterministic(diamond):
    r1 = validate_seg(diamond)
    r2 = validate_seg(diamond)
    assert r1.violations == r2.violations
    assert r1.warnings == r2.warnings


@pytest.mark.parametrize(
    "nodes,edges,needle",
    [
        ([("0", 0, ["a"])], [], "at least 2"),
        ([("0", 0, []), ("1", 1, ["b"])], [("0", "1")], "no images"),
        ([("0", 0, ["a"]), ("1", 1, ["a"])], [("0", "1")], "duplicate image"),
        ([("0", 0, ["a"]), ("0", 1, ["b"])], [("0", "0")], "duplicate node"),
        ([("0", 0, ["a"]), ("1", 1, ["b"])], [("0", "x")], "unknown node"),
        ([("0", 0, ["a"]), ("1", 0, ["b"])], [("0", "1")], "not increasing"),
        # island 2<->3 is cyclic, so it has in-edges yet no path from the head
        (
            [("0", 0, ["a"]), ("1", 1, ["b"]), ("2", 2, ["c"]), ("3", 3, ["d"])],
            [("0", "1"), ("2", "3"), ("3", "2")],
            "not reachable",
        ),
        ([("0", 0, ["a"]), ("1", 1, ["b"])], [("0", "1"), ("0", "1")], "duplicate edge 0->1"),
    ],
)
def test_structural_violations(nodes, edges, needle):
    report = validate_seg(make_seg(nodes, edges))
    assert any(needle in v for v in report.violations), report.violations


def test_cycle_detected():
    seg = make_seg(
        nodes=[("0", 0, ["a"]), ("1", 1, ["b"]), ("2", 2, ["c"])],
        edges=[("0", "1"), ("1", "2"), ("2", "1")],
    )
    assert any("cycle" in v for v in validate_seg(seg).violations)


def test_weight_must_match_labels():
    seg = make_seg(nodes=[("0", 0, ["a"]), ("1", 1, ["b"])], edges=[("0", "1")])
    bad = seg.__class__(
        id=seg.id,
        prompt=seg.prompt,
        subset=seg.subset,
        nodes=seg.nodes,
        edges=(ErrorEdge(src="0", dst="1", error_labels=("x", "y"), weight=1),),
    )
    assert any("disagrees with" in v for v in validate_seg(bad).violations)


def test_walk_count_above_the_limit_is_a_violation():
    assert validate_seg(stacked_diamond(12)).ok
    assert validate_seg(stacked_diamond(16)).ok  # 2^16 walks, exactly the limit
    report = validate_seg(stacked_diamond(20))
    assert report.violations == ["graph has at least 65537 head-to-leaf walks (limit 65536)"]


def test_walk_count_agrees_with_enumeration(monkeypatch):
    graphs = list(generate_segs(SynthConfig(seed=9, seg_count=40))) + [
        stacked_diamond(k) for k in range(1, 6)
    ]
    for seg in graphs:
        walks = len(enumerate_walks(seg))
        monkeypatch.setattr(segeval.seg, "_MAX_WALKS", walks)
        assert validate_seg(seg).ok, seg.id
        monkeypatch.setattr(segeval.seg, "_MAX_WALKS", walks - 1)
        assert validate_seg(seg).violations == [
            f"graph has at least {walks} head-to-leaf walks (limit {walks - 1})"
        ], seg.id


def _with_images(seg, per_node):
    nodes = tuple(n._replace(images=tuple(f"{n.id}-{i}.jpg" for i in range(per_node))) for n in seg.nodes)
    return seg._replace(nodes=nodes)


def test_walk_images_above_the_limit_are_a_violation():
    assert validate_seg(_with_images(stacked_diamond(12), 8)).ok  # 4,096 walks x 25 nodes x 8 images
    # 2^16 walks, exactly the walk limit, of 33 nodes with 8 images each: 17,301,504 walk-images
    report = validate_seg(_with_images(stacked_diamond(16), 8))
    assert report.violations == ["graph has at least 4194305 walk-images (limit 4194304)"]


def test_walk_images_agree_with_enumeration(monkeypatch):
    rng = random.Random(23)
    graphs = list(generate_segs(SynthConfig(seed=9, seg_count=40))) + [
        _with_images(stacked_diamond(k), rng.randint(1, 4)) for k in range(1, 6)
    ]
    for seg in graphs:
        sizes = {n.id: len(n.images) for n in seg.nodes}
        walk_images = sum(sizes[n] for walk in enumerate_walks(seg) for n in walk)
        monkeypatch.setattr(segeval.seg, "_MAX_WALK_IMAGES", walk_images)
        assert validate_seg(seg).ok, seg.id
        monkeypatch.setattr(segeval.seg, "_MAX_WALK_IMAGES", walk_images - 1)
        assert validate_seg(seg).violations == [
            f"graph has at least {walk_images} walk-images (limit {walk_images - 1})"
        ], seg.id


def test_image_count_out_of_range_is_warning_not_violation():
    seg = chain_seg([1, 1])  # 2 images, below the expected minimum of 4
    report = validate_seg(seg)
    assert report.ok
    assert any("outside expected range" in w for w in report.warnings)


# ---------------------------------------------------------------------------
# file format


def seg_json(tmp_path, name="0001.json", **overrides):
    data = {
        "id": "0001",
        "prompt": "a boy with fruit",
        "subset": "synth",
        "nodes": [
            {"id": "0", "error_count": 0, "images": ["0-0.jpg", "0-1.jpg"]},
            {"id": "1", "error_count": 1, "images": ["1-0.jpg", "1-1.jpg"]},
        ],
        "edges": [{"from": "0", "to": "1", "error_labels": ["missing_object"]}],
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_load_single_valid_file(tmp_path):
    seg_json(tmp_path)
    collection, warnings = load_segs(tmp_path)
    assert len(collection) == 1
    assert warnings == []
    seg = {s.id: s for s in collection}["0001"]
    assert seg.prompt == "a boy with fruit"
    # optional weight defaults to the label count
    assert seg.edges[0].weight == 1


def test_missing_prompt_field_names_the_field(tmp_path):
    path = seg_json(tmp_path)
    data = json.loads(path.read_text())
    del data["prompt"]
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match="prompt"):
        load_segs(tmp_path)


def test_duplicate_seg_id_across_files(tmp_path):
    a = seg_json(tmp_path, name="a.json")
    b = seg_json(tmp_path, name="b.json")
    with pytest.raises(ValidationError, match=r"^1 validation violation\(s\)$") as exc:
        load_segs(tmp_path)
    assert exc.value.violations == [f"{b}: seg 0001: duplicate seg id '0001' (already defined in {a})"]


def test_unknown_fields_warn_but_load(tmp_path):
    path = seg_json(tmp_path, extra_field=42)
    collection, warnings = load_segs(tmp_path)
    assert len(collection) == 1
    assert warnings == [f"{path}: seg: ignoring unknown field 'extra_field'"]


def test_unknown_fields_warn_in_key_order(tmp_path):
    seg_json(tmp_path, zeta=1, alpha=2)
    _, warnings = load_segs(tmp_path)
    unknown = [w.rsplit(" ", 1)[1] for w in warnings if "unknown field" in w]
    assert unknown == ["'zeta'", "'alpha'"]


def test_bad_subset_rejected(tmp_path):
    seg_json(tmp_path, subset="bogus")
    with pytest.raises(ParseError, match="subset"):
        load_segs(tmp_path)


def test_invalid_json_reports_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="bad.json"):
        load_seg_file(path)


def test_empty_directory_is_an_error(tmp_path):
    with pytest.raises(ParseError, match="no SEG files"):
        load_segs(tmp_path)


def test_validation_failure_aggregates_violations(tmp_path):
    seg_json(
        tmp_path,
        nodes=[
            {"id": "0", "error_count": 0, "images": ["a"]},
            {"id": "1", "error_count": 5, "images": ["b"]},
        ],
    )
    with pytest.raises(ValidationError) as exc:
        load_segs(tmp_path)
    assert any("error_count mismatch" in v for v in exc.value.violations)


def test_roundtrip_write_then_load(tmp_path, diamond):
    path = tmp_path / "d.json"
    # diamond has 4 images, inside the lint range? 4 >= 4: yes
    write_seg_file(diamond, path)
    again, notes = load_seg_file(path)
    assert seg_to_dict(again) == seg_to_dict(diamond)
    assert notes == []


def test_collection_sorted_by_id(tmp_path):
    seg_json(tmp_path, name="z.json", id="0002")
    seg_json(tmp_path, name="a.json", id="0001")
    collection, _ = load_segs(tmp_path)
    assert [s.id for s in collection] == ["0001", "0002"]


def test_parse_seg_requires_exact_case(tmp_path):
    with pytest.raises(ParseError, match="missing field 'prompt'"):
        parse_seg({"id": "x", "Prompt": "p", "subset": "synth", "nodes": [], "edges": []})
    # beside the exact name, the wrong case is an unknown field
    seg, notes = parse_seg({"id": "x", "prompt": "p", "Prompt": "q", "subset": "synth", "nodes": [], "edges": []})
    assert (seg.prompt, notes) == ("p", ["seg: ignoring unknown field 'Prompt'"])


# ---------------------------------------------------------------------------
# validate_seg against the three-adjacency, Dijkstra-only validator it replaced


def _reference_shortest_counts(seg, head_id):
    known = {n.id for n in seg.nodes}
    adj = {nid: [] for nid in known}
    for e in seg.edges:
        if e.src in known and e.dst in known:
            adj[e.src].append((e.dst, e.weight))
    dist = {head_id: 0}
    queue = [(0, head_id)]
    while queue:
        d, u = heapq.heappop(queue)
        if d > dist.get(u, d):
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, nd + 1):
                dist[v] = nd
                heapq.heappush(queue, (nd, v))
    return dist


def _reference_topological_order(nodes, edges):
    succs = {n: [] for n in nodes}
    indeg = dict.fromkeys(succs, 0)
    for src, dst in edges:
        succs[src].append(dst)
        indeg[dst] += 1
    order = [n for n, d in indeg.items() if d == 0]
    for n in order:
        for m in succs[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                order.append(m)
    return order if len(order) == len(indeg) else None


def _reference_validate(seg, distances=True):
    """(violations, warnings) as validate_seg reported them before it built one successor map.

    ``distances=False`` skips the Dijkstra step, which never ends on a negative-weight cycle the head reaches.
    """
    violations = []
    v = violations.append
    if not seg.id:
        v("empty seg id")
    if seg.subset not in segeval.seg.SUBSETS:
        v(f"unknown subset {seg.subset!r}")
    if len(seg.nodes) < 2:
        v(f"graph has {len(seg.nodes)} node(s), at least 2 required")
    seen_nodes, seen_images = set(), set()
    for n in seg.nodes:
        if not n.id:
            v("empty node id")
        if n.id in seen_nodes:
            v(f"duplicate node id {n.id!r}")
        seen_nodes.add(n.id)
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
    seen_edges = set()
    for e in seg.edges:
        if (e.src, e.dst) in seen_edges:
            v(f"duplicate edge {e.src}->{e.dst}")
        seen_edges.add((e.src, e.dst))
        if e.src not in seen_nodes:
            v(f"edge references unknown node {e.src!r}")
        if e.dst not in seen_nodes:
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
    targets = {e.dst for e in seg.edges}
    roots = [n for n in seg.nodes if n.id not in targets]
    head = None
    if not roots:
        v("no head node (every node has an incoming edge)")
    elif len(roots) > 1:
        v("multiple head nodes: " + ", ".join(sorted(n.id for n in roots)))
    else:
        head = roots[0]
        if head.error_count != 0:
            v(f"head node {head.id!r} has error_count {head.error_count}, expected 0")
    known_edges = [(e.src, e.dst) for e in seg.edges if e.src in seen_nodes and e.dst in seen_nodes]
    order = _reference_topological_order(seen_nodes, known_edges)
    if order is None:
        v("graph contains a directed cycle")
    elif head is not None:
        children = seg.children()
        sizes = {n.id: len(n.images) for n in seg.nodes}
        walks, walk_images = {}, {}
        for n in reversed(order):
            kids = children[n]
            walks[n] = min(sum(walks.get(k, 0) for k in kids), segeval.seg._MAX_WALKS + 1) if kids else 1
            below = sum(walk_images.get(k, 0) for k in kids)
            walk_images[n] = min(sizes[n] * walks[n] + below, segeval.seg._MAX_WALK_IMAGES + 1)
        if walks[head.id] > segeval.seg._MAX_WALKS:
            v(f"graph has at least {walks[head.id]} head-to-leaf walks (limit {segeval.seg._MAX_WALKS})")
        elif walk_images[head.id] > segeval.seg._MAX_WALK_IMAGES:
            v(f"graph has at least {walk_images[head.id]} walk-images (limit {segeval.seg._MAX_WALK_IMAGES})")
    if head is not None and distances:
        dist = _reference_shortest_counts(seg, head.id)
        for n in seg.nodes:
            if n.id == head.id:
                continue
            if n.id not in dist:
                v(f"node {n.id!r} not reachable from head {head.id!r}")
            elif n.error_count != dist[n.id]:
                v(f"error_count mismatch at node {n.id}: expected {dist[n.id]}")
    total_images = len(seg.image_ids())
    lo, hi = segeval.seg.IMAGE_COUNT_RANGE
    warns = [] if lo <= total_images <= hi else [f"total image count {total_images} outside expected range [{lo}, {hi}]"]
    return violations, warns


_FAULTS = (
    "cycle", "self-loop", "unreachable", "wrong-count", "no-head", "two-heads",
    "duplicate-edge", "edge-to-unknown", "edge-from-unknown", "zero-weight", "negative-weight", "only-unknown-child",
    "wrong-labels",
)


def _faulty_seg(rng: random.Random, faults: set[str]) -> SemanticErrorGraph:
    """A valid random DAG (every edge weighs the count difference it spans), then each of ``faults`` injected."""
    ids = [f"n{i}" for i in range(rng.randint(2, 8))]
    counts = dict(zip(ids, itertools.accumulate(rng.choice((1, 1, 2)) for _ in ids)))
    counts[ids[0]] = 0
    edges = [
        (ids[i], ids[j], counts[ids[j]] - counts[ids[i]])
        for j in range(1, len(ids))
        for i in rng.sample(range(j), rng.randint(1, min(j, 3)))
    ]
    if "cycle" in faults:  # a back edge between two nodes below the head
        if len(ids) > 2:
            edges.append((ids[-1], ids[1], 1))
    if "self-loop" in faults:
        node = rng.choice(ids)
        edges.append((node, node, rng.choice((0, 1))))
    if "no-head" in faults:
        edges.append((ids[-1], ids[0], 1))
    if "two-heads" in faults:
        ids.append("top")
        counts["top"] = rng.choice((0, 1))
        edges.append(("top", rng.choice(ids[1:-1]), 1))
    if "unreachable" in faults:  # in-edge from a node that does not exist
        ids.append("lost")
        counts["lost"] = 5
        edges.append(("ghost", "lost", 1))
    if "edge-from-unknown" in faults:
        edges.append(("ghost", rng.choice(ids), 1))
    if "edge-to-unknown" in faults:
        edges.append((rng.choice(ids), "ghost", 1))
    if "only-unknown-child" in faults:
        ids.append("stub")
        counts["stub"] = counts[ids[0]] + 1 if ids[0] in counts else 1
        edges += [(ids[0], "stub", 1), ("stub", "nowhere", 1)]
    if "duplicate-edge" in faults:
        edges.append(rng.choice(edges))
    cyclic = faults & {"cycle", "self-loop", "no-head"}
    for fault, weight in (("zero-weight", 0), ("negative-weight", -1)):
        if fault in faults and not (cyclic and weight < 0):  # the reference Dijkstra never ends on a negative cycle
            k = rng.randrange(len(edges))
            edges[k] = edges[k][:2] + (weight,)
    if "wrong-count" in faults:
        node = rng.choice(ids)
        counts[node] = counts.get(node, 0) + rng.choice((-1, 1))
    labels = [max(w, 1) for _, _, w in edges]
    if "wrong-labels" in faults:
        labels[rng.randrange(len(labels))] += 1
    nodes = tuple(ErrorNode(i, counts.get(i, 0), (f"{i}.jpg",)) for i in ids)
    edge_objs = tuple(ErrorEdge(src, dst, tuple(f"e{k}" for k in range(n)), w) for (src, dst, w), n in zip(edges, labels))
    return SemanticErrorGraph(f"g{rng.random():.6f}", "p", "synth", nodes, edge_objs)


def _cyclic_seg(rng: random.Random) -> SemanticErrorGraph:
    """A one-head graph with back edges, self-loops and zero or negative weights, but no negative-weight cycle.

    Each edge weighs p(dst) - p(src) + slack for a node potential p and a slack >= 0, so every cycle weighs its
    slacks' sum, >= 0, and Dijkstra with re-insertion ends.  Half the graphs store the true distances.
    """
    ids = [f"n{i}" for i in range(rng.randint(2, 7))]
    p = {i: rng.randint(-3, 3) for i in ids}
    pairs = {(ids[i - 1], ids[i]) for i in range(1, len(ids))}  # every node below the head is reached
    pairs |= {(rng.choice(ids), rng.choice(ids[1:])) for _ in range(rng.randint(1, 2 * len(ids)))}
    edges = [(src, dst, p[dst] - p[src] + rng.choice((0, 0, 1, 2))) for src, dst in sorted(pairs)]
    if rng.random() < 0.3:
        edges.append((rng.choice(ids), "ghost", rng.choice((-3, -1, 0, 1))))  # a child that is not a node
    counts = {i: rng.randint(0, 6) for i in ids}
    counts[ids[0]] = 0
    seg = make_seg([(i, counts[i], [f"{i}.jpg"]) for i in ids], edges)
    if rng.random() < 0.5:
        dist = _reference_shortest_counts(seg, ids[0])
        seg = make_seg([(i, dist.get(i, 9), [f"{i}.jpg"]) for i in ids], edges)
    return seg


def test_validate_matches_the_three_adjacency_reference_on_faulty_graphs():
    rng = random.Random(15)
    graphs = [_faulty_seg(rng, {f for f in _FAULTS if rng.random() < 0.25}) for _ in range(300)]
    graphs += [_faulty_seg(rng, faults) for faults in [set()] * 20 + [{fault} for fault in _FAULTS] * 10]
    cyclic = [_cyclic_seg(rng) for _ in range(300)]
    graphs += cyclic
    seen = []
    for seg in graphs:
        report = validate_seg(seg)
        assert (report.violations, report.warnings) == _reference_validate(seg), seg
        seen += report.violations
    assert sum(validate_seg(g).ok for g in graphs) >= 20
    needles = ("directed cycle", "self-loop", "not reachable", "mismatch", "no head", "multiple head", "duplicate edge",
               "unknown node", "non-positive weight", "disagrees", "not increasing")
    assert [n for n in needles if not any(n in msg for msg in seen)] == []
    assert "graph has a negative-weight cycle" not in seen
    # cyclic graphs with a negative edge, many storing every count right, so the cycle is their last violation
    negative = [validate_seg(g).violations for g in cyclic if min(e.weight for e in g.edges) < 0]
    assert sum("graph contains a directed cycle" in msgs for msgs in negative) >= 200
    assert sum(msgs[-1] == "graph contains a directed cycle" for msgs in negative) >= 100


@pytest.mark.parametrize(
    "seg, violations",
    [
        (
            make_seg([("0", 0, ["a"]), ("1", 1, ["b"])], [("0", "1"), ("1", "1", -1)]),
            [
                "self-loop at node '1'",
                "edge 1->1 has non-positive weight -1",
                "edge 1->1 weight -1 disagrees with its 0 error label(s) (expected 1)",
                "error_count not increasing along edge 1->1",
                "graph contains a directed cycle",
                "graph has a negative-weight cycle",
            ],
        ),
        (
            make_seg([("0", 0, ["a"]), ("1", 1, ["b"]), ("2", 2, ["c"])], [("0", "1"), ("1", "2"), ("2", "1", -2)]),
            [
                "edge 2->1 has non-positive weight -2",
                "edge 2->1 weight -2 disagrees with its 0 error label(s) (expected 1)",
                "error_count not increasing along edge 2->1",
                "graph contains a directed cycle",
                "graph has a negative-weight cycle",
            ],
        ),
        (  # the cycle 1->2->3->4->1 weighs -1; relaxing it takes several rounds
            make_seg([(str(i), i, [f"{i}.jpg"]) for i in range(5)], [(str(i), str(i + 1)) for i in range(4)] + [("4", "1", -4)]),
            [
                "edge 4->1 has non-positive weight -4",
                "edge 4->1 weight -4 disagrees with its 0 error label(s) (expected 1)",
                "error_count not increasing along edge 4->1",
                "graph contains a directed cycle",
                "graph has a negative-weight cycle",
            ],
        ),
        (  # the head reaches no node of the cycle, so every distance is defined and nothing is added
            make_seg(
                [("0", 0, ["a"]), ("1", 1, ["b"]), ("2", 2, ["c"]), ("3", 3, ["d"])],
                [("0", "1"), ("2", "3", -1), ("3", "2", 0)],
            ),
            [
                "edge 2->3 has non-positive weight -1",
                "edge 2->3 weight -1 disagrees with its 0 error label(s) (expected 1)",
                "edge 3->2 has non-positive weight 0",
                "edge 3->2 weight 0 disagrees with its 0 error label(s) (expected 1)",
                "error_count not increasing along edge 3->2",
                "graph contains a directed cycle",
                "node '2' not reachable from head '0'",
                "node '3' not reachable from head '0'",
            ],
        ),
        (  # no head, so no distances
            make_seg([("0", 0, ["a"]), ("1", 1, ["b"])], [("0", "1", -1), ("1", "0", 0)]),
            [
                "edge 0->1 has non-positive weight -1",
                "edge 0->1 weight -1 disagrees with its 0 error label(s) (expected 1)",
                "edge 1->0 has non-positive weight 0",
                "edge 1->0 weight 0 disagrees with its 0 error label(s) (expected 1)",
                "error_count not increasing along edge 1->0",
                "no head node (every node has an incoming edge)",
                "graph contains a directed cycle",
            ],
        ),
    ],
    ids=["self-loop", "two-cycle", "four-cycle", "unreachable-cycle", "no-head"],
)
def test_negative_weight_cycle_ends_with_todays_violations_plus_one(seg, violations):
    assert validate_seg(seg).violations == violations
    reached = "graph has a negative-weight cycle" in violations
    # the lines before the distance step are the Dijkstra reference's; a cycle the head reaches replaces its node checks
    assert violations == _reference_validate(seg, distances=not reached)[0] + ["graph has a negative-weight cycle"] * reached


def _diamonds_plus(extra_edges, extra_nodes=()):
    seg = stacked_diamond(16)
    nodes = seg.nodes + tuple(ErrorNode(i, c, (f"{i}.jpg",)) for i, c in extra_nodes)
    edges = seg.edges + tuple(ErrorEdge(s, d, ("x",), 1) for s, d in extra_edges)
    return SemanticErrorGraph(seg.id, seg.prompt, seg.subset, nodes, edges)


@pytest.mark.parametrize(
    "seg, walks",
    [
        (_diamonds_plus(()), 2**16),
        (_diamonds_plus([("0", "extra")], [("extra", 1)]), 2**16 + 1),
        # a node whose only child is unknown counts 0 walks, not 1
        (_diamonds_plus([("0", "extra"), ("extra", "ghost")], [("extra", 1)]), 2**16),
        (_diamonds_plus([("0", "extra"), ("extra", "ghost"), ("extra", "1a")], [("extra", 1)]), 2**16 + 2**15),
    ],
    ids=["limit", "limit+1", "only-unknown-child", "known-and-unknown-child"],
)
def test_walk_counts_at_the_limit_match_the_reference(seg, walks):
    report = validate_seg(seg)
    assert (report.violations, report.warnings) == _reference_validate(seg)
    over = f"graph has at least {2**16 + 1} head-to-leaf walks (limit {2**16})"  # the count is capped
    assert (over in report.violations) == (walks > 2**16)
