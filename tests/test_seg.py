"""SEG data model: validation semantics and the on-disk format."""

from __future__ import annotations

import json

import pytest

import segeval.seg
from segeval.errors import ParseError, ValidationError
from segeval.seg import (
    ErrorEdge,
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
    collection = load_segs(tmp_path)
    assert len(collection) == 1
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
    seg_json(tmp_path, name="a.json")
    seg_json(tmp_path, name="b.json")
    with pytest.raises(ValidationError, match="duplicate seg id"):
        load_segs(tmp_path)


def test_unknown_fields_warn_but_load(tmp_path):
    seg_json(tmp_path, extra_field=42)
    with pytest.warns(UserWarning, match="unknown field 'extra_field'"):
        collection = load_segs(tmp_path)
    assert len(collection) == 1


def test_unknown_fields_warn_in_key_order(tmp_path):
    seg_json(tmp_path, zeta=1, alpha=2)
    with pytest.warns(UserWarning) as record:
        load_segs(tmp_path)
    unknown = [str(w.message).rsplit(" ", 1)[1] for w in record if "unknown field" in str(w.message)]
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


@pytest.mark.filterwarnings("ignore::UserWarning")  # image-count lint fires too
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
    again = load_seg_file(path)
    assert seg_to_dict(again) == seg_to_dict(diamond)


def test_collection_sorted_by_id(tmp_path):
    seg_json(tmp_path, name="z.json", id="0002")
    seg_json(tmp_path, name="a.json", id="0001")
    collection = load_segs(tmp_path)
    assert [s.id for s in collection] == ["0001", "0002"]


def test_parse_seg_requires_exact_case(tmp_path):
    with pytest.warns(UserWarning, match="'Prompt'"):  # wrong case is an unknown field
        with pytest.raises(ParseError, match="missing field 'prompt'"):
            parse_seg({"id": "x", "Prompt": "p", "subset": "synth", "nodes": [], "edges": []})
