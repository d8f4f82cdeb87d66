"""Walk enumeration and adjacent-pair modes."""

from __future__ import annotations

import random

import pytest

from segeval.errors import ValidationError
from segeval.walks import adjacent_pairs, enumerate_walks
from segeval.synth import SynthConfig, generate_segs

from conftest import chain_seg, make_seg, stacked_diamond


def brute_force_paths(seg):
    """Independent recursive path counter over the raw edge list."""
    children = {n.id: [] for n in seg.nodes}
    indeg = {n.id: 0 for n in seg.nodes}
    for e in seg.edges:
        children[e.src].append(e.dst)
        indeg[e.dst] += 1
    (head,) = [nid for nid, d in indeg.items() if d == 0]

    paths = []

    def walk(node, prefix):
        prefix = prefix + [node]
        if not children[node]:
            paths.append(tuple(prefix))
            return
        for child in children[node]:
            walk(child, prefix)

    walk(head, [])
    return sorted(paths)


def test_chain_has_one_walk():
    seg = chain_seg([1, 1, 1])
    walks = enumerate_walks(seg)
    assert walks == [("0", "1", "2")]


def test_diamond_has_two_walks(diamond):
    walks = enumerate_walks(diamond)
    assert walks == [("0", "1a", "2"), ("0", "1b", "2")]


def test_three_walk_example():
    seg = make_seg(
        nodes=[
            ("0", 0, ["h"]),
            ("1a", 1, ["a"]),
            ("1b", 1, ["b"]),
            ("2a", 2, ["c"]),
            ("2b", 2, ["d"]),
        ],
        edges=[("0", "1a"), ("0", "1b"), ("1a", "2a"), ("1a", "2b"), ("1b", "2a")],
    )
    walks = enumerate_walks(seg)
    assert walks == [
        ("0", "1a", "2a"),
        ("0", "1a", "2b"),
        ("0", "1b", "2a"),
    ]


def test_adjacent_pairs_chain():
    seg = chain_seg([1, 1, 1])
    walks = enumerate_walks(seg)
    assert adjacent_pairs(walks, "per-walk") == [("0", "1"), ("1", "2")]
    assert adjacent_pairs(walks, "unique-edge") == [("0", "1"), ("1", "2")]


def test_adjacent_pairs_diamond(diamond):
    walks = enumerate_walks(diamond)
    per_walk = adjacent_pairs(walks, "per-walk")
    assert per_walk == [("0", "1a"), ("1a", "2"), ("0", "1b"), ("1b", "2")]
    assert set(adjacent_pairs(walks, "unique-edge")) == set(per_walk)


def test_shared_edge_counted_per_walk_once_per_traversal():
    # edge (0, 1a) lies on both walks through {2a, 2b}
    seg = make_seg(
        nodes=[("0", 0, ["h"]), ("1a", 1, ["a"]), ("2a", 2, ["c"]), ("2b", 2, ["d"])],
        edges=[("0", "1a"), ("1a", "2a"), ("1a", "2b")],
    )
    walks = enumerate_walks(seg)
    per_walk = adjacent_pairs(walks, "per-walk")
    assert per_walk.count(("0", "1a")) == 2
    assert adjacent_pairs(walks, "unique-edge").count(("0", "1a")) == 1


def test_bad_pair_mode_rejected(diamond):
    with pytest.raises(ValueError):
        adjacent_pairs(enumerate_walks(diamond), "both")


def test_walk_count_matches_brute_force_on_random_graphs():
    collection = generate_segs(
        SynthConfig(seed=5, seg_count=30, nodes_per_seg=(2, 12), branch_probability=0.7)
    )
    for seg in collection:
        walks = enumerate_walks(seg)
        assert walks == brute_force_paths(seg)


def test_every_edge_on_some_walk():
    collection = generate_segs(SynthConfig(seed=9, seg_count=20, branch_probability=0.8))
    for seg in collection:
        traversed = set(adjacent_pairs(enumerate_walks(seg), "unique-edge"))
        assert {(e.src, e.dst) for e in seg.edges} == traversed


def test_triples_preserve_walk_image_multiset():
    collection = generate_segs(SynthConfig(seed=13, seg_count=10))
    for seg in collection:
        nodes = {n.id: n for n in seg.nodes}
        covered = set()
        for walk in enumerate_walks(seg):
            triples = [(img, nodes[nid].error_count) for nid in walk for img in nodes[nid].images]
            counts = [count for _, count in triples]
            assert counts == sorted(counts)
            covered.update(img for img, _ in triples)
        assert covered == set(seg.image_ids())


def test_rng_walk_determinism():
    random.seed()  # ambient state must not influence enumeration
    seg = chain_seg([2, 1, 3])
    assert enumerate_walks(seg) == enumerate_walks(seg)


def _reference_pairs(walks, mode):
    pairs = [pair for walk in walks for pair in zip(walk, walk[1:])]
    return list(dict.fromkeys(pairs)) if mode == "unique-edge" else pairs


def _dfs_test_segs():
    synth = generate_segs(
        SynthConfig(seed=17, seg_count=40, nodes_per_seg=(2, 12), branch_probability=0.7)
    )
    return [*synth, *(stacked_diamond(k) for k in range(1, 9))]


def test_walks_and_pairs_match_a_plain_dfs_on_every_call():
    for seg in _dfs_test_segs():
        expected = brute_force_paths(seg)
        for _ in range(2):
            walks = enumerate_walks(seg)
            assert walks == expected
            for mode in ("per-walk", "unique-edge"):
                pairs = adjacent_pairs(walks, mode)
                assert pairs == _reference_pairs(expected, mode)
                assert len({id(p) for p in pairs}) == len(set(pairs))  # one tuple per distinct edge


def test_mutating_a_returned_list_leaves_the_next_call_alone():
    seg = stacked_diamond(3)
    walks = enumerate_walks(seg)
    expected = list(walks)
    walks.clear()
    assert enumerate_walks(seg) == expected
    walks = enumerate_walks(seg)
    for mode in ("per-walk", "unique-edge"):
        pairs = adjacent_pairs(walks, mode)
        expected = list(pairs)
        pairs.reverse()
        pairs.append(("x", "y"))
        assert adjacent_pairs(walks, mode) == expected


def test_two_heads_raise_on_every_call():
    seg = make_seg(
        nodes=[("0", 0, ["a"]), ("0b", 0, ["b"]), ("1", 1, ["c"])],
        edges=[("0", "1"), ("0b", "1")],
    )
    for _ in range(2):
        with pytest.raises(ValidationError, match="exactly one head"):
            enumerate_walks(seg)
