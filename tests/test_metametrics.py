"""Per-SEG meta-metric values, aggregation, and the score CSV format."""

from __future__ import annotations

import csv
import math
import random
import sys
import tracemalloc
from pathlib import Path
from functools import reduce
from operator import add

import pytest

from segeval.errors import CoverageError, ParseError, SegEvalError, ValidationError
from segeval.fileio import read_csv
from segeval.metametrics import (
    SCORE_CSV_HEADER,
    ScoreTable,
    SegMetricResult,
    aggregate,
    delta_score,
    evaluate_collection,
    evaluate_seg,
    global_std,
    load_score_tables,
    missing_scores,
    rank_score,
    sep_score,
    write_score_tables,
)
from segeval.cli import EXIT_COVERAGE, main
import segeval.metametrics as metametrics
from segeval.reporting import walk_line_data
from segeval.stats import ks_statistic, spearman_rho
from segeval.synth import SynthConfig, generate_segs, oracle_scores, write_collection
from segeval.walks import adjacent_pairs, enumerate_walks

from conftest import (
    CSV_FAULTS, assert_view_reads_as, chain_seg, collection_of, identity_pattern, make_seg, regrouped, seeded_csv,
    stacked_diamond, table_for,
)


def oracle_rank(seg, table, tie_mode="midrank"):
    """First-principles rank score: enumerate walks, rank, Pearson, negate."""

    def ranks(vals):
        out = []
        for v in vals:
            less = sum(1 for o in vals if o < v)
            eq = sum(1 for o in vals if o == v)
            out.append(less + (eq + 1) / 2 if tie_mode == "midrank" else float(less))
        return out

    def pearson(a, b):
        n = len(a)
        ma, mb = sum(a) / n, sum(b) / n
        cov = sum((x - ma) * (y - mb) for x, y in zip(a, b)) / n
        sa = math.sqrt(sum((x - ma) ** 2 for x in a) / n)
        sb = math.sqrt(sum((y - mb) ** 2 for y in b) / n)
        return 0.0 if sa == 0 or sb == 0 else cov / (sa * sb)

    total = 0.0
    nodes = {n.id: n for n in seg.nodes}
    walks = enumerate_walks(seg)
    for walk in walks:
        triples = [(img, nodes[nid].error_count) for nid in walk for img in nodes[nid].images]
        scores = [table.entries[(seg.id, img)] for img, _ in triples]
        counts = [float(c) for _, c in triples]
        total += -pearson(ranks(scores), ranks(counts))
    return total / len(walks)


# ---------------------------------------------------------------------------
# rank_score


def test_rank_perfect_antimonotone_chain():
    seg = chain_seg([1, 1, 1])
    assert rank_score(seg, table_for(seg, [0.9, 0.5, 0.2])) == 1.0


def test_rank_constant_scores_is_zero():
    seg = chain_seg([1, 1, 1])
    assert rank_score(seg, table_for(seg, [0.4, 0.4, 0.4])) == 0.0


def test_rank_diamond_mixed_walks(diamond):
    table = ScoreTable(
        metric_name="m",
        entries={
            ("diamond", "0-0.jpg"): 1.0,
            ("diamond", "1a-0.jpg"): 0.6,
            ("diamond", "1b-0.jpg"): 0.2,
            ("diamond", "2-0.jpg"): 0.4,
        },
    )
    # walk (0,1a,2): scores strictly decreasing -> +1; walk (0,1b,2): rho=-0.5 -> +0.5
    assert rank_score(diamond, table) == pytest.approx(0.75, abs=1e-15)


def test_rank_missing_score_lists_image():
    seg = chain_seg([1, 1])
    table = ScoreTable(metric_name="m", entries={("chain", "0-0.jpg"): 1.0})
    with pytest.raises(CoverageError, match="1-0.jpg"):
        rank_score(seg, table)


def test_delta_checks_coverage_even_with_zero_spread():
    seg = chain_seg([1, 1])
    table = ScoreTable(metric_name="m", entries={("chain", "0-0.jpg"): 1.0})
    with pytest.raises(CoverageError, match="1-0.jpg") as info:
        delta_score(seg, table, global_std=0.0)
    assert info.value.missing == [("chain", "1-0.jpg")]


def test_every_direct_lookup_names_all_missing_images(tmp_path):
    seg = chain_seg([2, 1, 2])
    other = chain_seg([2, 2], seg_id="other")
    full = table_for(seg, [0.9, 0.8, 0.5, 0.2, 0.1])
    full.entries.update(table_for(other, [1.0, 0.9, 0.1, 0.0]).entries)
    gaps = [("chain", "0-1.jpg"), ("chain", "2-0.jpg")]
    table = ScoreTable("m", {k: v for k, v in full.entries.items() if k not in gaps})
    per_seg = r"missing 2 score\(s\) on seg chain: 0-1\.jpg, 2-0\.jpg$"
    calls = {
        "rank_score": (lambda: rank_score(seg, table), per_seg),
        "sep_score": (lambda: sep_score(seg, table), per_seg),
        "delta_score": (lambda: delta_score(seg, table, 0.5), per_seg),
        "global_std": (lambda: global_std(collection_of(other, seg), table), r"cover: chain \(2 missing\)$"),
        "walk_line_data": (lambda: walk_line_data(seg, table), per_seg),
    }
    for name, (call, message) in calls.items():
        with pytest.raises(CoverageError, match=message) as info:
            call()
        assert info.value.missing == gaps, name

    seg_dir = tmp_path / "segs"
    write_collection(collection_of(other, seg), seg_dir)
    write_score_tables([table], tmp_path / "scores.csv")
    argv = ["score", "--segs", str(seg_dir), "--scores", str(tmp_path / "scores.csv"), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_COVERAGE


def test_rank_matches_first_principles_oracle_on_synthetic_segs():
    collection = generate_segs(
        SynthConfig(seed=21, seg_count=25, nodes_per_seg=(2, 6), images_per_node=(1, 3))
    )
    rng = random.Random(3)
    for seg in collection:
        table = ScoreTable(
            metric_name="m",
            entries={(seg.id, img): rng.random() for img in seg.image_ids()},
        )
        assert rank_score(seg, table) == pytest.approx(oracle_rank(seg, table), abs=1e-12)


def reference_rank(seg, table, tie_mode="midrank"):
    """The per-walk loop rank_score replaced: each walk checks and ranks its expanded error counts."""
    pops = {n.id: [table.entries[(seg.id, img)] for img in n.images] for n in seg.nodes}
    counts = {n.id: [n.error_count] * len(n.images) for n in seg.nodes}
    walks = enumerate_walks(seg)
    total = 0.0
    for walk in walks:
        series = [v for node in walk for v in pops[node]]
        errors = [c for node in walk for c in counts[node]]
        total += -spearman_rho(series, errors, tie_mode)
    return total / len(walks)


def _draw_table(seg, rng):
    pool = [0.0, -0.0, 0.25, 0.5, 1 / 3, 1.0, 3]
    draw = (lambda: rng.choice(pool)) if rng.random() < 0.5 else rng.random
    return ScoreTable("m", {(seg.id, img): draw() for img in seg.image_ids()})


def _assert_rank_equals_the_per_walk_loop(segs, monkeypatch, seed):
    calls = []

    def counting_spearman(x, y, tie_mode="midrank"):
        calls.append(1)
        return spearman_rho(x, y, tie_mode)

    rng = random.Random(seed)
    for seg in segs:
        table = _draw_table(seg, rng)
        for tie_mode in ("midrank", "countbelow"):
            expected = reference_rank(seg, table, tie_mode)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(metametrics, "spearman_rho", counting_spearman)
                assert rank_score(seg, table, tie_mode) == expected, (seg.id, tie_mode)
            assert len(calls) == len(enumerate_walks(seg))


def test_rank_equals_the_per_walk_loop_on_synth_segs(monkeypatch):
    segs = generate_segs(SynthConfig(seed=9, seg_count=40, images_per_node=(1, 5)))
    _assert_rank_equals_the_per_walk_loop(segs, monkeypatch, seed=4)


def test_rank_equals_the_per_walk_loop_on_stacked_diamonds(monkeypatch):
    _assert_rank_equals_the_per_walk_loop([stacked_diamond(k) for k in range(1, 7)], monkeypatch, seed=5)


def test_rank_equals_the_per_walk_loop_on_chains(monkeypatch):
    rng = random.Random(6)
    chains = [chain_seg([k] * 4, seg_id=f"even{k}") for k in range(1, 9)]
    chains += [chain_seg([rng.randint(1, 8) for _ in range(rng.randint(2, 6))], seg_id=f"c{i}") for i in range(30)]
    _assert_rank_equals_the_per_walk_loop(chains, monkeypatch, seed=7)


def _outcome(rank, seg, table, tie_mode):
    try:
        return rank(seg, table, tie_mode)
    except (SegEvalError, ValueError) as exc:
        return type(exc), str(exc)


def test_rank_of_an_unvalidated_seg_equals_the_per_walk_loop():
    # each case sits beside its valid twin, which takes the run-length ranks
    nodes = [("0", 0, ["a", "b"]), ("1", 1, ["c"]), ("2", 2, ["d", "e", "f"])]
    edges = [("0", "1"), ("1", "2")]
    cases = {
        "valid": make_seg(nodes, edges),
        "falls": make_seg([*nodes[:2], ("2", 0, ["d", "e", "f"])], edges),
        "equal": make_seg([*nodes[:2], ("2", 1, ["d", "e", "f"])], edges),
        "from an unknown node": make_seg(nodes, [*edges, ("ghost", "2")]),
        "to an unknown node": make_seg(nodes, [*edges, ("2", "ghost")]),
    }
    table = table_for(cases["valid"], [0.9, 0.8, 0.5, 0.1, 0.3, 0.2])
    outcomes = {}
    for name, seg in cases.items():
        for tie_mode in ("midrank", "countbelow"):
            outcomes[name, tie_mode] = _outcome(rank_score, seg, table, tie_mode)
            assert outcomes[name, tie_mode] == _outcome(reference_rank, seg, table, tie_mode), (name, tie_mode)
    for tie_mode in ("midrank", "countbelow"):
        # a falling or flat count ranks differently from a rising one
        assert outcomes["falls", tie_mode] != outcomes["valid", tie_mode] != outcomes["equal", tie_mode]
        assert outcomes["from an unknown node", tie_mode] == outcomes["valid", tie_mode]
        assert outcomes["to an unknown node", tie_mode] == (ValidationError, "seg seg: edge references unknown node 'ghost'")


def test_every_walk_reader_raises_the_validation_error_for_an_edge_to_an_unknown_node():
    seg = make_seg([("0", 0, ["a"]), ("1", 1, ["b"])], [("0", "1"), ("1", "ghost")])
    table = table_for(seg, [0.9, 0.1])
    calls = {
        "enumerate_walks": lambda: enumerate_walks(seg),
        "rank_score": lambda: rank_score(seg, table),
        "sep_score": lambda: sep_score(seg, table),
        "evaluate_seg": lambda: evaluate_seg(seg, table, 0.5),
        "evaluate_collection": lambda: evaluate_collection(collection_of(seg), [table]),
        "walk_line_data": lambda: walk_line_data(seg, table),
    }
    for call in calls.values():
        with pytest.raises(ValidationError, match=r"^seg seg: edge references unknown node 'ghost'$"):
            call()


def test_rank_of_a_nan_score_names_x_on_both_paths():
    valid = chain_seg([2, 1, 2])
    falls = make_seg(
        [("0", 0, ["0-0.jpg", "0-1.jpg"]), ("1", 2, ["1-0.jpg"]), ("2", 1, ["2-0.jpg", "2-1.jpg"])],
        [("0", "1"), ("1", "2")],
        seg_id="chain",
    )
    table = table_for(valid, [0.9, 0.8, float("nan"), 0.2, 0.1])
    for seg in (valid, falls):
        for tie_mode in ("midrank", "countbelow"):
            with pytest.raises(ValueError, match=r"^x contains non-finite values$"):
                rank_score(seg, table, tie_mode)
            assert _outcome(reference_rank, seg, table, tie_mode) == (ValueError, "x contains non-finite values")
    clean = table_for(valid, [0.9, 0.9, 0.5, 0.1, 0.1])
    assert rank_score(valid, clean) == 1.0
    assert rank_score(valid, clean, "countbelow") == reference_rank(valid, clean, "countbelow") < 1.0


def _rank_and_sample_types(seg, table, tie_mode, monkeypatch):
    """rank_score's outcome and the type of every sample it hands spearman_rho."""
    types = []

    def recording_spearman(x, y, tie_mode="midrank"):
        types.append(type(x))
        return spearman_rho(x, y, tie_mode)

    with monkeypatch.context() as m:
        m.setattr(metametrics, "spearman_rho", recording_spearman)
        return _outcome(rank_score, seg, table, tie_mode), set(types)


def test_rank_checks_a_cell_once_only_when_every_score_is_a_finite_float(monkeypatch):
    diamonds = stacked_diamond(4)  # 16 walks over 13 nodes
    # an unvalidated SEG: nodes "u" and "v" only point at each other, so no walk reaches them
    nodes = [(n.id, n.error_count, list(n.images)) for n in diamonds.nodes] + [("u", 9, ["u.jpg"]), ("v", 10, [])]
    edges = [(e.src, e.dst) for e in diamonds.edges] + [("u", "v"), ("v", "u")]
    unreachable = make_seg(nodes, edges, seg_id="diamonds")
    rng = random.Random(12)
    floats = [rng.random() for _ in diamonds.image_ids()]
    base = table_for(diamonds, floats).entries

    def table(**changes):
        return ScoreTable("m", {**base, **{("diamonds", img): v for img, v in changes.items()}})

    cases = {  # (seg, table, whether spearman_rho gets _Checked samples)
        "floats": (diamonds, table(), True),
        "an int score": (diamonds, table(**{"2.jpg": 1}), False),
        "a bool score": (diamonds, table(**{"2.jpg": True}), False),
        "a NaN": (diamonds, table(**{"5a.jpg": float("nan")}), False),
        "an infinity": (diamonds, table(**{"0.jpg": -math.inf}), False),
        "unreachable float": (unreachable, table(**{"u.jpg": 0.5}), True),
        "unreachable int": (unreachable, table(**{"u.jpg": 2}), False),
        "unreachable NaN": (unreachable, table(**{"u.jpg": float("nan")}), False),
    }
    for name, (seg, tbl, checked) in cases.items():
        for tie_mode in ("midrank", "countbelow"):
            outcome, types = _rank_and_sample_types(seg, tbl, tie_mode, monkeypatch)
            assert outcome == _outcome(reference_rank, seg, tbl, tie_mode), (name, tie_mode)
            assert types == ({metametrics._Checked} if checked else {list}), (name, tie_mode)
    assert _outcome(rank_score, diamonds, cases["a NaN"][1], "midrank") == (ValueError, "x contains non-finite values")
    assert _outcome(rank_score, unreachable, cases["unreachable NaN"][1], "midrank") == _outcome(
        rank_score, diamonds, cases["floats"][1], "midrank"
    )
    # no more walks than nodes: each walk's sample is checked by spearman_rho, as before
    chain = chain_seg([2, 1, 3])
    assert _rank_and_sample_types(chain, table_for(chain, floats[:6]), "midrank", monkeypatch)[1] == {list}


def test_a_seg_without_adjacent_pairs_raises_a_validation_error_naming_it():
    seg = make_seg([("0", 0, ["a", "b"])], [], seg_id="lone")
    table = table_for(seg, [0.9, 0.1])
    message = r"^seg lone: no adjacent node pairs$"
    for pair_mode in ("per-walk", "unique-edge"):
        with pytest.raises(ValidationError, match=message):
            sep_score(seg, table, pair_mode)
        with pytest.raises(ValidationError, match=message):
            delta_score(seg, table, 0.5, pair_mode)
        with pytest.raises(ValidationError, match=message):
            evaluate_seg(seg, table, 0.5, pair_mode=pair_mode)
        assert delta_score(seg, table, 0.0, pair_mode) == 0.0  # a zero spread still gives 0
    assert rank_score(seg, table) == 0.0  # one walk over one node: a constant error count
    with pytest.raises(ValidationError, match=message):
        evaluate_collection(collection_of(seg), [table])
    with pytest.raises(CoverageError):  # coverage is checked before the pairs
        sep_score(seg, ScoreTable("m", {("lone", "a"): 0.5}))


# ---------------------------------------------------------------------------
# sep_score


def test_sep_disjoint_node_distributions():
    seg = chain_seg([2, 2, 2])
    table = table_for(seg, [0.9, 0.8, 0.5, 0.6, 0.1, 0.2])
    assert sep_score(seg, table) == 1.0


def test_sep_identical_node_distributions():
    seg = chain_seg([2, 2])
    table = table_for(seg, [0.3, 0.7, 0.3, 0.7])
    assert sep_score(seg, table) == 0.0


def test_sep_interleaved_half():
    seg = chain_seg([2, 2])
    table = table_for(seg, [0.1, 0.5, 0.3, 0.7])
    assert sep_score(seg, table) == 0.5


def test_sep_pair_mode_changes_weighting():
    # edge (0,1a) sits on two walks; its KS is 0, the other edges are 1
    seg = make_seg(
        nodes=[("0", 0, ["h"]), ("1a", 1, ["a"]), ("2a", 2, ["c"]), ("2b", 2, ["d"])],
        edges=[("0", "1a"), ("1a", "2a"), ("1a", "2b")],
    )
    table = ScoreTable(
        metric_name="m",
        entries={
            ("seg", "h"): 0.9,
            ("seg", "a"): 0.9,  # ties the head: KS(head, 1a) = 0
            ("seg", "c"): 0.1,
            ("seg", "d"): 0.2,
        },
    )
    per_walk = sep_score(seg, table, "per-walk")  # (0+1+0+1)/4
    unique = sep_score(seg, table, "unique-edge")  # (0+1+1)/3
    assert per_walk == pytest.approx(0.5)
    assert unique == pytest.approx(2 / 3)


def reference_sep(seg, table, pair_mode="per-walk"):
    """The per-pair loop sep_score replaced: each pair checks and sorts both node samples."""
    pops = {n.id: [table.entries[(seg.id, img)] for img in n.images] for n in seg.nodes}
    pairs = adjacent_pairs(enumerate_walks(seg), pair_mode)
    return reduce(add, (ks_statistic(pops[a], pops[b]) for a, b in pairs), 0.0) / len(pairs)


def test_sep_equals_the_per_pair_loop_with_one_ks_call_per_pair(monkeypatch):
    segs = [*generate_segs(SynthConfig(seed=5, seg_count=40, images_per_node=(1, 5)))]
    segs += [stacked_diamond(k) for k in range(1, 7)]
    calls = []

    def counting_ks(x, y):
        calls.append(1)
        return ks_statistic(x, y)

    rng = random.Random(8)
    for seg in segs:
        table = _draw_table(seg, rng)
        for mode in ("per-walk", "unique-edge"):
            expected = reference_sep(seg, table, mode)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(metametrics, "ks_statistic", counting_ks)
                assert sep_score(seg, table, mode) == expected, (seg.id, mode)
            assert len(calls) == len(adjacent_pairs(enumerate_walks(seg), mode))


def _sep_error(seg, table):
    with pytest.raises(ValueError) as info:
        sep_score(seg, table)
    with pytest.raises(ValueError) as ref:
        reference_sep(seg, table)
    assert str(info.value) == str(ref.value)
    return str(info.value)


def test_sep_on_a_bad_node_raises_the_per_pair_error():
    nan, inf = float("nan"), float("inf")
    chain = chain_seg([2, 1, 2])
    assert _sep_error(chain, table_for(chain, [0.1, nan, 0.5, 0.2, 0.3])) == "x contains non-finite values"
    assert _sep_error(chain, table_for(chain, [0.1, 0.2, 0.5, 0.2, -inf])) == "y contains non-finite values"
    gap = chain_seg([1, 0, 1])
    assert _sep_error(gap, table_for(gap, [0.1, 0.2])) == "y must be non-empty"
    # more pairs than nodes: the checked node samples are built, and a bad one falls back per pair
    diamonds = stacked_diamond(2)
    assert len(adjacent_pairs(enumerate_walks(diamonds))) > len(diamonds.nodes)
    assert _sep_error(diamonds, table_for(diamonds, [nan, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0])) == "x contains non-finite values"
    assert _sep_error(diamonds, table_for(diamonds, [0.9, 0.5, 0.4, 0.3, inf, 0.1, 0.0])) == "y contains non-finite values"
    # a bad node in no pair (unreachable from the head) raises nothing, as in the per-pair loop
    seg = make_seg([("0", 0, ["a"]), ("1", 1, ["b"]), ("2", 2, ["c"]), ("3", 3, [])], [("0", "1"), ("2", "3"), ("3", "2")])
    table = ScoreTable("m", {("seg", "a"): 0.1, ("seg", "b"): 0.5, ("seg", "c"): nan})
    assert sep_score(seg, table) == reference_sep(seg, table) == 1.0


# ---------------------------------------------------------------------------
# delta_score / global_std


def test_delta_single_pair_fixture():
    seg = make_seg(
        nodes=[("0", 0, ["a", "b"]), ("1", 1, ["c", "d"])],
        edges=[("0", "1")],
    )
    table = ScoreTable(
        metric_name="m",
        entries={("seg", "a"): 0.8, ("seg", "b"): 1.0, ("seg", "c"): 0.4, ("seg", "d"): 0.6},
    )
    std = global_std(collection_of(seg), table)
    assert std == pytest.approx(math.sqrt(0.05), abs=1e-12)
    assert delta_score(seg, table, std) == pytest.approx(1.7888544, abs=1e-6)


def test_delta_of_a_constant_seg_beside_a_varied_one_is_exactly_zero():
    # sum / len of 0.1 over 3, 1 and 2 images gives three means an ulp apart
    flat = chain_seg([3, 1, 2], seg_id="flat")
    other = chain_seg([1, 1], seg_id="other")
    table = ScoreTable(
        metric_name="m",
        entries={**table_for(flat, [0.1] * 6).entries, **table_for(other, [0.9, 0.2]).entries},
    )
    std = global_std(collection_of(flat, other), table)
    assert std > 0
    assert delta_score(flat, table, std) == 0.0


def test_delta_zero_spread_guard():
    seg = chain_seg([1, 1])
    table = table_for(seg, [0.5, 0.5])
    assert delta_score(seg, table, 0.0) == 0.0
    with pytest.raises(ValueError):
        delta_score(seg, table, -0.1)


def test_delta_sign_antisymmetry():
    seg = chain_seg([1, 1, 1])
    faithful = table_for(seg, [1.0, 0.6, 0.2])
    inverted = table_for(seg, [0.2, 0.6, 1.0])
    std = global_std(collection_of(seg), faithful)
    d1 = delta_score(seg, faithful, std)
    d2 = delta_score(seg, inverted, std)
    assert d1 > 0
    assert d2 == pytest.approx(-d1, abs=1e-12)


def test_global_std_over_concatenated_multiset():
    seg_a = chain_seg([1, 1], seg_id="a")
    seg_b = chain_seg([1, 1], seg_id="b")
    table = ScoreTable(
        metric_name="m",
        entries={
            ("a", "0-0.jpg"): 0.8,
            ("a", "1-0.jpg"): 1.0,
            ("b", "0-0.jpg"): 0.4,
            ("b", "1-0.jpg"): 0.6,
        },
    )
    std = global_std(collection_of(seg_a, seg_b), table)
    assert std == pytest.approx(math.sqrt(0.05), abs=1e-12)


def test_global_std_reports_missing_per_seg():
    seg_a = chain_seg([1, 1], seg_id="a")
    seg_b = chain_seg([1, 1], seg_id="b")
    table = ScoreTable(
        metric_name="m",
        entries={("a", "0-0.jpg"): 0.8, ("a", "1-0.jpg"): 1.0},
    )
    with pytest.raises(CoverageError, match="b"):
        global_std(collection_of(seg_a, seg_b), table)


# ---------------------------------------------------------------------------
# invariance properties


def test_rank_and_sep_invariant_under_monotone_transform():
    collection = generate_segs(SynthConfig(seed=31, seg_count=10))
    rng = random.Random(17)
    for seg in collection:
        base = {(seg.id, img): rng.random() for img in seg.image_ids()}
        t1 = ScoreTable(metric_name="m", entries=base)
        remap = {
            v: i + 1 + rng.random() / 2  # strictly increasing by construction
            for i, v in enumerate(sorted({s for s in base.values()}))
        }
        t2 = ScoreTable(metric_name="m", entries={k: remap[v] for k, v in base.items()})
        assert rank_score(seg, t1) == rank_score(seg, t2)
        assert sep_score(seg, t1) == sep_score(seg, t2)


def test_delta_invariant_under_positive_affine_transform():
    collection = generate_segs(SynthConfig(seed=37, seg_count=5))
    rng = random.Random(19)
    for seg in collection:
        base = ScoreTable(
            metric_name="m",
            entries={(seg.id, img): rng.random() for img in seg.image_ids()},
        )
        col = collection_of(seg)
        a, b = 3.7, -0.4
        scaled = ScoreTable(
            metric_name="m", entries={k: a * v + b for k, v in base.entries.items()}
        )
        d1 = delta_score(seg, base, global_std(col, base))
        d2 = delta_score(seg, scaled, global_std(col, scaled))
        assert d2 == pytest.approx(d1, abs=1e-12)


# ---------------------------------------------------------------------------
# evaluate_collection over every table at once


def _draw_tables(segs, rng, names=("noisy", "b", "const", "a")):
    """One table per name over every SEG, in unsorted name order; 'const' is one value everywhere."""
    tables = []
    for name in names:
        entries = {}
        for seg in segs:
            entries.update(_draw_table(seg, rng).entries)
        if name == "const":
            entries = dict.fromkeys(entries, 0.5)
        tables.append(ScoreTable(name, entries))
    return tables


def _per_metric_loop(collection, tables, tie_mode, pair_mode):
    """The loop score ran before one pass served every table: each metric's SEGs in turn, each cell on its own."""
    results = []
    for table in sorted(tables, key=lambda t: t.metric_name):
        std = global_std(collection, table)
        results.extend(evaluate_seg(seg, table, std, tie_mode, pair_mode) for seg in collection)
    return results


def _assert_all_tables_equal_the_per_metric_loop(segs, monkeypatch, seed):
    collection = collection_of(*segs)
    tables = _draw_tables(segs, random.Random(seed))
    calls = {name: 0 for name in ("evaluate_seg", "sep_score", "ks_statistic", "spearman_rho",
                                  "enumerate_walks", "adjacent_pairs")}

    def counting(name):
        original = getattr(metametrics, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    walks = sum(len(enumerate_walks(seg)) for seg in collection)
    for tie_mode in ("midrank", "countbelow"):
        for pair_mode in ("per-walk", "unique-edge"):
            expected = _per_metric_loop(collection, tables, tie_mode, pair_mode)
            calls.update(dict.fromkeys(calls, 0))
            with monkeypatch.context() as m:
                for name in calls:
                    m.setattr(metametrics, name, counting(name))
                results = evaluate_collection(collection, tables, tie_mode, pair_mode)
            assert results == expected, (tie_mode, pair_mode)
            first = min(tables, key=lambda t: t.metric_name)  # its cells come first
            assert [r.rank for r in results[: len(segs)]] == [reference_rank(s, first, tie_mode) for s in collection]
            assert [r.sep for r in results[: len(segs)]] == [reference_sep(s, first, pair_mode) for s in collection]
            pairs = sum(len(adjacent_pairs(enumerate_walks(seg), pair_mode)) for seg in collection)
            cells = len(tables) * len(segs)
            assert calls == {
                "evaluate_seg": cells,
                "sep_score": cells,
                "ks_statistic": len(tables) * pairs,
                "spearman_rho": len(tables) * walks,
                "enumerate_walks": len(segs),  # one plan per SEG, shared by every metric
                "adjacent_pairs": len(segs),
            }, (tie_mode, pair_mode)


def test_all_tables_equal_the_per_metric_loop_on_synth_segs(monkeypatch):
    segs = generate_segs(SynthConfig(seed=12, seg_count=30, images_per_node=(1, 5)))
    _assert_all_tables_equal_the_per_metric_loop(list(segs), monkeypatch, seed=13)


def test_all_tables_equal_the_per_metric_loop_on_stacked_diamonds(monkeypatch):
    segs = [stacked_diamond(k, seg_id=f"d{k}") for k in range(1, 7)]
    _assert_all_tables_equal_the_per_metric_loop(segs, monkeypatch, seed=14)


def test_all_tables_equal_the_per_metric_loop_on_chains(monkeypatch):
    rng = random.Random(15)
    segs = [chain_seg([k] * 3, seg_id=f"even{k}") for k in range(1, 9)]
    segs += [chain_seg([rng.randint(1, 8) for _ in range(rng.randint(2, 6))], seg_id=f"c{i}") for i in range(12)]
    _assert_all_tables_equal_the_per_metric_loop(segs, monkeypatch, seed=16)


def test_one_plan_serves_every_tie_mode_and_pair_mode():
    for seg in [stacked_diamond(3), chain_seg([2, 1, 3]), *generate_segs(SynthConfig(seed=19, seg_count=5))]:
        (table,) = _draw_tables([seg], random.Random(20), names=("m",))
        plan = metametrics._SegPlan(seg)
        for tie_mode, pair_mode in [("midrank", "per-walk"), ("countbelow", "unique-edge"), ("midrank", "unique-edge")]:
            fresh = evaluate_seg(seg, table, 0.25, tie_mode, pair_mode)
            assert evaluate_seg(seg, table, 0.25, tie_mode, pair_mode, plan) == fresh, (seg.id, tie_mode, pair_mode)


def test_one_table_gives_what_a_list_of_it_gives():
    segs = [chain_seg([2, 1, 3], seg_id="x"), stacked_diamond(2, seg_id="y")]
    (table,) = _draw_tables(segs, random.Random(17), names=("m",))
    collection = collection_of(*segs)
    assert evaluate_collection(collection, table) == evaluate_collection(collection, [table])
    assert evaluate_collection(collection, table) == _per_metric_loop(collection, [table], "midrank", "per-walk")
    assert evaluate_collection(collection, []) == []


def test_coverage_gaps_in_two_metrics_raise_the_first_sorted_metrics_error(tmp_path, capsys):
    segs = [chain_seg([2, 2], seg_id="s1"), chain_seg([1, 3], seg_id="s2"), chain_seg([2, 2], seg_id="s3")]
    collection = collection_of(*segs)
    full = _draw_tables(segs, random.Random(18), names=("zeta", "alpha", "mid"))
    gaps = {"zeta": [("s1", "0-0.jpg")], "alpha": [("s3", "0-0.jpg"), ("s3", "1-0.jpg")]}
    tables = [ScoreTable(t.metric_name, {k: v for k, v in t.entries.items() if k not in gaps.get(t.metric_name, ())})
              for t in full]
    with pytest.raises(CoverageError) as ref:
        _per_metric_loop(collection, tables, "midrank", "per-walk")
    with pytest.raises(CoverageError) as info:
        evaluate_collection(collection, tables)
    assert str(info.value) == str(ref.value) == "metric 'alpha' does not cover: s3 (2 missing)"
    assert info.value.missing == ref.value.missing == gaps["alpha"]

    write_collection(collection, tmp_path / "segs")
    write_score_tables(tables, tmp_path / "scores.csv")
    argv = ["score", "--segs", str(tmp_path / "segs"), "--scores", str(tmp_path / "scores.csv")]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_COVERAGE
    assert capsys.readouterr().err == f"error: {ref.value}\n" + "".join(f"  missing: {g}\n" for g in gaps["alpha"])


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_single_seg_equals_result():
    seg = chain_seg([1, 1, 1])
    col = collection_of(seg)
    table = table_for(seg, [0.9, 0.5, 0.2])
    results = evaluate_collection(col, table)
    report = aggregate(results, col)
    agg = report.metrics["m"]
    assert agg.overall.rank == results[0].rank
    assert agg.overall.seg_count == 1


def test_aggregate_overall_is_unweighted_mean():
    seg_a = chain_seg([1, 1], seg_id="a", subset="synth")
    seg_b = chain_seg([1, 1], seg_id="b", subset="real")
    col = collection_of(seg_a, seg_b)
    results = [
        evaluate_seg(seg_a, table_for(seg_a, [1.0, 0.0]), 0.5),
        evaluate_seg(seg_b, table_for(seg_b, [0.0, 1.0]), 0.5),
    ]
    report = aggregate(results, col)
    agg = report.metrics["m"]
    assert agg.overall.rank == pytest.approx((1.0 - 1.0) / 2)
    assert agg.by_subset["synth"].rank == 1.0
    assert agg.by_subset["real"].rank == -1.0


def test_aggregate_subset_partition():
    seg_a = chain_seg([1, 1], seg_id="a", subset="synth")
    seg_b = chain_seg([1, 1], seg_id="b", subset="real")
    col = collection_of(seg_a, seg_b)
    results = [
        evaluate_seg(seg_a, table_for(seg_a, [1.0, 0.2]), 0.4),
        evaluate_seg(seg_b, table_for(seg_b, [1.0, 0.4]), 0.4),
    ]
    report = aggregate(results, col)
    agg = report.metrics["m"]
    assert set(agg.by_subset) == {"synth", "real"}
    assert report.subset_counts == {"synth": 1, "nat": 0, "real": 1}


def test_aggregate_records_missing_segs_per_metric():
    seg_a = chain_seg([1, 1], seg_id="a")
    seg_b = chain_seg([1, 1], seg_id="b")
    col = collection_of(seg_a, seg_b)
    partial = [evaluate_seg(seg_a, table_for(seg_a, [1.0, 0.0]), 0.5)]
    report = aggregate(partial, col)
    assert report.metrics["m"].missing_segs == ("b",)


def test_aggregate_rejects_duplicate_cell():
    seg = chain_seg([1, 1])
    col = collection_of(seg)
    r = evaluate_seg(seg, table_for(seg, [1.0, 0.0]), 0.5)
    with pytest.raises(ValidationError, match="duplicate result"):
        aggregate([r, r], col)


def test_aggregate_rejects_a_result_for_an_unknown_seg():
    seg, other = chain_seg([1, 1]), chain_seg([1, 1], seg_id="other")
    r = evaluate_seg(other, table_for(other, [1.0, 0.0]), 0.5)
    with pytest.raises(ValidationError, match="^result references unknown seg 'other'$"):
        aggregate([r], collection_of(seg))


def test_aggregate_means_are_a_left_fold():
    # 0.1 added ten times from the left is 0.9999999999999999; the builtin
    # sum() compensates rounding from Python 3.12 on and would give 1.0
    segs = [chain_seg([1, 1], seg_id=f"s{i}") for i in range(10)]
    results = [
        SegMetricResult(seg_id=seg.id, metric_name="m", rank=0.1, sep=0.1, delta=0.1, walk_count=1, pair_count=1)
        for seg in segs
    ]
    overall = aggregate(results, collection_of(*segs)).metrics["m"].overall
    assert overall.rank == overall.sep == overall.delta == 0.09999999999999999


# ---------------------------------------------------------------------------
# score CSV


def test_score_csv_roundtrip(tmp_path):
    seg = chain_seg([2, 1])
    table = table_for(seg, [0.25, 0.5, 0.125])
    path = tmp_path / "scores.csv"
    write_score_tables([table], path)
    loaded = load_score_tables(path)
    assert set(loaded) == {"m"}
    assert loaded["m"].entries == dict(table.entries)


def test_score_csv_header_checked(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("a,b,c,d\nx,y,m,1\n")
    with pytest.raises(ParseError, match="bad header"):
        load_score_tables(path)


def test_score_csv_rejects_bad_and_duplicate_rows(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("seg_id,image_id,metric,score\ns,i,m,abc\n")
    with pytest.raises(ParseError, match="not a number"):
        load_score_tables(path)
    path.write_text("seg_id,image_id,metric,score\ns,i,m,nan\n")
    with pytest.raises(ParseError, match="non-finite"):
        load_score_tables(path)
    path.write_text("seg_id,image_id,metric,score\ns,i,m,1\ns,i,m,2\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_score_tables(path)


def reference_load(path):
    """The loader as it was, checking each row as read_csv numbers it; tables share one key per image."""
    path = Path(path)
    tables = {}
    segs = {}
    seg_key = images = None
    for lineno, (seg_id, image_id, metric, raw) in read_csv(path, SCORE_CSV_HEADER):
        try:
            score = float(raw)
        except ValueError:
            raise ParseError(f"line {lineno}: score {raw!r} is not a number", source=str(path)) from None
        if not math.isfinite(score):
            raise ParseError(f"line {lineno}: non-finite score {raw!r}", source=str(path))
        bucket = tables.setdefault(metric, {})
        if seg_id != seg_key:
            seg_key, images = segs.setdefault(seg_id, (seg_id, {}))
        key = images.get(image_id)
        if key is None:
            key = images[image_id] = (seg_key, image_id)
        if key in bucket:
            raise ParseError(
                f"line {lineno}: duplicate score for seg {seg_id!r} image {image_id!r} metric {metric!r}",
                source=str(path),
            )
        bucket[key] = score
    return {name: ScoreTable(metric_name=name, entries=entries) for name, entries in sorted(tables.items())}


def reference_write(tables, path):
    """The writer as it was: one (metric, seg, image, score) sort over every row."""
    rows = sorted((t.metric_name, s, i, x) for t in tables for (s, i), x in t.entries.items())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_CSV_HEADER)
        writer.writerows([s, i, m, format(x, ".17g")] for m, s, i, x in rows)


def _load_error(loader, path) -> str:
    with pytest.raises(ParseError) as info:
        loader(path)
    return str(info.value)


def test_loaded_tables_share_one_string_per_seg_id_and_per_image_id(tmp_path):
    path = tmp_path / "scores.csv"
    args = ["synth", "--seed", "3", "--segs", "40", "--out", str(tmp_path / "segs"), "--scores-out", str(path)]
    assert main(args) == 0
    loaded = load_score_tables(path)
    assert loaded == reference_load(path) and len(loaded) == 4

    keys = [list(table.entries) for table in loaded.values()]
    seg_ids = {seg_id: seg_id for seg_id, _ in keys[0]}
    image_ids = {key: key[1] for key in keys[0]}
    assert len(seg_ids) == 40 and all(len(k) == len(image_ids) for k in keys)
    assert all(seg_ids[key[0]] is key[0] and image_ids[key] is key[1] for k in keys for key in k)


def test_same_image_under_two_metrics_is_accepted_with_one_string_per_id(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("seg_id,image_id,metric,score\ns,i,a,1\ns,i,b,0.5\n")
    loaded = load_score_tables(path)
    assert loaded == reference_load(path)
    (key_a,), (key_b,) = loaded["a"].entries, loaded["b"].entries
    assert key_a == key_b == ("s", "i")
    assert key_a[0] is key_b[0] and key_a[1] is key_b[1]


@pytest.mark.parametrize(
    "body, message",
    [
        ("s,i,a,1\ns,i,b,2\ns,j,a,3\ns,i,a,4\n", "line 5: duplicate score for seg 's' image 'i' metric 'a'"),
        ("s,i,a,1\ns,i\n", "line 3: expected 4 fields, got 2"),
    ],
    ids=["duplicate", "short-row"],
)
def test_loader_errors_keep_their_messages(tmp_path, body, message):
    path = tmp_path / "scores.csv"
    path.write_text("seg_id,image_id,metric,score\n" + body)
    assert _load_error(load_score_tables, path) == _load_error(reference_load, path) == f"{path}: {message}"


def test_loader_non_utf8_past_8_kib_keeps_its_message(tmp_path):
    path = tmp_path / "scores.csv"
    padding = "".join(f"chain,pad-{i},m,0.5\n" for i in range(600))
    path.write_bytes(f"seg_id,image_id,metric,score\n{padding}".encode() + b"chain,\xff,m,1\n")
    assert path.stat().st_size > 8192
    message = f"{path}: not valid UTF-8: invalid start byte (byte 0xff)"
    assert _load_error(load_score_tables, path) == _load_error(reference_load, path) == message


def _load_outcome(loader, path):
    try:
        return loader(path)
    except Exception as exc:  # the type and message must match, whatever they are
        return type(exc), str(exc)


def _id_strings(key_lists):
    """Every id string of the keys, in list and key order."""
    return [obj for keys in key_lists for key in keys for obj in key]


def test_one_pass_loader_matches_the_line_numbered_loop_on_seeded_files(tmp_path):
    rng = random.Random(53)
    outcomes = set()
    scores = ["0.5", "1", "-0", " 2.5e-3 ", "1_0", "1e308"]
    bad = ["abc", "nan", "-inf", "Infinity", "1e999", ""]
    for n in range(300):
        path = tmp_path / f"scores{n}.csv"
        rows = [
            [seg, image, metric, rng.choice(scores)]
            for metric in rng.sample(["m", "a,b", "z"], rng.randint(1, 3))
            for seg in ["s0", "s1", "a.jpg"][: rng.randint(1, 3)]
            for image in ["a.jpg", "s0", "b c"][: rng.randint(1, 3)]
        ]
        rng.shuffle(rows)
        data, fault = seeded_csv(rng, SCORE_CSV_HEADER, rows, bad_values=bad)
        path.write_bytes(data)
        got, want = _load_outcome(load_score_tables, path), _load_outcome(reference_load, path)
        assert got == want, fault
        if isinstance(want, tuple):
            assert want[0] is ParseError, want
            outcomes.add(fault)
            continue
        outcomes.add("loaded")
        got_keys, want_keys = [list(t.entries) for t in got.values()], [regrouped(t.entries) for t in want.values()]
        assert got_keys == want_keys
        assert identity_pattern(_id_strings(got_keys)) == identity_pattern(_id_strings(want_keys))
    faults = set(CSV_FAULTS) - {"none"} | {f"value {v!r}" for v in bad}
    assert outcomes == faults | {"loaded"}  # every kind of fault came up, and failed


def _read_outcome(call):
    """``call()``'s repr (NaN and -0.0 compare as text), or the message and missing list of its CoverageError."""
    try:
        return repr(call())
    except CoverageError as exc:
        return str(exc), exc.missing


def test_loaded_view_and_both_read_paths_match_the_reference_loader(tmp_path):
    rng = random.Random(29)
    # every SEG holds all three images on two nodes, so a table that skips one has a gap
    collection = collection_of(
        *(make_seg([("0", 0, ["a.jpg", "s0"]), ("1", 1, ["b c"])], [("0", "1")], seg_id=s) for s in ["s0", "s1", "a.jpg"])
    )
    outcomes = set()
    for n in range(300):
        path = tmp_path / f"scores{n}.csv"
        rows = [
            [seg, image, metric, rng.choice(["0.5", "1", "-0", " 2.5e-3 ", "1_0", "1e308", "0.25"])]
            for metric in rng.sample(["m", "a,b", "z"], rng.randint(1, 3))
            for seg in ["s0", "s1", "a.jpg"][: rng.randint(1, 3)]
            for image in ["a.jpg", "s0", "b c"][: rng.randint(1, 3)]
        ]
        rng.shuffle(rows)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([SCORE_CSV_HEADER, *rows])
        got, want = load_score_tables(path), reference_load(path)
        assert list(got) == list(want)
        for name, table in got.items():
            view = table.entries
            assert_view_reads_as(view, {key: want[name].entries[key] for key in regrouped(want[name].entries)})
            plain = ScoreTable(name, dict(view))
            for read in [
                lambda t: global_std(collection, t),
                *(lambda t, seg=seg: evaluate_seg(seg, t, 0.5) for seg in collection),
                *(lambda t, seg=seg: walk_line_data(seg, t) for seg in collection),
            ]:
                outcome = _read_outcome(lambda: read(table))
                assert outcome == _read_outcome(lambda: read(plain))
                outcomes.add(type(outcome))
    assert outcomes == {str, tuple}  # both the covered and the gapped tables came up


def _retained_bytes(loader, path) -> int:
    """The bytes ``loader(path)``'s result holds, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tables = loader(path)  # held while counted
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_loaded_tables_hold_less_memory_than_tuple_keyed_dicts_on_paper_sized_segs(tmp_path):
    # the shape of the synth-1k benchmark workload: 6-12 nodes of 2-8 images, four metrics
    args = ["synth", "--seed", "5", "--segs", "200", "--nodes", "6", "12", "--images", "2", "8"]
    assert main([*args, "--out", str(tmp_path / "segs"), "--scores-out", str(tmp_path / "scores.csv")]) == 0
    _retained_bytes(load_score_tables, tmp_path / "scores.csv")  # the first call also fills interpreter caches
    new, old = (_retained_bytes(loader, tmp_path / "scores.csv") for loader in (load_score_tables, reference_load))
    assert new < old  # 0.81x on Python 3.11-3.13, 0.96x on 3.10


def test_loaded_tables_of_tiny_segs_hold_at_most_a_quarter_more_memory(tmp_path):
    # the shape of the small-4k benchmark workload: 4000 SEGs of 2-3 one-image nodes, two metrics. Each
    # (SEG, metric) holds a dict, which outweighs the shared key tuples it replaces; Python 3.10's dicts
    # lack the compact entries that 3.11 gives string keys, so each costs more there
    collection = generate_segs(SynthConfig(seed=5, seg_count=4000, nodes_per_seg=(2, 3), images_per_node=(1, 1)))
    write_score_tables([oracle_scores(collection, kind) for kind in ("perfect", "constant")], tmp_path / "scores.csv")
    _retained_bytes(load_score_tables, tmp_path / "scores.csv")
    new, old = (_retained_bytes(loader, tmp_path / "scores.csv") for loader in (load_score_tables, reference_load))
    assert new <= old * (1.25 if sys.version_info >= (3, 11) else 1.45)  # 1.22x-1.23x; 1.42x on 3.10


def test_writer_bytes_equal_the_all_rows_sort(tmp_path):
    config = SynthConfig(seed=4, seg_count=30)
    collection = generate_segs(config)
    oracles = [
        oracle_scores(collection, kind, noise_sigma=config.noise_sigma, seed=4)
        for kind in ("noisy", "perfect", "inverse", "constant")
    ]
    shared = [  # one metric name over two tables, one key in both
        ScoreTable("m", {("s", "b"): 0.5, ("s", "a"): 0.25}),
        ScoreTable("a", {("t", "x"): 1.0}),
        ScoreTable("m", {("r", "z"): 0.75, ("s", "a"): 0.125}),
    ]
    write_score_tables(oracles, tmp_path / "new.csv")
    reference_write(oracles, tmp_path / "old.csv")
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "old.csv").read_bytes()
    assert data.count(b"\r\n") == data.count(b"\n") == 1 + sum(len(t.entries) for t in oracles)
    with pytest.raises(ValidationError, match="^two score tables for metric 'm'$"):
        write_score_tables(shared, tmp_path / "shared.csv")
    assert not (tmp_path / "shared.csv").exists()


@pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
def test_writer_rejects_a_non_finite_score_before_opening_the_file(tmp_path, score):
    tables = [ScoreTable("a", {("s", "x"): 1.0}), ScoreTable("m", {("s", "b"): 0.5, ("s", "c"): score})]
    path = tmp_path / "scores.csv"
    with pytest.raises(ValidationError, match=rf"^metric 'm': non-finite score {score!r} for \('s', 'c'\)$"):
        write_score_tables(tables, path)
    assert not path.exists()


@pytest.mark.parametrize("key", ["ab", ("s", "b", "c"), ("s",), "s", ("s", 1), (b"s", "b"), None])
def test_writer_rejects_a_key_that_is_not_two_strings_before_opening_the_file(tmp_path, key):
    # "ab" once wrote the row a,b,m,1; a 3-tuple raised ValueError with the file cut to its header
    tables = [ScoreTable("a", {("s", "x"): 1.0}), ScoreTable("m", {("s", "b"): 0.5, key: 1.0})]
    path = tmp_path / "scores.csv"
    message = f"metric 'm': key {key!r} is not a (seg_id, image_id) tuple of strings"
    with pytest.raises(ValidationError) as info:
        write_score_tables(tables, path)
    assert str(info.value) == message
    assert not path.exists()


@pytest.mark.parametrize("tables", [[], [ScoreTable("m", {})], [ScoreTable("a", {}), ScoreTable("m", {})]])
def test_writer_rejects_tables_without_scores_before_opening_the_file(tmp_path, tables):
    # a header-only file, which segeval score rejects with "no score rows" (exit 3)
    path = tmp_path / "scores.csv"
    with pytest.raises(ValidationError, match="^no scores to write$"):
        write_score_tables(tables, path)
    assert not path.exists()


def test_missing_scores_listed_in_collection_order():
    seg = chain_seg([1, 1, 1])
    table = ScoreTable(metric_name="m", entries={("chain", "1-0.jpg"): 1.0})
    gaps = missing_scores(collection_of(seg), table)
    assert gaps == [("chain", "0-0.jpg"), ("chain", "2-0.jpg")]


# ---------------------------------------------------------------------------
# oracle scorers end to end


def test_oracle_scorer_fixed_points():
    collection = generate_segs(SynthConfig(seed=41, seg_count=20))
    perfect = oracle_scores(collection, "perfect")
    constant = oracle_scores(collection, "constant")
    inverse = oracle_scores(collection, "inverse")
    for seg in collection:
        assert rank_score(seg, perfect) == 1.0
        assert sep_score(seg, perfect) == 1.0
        assert rank_score(seg, inverse) == -1.0
        assert rank_score(seg, constant) == 0.0
        assert sep_score(seg, constant) == 0.0
    std_c = global_std(collection, constant)
    assert std_c == 0.0
    std_i = global_std(collection, inverse)
    for seg in collection:
        assert delta_score(seg, constant, std_c) == 0.0
        assert delta_score(seg, inverse, std_i) <= 0.0
