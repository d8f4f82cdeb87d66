"""Per-SEG meta-metric values, aggregation, and the score CSV format."""

from __future__ import annotations

import csv
import math
import random

import pytest

from segeval.errors import CoverageError, ParseError, ValidationError
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
from segeval.reporting import walk_line_data
from segeval.synth import SynthConfig, generate_segs, oracle_scores, write_collection
from segeval.walks import enumerate_walks, walk_triples

from conftest import chain_seg, collection_of, make_seg, table_for


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
    walks = enumerate_walks(seg)
    for walk in walks:
        triples = walk_triples(seg, walk)
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
    """The loader as it was before tables shared keys: a fresh key per row."""
    tables = {}
    for lineno, (seg_id, image_id, metric, raw) in read_csv(path, SCORE_CSV_HEADER):
        try:
            score = float(raw)
        except ValueError:
            raise ParseError(f"line {lineno}: score {raw!r} is not a number", source=str(path)) from None
        if not math.isfinite(score):
            raise ParseError(f"line {lineno}: non-finite score {raw!r}", source=str(path))
        bucket = tables.setdefault(metric, {})
        if (seg_id, image_id) in bucket:
            raise ParseError(
                f"line {lineno}: duplicate score for seg {seg_id!r} image {image_id!r} metric {metric!r}",
                source=str(path),
            )
        bucket[(seg_id, image_id)] = score
    return {name: entries for name, entries in sorted(tables.items())}


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


def test_loaded_tables_share_one_key_per_image_and_one_seg_id_string(tmp_path):
    path = tmp_path / "scores.csv"
    args = ["synth", "--seed", "3", "--segs", "40", "--out", str(tmp_path / "segs"), "--scores-out", str(path)]
    assert main(args) == 0
    loaded = load_score_tables(path)
    expected = reference_load(path)
    assert list(loaded) == list(expected) and len(loaded) == 4
    assert all(loaded[name].entries == expected[name] for name in expected)

    first = {key: key for key in next(iter(loaded.values())).entries}
    assert all(first[key] is key for table in loaded.values() for key in table.entries)
    seg_ids = {key[0] for key in first}
    assert len({id(key[0]) for key in first}) == len(seg_ids) == 40


def test_same_image_under_two_metrics_is_accepted_with_one_key(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("seg_id,image_id,metric,score\ns,i,a,1\ns,i,b,0.5\n")
    loaded = load_score_tables(path)
    assert {name: table.entries for name, table in loaded.items()} == reference_load(path)
    (key_a,), (key_b,) = loaded["a"].entries, loaded["b"].entries
    assert key_a is key_b


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
    for tables in (oracles, shared):
        write_score_tables(tables, tmp_path / "new.csv")
        reference_write(tables, tmp_path / "old.csv")
        data = (tmp_path / "new.csv").read_bytes()
        assert data == (tmp_path / "old.csv").read_bytes()
        assert data.count(b"\r\n") == data.count(b"\n") == 1 + sum(len(t.entries) for t in tables)
    assert data.decode().splitlines()[1:] == [
        "t,x,a,1", "r,z,m,0.75", "s,a,m,0.125", "s,a,m,0.25", "s,b,m,0.5",
    ]


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
