"""Correlation matrices, histogram/line plot data, and report emission."""

from __future__ import annotations

import csv
import io
import json
import random

import pytest

from segeval.errors import CoverageError, ValidationError
from segeval import metametrics
from segeval.metametrics import (
    AggregateReport,
    ScoreTable,
    SegMetricResult,
    _SegPlan,
    aggregate,
    evaluate_collection,
)
from segeval.fileio import csv_row
from segeval.reporting import (
    _fmt,
    _line_rows,
    emit_report,
    histogram_data,
    metric_correlation_matrix,
    walk_line_data,
)
from segeval.seg import SegCollection, validate_seg
from segeval.synth import ORACLE_KINDS, SynthConfig, generate_segs, oracle_scores
from segeval.walks import enumerate_walks

from conftest import (
    SEG_FAULTS, assert_raises_the_validators_message, chain_seg, collection_of, make_seg, stacked_diamond, table_for,
)


def result(metric, seg_id, rank, sep=0.5, delta=0.0):
    return SegMetricResult(
        seg_id=seg_id, metric_name=metric, rank=rank, sep=sep, delta=delta,
        walk_count=1, pair_count=1,
    )


def series(metric, values):
    return [result(metric, f"{i:03d}", v) for i, v in enumerate(values)]


# ---------------------------------------------------------------------------
# correlation matrix


def test_metric_with_itself_correlates_at_one():
    results = series("a", [1.0, 0.5, 0.0]) + series("b", [0.2, 0.9, 0.4])
    cm = metric_correlation_matrix(results)
    i = cm.metric_names.index("a")
    assert cm.values[i][i] == 1.0


def test_metric_against_negation_is_minus_one():
    vals = [0.8, 0.1, 0.5, 0.3]
    results = series("m", vals) + series("neg", [-v for v in vals])
    cm = metric_correlation_matrix(results)
    i, j = cm.metric_names.index("m"), cm.metric_names.index("neg")
    assert cm.values[i][j] == -1.0


def test_same_ranking_correlates_at_one():
    results = series("a", [1.0, 0.5, 0.0]) + series("b", [0.9, 0.6, 0.1])
    cm = metric_correlation_matrix(results)
    i, j = cm.metric_names.index("a"), cm.metric_names.index("b")
    assert cm.values[i][j] == 1.0


def test_constant_series_correlates_at_zero_even_with_itself():
    results = series("const", [0.5, 0.5, 0.5]) + series("live", [0.1, 0.2, 0.3])
    cm = metric_correlation_matrix(results)
    i = cm.metric_names.index("const")
    assert all(v == 0.0 for v in cm.values[i])


def test_matrix_symmetric_and_bounded():
    results = (
        series("a", [1.0, 0.5, 0.3, 0.0])
        + series("b", [0.3, 0.5, 0.2, 0.9])
        + series("c", [0.5, 0.5, 0.1, 0.7])
    )
    cm = metric_correlation_matrix(results)
    k = len(cm.metric_names)
    for i in range(k):
        for j in range(k):
            assert cm.values[i][j] == cm.values[j][i]
            assert -1.0 <= cm.values[i][j] <= 1.0


def test_mismatched_seg_coverage_rejected():
    results = series("a", [1.0, 0.5]) + series("b", [0.2, 0.9, 0.4])
    with pytest.raises(ValidationError, match="mismatched SEG coverage"):
        metric_correlation_matrix(results)


# ---------------------------------------------------------------------------
# histogram


def test_histogram_all_in_top_bin():
    rows = histogram_data(series("m", [1.0, 1.0, 1.0]), "m", basis="rank", bin_count=2)
    assert rows == [(-1.0, 0.0, 0), (0.0, 1.0, 3)]


def test_histogram_half_open_bins_with_closed_top():
    rows = histogram_data(series("m", [-1.0, 0.0, 1.0]), "m", basis="rank", bin_count=4)
    counts = [n for _, _, n in rows]
    assert counts == [1, 0, 1, 1]  # 0 falls in the third bin [0, 0.5)


def test_histogram_counts_conserved():
    vals = [-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0]
    rows = histogram_data(series("m", vals), "m", basis="rank", bin_count=5)
    assert sum(n for _, _, n in rows) == len(vals)


def test_histogram_unknown_metric_or_empty_filter_rejected():
    results = series("m", [0.5])
    with pytest.raises(ValidationError, match="no results"):
        histogram_data(results, "nope")


def test_histogram_sep_basis_range():
    results = [result("m", "000", 0.0, sep=0.0), result("m", "001", 0.0, sep=1.0)]
    rows = histogram_data(results, "m", basis="sep", bin_count=2)
    assert rows[0][:2] == (0.0, 0.5)
    assert [n for _, _, n in rows] == [1, 1]


# ---------------------------------------------------------------------------
# walk line data


def test_walk_line_normalizes_by_walk_max():
    seg = chain_seg([1, 1, 1])
    table = table_for(seg, [0.9, 0.5, 0.2])
    (line,) = walk_line_data(seg, table)
    assert line == [(0.0, 0.9), (0.5, 0.5), (1.0, 0.2)]


def test_walk_line_missing_score_names_the_image():
    seg = chain_seg([1, 1])
    table = ScoreTable(metric_name="m", entries={("chain", "0-0.jpg"): 1.0})
    with pytest.raises(CoverageError, match="missing 1 score\\(s\\) on seg chain: 1-0.jpg"):
        walk_line_data(seg, table)


def test_walk_line_two_node_walk():
    seg = chain_seg([1, 1])
    table = table_for(seg, [1.0, 0.0])
    (line,) = walk_line_data(seg, table)
    assert [x for x, _ in line] == [0.0, 1.0]


def test_walk_line_multi_image_node_repeats_rank():
    seg = chain_seg([1, 2])
    table = table_for(seg, [1.0, 0.3, 0.4])
    (line,) = walk_line_data(seg, table)
    assert [x for x, _ in line] == [0.0, 1.0, 1.0]


def test_walk_line_points_match_a_per_walk_reference():
    # node 1 lies on a walk of depth 2 and one of depth 3, so its rank differs per walk
    forked = make_seg(
        nodes=[("0", 0, ["h"]), ("1", 1, ["a", "b"]), ("2", 2, ["c"]), ("3", 3, ["d"])],
        edges=[("0", "1"), ("1", "2"), ("1", "3", 2)],
    )
    synth = generate_segs(
        SynthConfig(seed=11, seg_count=30, nodes_per_seg=(3, 12), branch_probability=0.7)
    )
    for seg in [forked, *synth]:
        table = oracle_scores(SegCollection((seg,)), "noisy", seed=3)
        nodes = {n.id: n for n in seg.nodes}
        expected = []
        for walk in enumerate_walks(seg):
            path = [nodes[node_id] for node_id in walk]
            top = max(node.error_count for node in path)
            expected.append(
                [(node.error_count / top, table.entries[(seg.id, img)]) for node in path for img in node.images]
            )
        assert walk_line_data(seg, table) == expected, seg.id


# ---------------------------------------------------------------------------
# emit_report


def build_run(tmp_path, seed=81):
    collection = generate_segs(SynthConfig(seed=seed, seg_count=6))
    tables = {
        kind: oracle_scores(collection, kind)
        for kind in ("perfect", "noisy", "constant")
    }
    results = []
    for name in sorted(tables):
        results.extend(evaluate_collection(collection, tables[name]))
    report = aggregate(results, collection)
    out = tmp_path / "report"
    written = emit_report(report, results, out, collection=collection, score_tables=tables)
    return out, written, report


def test_emit_report_writes_expected_files(tmp_path):
    out, written, _ = build_run(tmp_path)
    names = {p.name for p in written}
    assert "report.json" in names
    assert "per_seg.csv" in names
    assert "hist_rank_perfect.csv" in names
    assert "hist_sep_noisy.csv" in names
    assert "lines_constant.csv" in names


def test_report_json_schema(tmp_path):
    out, _, _ = build_run(tmp_path)
    data = json.loads((out / "report.json").read_text())
    assert set(data) == {"metrics", "correlations", "seg_count", "subset_counts"}
    perfect = data["metrics"]["perfect"]
    assert perfect["overall"]["rank"] == 1.0
    assert perfect["overall_display"]["rank"] == 100.0
    assert set(perfect["by_subset"]) <= {"synth", "nat", "real"}
    corr = data["correlations"]["rank"]
    assert len(corr["matrix"]) == len(corr["metrics"]) == 3
    # constant series row is all zeros by the degenerate convention
    idx = corr["metrics"].index("constant")
    assert all(v == 0.0 for v in corr["matrix"][idx])


def test_per_seg_csv_shape(tmp_path):
    out, _, report = build_run(tmp_path)
    lines = (out / "per_seg.csv").read_text().splitlines()
    assert lines[0] == "metric,seg_id,subset,rank,sep,delta,walks,pairs"
    assert len(lines) == 1 + 3 * report.seg_count


def test_emission_is_byte_stable(tmp_path):
    out1, written1, _ = build_run(tmp_path / "r1")
    out2, written2, _ = build_run(tmp_path / "r2")
    assert [p.name for p in written1] == [p.name for p in written2]
    for p1, p2 in zip(written1, written2):
        assert p1.read_bytes() == p2.read_bytes()


def test_histogram_counts_in_emitted_files_sum_to_seg_count(tmp_path):
    out, _, report = build_run(tmp_path)
    lines = (out / "hist_rank_noisy.csv").read_text().splitlines()[1:]
    total = sum(int(row.split(",")[2]) for row in lines)
    assert total == report.seg_count


def _lf_row(fields) -> str:
    """A CRLF csv.writer row with its line end made LF; a lone \\r is quoted on every version."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()[:-2] + "\n"


def assert_lines_match_walk_line_data(out, collection, tables):
    """Each lines_*.csv has the bytes csv.writer gives the formatted walk_line_data points."""
    results = [r for name in sorted(tables) for r in evaluate_collection(collection, tables[name])]
    emit_report(aggregate(results, collection), results, out, collection=collection, score_tables=tables)
    for name, table in tables.items():
        rows = [("seg_id", "walk_index", "normalized_rank", "score")]
        rows += (
            (seg.id, w_idx, _fmt(xr), _fmt(sc))
            for seg in collection
            for w_idx, points in enumerate(walk_line_data(seg, table))
            for xr, sc in points
        )
        expected = "".join(map(_lf_row, rows))
        assert (out / f"lines_{name}.csv").read_bytes() == expected.encode("utf-8"), name


@pytest.mark.parametrize("seed", [5, 23, 81])
def test_lines_csv_rows_are_the_formatted_walk_line_points(tmp_path, seed):
    collection = generate_segs(SynthConfig(seed=seed, seg_count=8))
    tables = {
        kind: oracle_scores(collection, kind, seed=seed)
        for kind in ("perfect", "inverse", "noisy")
    }
    assert_lines_match_walk_line_data(tmp_path, collection, tables)


def test_lines_csv_formats_a_negative_zero_score_as_zero(tmp_path):
    seg = chain_seg([1, 2, 2])
    collection = SegCollection((seg,))
    tables = {"m": table_for(seg, [0.5, -0.0, 0.0, 1e-7, -0.0])}
    assert_lines_match_walk_line_data(tmp_path, collection, tables)
    rows = (tmp_path / "lines_m.csv").read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[3] for row in rows[1:]] == ["0.5", "0", "0", "1e-07", "0"]


def test_lines_csv_quotes_odd_seg_ids_as_the_csv_module_does(tmp_path):
    ids = [" leading space", "a,b", 'say "hi"', "two\nlines", "cr\rid", "crlf\r\nid", "plain"]
    segs = [stacked_diamond(2, seg_id=sid) for sid in ids]  # 4 walks each
    scores = [0.9, -0.0, 1 / 3, 0.25, 0.5, 1e-7, 0.7]
    entries = {k: v for seg in segs for k, v in table_for(seg, scores).entries.items()}
    tables = {"m": ScoreTable(metric_name="m", entries=entries)}
    assert_lines_match_walk_line_data(tmp_path, SegCollection(tuple(segs)), tables)


def reference_line_rows(collection, scores):
    """lines_*.csv data rows rendered point by point, straight from each walk's nodes."""
    for seg in collection:
        nodes = {n.id: n for n in seg.nodes}
        sid = csv_row((seg.id, ""))[:-1]
        for w_idx, walk in enumerate(enumerate_walks(seg)):
            path = [nodes[node_id] for node_id in walk]
            top = max(node.error_count for node in path)
            yield "".join(
                f"{sid}{w_idx},{_fmt(node.error_count / top)},{_fmt(scores.entries[(seg.id, img)])}\n"
                for node in path
                for img in node.images
            )


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_line_rows_match_the_point_by_point_rendering(seed):
    synth = generate_segs(
        SynthConfig(seed=seed, seg_count=12, nodes_per_seg=(3, 12), branch_probability=0.7)
    )
    diamonds = [stacked_diamond(k, seg_id=f"d{k}") for k in (1, 3, 5)]
    for collection in (synth, SegCollection(tuple(diamonds))):
        for kind in ("perfect", "noisy", "constant"):
            table = oracle_scores(collection, kind, seed=seed)
            rows = [row for seg in collection for row in _line_rows(_SegPlan(seg), table)]
            assert rows == list(reference_line_rows(collection, table)), kind


def _unvalidated_seg(rng, seg_id):
    """A random DAG from one head whose error counts need not rise and whose nodes may have no images."""
    n = rng.randint(1, 9)
    nodes = [
        (str(i), rng.choice([0, 0, 1, 2, 5]), [f"{i}-{j}" for j in range(rng.choice([0, 1, 1, 3]))])
        for i in range(n)
    ]
    edges = {(str(rng.randrange(i)), str(i)) for i in range(1, n)}  # every node hangs off an earlier one
    edges |= {(str(a), str(b)) for a, b in (sorted(rng.sample(range(n), 2)) for _ in range(n // 2)) if n > 1}
    return make_seg(nodes, sorted(edges), seg_id=seg_id)


def test_a_plan_is_built_for_each_valid_seg_or_raises_its_violations(tmp_path):
    rng = random.Random(41)
    drawn = [("random", _unvalidated_seg(rng, f"u{i:03d}")) for i in range(150)]
    drawn += [("synth", seg) for seg in generate_segs(SynthConfig(seed=41, seg_count=40, nodes_per_seg=(2, 10)))]
    drawn += [("diamond", stacked_diamond(k, seg_id=f"d{k}")) for k in range(1, 6)]
    built, outcomes = [], set()
    for origin, seg in drawn:
        violations = validate_seg(seg).violations
        table = ScoreTable("m", {(seg.id, img): rng.choice([rng.random(), -0.0, 1 / 3]) for img in seg.image_ids()})
        try:
            lines = walk_line_data(seg, table)
        except ValidationError as exc:
            assert exc.violations == violations != [], seg.id
            assert str(exc) == f"seg {seg.id}: {violations[0]}"
            outcomes.add((origin, "rejected"))
            continue
        assert violations == [], seg.id
        outcomes.add((origin, "built"))
        built.append(seg)
        assert type(lines) is list and all(type(line) is list for line in lines)
        sid = csv_row((seg.id, ""))[:-1]
        rows = ["".join(f"{sid}{w_idx},{_fmt(x)},{_fmt(v)}\n" for x, v in line) for w_idx, line in enumerate(lines)]
        assert rows == list(reference_line_rows([seg], table)), seg.id
    assert outcomes == {("random", "rejected"), ("random", "built"), ("synth", "built"), ("diamond", "built")}
    collection = SegCollection(tuple(built))
    entries = {(seg.id, img): rng.choice([rng.random(), -0.0, 1 / 3]) for seg in built for img in seg.image_ids()}
    table = ScoreTable("m", entries)
    results = [SegMetricResult(seg.id, "m", 0.0, 0.0, 0.0, 1, 1) for seg in built]
    emit_report(aggregate(results, collection), results, tmp_path, collection, {"m": table})
    expected = "seg_id,walk_index,normalized_rank,score\n" + "".join(reference_line_rows(collection, table))
    assert (tmp_path / "lines_m.csv").read_text(encoding="utf-8") == expected


def test_walk_line_data_is_a_list_of_lists():
    seg = stacked_diamond(2)
    lines = walk_line_data(seg, table_for(seg, [0.9, 0.7, 0.6, 0.5, 0.3, 0.2, 0.1]))
    assert type(lines) is list and len(lines) == 4
    assert all(type(line) is list and len(line) == 5 for line in lines)
    assert lines[0] == [(0.0, 0.9), (0.25, 0.7), (0.5, 0.5), (0.75, 0.3), (1.0, 0.1)]


REPORT_ENTRY_POINTS = {
    "walk_line_data": lambda seg, table, out: walk_line_data(seg, table),
    "emit_report": lambda seg, table, out: emit_report(  # a tuple, not a SegCollection
        AggregateReport({}, 1, {}), [result("m", seg.id, 0.0)], out, (seg,), {"m": table},
    ),
    "SegCollection": lambda seg, table, out: SegCollection((chain_seg([1, 1], "ok"), seg)),
}


@pytest.mark.parametrize("entry_point", REPORT_ENTRY_POINTS)
def test_a_faulty_seg_raises_the_validators_message(entry_point, tmp_path):
    call = REPORT_ENTRY_POINTS[entry_point]
    for n, (fault, seg) in enumerate(SEG_FAULTS.items()):
        table = table_for(seg, [0.5 + i / 8 for i in range(len(seg.image_ids()))])
        assert_raises_the_validators_message(lambda: call(seg, table, tmp_path / str(n)), seg)
        assert not (tmp_path / str(n)).exists(), fault  # nothing is written, not even the directory


def test_emission_builds_one_plan_per_seg_for_every_lines_file(tmp_path, monkeypatch):
    diamonds = (stacked_diamond(k, seg_id=f"d{k}") for k in range(1, 7))
    collection = collection_of(*generate_segs(SynthConfig(seed=31, seg_count=30)), *diamonds)
    tables = {kind: oracle_scores(collection, kind, seed=31) for kind in ORACLE_KINDS}
    calls = []

    def counting_enumerate_walks(seg):
        calls.append(seg.id)
        return enumerate_walks(seg)

    for tie_mode in ("midrank", "countbelow"):
        results = evaluate_collection(collection, tables.values(), tie_mode)
        report = aggregate(results, collection)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(metametrics, "enumerate_walks", counting_enumerate_walks)
            emit_report(report, results, tmp_path / tie_mode, collection, tables, tie_mode)
        assert calls == [seg.id for seg in collection], tie_mode
        for name, table in tables.items():
            alone = [r for r in results if r.metric_name == name]
            out = tmp_path / f"{tie_mode}_{name}"
            emit_report(aggregate(alone, collection), alone, out, collection, {name: table}, tie_mode)
            lines = f"lines_{name}.csv"
            assert (tmp_path / tie_mode / lines).read_bytes() == (out / lines).read_bytes(), (tie_mode, name)


def test_a_score_table_keyed_by_another_name_is_rejected_before_writing(tmp_path):
    collection = generate_segs(SynthConfig(seed=5, seg_count=3))
    perfect = oracle_scores(collection, "perfect")
    results = evaluate_collection(collection, perfect)
    report = aggregate(results, collection)
    out = tmp_path / "report"
    with pytest.raises(ValidationError, match="score table 'p' holds metric 'perfect'"):
        emit_report(report, results, out, collection=collection, score_tables={"p": perfect})
    assert not out.exists()
    written = emit_report(report, results, out, collection=collection, score_tables={"perfect": perfect})
    assert out / "lines_perfect.csv" in written


@pytest.mark.parametrize("case", ["unknown seg", "duplicate"])
def test_emit_report_rejects_what_aggregate_rejects_before_writing(tmp_path, case):
    collection = generate_segs(SynthConfig(seed=5, seg_count=3))
    tables = {"perfect": oracle_scores(collection, "perfect")}
    results = evaluate_collection(collection, tables.values())
    report = aggregate(results, collection)
    if case == "unknown seg":  # three SEGs' results against a one-SEG collection
        collection, message = SegCollection(collection.segs[:1]), f"result references unknown seg {results[1].seg_id!r}"
    else:
        results, message = results + results[:1], f"duplicate result for seg {results[0].seg_id!r}, metric 'perfect'"
    with pytest.raises(ValidationError) as from_aggregate:
        aggregate(results, collection)
    out = tmp_path / "report"
    with pytest.raises(ValidationError) as exc:
        emit_report(report, results, out, collection=collection, score_tables=tables)
    assert str(exc.value) == str(from_aggregate.value) == message
    assert not out.exists()


@pytest.mark.parametrize("left_out", ["collection", "score_tables"])
def test_emit_report_requires_the_collection_and_the_score_tables(tmp_path, left_out):
    collection = generate_segs(SynthConfig(seed=5, seg_count=3))
    tables = {"perfect": oracle_scores(collection, "perfect")}
    results = evaluate_collection(collection, tables.values())
    inputs = {"collection": collection, "score_tables": tables}
    del inputs[left_out]
    with pytest.raises(TypeError, match=left_out):
        emit_report(aggregate(results, collection), results, tmp_path / "report", **inputs)
    assert list(tmp_path.iterdir()) == []


def test_an_empty_output_path_writes_nothing_in_the_working_directory(tmp_path, monkeypatch):
    collection = generate_segs(SynthConfig(seed=5, seg_count=3))
    tables = {"perfect": oracle_scores(collection, "perfect")}
    results = evaluate_collection(collection, tables.values())
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError, match="'': path does not exist"):
        emit_report(aggregate(results, collection), results, "", collection=collection, score_tables=tables)
    assert list(tmp_path.iterdir()) == []
