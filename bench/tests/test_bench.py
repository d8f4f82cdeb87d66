"""Tests of the benchmark's generators, span arithmetic and patching.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import segeval
import segeval.cli
import segeval.metametrics
import segeval.reporting
import segeval.walks
from segeval import SegCollection, enumerate_walks, oracle_scores, validate_seg

from tracing import Tracer, layer_metrics, span_times
from workloads import (
    ORACLES,
    WORKLOADS,
    call_cli,
    file_digests,
    stacked_diamond,
    write_cost_models,
    write_diamond_inputs,
    write_dsg_inputs,
    write_synth_inputs,
)


def _generate(kind: str, root: Path, seed: int) -> dict[str, str]:
    if kind == "synth":
        write_synth_inputs(root, seed, 20, (6, 12), (2, 8), ORACLES)
        write_cost_models(root / "costs.json", seed, ORACLES)
    elif kind == "small":
        write_synth_inputs(root, seed, 50, (2, 3), (1, 1), ("perfect", "constant"))
    elif kind == "diamond":
        write_diamond_inputs(root, seed, 12)
    else:
        write_dsg_inputs(root, seed, 64, 8)
    return file_digests(root)


@pytest.mark.parametrize("kind", ["synth", "small", "diamond", "dsg"])
def test_generators_give_same_bytes_for_same_seed(tmp_path, kind):
    first = _generate(kind, tmp_path / "a", 7)
    again = _generate(kind, tmp_path / "b", 7)
    other = _generate(kind, tmp_path / "c", 8)
    assert first and first == again
    assert first != other


def test_diamond_walk_count_is_two_to_the_k():
    for k in (1, 5, 12):
        seg = stacked_diamond(3, k)
        assert validate_seg(seg).ok
        assert len(seg.nodes) == 3 * k + 1
        assert len(enumerate_walks(seg)) == 2**k


def test_dsg_expected_scores_match_accumulate(tmp_path):
    expected = write_dsg_inputs(tmp_path, 5, 40, 8)
    graphs = segeval.load_question_graphs(tmp_path / "questions.json")
    answers = segeval.load_answer_table(tmp_path / "answers.csv")
    table = segeval.accumulate_scores(graphs, answers, "dsg")
    assert dict(table.entries) == expected
    assert len(set(expected.values())) > 1


def test_self_time_on_hand_built_span_tree():
    names = ["a", "b", "c"]
    # a [0, 10] -> b [1, 4] -> c [2, 3];  a -> b [5, 9] -> c [6, 8]
    # then a second tree, a [20, 30] -> c [21, 26], whose parent lies before lo
    name_of = [0, 1, 2, 1, 2, 0, 2]
    parent = [-1, 0, 1, 0, 3, -1, 5]
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 20.0, 21.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0, 30.0, 26.0]
    t = span_times(names, name_of, parent, start, end, 0, 5)
    assert t.total == {"a": 10.0, "b": 7.0, "c": 3.0}
    assert t.self_time == {"a": 3.0, "b": 4.0, "c": 3.0}
    assert t.calls == {"a": 1, "b": 2, "c": 2}
    tail = span_times(names, name_of, parent, start, end, 6)
    assert tail.self_time == {"c": 5.0}
    whole = span_times(names, name_of, parent, start, end)
    assert whole.self_time["a"] == 3.0 + 5.0


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def _parents_of(tr: Tracer, child: str) -> set[str]:
    return {
        tr.names[tr.name_of[tr.parent[i]]]
        for i in range(tr.span_count())
        if tr.names[tr.name_of[i]] == child and tr.parent[i] >= 0
    }


def test_patching_reaches_every_import_site(tracer):
    seg = stacked_diamond(1, 3)
    table = oracle_scores(SegCollection((seg,)), "noisy", seed=1)
    segeval.metametrics.rank_score(seg, table)
    segeval.reporting.walk_line_data(seg, table)
    assert _parents_of(tracer, "walks.enumerate_walks") == {
        "metametrics.rank_score",
        "reporting.walk_line_data",
    }
    assert segeval.enumerate_walks is segeval.walks.enumerate_walks
    assert segeval.cli._COMMANDS["score"] is segeval.cli.cmd_score


def test_uninstall_restores_originals():
    before = (
        segeval.walks.enumerate_walks,
        segeval.metametrics.enumerate_walks,
        segeval.reporting.enumerate_walks,
        segeval.cli._COMMANDS["score"],
        segeval.scorers.AnswerTable.answers_for,
    )
    tr = Tracer()
    tr.install()
    assert segeval.metametrics.enumerate_walks is not before[1]
    tr.uninstall()
    after = (
        segeval.walks.enumerate_walks,
        segeval.metametrics.enumerate_walks,
        segeval.reporting.enumerate_walks,
        segeval.cli._COMMANDS["score"],
        segeval.scorers.AnswerTable.answers_for,
    )
    assert after == before
    assert not hasattr(before[1], "__wrapped__")


def test_traced_counts_of_a_score_command(tmp_path, tracer):
    k = 4
    write_diamond_inputs(tmp_path / "in", 2, k)
    argv = [
        "score",
        "--segs", str(tmp_path / "in" / "segs"),
        "--scores", str(tmp_path / "in" / "scores.csv"),
        "--out", str(tmp_path / "out"),
    ]
    assert call_cli(argv).code == 0
    times = span_times(tracer.names, tracer.name_of, tracer.parent, tracer.start, tracer.end)
    m = layer_metrics(times, tracer)
    walks, edges, metrics = 2**k, 4 * k, len(ORACLES)
    assert m["seg.files"] == 1
    assert m["metametrics.evaluate_seg_calls"] == metrics
    assert m["metametrics.score_rows"] == metrics * (3 * k + 1)
    assert m["stats.ks_calls"] == metrics * walks * 2 * k  # per-walk pairs
    assert m["stats.ks_reuse_ratio"] == edges / (walks * 2 * k)
    assert m["stats.spearman_calls"] >= metrics * walks
    assert m["walks.walks_enumerated"] == m["walks.enumerate_calls"] * walks
    assert m["walks.reuse_ratio"] == 1 / m["walks.enumerate_calls"]
    assert m["reporting.files_written"] == len(list((tmp_path / "out").iterdir()))
    assert m["cli.self_s"] > 0


def test_workloads_have_distinct_names_and_one_line_reasons():
    assert list(WORKLOADS) == ["synth-1k", "diamond-12", "small-4k", "dsg-4k"]
    for w in WORKLOADS.values():
        assert "\n" not in w.why and len(w.why) <= 200
