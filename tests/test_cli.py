"""End-to-end CLI behaviour: subcommands, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import segeval

from segeval.cli import (
    EXIT_COVERAGE,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    _build_parser,
    main,
)
from segeval.metametrics import ScoreTable, write_score_tables
from segeval.seg import load_segs, seg_to_dict, write_seg_file
from segeval.synth import SynthConfig, generate_segs, oracle_scores, write_collection

from conftest import chain_seg, make_seg, stacked_diamond, table_for


@pytest.fixture
def workspace(tmp_path):
    """10 synthetic SEGs plus oracle score tables on disk."""
    seg_dir = tmp_path / "segs"
    collection = generate_segs(SynthConfig(seed=4, seg_count=10))
    write_collection(collection, seg_dir)
    scores = tmp_path / "scores.csv"
    tables = [
        oracle_scores(collection, kind) for kind in ("perfect", "inverse", "constant", "noisy")
    ]
    write_score_tables(tables, scores)
    return tmp_path, seg_dir, scores, collection


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(workspace, capsys):
    _, seg_dir, _, _ = workspace
    assert main(["validate", str(seg_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "valid" in out


def test_validate_reports_violation_with_file_and_message(tmp_path, capsys):
    bad = make_seg(
        nodes=[("0", 0, ["a"]), ("1", 1, ["b"]), ("2", 3, ["c"])],
        edges=[("0", "1"), ("1", "2")],
        seg_id="bad",
    )
    path = tmp_path / "bad.json"
    write_seg_file(bad, path)
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "bad.json" in out
    assert "error_count mismatch at node 2: expected 2" in out


def test_validate_empty_directory(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["validate", str(empty)]) == EXIT_PARSE
    assert "no SEG files found" in capsys.readouterr().err


def test_validate_malformed_json(tmp_path, capsys):
    (tmp_path / "x.json").write_text("{oops")
    assert main(["validate", str(tmp_path)]) == EXIT_PARSE


def test_a_seg_file_holding_an_array_exits_3(tmp_path, capsys):
    (tmp_path / "x.json").write_text('[{"id": "s"}]')
    assert main(["validate", str(tmp_path)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"PARSE ERROR {tmp_path / 'x.json'}: top-level value must be an object\n"
    code = main(["score", "--segs", str(tmp_path), "--scores", "scores.csv", "--out", str(tmp_path / "r")])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {tmp_path / 'x.json'}: top-level value must be an object\n"


@pytest.mark.parametrize(
    "argv",
    [["validate", ""], ["validate", "0000.json", ""], ["score", "--segs", "", "--scores", "scores.csv", "--out", "out"]],
)
def test_empty_path_exits_6_in_a_directory_with_a_valid_seg(tmp_path, monkeypatch, capsys, argv):
    seg = chain_seg([1, 1], seg_id="0000")
    write_seg_file(seg, tmp_path / "0000.json")
    write_score_tables([table_for(seg, [1.0, 0.0])], tmp_path / "scores.csv")
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "."]) == EXIT_OK
    capsys.readouterr()
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err == "error: '': path does not exist\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--segs", "{segs}", "--scores", "{scores}", "--out", ""],
        ["synth", "--seed", "1", "--segs", "2", "--out", ""],
        ["synth", "--seed", "1", "--segs", "2", "--out", "{synth}", "--scores-out", ""],
        ["accumulate", "--mode", "dsg", "--questions", "{questions}", "--answers", "{answers}", "--out", ""],
        ["pareto", "--report", "{report}", "--costs", "{costs}", "--out", ""],
    ],
    ids=["score-out", "synth-out", "synth-scores-out", "accumulate-out", "pareto-out"],
)
def test_an_empty_output_path_exits_6_and_writes_nothing(
    workspace, qa_files, pareto_files, tmp_path, monkeypatch, capsys, argv
):
    _, seg_dir, scores, _ = workspace
    (questions, answers), (report, costs) = qa_files, pareto_files
    paths = dict(segs=seg_dir, scores=scores, synth=tmp_path / "synth", questions=questions, answers=answers,
                 report=report, costs=costs)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main([arg.format(**paths) for arg in argv]) == EXIT_IO
    assert capsys.readouterr().err == "error: '': path does not exist\n"
    assert list(cwd.iterdir()) == [] and not paths["synth"].exists()


def test_validate_and_score_reject_a_seg_id_repeated_across_files(tmp_path, capsys):
    seg_dir = tmp_path / "segs"
    seg_dir.mkdir()
    seg = chain_seg([1, 1], seg_id="0000")
    write_seg_file(seg, seg_dir / "a.json")
    write_seg_file(seg, seg_dir / "b.json")
    scores = tmp_path / "scores.csv"
    write_score_tables([table_for(seg, [1.0, 0.0])], scores)
    assert main(["validate", str(seg_dir)]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert f"OK {seg_dir / 'a.json'}" in out
    assert f"INVALID {seg_dir / 'b.json'}: duplicate seg id '0000' (already defined in {seg_dir / 'a.json'})" in out
    assert "1 violation(s) across 2 file(s)" in out
    assert main(["validate", str(seg_dir / "a.json"), str(seg_dir / "a.json")]) == EXIT_OK  # one file, named twice
    assert "all 1 file(s) valid" in capsys.readouterr().out
    assert main(["score", "--segs", str(seg_dir), "--scores", str(scores), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "WARN " not in err  # a failing load prints only its error
    assert "error: 1 validation violation(s)\n" in err
    assert f"  {seg_dir / 'b.json'}: seg 0000: duplicate seg id '0000' (already defined in {seg_dir / 'a.json'})\n" in err


def _seg_dir_with_notes(tmp_path):
    """Two valid SEG files; a.json holds unknown fields at every level and too few images.

    Returns the directory, a score CSV covering it, and a.json's expected `WARN` lines in order.
    """
    seg_dir = tmp_path / "segs"
    seg_dir.mkdir()
    a, b = chain_seg([1, 1], seg_id="a"), chain_seg([2, 2], seg_id="b")
    data = {"zeta": 1, **seg_to_dict(a), "alpha": 2}
    data["nodes"][1]["extra"] = 3
    data["edges"][0]["note"] = "x"
    (seg_dir / "a.json").write_text(json.dumps(data), encoding="utf-8")
    write_seg_file(b, seg_dir / "b.json")
    scores = tmp_path / "scores.csv"
    write_score_tables([ScoreTable("m", {**table_for(a, [1.0, 0.0]).entries, **table_for(b, [1.0, 0.9, 0.1, 0.0]).entries})], scores)
    expected = [
        f"WARN {seg_dir / 'a.json'}: {w}"
        for w in (
            "seg: ignoring unknown field 'zeta'",
            "seg: ignoring unknown field 'alpha'",
            "nodes[1]: ignoring unknown field 'extra'",
            "edges[0]: ignoring unknown field 'note'",
            "total image count 2 outside expected range [4, 76]",
        )
    ]
    return seg_dir, scores, expected


def _warn_lines(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("WARN ")]


def test_validate_score_and_load_segs_give_the_same_warnings_unknown_fields_first(tmp_path, capsys):
    seg_dir, scores, expected = _seg_dir_with_notes(tmp_path)
    assert main(["validate", str(seg_dir)]) == EXIT_OK
    validate_err = capsys.readouterr().err
    assert main(["score", "--segs", str(seg_dir), "--scores", str(scores), "--out", str(tmp_path / "rep")]) == EXIT_OK
    score = capsys.readouterr()
    assert _warn_lines(validate_err) == _warn_lines(score.err) == expected
    assert "WARN" not in score.out
    collection, warnings = load_segs(seg_dir)
    assert [s.id for s in collection] == ["a", "b"]
    assert ["WARN " + w for w in warnings] == expected


def test_python_warning_filters_leave_validate_and_score_alone(tmp_path):
    seg_dir, scores, expected = _seg_dir_with_notes(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(segeval.__file__).resolve().parents[1]))
    for argv in (["validate", str(seg_dir)], ["score", "--segs", str(seg_dir), "--scores", str(scores), "--out", str(tmp_path / "rep")]):
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "segeval.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == EXIT_OK, result.stderr
        assert "Traceback" not in result.stderr
        assert _warn_lines(result.stderr) == expected


# ---------------------------------------------------------------------------
# score


def test_score_perfect_oracle_prints_100(workspace, capsys):
    tmp_path, seg_dir, scores, _ = workspace
    out_dir = tmp_path / "report"
    code = main(
        ["score", "--segs", str(seg_dir), "--scores", str(scores), "--metric", "perfect",
         "--out", str(out_dir)]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "100.00" in out
    assert (out_dir / "report.json").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["metrics"]["perfect"]["overall"]["rank"] == 1.0


def test_score_countbelow_penalizes_ties(tmp_path, capsys):
    # errors (0,1,1,2) with scores (1,0.5,0.5,0): midrank 100.00, countbelow 89.47
    seg = chain_seg([1, 2, 1], seg_id="ties")
    seg_dir = tmp_path / "segs"
    seg_dir.mkdir()
    write_seg_file(seg, seg_dir / "ties.json")
    scores = tmp_path / "scores.csv"
    write_score_tables([table_for(seg, [1.0, 0.5, 0.5, 0.0])], scores)

    out1 = tmp_path / "mid"
    assert main(["score", "--segs", str(seg_dir), "--scores", str(scores), "--out", str(out1)]) == EXIT_OK
    assert "100.00" in capsys.readouterr().out

    out2 = tmp_path / "cb"
    assert (
        main(
            ["score", "--segs", str(seg_dir), "--scores", str(scores),
             "--tie-mode", "countbelow", "--out", str(out2)]
        )
        == EXIT_OK
    )
    assert "89.47" in capsys.readouterr().out


def test_score_constant_scorer_has_zero_delta(tmp_path, capsys):
    # node means of 0.1 over 3, 1 and 2 images differ by an ulp; with a
    # nonzero spread of 1.4e-17 that once gave delta 0.5
    seg = chain_seg([3, 1, 2], seg_id="flat")
    write_seg_file(seg, tmp_path / "flat.json")
    scores = tmp_path / "scores.csv"
    write_score_tables([table_for(seg, [0.1] * 6, metric="flat")], scores)
    out = tmp_path / "rep"
    assert main(["score", "--segs", str(tmp_path / "flat.json"), "--scores", str(scores), "--out", str(out)]) == EXIT_OK
    assert "50.00" not in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["flat"]["overall"]["delta"] == 0.0
    assert (out / "per_seg.csv").read_text().splitlines()[1] == "flat,flat,synth,0,0,0,1,2"


def test_score_constant_seg_beside_a_varied_one_has_zero_delta(tmp_path, capsys):
    flat = chain_seg([3, 1, 2], seg_id="flat")
    other = chain_seg([1, 1], seg_id="other")
    seg_dir = tmp_path / "segs"
    seg_dir.mkdir()
    write_seg_file(flat, seg_dir / "flat.json")
    write_seg_file(other, seg_dir / "other.json")
    scores = tmp_path / "scores.csv"
    both = {**table_for(flat, [0.1] * 6).entries, **table_for(other, [0.9, 0.2]).entries}
    write_score_tables([ScoreTable("m", both)], scores)
    out = tmp_path / "rep"
    assert main(["score", "--segs", str(seg_dir), "--scores", str(scores), "--out", str(out)]) == EXIT_OK
    assert f"WARN {seg_dir / 'other.json'}: total image count 2 outside expected range [4, 76]\n" in capsys.readouterr().err
    rows = (out / "per_seg.csv").read_text().splitlines()
    assert "m,flat,synth,0,0,0,1,2" in rows


def test_score_pair_mode_changes_pair_count_not_walk_count(workspace):
    tmp_path, seg_dir, scores, _ = workspace
    rows = {}
    for mode, tag in (("per-walk", "pw"), ("unique-edge", "ue")):
        out_dir = tmp_path / f"rep_{tag}"
        assert (
            main(
                ["score", "--segs", str(seg_dir), "--scores", str(scores), "--metric", "perfect",
                 "--pair-mode", mode, "--out", str(out_dir)]
            )
            == EXIT_OK
        )
        lines = (out_dir / "per_seg.csv").read_text().splitlines()[1:]
        rows[tag] = {
            parts[1]: (int(parts[6]), int(parts[7]))
            for parts in (line.split(",") for line in lines)
        }
    for seg_id in rows["pw"]:
        walks_pw, pairs_pw = rows["pw"][seg_id]
        walks_ue, pairs_ue = rows["ue"][seg_id]
        assert walks_pw == walks_ue
        assert pairs_ue <= pairs_pw


def test_score_subset_filter(workspace, capsys):
    tmp_path, seg_dir, scores, collection = workspace
    out_dir = tmp_path / "subset"
    code = main(
        ["score", "--segs", str(seg_dir), "--scores", str(scores), "--metric", "perfect",
         "--subset", "synth", "--out", str(out_dir)]
    )
    assert code == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    n_synth = sum(1 for s in collection if s.subset == "synth")
    assert report["seg_count"] == n_synth


def test_score_subset_without_segs_exits_4(tmp_path, capsys):
    seg = chain_seg([2, 2], seg_id="s", subset="synth")
    write_seg_file(seg, tmp_path / "s.json")
    write_score_tables([table_for(seg, [1.0, 0.9, 0.1, 0.0])], tmp_path / "scores.csv")
    argv = ["score", "--segs", str(tmp_path / "s.json"), "--scores", str(tmp_path / "scores.csv")]
    assert main([*argv, "--subset", "nat", "--out", str(tmp_path / "r")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: no SEGs in subset 'nat'\n"
    assert not (tmp_path / "r").exists()


def test_score_header_only_score_csv_exits_3(workspace, capsys):
    tmp_path, seg_dir, scores, _ = workspace
    scores.write_text("seg_id,image_id,metric,score\n")
    code = main(["score", "--segs", str(seg_dir), "--scores", str(scores), "--out", str(tmp_path / "r")])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {scores}: no score rows\n"
    assert not (tmp_path / "r").exists()


def test_score_coverage_gap_lists_missing(workspace, capsys):
    tmp_path, seg_dir, scores, collection = workspace
    # drop one image's scores
    lines = scores.read_text().splitlines()
    victim = lines[1].rsplit(",", 1)[0]
    scores.write_text("\n".join(line for line in lines if not line.startswith(victim)) + "\n")
    out_dir = tmp_path / "report"
    code = main(["score", "--segs", str(seg_dir), "--scores", str(scores), "--out", str(out_dir)])
    assert code == EXIT_COVERAGE
    assert "missing" in capsys.readouterr().err


def test_score_coverage_gap_of_more_than_20_images_lists_20_and_counts_the_rest(workspace, capsys):
    tmp_path, seg_dir, scores, collection = workspace
    lines = scores.read_text().splitlines()
    kept = [lines[0], next(line for line in lines if line.split(",")[2] == "perfect")]
    scores.write_text("\n".join(kept) + "\n")  # one image of the whole collection is scored
    code = main(["score", "--segs", str(seg_dir), "--scores", str(scores), "--out", str(tmp_path / "r")])
    assert code == EXIT_COVERAGE
    err = capsys.readouterr().err.splitlines()
    gaps = sum(len(seg.image_ids()) for seg in collection) - 1
    assert gaps > 20
    assert [line.startswith("  missing: ") for line in err[1:]] == [True] * 20 + [False]
    assert err[-1] == f"  ... and {gaps - 20} more"


def test_score_unknown_metric_flag(workspace, capsys):
    tmp_path, seg_dir, scores, _ = workspace
    code = main(
        ["score", "--segs", str(seg_dir), "--scores", str(scores), "--metric", "nope",
         "--out", str(tmp_path / "r")]
    )
    assert code == EXIT_USAGE
    assert "nope" in capsys.readouterr().err


def test_parser_is_built_once_and_keeps_no_state_between_calls(workspace):
    tmp_path, seg_dir, scores, _ = workspace
    argv = ["score", "--segs", str(seg_dir), "--scores", str(scores), "--out"]
    assert main([*argv, str(tmp_path / "one"), "--metric", "perfect"]) == EXIT_OK
    assert main([*argv, str(tmp_path / "all")]) == EXIT_OK
    assert _build_parser() is _build_parser()
    metrics = {d: set(json.loads((tmp_path / d / "report.json").read_text())["metrics"]) for d in ("one", "all")}
    assert metrics == {"one": {"perfect"}, "all": {"constant", "inverse", "noisy", "perfect"}}


def test_score_is_deterministic(workspace):
    tmp_path, seg_dir, scores, _ = workspace
    outs = []
    for tag in ("r1", "r2"):
        out_dir = tmp_path / tag
        assert main(["score", "--segs", str(seg_dir), "--scores", str(scores), "--out", str(out_dir)]) == EXIT_OK
        outs.append(out_dir)
    for name in ("report.json", "per_seg.csv", "hist_rank_perfect.csv", "lines_noisy.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# ---------------------------------------------------------------------------
# accumulate


@pytest.fixture
def qa_files(tmp_path):
    questions = tmp_path / "q.json"
    questions.write_text(
        json.dumps(
            {
                "prompt_id": "0001",
                "questions": [
                    {"id": "q1", "parent_ids": [], "expected_answer": "yes"},
                    {"id": "q2", "parent_ids": ["q1"], "expected_answer": "yes"},
                    {"id": "q3", "parent_ids": ["q2"], "expected_answer": "yes"},
                ],
            }
        )
    )
    answers = tmp_path / "a.csv"
    answers.write_text(
        "seg_id,image_id,question_id,answer\n"
        "0001,i1,q1,yes\n0001,i1,q2,no\n0001,i1,q3,yes\n"
        "0001,i2,q1,yes\n0001,i2,q2,yes\n0001,i2,q3,yes\n"
    )
    return questions, answers


def test_accumulate_tifa_and_dsg(qa_files, tmp_path, capsys):
    questions, answers = qa_files
    out_t = tmp_path / "tifa.csv"
    out_d = tmp_path / "dsg.csv"
    assert main(["accumulate", "--mode", "tifa", "--questions", str(questions), "--answers", str(answers), "--out", str(out_t)]) == EXIT_OK
    assert main(["accumulate", "--mode", "dsg", "--questions", str(questions), "--answers", str(answers), "--out", str(out_d)]) == EXIT_OK
    from segeval.metametrics import load_score_tables

    tifa = load_score_tables(out_t)["0001-tifa-acc"]
    dsg = load_score_tables(out_d)["0001-dsg-acc"]
    assert tifa.entries[("0001", "i1")] == pytest.approx(2 / 3)
    assert dsg.entries[("0001", "i1")] == pytest.approx(1 / 3)  # only q1 survives gating
    assert tifa.entries[("0001", "i2")] == 1.0
    assert dsg.entries[("0001", "i2")] == 1.0
    for key in tifa.entries:
        assert dsg.entries[key] <= tifa.entries[key]


def test_accumulate_missing_answers(qa_files, tmp_path, capsys):
    questions, answers = qa_files
    answers.write_text("seg_id,image_id,question_id,answer\n0001,i1,q1,yes\n")
    code = main(["accumulate", "--mode", "dsg", "--questions", str(questions), "--answers", str(answers), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_COVERAGE


@pytest.mark.parametrize("mode", ["tifa", "dsg"])
def test_accumulate_header_only_answer_csv_exits_3(qa_files, tmp_path, capsys, mode):
    questions, answers = qa_files
    answers.write_text("seg_id,image_id,question_id,answer\n")
    out = tmp_path / "o.csv"
    code = main(["accumulate", "--mode", mode, "--questions", str(questions), "--answers", str(answers), "--out", str(out)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {answers}: no answer rows\n"
    assert not out.exists()


def test_accumulate_seg_matching_no_graph_exits_5(qa_files, tmp_path, capsys):
    questions, answers = qa_files
    graph = json.loads(questions.read_text())
    questions.write_text(json.dumps([{**graph, "prompt_id": "0002"}, {**graph, "prompt_id": "0003"}]))
    out = tmp_path / "o.csv"
    code = main(["accumulate", "--mode", "tifa", "--questions", str(questions), "--answers", str(answers), "--out", str(out)])
    assert code == EXIT_COVERAGE
    assert capsys.readouterr().err == "error: no question graph with prompt_id '0001' for seg '0001'\n"
    assert not out.exists()


def test_accumulate_cyclic_questions(tmp_path):
    questions = tmp_path / "q.json"
    questions.write_text(
        json.dumps(
            {
                "prompt_id": "p",
                "questions": [
                    {"id": "a", "parent_ids": ["b"], "expected_answer": "y"},
                    {"id": "b", "parent_ids": ["a"], "expected_answer": "y"},
                ],
            }
        )
    )
    answers = tmp_path / "a.csv"
    answers.write_text("seg_id,image_id,question_id,answer\ns,i,a,y\ns,i,b,y\n")
    code = main(["accumulate", "--mode", "dsg", "--questions", str(questions), "--answers", str(answers), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("questions", [5, {"id": "q1"}, []])
def test_accumulate_malformed_questions_field_is_a_parse_error(qa_files, tmp_path, capsys, questions):
    q_path, answers = qa_files
    q_path.write_text(json.dumps({"prompt_id": "0001", "questions": questions}))
    code = main(["accumulate", "--mode", "dsg", "--questions", str(q_path), "--answers", str(answers), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_PARSE
    assert "field 'questions' must be a non-empty list" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


# ---------------------------------------------------------------------------
# pareto


@pytest.fixture
def pareto_files(tmp_path):
    report = tmp_path / "report.json"
    report.write_text(
        json.dumps(
            {
                "metrics": {
                    "clip-style": {"overall": {"rank": 0.714, "sep": 0.9, "delta": 0.9}},
                    "vqa-flat": {"overall": {"rank": 0.765, "sep": 0.85, "delta": 1.0}},
                    "vqa-gated": {"overall": {"rank": 0.796, "sep": 0.84, "delta": 1.1}},
                }
            }
        )
    )
    costs = tmp_path / "costs.json"
    costs.write_text(
        json.dumps(
            [
                {"metric": "clip-style", "stages": [{"calls": 2, "tokens_per_call": 1, "model_params": 1.51e8}]},
                {"metric": "vqa-flat", "stages": [{"calls": 8, "tokens_per_call": 20, "model_params": 7e11}]},
                {"metric": "vqa-gated", "stages": [{"calls": 5, "tokens_per_call": 15, "model_params": 4e12}]},
            ]
        )
    )
    return report, costs


def test_pareto_frontier_from_report(pareto_files, tmp_path, capsys):
    report, costs = pareto_files
    out = tmp_path / "frontier.csv"
    code = main(["pareto", "--report", str(report), "--costs", str(costs), "--basis", "rank", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "metric,quality,cost_flops"
    assert len(lines) == 4  # quality and cost both increase: all on frontier
    assert "3 of 3" in capsys.readouterr().out


def test_pareto_single_metric(tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"metrics": {"solo": {"overall": {"rank": 0.5, "sep": 0.5, "delta": 0.5}}}}))
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps({"metric": "solo", "stages": [{"calls": 1, "tokens_per_call": 1, "model_params": 100}]}))
    out = tmp_path / "f.csv"
    assert main(["pareto", "--report", str(report), "--costs", str(costs), "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 2


def test_pareto_missing_cost_model_names_metric(pareto_files, tmp_path, capsys):
    report, costs = pareto_files
    costs.write_text(
        json.dumps({"metric": "clip-style", "stages": [{"calls": 2, "tokens_per_call": 1, "model_params": 1.51e8}]})
    )
    code = main(["pareto", "--report", str(report), "--costs", str(costs), "--out", str(tmp_path / "f.csv")])
    assert code == EXIT_COVERAGE
    err = capsys.readouterr().err
    assert "vqa-flat" in err and "vqa-gated" in err


def test_pareto_basis_missing_from_the_report_exits_3(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"metrics": {"solo": {"overall": {"rank": 0.5, "delta": 0.5}}}}))
    out = tmp_path / "f.csv"
    code = main(["pareto", "--report", str(report), "--costs", str(report), "--basis", "sep", "--out", str(out)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {report}: metric 'solo' has no overall 'sep' value\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1]", "report has no 'metrics' section"),
        ('{"metrics": {"m": 5}}', "must be objects"),
        ('{"metrics": {"m": {"overall": [0.5]}}}', "must be objects"),
        ('{"metrics": {"m": {"overall": {"rank": "high"}}}}', "'high' is not a finite number"),
        ('{"metrics": {"m": {"overall": {"rank": null}}}}', "None is not a finite number"),
        ('{"metrics": {"m": {"overall": {"rank": "nan"}}}}', "'nan' is not a finite number"),
        ('{"metrics": {"m": {"overall": {"rank": NaN}}}}', "nan is not a finite number"),
        ('{"metrics": {"m": {"overall": {"rank": true}}}}', "True is not a finite number"),
        ('{"metrics": {"m": {"overall": {"rank": 1%s}}}}' % ("0" * 400), "is not a finite number"),
    ],
    ids=["not-an-object", "entry", "overall", "string", "null", "nan-string", "nan", "bool", "huge-int"],
)
def test_pareto_report_that_is_not_an_object(tmp_path, capsys, text, message):
    report = tmp_path / "report.json"
    report.write_text(text)
    code = main(["pareto", "--report", str(report), "--costs", str(report), "--out", str(tmp_path / "f.csv")])
    assert code == EXIT_PARSE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "stage",
    [
        {"calls": 1, "tokens_per_call": 1, "model_params": 10**400},
        {"calls": 10**400, "tokens_per_call": 1, "model_params": 100},
        {"calls": 10**200, "tokens_per_call": 1, "model_params": 1e300},
    ],
    ids=["params-401-digits", "calls-401-digits", "infinite-flops"],
)
def test_pareto_cost_model_whose_flops_overflow_exits_3(pareto_files, tmp_path, capsys, stage):
    report, costs = pareto_files
    models = json.loads(costs.read_text())
    models[1]["stages"] = [stage]
    costs.write_text(json.dumps(models))
    code = main(["pareto", "--report", str(report), "--costs", str(costs), "--out", str(tmp_path / "f.csv")])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"{costs}: cost model for 'vqa-flat': FLOPs per image overflow a float" in err
    assert "Traceback" not in err and not (tmp_path / "f.csv").exists()


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_files_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        assert main(["synth", "--seed", "1", "--segs", "5", "--out", str(out)]) == EXIT_OK
    files1 = sorted(p.name for p in out1.glob("*.json"))
    files2 = sorted(p.name for p in out2.glob("*.json"))
    assert files1 == files2 and len(files1) == 5
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_synth_generated_files_validate(tmp_path, capsys):
    out = tmp_path / "segs"
    assert main(["synth", "--seed", "3", "--segs", "4", "--out", str(out)]) == EXIT_OK
    assert main(["validate", str(out)]) == EXIT_OK


def test_synth_oracle_scores_roundtrip(tmp_path):
    out = tmp_path / "segs"
    scores = tmp_path / "scores.csv"
    assert (
        main(["synth", "--seed", "3", "--segs", "4", "--out", str(out), "--scores-out", str(scores)])
        == EXIT_OK
    )
    rep = tmp_path / "rep"
    assert main(["score", "--segs", str(out), "--scores", str(scores), "--out", str(rep)]) == EXIT_OK
    report = json.loads((rep / "report.json").read_text())
    assert report["metrics"]["perfect"]["overall"]["rank"] == 1.0
    assert report["metrics"]["constant"]["overall"]["rank"] == 0.0


def test_synth_bad_config(tmp_path, capsys):
    code = main(["synth", "--seed", "1", "--segs", "2", "--nodes", "9", "3", "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_synth_rejects_a_non_finite_noise_sigma(tmp_path, capsys, sigma):
    out = tmp_path / "x"
    argv = ["synth", "--seed", "1", "--segs", "3", "--out", str(out), "--scores-out", str(tmp_path / "s.csv")]
    assert main([*argv, "--noise-sigma", sigma]) == EXIT_USAGE
    assert f"error: noise_sigma must be finite and >= 0, got {sigma}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# graphs deeper than the interpreter's recursion limit


def test_validate_deep_chain(tmp_path):
    path = tmp_path / "deep.json"
    write_seg_file(chain_seg([1] * 3000), path)
    assert main(["validate", str(path)]) == EXIT_OK


def test_score_deep_chain_ranks_strictly_decreasing_scores_at_one(tmp_path, capsys):
    seg = chain_seg([1] * 1500)
    write_seg_file(seg, tmp_path / "deep.json")
    scores = tmp_path / "scores.csv"
    write_score_tables([table_for(seg, [1.0 - i / 1500 for i in range(1500)])], scores)
    out = tmp_path / "rep"
    assert main(["score", "--segs", str(tmp_path / "deep.json"), "--scores", str(scores), "--out", str(out)]) == EXIT_OK
    assert "total image count 1500 outside expected range [4, 76]\n" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["m"]["overall"]["rank"] == 1.0


def test_validate_and_score_reject_a_walk_explosion_quickly(tmp_path, capsys):
    # 20 stacked diamonds: 61 nodes and 2^20 walks, which scoring would enumerate
    seg = stacked_diamond(20)
    path = tmp_path / "k20.json"
    write_seg_file(seg, path)
    scores = tmp_path / "scores.csv"
    write_score_tables([table_for(seg, [1.0 - i / 61 for i in range(61)])], scores)
    start = time.perf_counter()
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert main(["score", "--segs", str(path), "--scores", str(scores), "--out", str(tmp_path / "rep")]) == EXIT_VALIDATION
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    message = "graph has at least 65537 head-to-leaf walks (limit 65536)"
    assert message in captured.out
    assert message in captured.err
    assert not (tmp_path / "rep").exists()


def test_accumulate_dsg_deep_chain_listed_leaf_first(tmp_path):
    ids = [f"q{i}" for i in range(2000)]
    questions = tmp_path / "q.json"
    questions.write_text(
        json.dumps(
            {
                "prompt_id": "p",
                "questions": [
                    {"id": qid, "parent_ids": ids[i - 1 : i], "expected_answer": "yes"}
                    for i, qid in reversed(list(enumerate(ids)))
                ],
            }
        )
    )
    answers = tmp_path / "a.csv"
    answers.write_text("seg_id,image_id,question_id,answer\n" + "".join(f"s,i,{qid},yes\n" for qid in ids))
    out = tmp_path / "dsg.csv"
    assert main(["accumulate", "--mode", "dsg", "--questions", str(questions), "--answers", str(answers), "--out", str(out)]) == EXIT_OK
    from segeval.metametrics import load_score_tables

    assert load_score_tables(out)["p-dsg-acc"].entries == {("s", "i"): 1.0}
