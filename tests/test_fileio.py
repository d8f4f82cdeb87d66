"""Shared JSON/CSV helpers and the files the CLI writes through them."""

from __future__ import annotations

import csv
import json

import pytest

from segeval.cli import EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main
from segeval.errors import ParseError
from segeval.fileio import csv_row, read_csv, read_json, write_csv
from segeval.metametrics import write_score_tables
from segeval.scorers import load_embeddings
from segeval.seg import write_seg_file

from conftest import chain_seg, table_for

ODD_METRIC = 'a,b "q"'
ODD_SEG = "s,1"


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _score(tmp_path, metrics: list[str], seg_id: str = "seg") -> tuple[int, object]:
    seg = chain_seg([1, 2, 1], seg_id=seg_id)
    write_seg_file(seg, tmp_path / "seg.json")
    scores = tmp_path / "scores.csv"
    write_score_tables([table_for(seg, [1.0, 0.5, 0.5, 0.0], metric=m) for m in metrics], scores)
    out = tmp_path / "report"
    code = main(["score", "--segs", str(tmp_path / "seg.json"), "--scores", str(scores), "--out", str(out)])
    return code, out


def test_write_csv_quotes_and_reads_back(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[ODD_METRIC, "x\ny", "1"], ["", "plain", "2"]]
    write_csv(path, ["a", "b", "c"], rows)
    assert path.read_bytes().count(b"\r") == 0
    assert list(read_csv(path, ["a", "b", "c"])) == [(2, rows[0]), (3, rows[1])]


def test_write_csv_quotes_a_lone_carriage_return(tmp_path):
    # csv.writer(lineterminator="\n") leaves a lone \r unquoted on 3.10-3.12,
    # and csv.reader then splits the row in two
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [["cr\rid", 1], ["plain", 2]])
    assert path.read_bytes() == b'a,b\n"cr\rid",1\nplain,2\n'
    assert list(read_csv(path, ["a", "b"])) == [(2, ["cr\rid", "1"]), (3, ["plain", "2"])]
    assert csv_row(["cr\rid", 1]) == '"cr\rid",1\n'


def test_read_csv_rejects_empty_file_and_wrong_width(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(ParseError, match="empty file"):
        list(read_csv(path, ["a", "b"]))
    path.write_text("a,b\n1,2\n\n1,2,3\n")
    with pytest.raises(ParseError, match="line 4: expected 2 fields, got 3"):
        list(read_csv(path, ["a", "b"]))


def test_read_json_names_the_file_and_leaves_missing_files_to_oserror(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{oops")
    with pytest.raises(ParseError, match=r"x\.json: invalid JSON"):
        read_json(path)
    with pytest.raises(OSError):
        read_json(tmp_path / "missing.json")


def test_bundle_and_frontier_csvs_quote_names_with_commas_and_quotes(tmp_path):
    code, out = _score(tmp_path, [ODD_METRIC], seg_id=ODD_SEG)
    assert code == EXIT_OK

    per_seg = _rows(out / "per_seg.csv")
    assert all(len(row) == len(per_seg[0]) == 8 for row in per_seg)
    assert [row[:2] for row in per_seg[1:]] == [[ODD_METRIC, ODD_SEG]]

    lines = _rows(out / "lines_a_b__q_.csv")
    assert lines[0] == ["seg_id", "walk_index", "normalized_rank", "score"]
    assert len(lines) == 5
    assert all(len(row) == 4 and row[0] == ODD_SEG for row in lines[1:])

    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps({"metric": ODD_METRIC, "stages": [{"calls": 1, "tokens_per_call": 1, "model_params": 10}]}))
    frontier = tmp_path / "frontier.csv"
    assert main(["pareto", "--report", str(out / "report.json"), "--costs", str(costs), "--out", str(frontier)]) == EXIT_OK
    assert _rows(frontier) == [["metric", "quality", "cost_flops"], [ODD_METRIC, "1", "20"]]


def test_colliding_plot_file_names_exit_4_before_writing(tmp_path, capsys):
    code, out = _score(tmp_path, ["x/y", "x_y", "z"])
    assert code == EXIT_VALIDATION
    assert "'x/y' and 'x_y'" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{missing}"],
        ["score", "--segs", "{seg}", "--scores", "{missing}", "--out", "{out}"],
        ["accumulate", "--mode", "dsg", "--questions", "{missing}", "--answers", "{missing}", "--out", "{out}"],
        ["pareto", "--report", "{missing}", "--costs", "{missing}", "--out", "{out}"],
    ],
)
def test_missing_input_path_exits_6(tmp_path, argv):
    write_seg_file(chain_seg([1, 1]), tmp_path / "seg.json")
    paths = {"missing": tmp_path / "missing", "seg": tmp_path / "seg.json", "out": tmp_path / "out"}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_IO


def _non_utf8_inputs(tmp_path) -> dict[str, object]:
    paths = {
        name: tmp_path / name
        for name in ("seg.json", "bad.json", "scores.csv", "questions.json", "answers.csv", "out")
    }
    write_seg_file(chain_seg([1, 1]), paths["seg.json"])
    paths["bad.json"].write_bytes(b'{"id": "\xff"}')
    # the bad byte lies past the first 8 KiB, so it is met while iterating rows
    padding = "".join(f"chain,pad-{i},m,0.5\n" for i in range(600))
    paths["scores.csv"].write_bytes(f"seg_id,image_id,metric,score\n{padding}".encode() + b"chain,\xff,m,1\n")
    paths["questions.json"].write_text(
        json.dumps({"prompt_id": "p", "questions": [{"id": "q", "parent_ids": [], "expected_answer": "yes"}]})
    )
    paths["answers.csv"].write_bytes(b"seg_id,image_id,question_id,answer\nchain,0-0.jpg,q,\xff\n")
    return {name.split(".")[0]: path for name, path in paths.items()}


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["validate", "{bad}"], "bad.json"),
        (["score", "--segs", "{seg}", "--scores", "{scores}", "--out", "{out}"], "scores.csv"),
        (["accumulate", "--mode", "tifa", "--questions", "{questions}", "--answers", "{answers}", "--out", "{out}"], "answers.csv"),
    ],
    ids=["validate", "score", "accumulate"],
)
def test_non_utf8_input_exits_3_naming_the_file(tmp_path, capsys, argv, bad):
    paths = _non_utf8_inputs(tmp_path)
    assert main([arg.format(**paths) for arg in argv]) == EXIT_PARSE
    assert f"{bad}: not valid UTF-8: invalid start byte (byte 0xff)" in capsys.readouterr().err


def test_load_embeddings_rejects_non_utf8(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(b"a 1.0 0.0\n\xff 0.5 0.5\n")
    with pytest.raises(ParseError, match=r"emb\.txt: not valid UTF-8"):
        load_embeddings(path)


def test_validate_on_integer_past_the_digit_limit_exits_3_naming_the_file_once(tmp_path, capsys):
    path = tmp_path / "huge.json"
    node = '{"id": "0", "error_count": ' + "9" * 5001 + ', "images": ["a"]}'
    path.write_text('{"id": "s", "prompt": "p", "subset": "synth", "nodes": [' + node + '], "edges": []}')
    assert main(["validate", str(path)]) == EXIT_PARSE
    line = capsys.readouterr().err.splitlines()[0]
    assert line.startswith(f"PARSE ERROR {path}: invalid JSON:")
    assert line.count(str(path)) == 1
