"""Shared JSON/CSV helpers and the files the CLI writes through them."""

from __future__ import annotations

import csv
import json
from collections import defaultdict

import pytest

from segeval.cli import EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main
from segeval.errors import ParseError
from segeval.fileio import NUMBER, csv_row, fields, load_csv, not_utf8, read_csv, read_json, write_csv
from segeval.cost import load_cost_models
from segeval.metametrics import load_score_tables, write_score_tables
from segeval.scorers import load_answer_table, load_embeddings, load_question_graphs
from segeval.seg import load_seg_file, seg_paths, write_seg_file
from segeval.synth import ORACLE_KINDS, SynthConfig, generate_segs, oracle_scores

from conftest import chain_seg, table_for

ODD_METRIC = 'a,b "q"'
ODD_SEG = "s,1"


def _lint(argv, err: str) -> None:
    """Check the `WARN` line that `score` prints on a two-image SEG; other commands read no SEG."""
    lint = [line.split(": ", 1)[1] for line in err.splitlines() if line.startswith("WARN ")]
    assert lint == (["total image count 2 outside expected range [4, 76]"] if argv[0] == "score" else [])


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


def test_load_csv_reads_a_good_file_once_and_never_returns_a_rejected_one(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n\n3,4\n")
    numbered = []
    assert load_csv(path, ["a", "b"], list, lambda rows, source: numbered.extend(rows)) == [["1", "2"], ["3", "4"]]
    assert numbered == []  # the line-by-line pass never ran
    # a load that rejects a file the line-by-line check passes (one changed between the reads)
    with pytest.raises(ParseError) as exc:
        load_csv(path, ["a", "b"], lambda rows: None, lambda rows, source: numbered.extend(rows))
    assert numbered == [(2, ["1", "2"]), (4, ["3", "4"])]
    assert str(exc.value) == f"{path}: rejected in one pass but not line by line; did it change while read?"
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "missing.csv", ["a", "b"], list, lambda rows, source: None)


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
def test_missing_input_path_exits_6(tmp_path, capsys, argv):
    write_seg_file(chain_seg([1, 1]), tmp_path / "seg.json")
    paths = {"missing": tmp_path / "missing", "seg": tmp_path / "seg.json", "out": tmp_path / "out"}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_IO
    _lint(argv, capsys.readouterr().err)


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
    err = capsys.readouterr().err
    _lint(argv, err)
    assert f"{bad}: not valid UTF-8: invalid start byte (byte 0xff)" in err


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["score", "--segs", "{seg}", "--scores", "{scores}", "--out", "{out}"], "scores"),
        (["accumulate", "--mode", "dsg", "--questions", "{questions}", "--answers", "{answers}", "--out", "{out}"], "answers"),
    ],
    ids=["score", "accumulate"],
)
# "line N" counts CSV records, also when a quoted field spans many physical lines
@pytest.mark.parametrize("field", ["x" * 200_000, '"' + "x\n" * 100_000 + '"'], ids=["one-line", "multi-line"])
def test_field_over_the_csv_size_limit_exits_3_naming_the_line(tmp_path, capsys, argv, bad, field):
    paths = _non_utf8_inputs(tmp_path)
    header = {"scores": "seg_id,image_id,metric,score", "answers": "seg_id,image_id,question_id,answer"}[bad]
    paths[bad].write_text(f"{header}\nchain,0-0.jpg,q,1\nchain,1-0.jpg,q,{field}\n")
    assert main([arg.format(**paths) for arg in argv]) == EXIT_PARSE
    err = capsys.readouterr().err
    _lint(argv, err)
    assert f"{paths[bad]}: line 3: field larger than field limit (131072)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{deep}"],
        ["score", "--segs", "{deep}", "--scores", "{scores}", "--out", "{out}"],
        ["pareto", "--report", "{deep}", "--costs", "{deep}", "--out", "{out}"],
    ],
    ids=["validate", "score", "pareto"],
)
def test_json_nested_past_the_recursion_limit_exits_3(tmp_path, capsys, argv):
    paths = _non_utf8_inputs(tmp_path)
    paths["deep"] = tmp_path / "deep.json"
    paths["deep"].write_text("[" * 200_000 + "]" * 200_000)
    assert main([arg.format(**paths) for arg in argv]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"{paths['deep']}: invalid JSON: maximum recursion depth exceeded" in err
    assert "Traceback" not in err


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


# One valid object per JSON format; each case breaks the first entry of its list.
_VALID_JSON = {
    "seg": {"id": "s", "prompt": "p", "subset": "synth", "nodes": [{"id": "0", "error_count": 0, "images": ["a"]}], "edges": []},
    "questions": {"prompt_id": "p", "questions": [{"id": "q", "parent_ids": [], "expected_answer": "yes"}]},
    "costs": {"metric": "m", "stages": [{"calls": 1, "tokens_per_call": 1, "model_params": 100}]},
}
_ENTRIES = {"seg": "nodes", "questions": "questions", "costs": "stages"}
_DELETE = object()


@pytest.mark.parametrize(
    "kind, entry, message",
    [
        ("seg", 5, "nodes[0]: must be an object"),
        ("seg", {"error_count": _DELETE}, "nodes[0]: missing field 'error_count'"),
        ("seg", {"images": "a"}, "nodes[0]: field 'images' has type str, expected list"),
        ("seg", {"error_count": False}, "nodes[0]: field 'error_count' must be an integer"),
        ("questions", 5, "question graph 'p': questions[0]: must be an object"),
        ("questions", {"expected_answer": _DELETE}, "question graph 'p': questions[0]: missing field 'expected_answer'"),
        ("questions", {"parent_ids": "q0"}, "question graph 'p': questions[0]: field 'parent_ids' has type str, expected list"),
        # a question graph holds no number, and a bool is not a string either
        ("questions", {"id": True}, "question graph 'p': questions[0]: field 'id' has type bool, expected str"),
        ("costs", 5, "cost model 'm': stages[0]: must be an object"),
        ("costs", {"tokens_per_call": _DELETE}, "cost model 'm': stages[0]: missing field 'tokens_per_call'"),
        ("costs", {"calls": 1.5}, "cost model 'm': stages[0]: field 'calls' has type float, expected int"),
        ("costs", {"model_params": True}, "cost model 'm': stages[0]: field 'model_params' must be a number"),
    ],
    ids=[f"{kind}-{case}" for kind in _ENTRIES for case in ("not-an-object", "missing", "wrong-type", "bool")],
)
def test_json_field_errors_exit_3_naming_file_object_and_field(tmp_path, capsys, kind, entry, message):
    data = json.loads(json.dumps(_VALID_JSON[kind]))
    entries = data[_ENTRIES[kind]]
    if isinstance(entry, dict):
        for key, value in entry.items():
            if value is _DELETE:
                del entries[0][key]
            else:
                entries[0][key] = value
    else:
        entries[0] = entry
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    answers = tmp_path / "answers.csv"
    answers.write_text("seg_id,image_id,question_id,answer\ns,a,q,yes\n")
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"metrics": {"m": {"overall": {"rank": 0.5}}}}))
    out = str(tmp_path / "out")
    argv = {
        "seg": ["validate", str(path)],
        "questions": ["accumulate", "--mode", "dsg", "--questions", str(path), "--answers", str(answers), "--out", out],
        "costs": ["pareto", "--report", str(report), "--costs", str(path), "--out", out],
    }[kind]
    assert main(argv) == EXIT_PARSE
    assert f"{path}: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# a leading UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write


def test_score_tables_round_trip_through_the_writer_and_the_loader(tmp_path):
    collection = generate_segs(SynthConfig(seed=6, seg_count=12))
    tables = [oracle_scores(collection, kind, seed=6) for kind in ORACLE_KINDS]
    tables.append(table_for(chain_seg([1, 2, 1], seg_id=ODD_SEG), [1.0, 1 / 3, -0.0, 1e-300], metric=ODD_METRIC))
    write_score_tables(tables, tmp_path / "scores.csv")
    loaded = load_score_tables(tmp_path / "scores.csv")
    assert loaded == {t.metric_name: t for t in tables}
    write_score_tables(loaded.values(), tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "scores.csv").read_bytes()


BOM = "\ufeff".encode()


def _plain_inputs(tmp_path) -> dict[str, object]:
    """One file of each input format, written without a byte-order mark."""
    seg = chain_seg([1, 2, 1], seg_id="s,1")
    paths = {name: tmp_path / name for name in ("seg.json", "scores.csv", "answers.csv", "emb.txt", "questions.json", "costs.json")}
    write_seg_file(seg, paths["seg.json"])
    write_score_tables([table_for(seg, [1.0, 0.5, 0.5, 0.0], metric=m) for m in ("m", ODD_METRIC)], paths["scores.csv"])
    paths["answers.csv"].write_text('seg_id,image_id,question_id,answer\n"s,1",a,q,yes\n"s,1",b,q, No \n')
    paths["emb.txt"].write_text("a 1.0 0.0\nb 0.5 0.5\n")
    paths["questions.json"].write_text(json.dumps(_VALID_JSON["questions"]))
    paths["costs.json"].write_text(json.dumps(_VALID_JSON["costs"]))
    return paths


def _with_bom(paths: dict[str, object], bom_dir) -> dict[str, object]:
    bom_dir.mkdir()
    copies = {name: bom_dir / name for name in paths}
    for name, path in paths.items():
        copies[name].write_bytes(BOM + path.read_bytes())
    return copies


@pytest.mark.parametrize(
    "name, loader",
    [
        ("seg.json", load_seg_file),
        ("scores.csv", load_score_tables),
        ("answers.csv", load_answer_table),
        ("emb.txt", load_embeddings),
        ("questions.json", load_question_graphs),
        ("costs.json", load_cost_models),
    ],
)
def test_a_leading_byte_order_mark_is_ignored(tmp_path, name, loader):
    plain = _plain_inputs(tmp_path)
    bom = _with_bom(plain, tmp_path / "bom")
    assert bom[name].read_bytes().startswith(BOM)
    assert loader(bom[name]) == loader(plain[name])


def test_only_one_leading_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "answers.csv"
    path.write_bytes(BOM + b"seg_id,image_id,question_id,answer\ns,a,q," + BOM + b"yes\n")
    assert load_answer_table(path).entries == {("s", "a", "q"): "\ufeffyes"}
    path.write_bytes(BOM + BOM + b"seg_id,image_id,question_id,answer\n")
    with pytest.raises(ParseError, match="bad header"):
        load_answer_table(path)


def test_score_on_inputs_with_a_byte_order_mark_writes_the_same_bundle(tmp_path):
    plain = _plain_inputs(tmp_path)
    bom = _with_bom(plain, tmp_path / "bom")
    bundles = []
    for paths, out in ((plain, tmp_path / "out"), (bom, tmp_path / "bom_out")):
        assert main(["score", "--segs", str(paths["seg.json"]), "--scores", str(paths["scores.csv"]), "--out", str(out)]) == EXIT_OK
        bundles.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert bundles[0] == bundles[1]
    assert "report.json" in bundles[0]


# ---------------------------------------------------------------------------
# read_json, fields and seg_paths give what the text-mode reader, the
# per-key isinstance walk and the Path sort they replaced gave


def _text_mode_read_json(path):
    """read_json as it read each file through a text-mode stream."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise not_utf8(path, exc) from exc
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON: {exc}", source=str(path)) from exc


_CRLF_SEG = b'{\r\n  "id": "s",\r\n  "prompt": "p",\r\n  "subset": "synth"\r\n  "nodes": []\r\n}\r\n'

# the text-mode reader's messages; None where the text differs between Python versions
_READ_JSON_ERRORS = {
    "crlf": (_CRLF_SEG, "invalid JSON: Expecting ',' delimiter: line 5 column 3 (char 54)"),
    "lone-cr": (b'{"id": "s",\r"prompt":\r"p" "subset": "synth"}', "invalid JSON: Expecting ',' delimiter: line 3 column 5 (char 26)"),
    "bom": (BOM + b'{"id": "s", "prompt": }', "invalid JSON: Expecting value: line 1 column 23 (char 22)"),
    "part-of-a-bom": (BOM[:2], "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    "bad-byte-past-8k": (b'["' + b"x" * 8190 + b'\xff"]', "not valid UTF-8: invalid start byte (byte 0xff)"),
    "split-across-8k": (b'["' + b"x" * 8189 + "€".encode() + b'", }', "invalid JSON: Expecting value: line 1 column 8196 (char 8195)"),
    "truncated-at-eof": (b'["\xe2\x82', "not valid UTF-8: unexpected end of data (byte 0xe2)"),
    "huge-int": (b"[" + b"9" * 5001 + b"]", None),
    "deep": (b"[" * 100_000 + b"]" * 100_000, None),
}


@pytest.mark.parametrize("name", list(_READ_JSON_ERRORS))
def test_read_json_errors_match_the_text_mode_reader(tmp_path, capsys, name):
    data, message = _READ_JSON_ERRORS[name]
    path = tmp_path / f"{name}.json"
    path.write_bytes(data)
    with pytest.raises(ParseError) as got:
        read_json(path)
    with pytest.raises(ParseError) as want:
        _text_mode_read_json(path)
    assert str(got.value) == str(want.value)
    if message is not None:
        assert str(got.value) == f"{path}: {message}"
    scores = tmp_path / "scores.csv"
    scores.write_text("seg_id,image_id,metric,score\n")
    assert main(["validate", str(path)]) == EXIT_PARSE
    assert main(["score", "--segs", str(path), "--scores", str(scores), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    assert capsys.readouterr().err.count(str(got.value)) == 2


@pytest.mark.parametrize(
    "data",
    [
        _CRLF_SEG.replace(b'"synth"', b'"synth",'),
        b'{"a":\r1,\r\n"b": "\\r"}\r',
        BOM + b'{"a": 1}',
        b'["' + b"x" * 8189 + "€".encode() + b'"]',
    ],
    ids=["crlf", "lone-cr", "bom", "split-across-8k"],
)
def test_read_json_values_match_the_text_mode_reader(tmp_path, data):
    path = tmp_path / "ok.json"
    path.write_bytes(data)
    assert read_json(path) == _text_mode_read_json(path)


class _Int(int):
    pass


class _Dict(dict):
    pass


class _Upper(dict):
    def __getitem__(self, key):
        val = super().__getitem__(key)
        return val.upper() if isinstance(val, str) else val


@pytest.mark.parametrize(
    "obj, spec, message",
    [
        ({"n": True}, {"n": int}, "field 'n' must be an integer"),
        ({"n": 1.0}, {"n": int}, "field 'n' has type float, expected int"),
        ({"n": None}, {"n": int}, "field 'n' has type NoneType, expected int"),
        ({"s": "a"}, {"s": str, "n": int}, "missing field 'n'"),
        ({"x": False}, {"x": NUMBER}, "field 'x' must be a number"),
        ({"x": "1"}, {"x": NUMBER}, "field 'x' has type str, expected number"),
        ([1], {"n": int}, "must be an object"),
        (defaultdict(int), {"n": int}, "missing field 'n'"),
        (_Dict(n=True), {"n": int}, "field 'n' must be an integer"),
    ],
)
def test_fields_faults_read_as_before(obj, spec, message):
    with pytest.raises(ParseError) as exc:
        fields(obj, spec, "w", "f.json")
    assert str(exc.value) == f"f.json: w: {message}"


def test_fields_values_of_subclasses_and_wide_specs_read_as_before():
    wide = {"n": int, "x": NUMBER, "y": NUMBER, "o": object}
    assert fields({"n": 3, "x": 1.5, "y": 2, "o": [1]}, wide, "w", "f") == [3, 1.5, 2, [1]]
    got = fields(_Dict(n=_Int(4), s="a"), {"n": int, "s": str}, "w", "f")
    assert got == [4, "a"] and type(got[0]) is _Int
    assert fields(_Upper(s="a", n=1), {"s": str, "n": int}, "w", "f") == ["A", 1]  # through the subclass's __getitem__
    assert fields({"b": True}, {"b": bool}, "w", "f") == [True]


def test_seg_paths_orders_files_as_path_objects_do(tmp_path):
    names = [
        "b.json", "B.json", "a.json", "A.json", "a-b.json", "a.b.json", "a_b.json", "ab.json", "a b.json",
        "a9.json", "a10.json", "a09.json", "1.json", "10.json", "2.json", "e.json", "é.json", "É.json",
        "z.json", "Ä.json", "ß.json", "ж.json", "Ж.json", ".hidden.json",
    ]
    for name in names:
        (tmp_path / name).write_text("{}")
    (tmp_path / "notes.txt").write_text("")
    got = seg_paths(tmp_path)
    assert got == sorted(tmp_path.glob("*.json"))
    assert len(got) == len(names)
