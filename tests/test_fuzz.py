"""Seeded fuzz test: malformed inputs end in a documented exit code, never a traceback or a hang.

Every input is a seeded mutation of a valid file: a value replaced by a wrong
type, ``2**70`` or NaN, a container emptied, a field or item deleted, or an
item repeated.  Half of the SEG inputs also carry an extra edge of weight
-3, -1, 0, 1, 2 or 5 between random nodes, so some close a negative-weight
cycle.  The whole batch runs in-process in one child process, bounded by one
timeout, so a run that never ends fails the test instead of stalling it.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import random
import shutil
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

from segeval.cli import main
from segeval.metametrics import write_score_tables
from segeval.seg import SegCollection, seg_to_dict
from segeval.synth import ORACLE_KINDS, SynthConfig, generate_segs, oracle_scores

DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6}
_ODD = ("x", "", 0, -1, 1.5, None, True, [], {}, 2**70, float("nan"))
_EXTRA_WEIGHTS = (-3, -1, 0, 1, 2, 5)
_PER_KIND = 300


def _mutate(value, rng: random.Random):
    """A deep copy of a decoded JSON value or CSV row list with one spot changed."""
    value = copy.deepcopy(value)
    slots = []  # (container, key) of every value below the top

    def walk(v):
        items = v.items() if isinstance(v, dict) else enumerate(v) if isinstance(v, list) else ()
        for key, child in items:
            slots.append((v, key))
            walk(child)

    walk(value)
    if not slots or rng.random() < 0.02:
        return rng.choice(_ODD)
    container, key = rng.choice(slots)
    op = rng.randrange(4)
    if op == 0:  # wrong type, huge int, NaN
        container[key] = rng.choice(_ODD)
    elif op == 1:  # empty container or string
        old = container[key]
        container[key] = type(old)() if isinstance(old, (dict, list, str)) else rng.choice(_ODD)
    elif op == 2:  # deleted field or item
        del container[key]
    elif isinstance(container, list):  # repeated item
        container.insert(key, copy.deepcopy(container[key]))
    else:  # a field holding a sibling's value
        container[key] = copy.deepcopy(rng.choice(list(container.values())))
    return value


def _write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value), encoding="utf-8")


def _write_rows(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows if isinstance(rows, list) else [rows]:
            writer.writerow([str(cell) for cell in row] if isinstance(row, list) else [str(row)])


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _base_inputs(work: Path) -> dict:
    """Valid inputs for every command, as decoded values; the pareto report is written once."""
    seg = generate_segs(SynthConfig(seed=1, seg_count=1, nodes_per_seg=(4, 6))).segs[0]
    collection = SegCollection((seg,))
    write_score_tables([oracle_scores(collection, kind, seed=1) for kind in ORACLE_KINDS], work / "scores.csv")
    images = seg.image_ids()
    chain = [{"id": f"q{i}", "parent_ids": [f"q{i - 1}"] if i else [], "expected_answer": "yes"} for i in range(3)]
    base = {
        "seg": seg_to_dict(seg),
        "scores": _read_rows(work / "scores.csv"),
        "questions": {"prompt_id": seg.id, "questions": chain},
        "answers": [["seg_id", "image_id", "question_id", "answer"]]
        + [[seg.id, img, q["id"], "yes" if (k + j) % 3 else "no"] for k, img in enumerate(images) for j, q in enumerate(chain)],
        "costs": [
            {"metric": kind, "stages": [{"calls": k + 1, "tokens_per_call": 16, "model_params": 1e8}]}
            for k, kind in enumerate(ORACLE_KINDS)
        ],
    }
    _write_json(work / "seg.json", base["seg"])
    _write_rows(work / "answers.csv", base["answers"])
    _write_json(work / "questions.json", base["questions"])
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["score", "--segs", str(work / "seg.json"), "--scores", str(work / "scores.csv"), "--out", str(work / "report")]) == 0
    return base


def _with_extra_edge(doc: dict, rng: random.Random) -> dict:
    doc = copy.deepcopy(doc)
    ids = [n["id"] for n in doc["nodes"]]
    weight = rng.choice(_EXTRA_WEIGHTS)
    doc["edges"].append({"from": rng.choice(ids), "to": rng.choice(ids), "error_labels": ["x"], "weight": weight})
    return doc


def _cases(work: Path, base: dict, rng: random.Random):
    """(kind, argv, output path) per run; each mutated input is written just before its runs."""
    w = {name: str(work / name) for name in ("seg.json", "scores.csv", "questions.json", "answers.csv")}
    report, out = str(work / "report" / "report.json"), work / "out"
    for i in range(_PER_KIND):
        doc = _with_extra_edge(base["seg"], rng) if i % 2 else base["seg"]
        _write_json(work / "m_seg.json", _mutate(doc, rng))
        yield "seg", ["validate", str(work / "m_seg.json")], None
        yield "seg", ["score", "--segs", str(work / "m_seg.json"), "--scores", w["scores.csv"], "--out", str(out)], out
    for i in range(_PER_KIND):
        _write_rows(work / "m_scores.csv", _mutate(base["scores"], rng))
        yield "scores", ["score", "--segs", w["seg.json"], "--scores", str(work / "m_scores.csv"), "--out", str(out)], out
    for kind, source, name in (("questions", _write_json, "m_questions.json"), ("answers", _write_rows, "m_answers.csv")):
        for i in range(_PER_KIND):
            source(work / name, _mutate(base[kind], rng))
            questions = str(work / name) if kind == "questions" else w["questions.json"]
            answers = str(work / name) if kind == "answers" else w["answers.csv"]
            mode = ("tifa", "dsg")[i % 2]
            argv = ["accumulate", "--mode", mode, "--questions", questions, "--answers", answers, "--out", str(out)]
            yield kind, argv, out
    for i in range(_PER_KIND):
        _write_json(work / "m_costs.json", _mutate(base["costs"], rng))
        yield "costs", ["pareto", "--report", report, "--costs", str(work / "m_costs.json"), "--out", str(out)], out


def run_batch(work: Path, seed: int) -> dict:
    """Run every case in this process; the faults found and the exit codes seen, per input kind."""
    rng = random.Random(seed)
    base = _base_inputs(work)
    faults: list[str] = []
    exits: Counter[str] = Counter()
    negative_cycles = 0
    for kind, argv, out in _cases(work, base, rng):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except BaseException:
                code = None
                traceback.print_exc()
        err = stderr.getvalue()
        negative_cycles += "graph has a negative-weight cycle" in stdout.getvalue() + err
        exits[f"{kind} {argv[0]} {code}"] += 1
        if code not in DOCUMENTED_EXITS or "Traceback" in err:
            faults.append(f"{argv}: exit {code}: {err[-2000:]}")
        if out is not None and out.exists():
            if code != 0:
                faults.append(f"{argv}: exit {code} left {out}")
            if out.is_dir():
                shutil.rmtree(out)
            else:
                out.unlink()
    return {"faults": faults, "exits": dict(exits), "negative_cycles": negative_cycles}


def test_mutated_inputs_end_in_a_documented_exit_code(tmp_path):
    tests_dir = Path(__file__).resolve().parent
    src = tests_dir.parent / "src"
    code = (
        f"import json, sys; sys.path[:0] = [{str(src)!r}, {str(tests_dir)!r}]; import test_fuzz; "
        f"print(json.dumps(test_fuzz.run_batch(__import__('pathlib').Path({str(tmp_path)!r}), 16)))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)  # a hang fails here
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["faults"] == []
    exits = Counter()
    for key, n in result["exits"].items():
        kind, command, code = key.split()
        exits[kind, command] += n
        exits[code] += n
    # every kind ran every time, and the batch reached both ends of each command
    assert exits["seg", "validate"] == exits["seg", "score"] == _PER_KIND
    assert all(exits[kind, command] == _PER_KIND for kind, command in
               [("scores", "score"), ("questions", "accumulate"), ("answers", "accumulate"), ("costs", "pareto")])
    assert all(exits[code] for code in ("0", "3", "4", "5"))
    assert result["negative_cycles"] >= 2  # runs that once never ended
