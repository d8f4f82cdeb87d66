"""Question-DAG accumulation and embedding-correlation scorers."""

from __future__ import annotations

import json
import math
import random
from functools import reduce
from operator import add, mul
from pathlib import Path

import pytest

from segeval import scorers
from segeval.errors import CoverageError, ParseError, ValidationError
from segeval.fileio import csv_row, read_csv
from segeval.scorers import (
    ANSWER_CSV_HEADER,
    AnswerTable,
    EmbeddingVector,
    Question,
    QuestionGraph,
    accumulate_scores,
    dsg_accumulate,
    embedding_correlation_score,
    embedding_score_table,
    load_answer_table,
    load_embeddings,
    load_question_graphs,
    tifa_accumulate,
)
from segeval.synth import SynthConfig, generate_segs

from conftest import CSV_FAULTS, assert_view_reads_as, chain_seg, collection_of, identity_pattern, regrouped, seeded_csv


def qgraph(*questions: tuple[str, list[str], str], prompt_id: str = "p1") -> QuestionGraph:
    return QuestionGraph(
        prompt_id=prompt_id,
        questions=tuple(
            Question(id=qid, parent_ids=tuple(parents), expected_answer=ans)
            for qid, parents, ans in questions
        ),
    )


def random_dag(rng: random.Random, n_questions: int) -> QuestionGraph:
    questions = []
    for i in range(n_questions):
        n_parents = rng.randint(0, min(i, 2))
        parents = rng.sample([f"q{j}" for j in range(i)], n_parents)
        questions.append((f"q{i}", parents, "yes"))
    return qgraph(*questions)


def oracle_dsg(qg: QuestionGraph, answers: dict[str, str]) -> float:
    """Transitive-closure oracle: a question counts iff it and every ancestor
    (computed by explicit closure) are answered correctly."""
    parents = {q.id: set(q.parent_ids) for q in qg.questions}
    ancestors: dict[str, set[str]] = {}
    changed = True
    for qid in parents:
        ancestors[qid] = set(parents[qid])
    while changed:
        changed = False
        for qid in ancestors:
            extra = set()
            for a in ancestors[qid]:
                extra |= ancestors[a]
            if not extra <= ancestors[qid]:
                ancestors[qid] |= extra
                changed = True
    correct = {
        q.id: answers[q.id].strip().casefold() == q.expected_answer.strip().casefold()
        for q in qg.questions
    }
    n_ok = sum(
        1
        for q in qg.questions
        if correct[q.id] and all(correct[a] for a in ancestors[q.id])
    )
    return n_ok / len(qg.questions)


# ---------------------------------------------------------------------------
# tifa


def test_tifa_fraction_of_correct_answers():
    qg = qgraph(*[(f"q{i}", [], "yes") for i in range(8)])
    answers = {f"q{i}": "yes" for i in range(6)} | {"q6": "no", "q7": "no"}
    assert tifa_accumulate(qg, answers) == 0.75


def test_tifa_all_correct():
    qg = qgraph(("q1", [], "yes"), ("q2", ["q1"], "blue"))
    assert tifa_accumulate(qg, {"q1": "yes", "q2": "blue"}) == 1.0


def test_tifa_ignores_parent_failure():
    qg = qgraph(("q1", [], "yes"), ("q2", ["q1"], "yes"))
    assert tifa_accumulate(qg, {"q1": "no", "q2": "yes"}) == 0.5


def test_tifa_matching_is_trimmed_case_insensitive():
    qg = qgraph(("q1", [], "Yes"))
    assert tifa_accumulate(qg, {"q1": "  yes "}) == 1.0


def test_tifa_missing_answer_names_question():
    qg = qgraph(("q1", [], "yes"), ("q2", [], "yes"))
    with pytest.raises(CoverageError, match="q2"):
        tifa_accumulate(qg, {"q1": "yes"})


# ---------------------------------------------------------------------------
# dsg


def test_dsg_gates_child_on_wrong_parent():
    qg = qgraph(("q1", [], "yes"), ("q2", ["q1"], "yes"))
    assert dsg_accumulate(qg, {"q1": "no", "q2": "yes"}) == 0.0


def test_dsg_all_correct():
    qg = qgraph(("q1", [], "yes"), ("q2", ["q1"], "yes"))
    assert dsg_accumulate(qg, {"q1": "yes", "q2": "yes"}) == 1.0


def test_dsg_chain_counts_only_head():
    qg = qgraph(("q1", [], "yes"), ("q2", ["q1"], "yes"), ("q3", ["q2"], "yes"))
    answers = {"q1": "yes", "q2": "no", "q3": "yes"}
    assert dsg_accumulate(qg, answers) == pytest.approx(1 / 3)


def test_dsg_equals_tifa_on_flat_graph():
    rng = random.Random(23)
    qg = qgraph(*[(f"q{i}", [], "yes") for i in range(6)])
    for _ in range(20):
        answers = {f"q{i}": rng.choice(["yes", "no"]) for i in range(6)}
        assert dsg_accumulate(qg, answers) == tifa_accumulate(qg, answers)


def test_dsg_never_exceeds_tifa_on_random_dags():
    rng = random.Random(29)
    for _ in range(100):
        qg = random_dag(rng, rng.randint(1, 10))
        answers = {q.id: rng.choice(["yes", "no"]) for q in qg.questions}
        assert dsg_accumulate(qg, answers) <= tifa_accumulate(qg, answers)


def test_dsg_matches_transitive_closure_oracle():
    rng = random.Random(31)
    for _ in range(100):
        qg = random_dag(rng, rng.randint(1, 10))
        answers = {q.id: rng.choice(["yes", "no"]) for q in qg.questions}
        assert dsg_accumulate(qg, answers) == oracle_dsg(qg, answers)


# ---------------------------------------------------------------------------
# question graph / answer files


def test_question_graph_file_roundtrip(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(
        json.dumps(
            {
                "prompt_id": "0001",
                "questions": [
                    {"id": "q1", "parent_ids": [], "expected_answer": "yes"},
                    {"id": "q2", "parent_ids": ["q1"], "expected_answer": "yes"},
                ],
            }
        )
    )
    graphs = load_question_graphs(path)
    assert len(graphs) == 1
    assert graphs[0].prompt_id == "0001"
    assert graphs[0].questions[1].parent_ids == ("q1",)


def test_question_graph_array_form(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(
        json.dumps(
            [
                {"prompt_id": "a", "questions": [{"id": "q", "parent_ids": [], "expected_answer": "y"}]},
                {"prompt_id": "b", "questions": [{"id": "q", "parent_ids": [], "expected_answer": "y"}]},
            ]
        )
    )
    assert [g.prompt_id for g in load_question_graphs(path)] == ["a", "b"]


def test_cyclic_question_graph_rejected_at_load(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(
        json.dumps(
            {
                "prompt_id": "p",
                "questions": [
                    {"id": "q1", "parent_ids": ["q2"], "expected_answer": "y"},
                    {"id": "q2", "parent_ids": ["q1"], "expected_answer": "y"},
                ],
            }
        )
    )
    with pytest.raises(ValidationError, match="cyclic"):
        load_question_graphs(path)


@pytest.mark.parametrize("questions", [5, None, "q1", {"id": "q1"}, []])
def test_questions_field_must_be_a_non_empty_list(tmp_path, questions):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"prompt_id": "p", "questions": questions}))
    with pytest.raises(ParseError, match="field 'questions' must be a non-empty list"):
        load_question_graphs(path)


def test_unknown_parent_rejected(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(
        json.dumps(
            {
                "prompt_id": "p",
                "questions": [{"id": "q1", "parent_ids": ["nope"], "expected_answer": "y"}],
            }
        )
    )
    with pytest.raises(ValidationError, match="unknown parent"):
        load_question_graphs(path)


def test_answer_table_csv(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text(
        "seg_id,image_id,question_id,answer\n"
        "s1,i1,q1,yes\n"
        "s1,i1,q2,no\n"
        "s1,i2,q1,yes\n"
    )
    table = load_answer_table(path)
    assert table.images() == [("s1", "i1"), ("s1", "i2")]
    assert table.answers_for("s1", "i1") == {"q1": "yes", "q2": "no"}


def test_answer_index_matches_full_scan_on_random_tables():
    rng = random.Random(29)
    for _ in range(200):
        ids = [f"{c}{i}" for c in "abc" for i in range(rng.randint(1, 3))]
        keys = {(rng.choice(ids), rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 30))}
        entries = {key: rng.choice(["yes", "no", " Yes"]) for key in keys}
        table = AnswerTable(entries=entries)
        assert table.images() == sorted({(s, i) for s, i, _ in entries})
        for s in ids:
            for i in ids:
                scan = {q: a for (s2, i2, q), a in entries.items() if (s2, i2) == (s, i)}
                assert list(table.answers_for(s, i).items()) == list(scan.items())


def test_answer_table_bad_header(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("a,b,c,d\n")
    with pytest.raises(ParseError, match="bad header"):
        load_answer_table(path)


# ---------------------------------------------------------------------------
# the one-pass answer loader against the line-numbered loop


def reference_load_answer_table(path: Path) -> AnswerTable:
    """The answer loader as it was, checking each row as read_csv numbers it; one string per distinct text."""
    entries = {}
    share = {}.setdefault
    for lineno, (seg_id, image_id, question_id, answer) in read_csv(path, ANSWER_CSV_HEADER):
        key = (share(seg_id, seg_id), share(image_id, image_id), share(question_id, question_id))
        if key in entries:
            raise ParseError(f"line {lineno}: duplicate answer for {key}", source=str(path))
        entries[key] = share(answer, answer)
    return AnswerTable(entries=entries)


def random_answer_csv(rng: random.Random) -> tuple[bytes, str]:
    """Shuffled answer rows with repeated ids and texts, and at most one kind of fault (see seeded_csv)."""
    seg_ids = [f"s{i}" for i in range(rng.randint(1, 4))]
    image_ids = ["0", "s0", "a.jpg", "b,c.jpg"][: rng.randint(1, 4)]  # an image id may equal a seg id
    qids = [f"q{i}" for i in range(rng.randint(1, 5))]
    rows = [
        [s, i, q, rng.choice(ANSWER_VARIANTS + ["Yes", "YES", "", 'say "no"', "s0"])]
        for s in seg_ids
        for i in image_ids
        for q in qids
        if rng.random() < 0.9
    ]
    rng.shuffle(rows)
    return seeded_csv(rng, ANSWER_CSV_HEADER, rows)


def load_or_error(loader, path: Path) -> AnswerTable | tuple:
    try:
        return loader(path)
    except Exception as exc:  # the type and message must match, whatever they are
        return type(exc), str(exc)


def test_shared_answer_strings_match_the_reference_loader(tmp_path):
    rng = random.Random(43)
    outcomes = set()
    for n in range(300):
        path = tmp_path / f"answers{n}.csv"
        data, fault = random_answer_csv(rng)
        path.write_bytes(data)
        got, want = load_or_error(load_answer_table, path), load_or_error(reference_load_answer_table, path)
        assert got == want, fault
        if isinstance(want, tuple):
            assert want[0] is ParseError, want
            outcomes.add(fault)
            continue
        outcomes.add("loaded")
        assert list(got.entries) == list(want.entries)
        # the same string object wherever the reference has one, across fields as well as within them
        strings = [[*key, answer] for key, answer in got.entries.items()]
        reference = [[*key, answer] for key, answer in want.entries.items()]
        assert identity_pattern(sum(strings, [])) == identity_pattern(sum(reference, []))
        assert_loaded_index_reads_as_built(got, AnswerTable(entries=want.entries))
        rows = {(seg_id, image_id, qid): answer for _, (seg_id, image_id, qid, answer) in read_csv(path, ANSWER_CSV_HEADER)}
        if rows:  # the loaded and the mapping-built view read as the rows grouped per image
            grouped = {key: rows[key] for key in regrouped(rows)}
            assert_view_reads_as(got.entries, grouped)
            assert_view_reads_as(AnswerTable(rows).entries, grouped)
    assert outcomes == set(CSV_FAULTS) - {"none"} | {"loaded"}  # every kind of fault came up, and failed


def assert_loaded_index_reads_as_built(loaded: AnswerTable, built: AnswerTable) -> None:
    """A loaded table's per-image index and entries view read as the same answers grouped on first use."""
    assert loaded.images() == built.images()
    for seg_id, image_id in built.images():
        assert loaded.answers_for(seg_id, image_id) == built.answers_for(seg_id, image_id)
    assert loaded.answers_for("no-seg", "no-image") == built.answers_for("no-seg", "no-image") == {}
    assert len(loaded.entries) == len(built.entries)
    for key, answer in built.entries.items():
        assert loaded.entries[key] == answer and key in loaded.entries
    some_image = built.images()[:1]
    for table in (loaded, built):
        for key in [("no-seg", "no-image", "q0"), *((*image, "no-question") for image in some_image)]:
            with pytest.raises(KeyError):
                table.entries[key]
            assert key not in table.entries and table.entries.get(key) is None
    assert repr(loaded) == repr(built)
    assert loaded == built and built == loaded
    assert loaded.entries == built.entries and built.entries == loaded.entries
    # one graph over every question id in the file; an image lacking one is the same error from both
    question_ids = sorted({qid for _, _, qid in built.entries})
    qg = qgraph(*((qid, question_ids[:i][-1:], "yes") for i, qid in enumerate(question_ids)))
    for mode in ("tifa", "dsg"):
        scores = [load_or_error(lambda t: accumulate_scores([qg], t, mode).entries, t) for t in (loaded, built)]
        assert scores[0] == scores[1], mode


def test_accumulated_scores_are_keyed_by_the_answer_index_keys(tmp_path):
    rng = random.Random(47)
    qg = random_question_graph(rng, "p")
    path = tmp_path / "answers.csv"
    rows = [
        (f"s{s}", f"{n:03d}.jpg", q.id, rng.choice(ANSWER_VARIANTS))
        for s in range(3)
        for n in range(5)
        for q in qg.questions
    ]
    rng.shuffle(rows)
    path.write_text("".join(map(csv_row, [ANSWER_CSV_HEADER, *rows])), encoding="utf-8", newline="")
    answers = load_answer_table(path)
    index = {key: key for key in answers.images()}
    for mode in ("tifa", "dsg"):
        table = accumulate_scores([qg], answers, mode)
        assert table.entries == reference_scores([qg], answers, mode)
        assert all(index[key] is key for key in table.entries)


def test_mutating_an_answers_for_result_leaves_the_table_and_accumulate_unchanged():
    qg = qgraph(("q1", [], "yes"), ("q2", ["q1"], "yes"))
    answers = AnswerTable(entries={("s1", "i1", "q1"): "yes", ("s1", "i1", "q2"): "yes"})
    before = {mode: accumulate_scores([qg], answers, mode).entries for mode in ("tifa", "dsg")}
    got = answers.answers_for("s1", "i1")
    got["q1"] = "no"
    got["q9"] = "yes"
    assert answers.answers_for("s1", "i1") == {"q1": "yes", "q2": "yes"}
    after = {mode: accumulate_scores([qg], answers, mode).entries for mode in ("tifa", "dsg")}
    assert after == before == {"tifa": {("s1", "i1"): 1.0}, "dsg": {("s1", "i1"): 1.0}}


def test_answer_entries_read_as_the_dict_they_stand_for(tmp_path):
    # with ("a", "b", "c") a key, "abc" and ["a", "b", "c"] would find it if any 3-item iterable were unpacked
    entries = {("s", "i2", "q2"): "yes", ("a", "b", "c"): "no", ("s", "i1", "q1"): " Yes", ("a", "b", "d"): "yes"}
    path = tmp_path / "answers.csv"
    rows = [ANSWER_CSV_HEADER, *([*key, answer] for key, answer in entries.items())]
    path.write_text("".join(map(csv_row, rows)), encoding="utf-8", newline="")
    grouped = {key: entries[key] for key in regrouped(entries)}
    for table in (AnswerTable(entries), load_answer_table(path)):
        assert_view_reads_as(table.entries, grouped)


@pytest.mark.parametrize("key", ["abc", ("s", "i"), ("s", "i", "q", "x"), ("s", "i", 1), None])
def test_a_mapping_key_that_is_not_three_strings_is_rejected(key):
    # "abc" once read as the key ('a', 'b', 'c')
    with pytest.raises(ValidationError) as info:
        AnswerTable({("s", "i", "q"): "yes", key: "yes"})
    assert str(info.value) == f"answer key {key!r} is not a (seg_id, image_id, question_id) tuple of strings"


def test_a_table_built_from_a_mapping_reads_the_answers_as_they_were_at_construction():
    qg = qgraph(("q1", [], "yes"), ("q2", ["q1"], "yes"))
    source = {("s", "i2", "q2"): "yes", ("s", "i1", "q1"): "yes", ("s", "i2", "q1"): "no", ("s", "i1", "q2"): "yes"}
    table = AnswerTable(source)
    grouped = [(key, source[key]) for key in [("s", "i2", "q2"), ("s", "i2", "q1"), ("s", "i1", "q1"), ("s", "i1", "q2")]]
    assert list(table.entries.items()) == grouped  # image by image, first-seen image first, then the mapping's order
    snapshot = dict(source)
    before = {mode: accumulate_scores([qg], table, mode).entries for mode in ("tifa", "dsg")}
    assert before == {"tifa": {("s", "i1"): 1.0, ("s", "i2"): 0.5}, "dsg": {("s", "i1"): 1.0, ("s", "i2"): 0.0}}
    table.images()  # read once before the mapping changes
    source[("s", "i3", "q1")] = "yes"
    source[("s", "i1", "q1")] = "no"
    del source[("s", "i2", "q2")]
    assert len(table.entries) == 4 and list(table.entries.items()) == grouped
    assert table.images() == [("s", "i1"), ("s", "i2")]
    assert table.answers_for("s", "i1") == {"q1": "yes", "q2": "yes"}
    assert table.answers_for("s", "i2") == {"q2": "yes", "q1": "no"}
    assert table.answers_for("s", "i3") == {}
    assert table == AnswerTable(snapshot) and table != AnswerTable(source)
    after = {mode: accumulate_scores([qg], table, mode).entries for mode in ("tifa", "dsg")}
    assert after == before


def test_accumulate_scores_builds_table():
    qg = qgraph(("q1", [], "yes"), ("q2", ["q1"], "yes"))
    answers = AnswerTable(
        entries={
            ("s1", "i1", "q1"): "yes",
            ("s1", "i1", "q2"): "yes",
            ("s1", "i2", "q1"): "no",
            ("s1", "i2", "q2"): "yes",
        }
    )
    tifa = accumulate_scores([qg], answers, "tifa")
    dsg = accumulate_scores([qg], answers, "dsg")
    assert tifa.metric_name == "p1-tifa-acc"
    assert dsg.metric_name == "p1-dsg-acc"
    assert tifa.entries[("s1", "i1")] == 1.0
    assert tifa.entries[("s1", "i2")] == 0.5
    assert dsg.entries[("s1", "i2")] == 0.0
    # gating only removes credit
    for key in tifa.entries:
        assert dsg.entries[key] <= tifa.entries[key]


def test_accumulate_scores_incomplete_answers_rejected():
    qg = qgraph(("q1", [], "yes"), ("q2", [], "yes"))
    answers = AnswerTable(entries={("s1", "i1", "q1"): "yes"})
    with pytest.raises(CoverageError, match="q2"):
        accumulate_scores([qg], answers, "tifa")


def test_accumulate_scores_multi_graph_matches_by_seg_id():
    qa = qgraph(("q1", [], "yes"), prompt_id="sa")
    qb = qgraph(("q1", [], "no"), prompt_id="sb")
    answers = AnswerTable(entries={("sa", "i", "q1"): "yes", ("sb", "i", "q1"): "yes"})
    table = accumulate_scores([qa, qb], answers, "tifa")
    assert table.metric_name == "questions-tifa-acc"
    assert table.entries[("sa", "i")] == 1.0
    assert table.entries[("sb", "i")] == 0.0


# ---------------------------------------------------------------------------
# per-graph plans against a per-image reference

ANSWER_VARIANTS = ["yes", " Yes", "YES\t", "no", " No ", "blue", "Blue\n", "red"]


def oracle_tifa(qg: QuestionGraph, answers: dict[str, str]) -> float:
    correct = [answers[q.id].strip().casefold() == q.expected_answer.strip().casefold() for q in qg.questions]
    return sum(correct) / len(correct)


def reference_scores(graphs: list[QuestionGraph], answers: AnswerTable, mode: str) -> dict:
    """Each image scored on its own by the oracles, with the checks accumulate_scores makes."""
    oracle = oracle_tifa if mode == "tifa" else oracle_dsg
    by_prompt = {g.prompt_id: g for g in graphs}
    out = {}
    for seg_id, image_id in answers.images():
        qg = graphs[0] if len(graphs) == 1 else by_prompt[seg_id]
        per_image = answers.answers_for(seg_id, image_id)
        assert set(per_image) == {q.id for q in qg.questions}
        out[(seg_id, image_id)] = oracle(qg, per_image)
    return out


def random_answer_table(rng: random.Random, graphs: list[QuestionGraph], seg_ids: list[str]) -> AnswerTable:
    by_prompt = {g.prompt_id: g for g in graphs}
    entries = {}
    for seg_id in seg_ids:
        qg = graphs[0] if len(graphs) == 1 else by_prompt[seg_id]
        for img in range(rng.randint(1, 6)):
            for q in qg.questions:
                entries[(seg_id, f"i{img}", q.id)] = rng.choice(ANSWER_VARIANTS)
    return AnswerTable(entries=entries)


def random_question_graph(rng: random.Random, prompt_id: str, expected=("yes", "No ", " blue")) -> QuestionGraph:
    n = rng.randint(1, 9)
    questions = []
    for i in range(n):
        parents = rng.sample([f"q{j}" for j in range(i)], rng.randint(0, min(i, 3)))
        questions.append((f"q{i}", parents, rng.choice(expected)))
    rng.shuffle(questions)  # listed in any order, not only parents first
    return qgraph(*questions, prompt_id=prompt_id)


@pytest.mark.parametrize("mode", ["tifa", "dsg"])
def test_single_graph_plan_matches_the_per_image_reference(mode):
    rng = random.Random(37)
    for _ in range(60):
        qg = random_question_graph(rng, "p")
        answers = random_answer_table(rng, [qg], [f"s{i}" for i in range(rng.randint(1, 4))])
        table = accumulate_scores([qg], answers, mode)
        assert table.entries == reference_scores([qg], answers, mode)
        assert list(table.entries) == answers.images()


@pytest.mark.parametrize("mode", ["tifa", "dsg"])
def test_multi_graph_plans_match_the_per_image_reference(mode):
    rng = random.Random(41)
    for _ in range(30):
        graphs = [random_question_graph(rng, f"s{i}") for i in range(rng.randint(2, 6))]
        used = rng.sample([g.prompt_id for g in graphs], rng.randint(1, len(graphs)))
        answers = random_answer_table(rng, graphs, used)
        assert accumulate_scores(graphs, answers, mode).entries == reference_scores(graphs, answers, mode)


# texts that differ raw but normalize equal, and empty and whitespace-only ones
SHARED_TEXTS = ["yes", "Yes", " YES\t", "no", "NO ", "", " ", "\n\t"]


@pytest.mark.parametrize("mode", ["tifa", "dsg"])
def test_one_normalization_per_answer_text_matches_the_per_image_reference(mode):
    rng = random.Random(59)
    for _ in range(60):
        graphs = [random_question_graph(rng, f"s{i}", expected=("yes", " No", "", "  ")) for i in range(rng.randint(1, 4))]
        by_prompt = {g.prompt_id: g for g in graphs}
        # one object per text, so one text answers questions with different expected answers
        entries = {
            (seg_id, f"i{img}", q.id): rng.choice(SHARED_TEXTS)
            for seg_id in rng.sample(sorted(by_prompt), rng.randint(1, len(graphs)))
            for img in range(rng.randint(1, 5))
            for q in by_prompt[seg_id].questions
        }
        answers = AnswerTable(entries=dict(rng.sample(sorted(entries.items()), len(entries))))
        assert accumulate_scores(graphs, answers, mode).entries == reference_scores(graphs, answers, mode)


def test_one_text_answering_questions_that_expect_different_answers():
    qg = qgraph(("q1", [], "yes"), ("q2", ["q1"], "no"), ("q3", [], " "), ("q4", ["q3"], "Yes"))
    text = "Yes "
    answers = AnswerTable(entries={("s", "i", "q1"): text, ("s", "i", "q2"): text, ("s", "i", "q3"): "", ("s", "i", "q4"): text})
    assert accumulate_scores([qg], answers, "tifa").entries == {("s", "i"): 0.75}
    assert accumulate_scores([qg], answers, "dsg").entries == {("s", "i"): 0.75}


def test_api_built_graph_naming_an_unknown_parent_fails_dsg_with_the_loader_wording():
    qg = qgraph(("q0", [], "yes"), ("q1", ["q0", "qx"], "yes"))
    answers = {"q0": "yes", "q1": "yes"}
    table = AnswerTable(entries={("s", "i", qid): ans for qid, ans in answers.items()})
    message = "<data>: question 'q1' references unknown parent 'qx'"
    with pytest.raises(ValidationError) as exc:
        accumulate_scores([qg], table, "dsg")
    assert str(exc.value) == message
    with pytest.raises(ValidationError) as exc:
        dsg_accumulate(qg, answers)
    assert str(exc.value) == message
    # tifa reads no parents
    assert accumulate_scores([qg], table, "tifa").entries == {("s", "i"): 1.0}
    assert tifa_accumulate(qg, answers) == 1.0


def test_tifa_equals_the_flat_oracle_on_random_graphs():
    rng = random.Random(43)
    for _ in range(100):
        qg = random_question_graph(rng, "p")
        answers = {q.id: rng.choice(ANSWER_VARIANTS) for q in qg.questions}
        assert tifa_accumulate(qg, answers) == oracle_tifa(qg, answers)


def test_api_built_graph_repeating_an_id_divides_both_modes_by_distinct_ids():
    # the last of a repeated id's expected answers is the one checked
    qg = qgraph(("q1", [], "yes"), ("q2", ["q1"], "yes"), ("q1", [], "no"))
    answers = {"q1": "no", "q2": "yes"}
    assert tifa_accumulate(qg, answers) == 1.0  # 2 of the 2 distinct ids
    assert dsg_accumulate(qg, answers) == 1.0  # 2 of the 2 distinct ids
    table = AnswerTable(entries={("s", "i", qid): ans for qid, ans in answers.items()})
    assert accumulate_scores([qg], table, "tifa").entries == {("s", "i"): 1.0}
    assert accumulate_scores([qg], table, "dsg").entries == {("s", "i"): 1.0}


def test_every_answer_right_scores_one_in_both_modes_on_graphs_repeating_an_id():
    rng = random.Random(47)
    for _ in range(50):
        qg = random_dag(rng, rng.randint(1, 8))
        repeats = [rng.choice(qg.questions)._replace(expected_answer="no") for _ in range(rng.randint(1, 3))]
        qg = qg._replace(questions=qg.questions + tuple(repeats))
        answers = {q.id: q.expected_answer for q in qg.questions}  # a repeated id's last listed answer
        assert tifa_accumulate(qg, answers) == dsg_accumulate(qg, answers) == 1.0, qg


def test_answers_differing_only_in_whitespace_or_case_score_alike():
    qg = qgraph(("q1", [], " Yes"), ("q2", ["q1"], "BLUE "), ("q3", ["q2"], "no"))
    entries = {}
    for img, (a1, a2, a3) in enumerate([("yes", "blue", "no"), ("  YES\t", "Blue", " No\n"), ("yEs", "bLUE  ", "NO")]):
        entries |= {("s", f"i{img}", "q1"): a1, ("s", f"i{img}", "q2"): a2, ("s", f"i{img}", "q3"): a3}
    answers = AnswerTable(entries=entries)
    for mode in ("tifa", "dsg"):
        assert set(accumulate_scores([qg], answers, mode).entries.values()) == {1.0}


def test_each_graph_is_planned_once_on_first_use(monkeypatch):
    planned = []
    plan = scorers._plan
    monkeypatch.setattr(scorers, "_plan", lambda qg, gated: planned.append(qg.prompt_id) or plan(qg, gated))
    qa, qb, qc = (qgraph(("q1", [], "yes"), prompt_id=p) for p in ("sa", "sb", "sc"))
    # listed interleaved; images are scored sorted by seg id, so each graph's run together
    entries = {(seg, f"i{n}", "q1"): "yes" for n in range(5) for seg in ("sb", "sa")}
    for mode in ("tifa", "dsg"):
        planned.clear()
        accumulate_scores([qa, qb, qc], AnswerTable(entries=entries), mode)
        assert planned == ["sa", "sb"]  # sc has no images, so it is never planned


@pytest.mark.parametrize("mode", ["tifa", "dsg"])
def test_missing_answers_listed_sorted_with_the_image(mode):
    qg = qgraph(("q3", [], "yes"), ("q1", [], "yes"), ("q2", ["q1"], "yes"), ("q0", [], "yes"))
    answers = AnswerTable(entries={("s", "i1", "q1"): "yes", ("s", "i2", "q2"): "yes"})
    with pytest.raises(CoverageError) as exc:
        accumulate_scores([qg], answers, mode)
    assert str(exc.value) == "seg 's' image 'i1': missing answer(s) for question id(s): q0, q2, q3"
    assert exc.value.missing == ["q0", "q2", "q3"]
    with pytest.raises(CoverageError) as exc:
        (tifa_accumulate if mode == "tifa" else dsg_accumulate)(qg, {"q2": "no"})
    assert str(exc.value) == "missing answer(s) for question id(s): q0, q1, q3"
    assert exc.value.missing == ["q0", "q1", "q3"]


@pytest.mark.parametrize("mode", ["tifa", "dsg"])
def test_unknown_answer_ids_rejected_before_missing_ones(mode):
    qg = qgraph(("q1", [], "yes"), ("q2", ["q1"], "yes"))
    for answers, unknown in [
        ({"q1": "yes", "zz": "yes", "aa": "no"}, "aa, zz"),  # q2 is missing as well
        ({"q1": "yes", "q2": "yes", "zz": "no"}, "zz"),  # beside an answer for every question
    ]:
        table = AnswerTable(entries={("s", "i", qid): ans for qid, ans in answers.items()})
        with pytest.raises(ValidationError) as exc:
            accumulate_scores([qg], table, mode)
        assert str(exc.value) == f"answers for seg 's' image 'i' reference unknown question id(s): {unknown}"
        with pytest.raises(ValidationError) as exc:
            (tifa_accumulate if mode == "tifa" else dsg_accumulate)(qg, answers)
        assert str(exc.value) == f"answers reference unknown question id(s): {unknown}"


def test_missing_answers_name_a_repeated_id_once():
    qg = qgraph(("q1", [], "yes"), ("q2", [], "yes"), ("q1", [], "no"))  # an API-built graph listing q1 twice
    with pytest.raises(CoverageError) as exc:
        dsg_accumulate(qg, {"q2": "yes"})
    assert str(exc.value) == "missing answer(s) for question id(s): q1"
    assert exc.value.missing == ["q1"]
    with pytest.raises(CoverageError) as exc:
        accumulate_scores([qg], AnswerTable(entries={("s", "i", "q2"): "yes"}), "tifa")
    assert str(exc.value) == "seg 's' image 'i': missing answer(s) for question id(s): q1"
    assert exc.value.missing == ["q1"]


def test_api_built_cyclic_graph_fails_dsg_after_the_answer_checks_and_scores_tifa():
    cyclic = qgraph(("a", ["b"], "y"), ("b", ["a"], "y"), ("c", [], "y"))
    full = AnswerTable(entries={("s", "i", "a"): "y", ("s", "i", "b"): "n", ("s", "i", "c"): "Y"})
    message = "<data>: question graph 'p1' has a cyclic dependency"
    with pytest.raises(ValidationError) as exc:
        accumulate_scores([cyclic], full, "dsg")
    assert str(exc.value) == message
    with pytest.raises(ValidationError) as exc:
        dsg_accumulate(cyclic, {"a": "y", "b": "y", "c": "y"})
    assert str(exc.value) == message
    assert accumulate_scores([cyclic], full, "tifa").entries == {("s", "i"): 2 / 3}
    assert tifa_accumulate(cyclic, {"a": "y", "b": "n", "c": "y"}) == 2 / 3
    unknown = AnswerTable(entries={**full.entries, ("s", "i", "x"): "y"})
    with pytest.raises(ValidationError, match="unknown question id"):
        accumulate_scores([cyclic], unknown, "dsg")
    with pytest.raises(CoverageError, match="missing answer"):
        accumulate_scores([cyclic], AnswerTable(entries={("s", "i", "a"): "y"}), "dsg")


# ---------------------------------------------------------------------------
# embeddings


def test_cosine_identical_unit_vectors():
    v = EmbeddingVector(values=(1.0, 0.0))
    w = EmbeddingVector(values=(1.0, 0.0))
    assert embedding_correlation_score(v, w) == 1.0


def test_cosine_antipodal_clamped_to_zero():
    v = EmbeddingVector(values=(1.0, 0.0))
    w = EmbeddingVector(values=(-1.0, 0.0))
    assert embedding_correlation_score(v, w) == 0.0


def test_cosine_45_degrees():
    v = EmbeddingVector(values=(1.0, 0.0))
    w = EmbeddingVector(values=(1 / math.sqrt(2), 1 / math.sqrt(2)))
    assert embedding_correlation_score(v, w) == pytest.approx(0.7071068, abs=1e-6)


def test_cosine_scale_invariance():
    rng = random.Random(5)
    for scale in [4.25, 1e200, 1e-200] * 25:
        a = EmbeddingVector(values=tuple(rng.gauss(0, 1) for _ in range(8)))
        b = EmbeddingVector(values=tuple(rng.gauss(0, 1) for _ in range(8)))
        scaled = EmbeddingVector(values=tuple(scale * v for v in b.values))
        both = EmbeddingVector(values=tuple(scale * v for v in a.values))
        assert embedding_correlation_score(a, scaled) == pytest.approx(
            embedding_correlation_score(a, b), abs=1e-12
        )
        assert embedding_correlation_score(both, scaled) == pytest.approx(
            embedding_correlation_score(a, b), abs=1e-12
        )


@pytest.mark.parametrize("values", [(1e200, 1e200), (1e160, 0.0), (1e-200,), (5e-324, 0.0), (1.7e308, -1.7e308)])
def test_a_vector_of_any_scale_has_cosine_one_with_itself(tmp_path, values):
    vec = EmbeddingVector(values=values)
    assert embedding_correlation_score(vec, vec) == 1.0
    path = tmp_path / "emb.txt"
    path.write_text("v " + " ".join(map(repr, values)) + "\n")
    assert load_embeddings(path) == {"v": vec}


def test_cosine_in_range_equals_the_unscaled_formula_bit_for_bit():
    def unscaled(a, b):
        nt, ni = (math.sqrt(reduce(add, map(mul, v, v), 0.0)) for v in (a, b))
        return min(1.0, max(0.0, reduce(add, map(mul, a, b), 0.0) / (nt * ni)))

    rng = random.Random(31)
    for _ in range(2000):
        dim = rng.randint(1, 12)
        # values within 1e±40 keep every product and square, scaled or not, a normal float: in range
        a, b = (tuple(rng.gauss(0, 1) * 10.0 ** rng.randint(-40, 40) for _ in range(dim)) for _ in range(2))
        got = embedding_correlation_score(EmbeddingVector(values=a), EmbeddingVector(values=b))
        assert got.hex() == unscaled(a, b).hex()


def test_cosine_dimension_mismatch_and_zero_norm():
    v = EmbeddingVector(values=(1.0, 0.0))
    with pytest.raises(ValueError, match="dimension"):
        embedding_correlation_score(v, EmbeddingVector(values=(1.0,)))
    with pytest.raises(ValueError, match="zero-norm"):
        embedding_correlation_score(v, EmbeddingVector(values=(0.0, 0.0)))


def test_embedding_file_roundtrip(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 1.0 0.0\nb 0.5 0.5\n")
    vectors = load_embeddings(path)
    assert set(vectors) == {"a", "b"}
    assert vectors["a"].values == (1.0, 0.0)


def test_embedding_file_dimension_and_norm_checks(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 1.0 0.0\nb 0.5\n")
    with pytest.raises(ParseError, match="dimension"):
        load_embeddings(path)
    path.write_text("a 0 0\n")
    with pytest.raises(ParseError, match="zero-norm"):
        load_embeddings(path)


def test_embedding_score_table_pairs_prompt_with_images():
    seg = chain_seg([1, 1], seg_id="s")
    col = collection_of(seg)
    text = {"s": EmbeddingVector(values=(1.0, 0.0))}
    images = {
        "0-0.jpg": EmbeddingVector(values=(1.0, 0.0)),
        "1-0.jpg": EmbeddingVector(values=(0.0, 1.0)),
    }
    table = embedding_score_table(col, text, images)
    assert table.entries[("s", "0-0.jpg")] == 1.0
    assert table.entries[("s", "1-0.jpg")] == 0.0
    with pytest.raises(CoverageError):
        embedding_score_table(col, {}, images)


def test_embedding_scores_feed_the_meta_metrics():
    from segeval.metametrics import rank_score

    collection = generate_segs(SynthConfig(seed=51, seg_count=3))
    for seg in collection:
        # image vectors rotate away from the prompt vector as errors grow
        text = {seg.id: EmbeddingVector(values=(1.0, 0.0))}
        images = {}
        max_count = max(n.error_count for n in seg.nodes)
        for node in seg.nodes:
            angle = (math.pi / 2) * node.error_count / max_count
            for img in node.images:
                images[img] = EmbeddingVector(values=(math.cos(angle), math.sin(angle)))
        table = embedding_score_table(collection_of(seg), text, images)
        assert rank_score(seg, table) == 1.0
