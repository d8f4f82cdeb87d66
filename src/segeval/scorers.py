"""Reference score producers.

Converts externally supplied artifacts into standard per-image score tables:

* requirement-question answers on a dependency DAG, combined either as the
  flat correct-answer rate (``tifa`` accumulation) or with ancestor gating,
  where a question only counts if it and every question upstream of it are
  answered correctly (``dsg`` accumulation);
* precomputed text/image embedding vectors, scored by cosine similarity
  clamped below at zero.

No model is ever run here; question generation, visual question answering,
and embedding extraction all happen upstream and enter as files.

Formats: question graphs are JSON objects
``{"prompt_id": str, "questions": [{"id": str, "parent_ids": [str, ...],
"expected_answer": str}, ...]}`` (a top-level array of such objects is also
accepted); answers are CSV ``seg_id,image_id,question_id,answer``;
embeddings are text files with one ``id v1 v2 ...`` record per line.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from operator import add, mul
from pathlib import Path
from typing import Literal, Mapping, NamedTuple

from .errors import CoverageError, ParseError, ValidationError
from .fileio import fields, not_utf8, read_csv, read_json, str_list
from .metametrics import ScoreTable
from .seg import SegCollection, _topological_order

AccumulationMode = Literal["tifa", "dsg"]

ACCUMULATION_MODES = ("tifa", "dsg")

ANSWER_CSV_HEADER = ["seg_id", "image_id", "question_id", "answer"]


class Question(NamedTuple):
    id: str
    parent_ids: tuple[str, ...]
    expected_answer: str


class QuestionGraph(NamedTuple):
    prompt_id: str
    questions: tuple[Question, ...]


class AnswerTable:
    """Answers keyed by (seg_id, image_id, question_id), grouped per image on first use."""

    def __init__(self, entries: Mapping[tuple[str, str, str], str]) -> None:
        self.__dict__["entries"] = entries

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"AnswerTable(entries={self.entries!r})"

    def __eq__(self, other: object) -> bool:
        return self.entries == other.entries if other.__class__ is self.__class__ else NotImplemented

    @cached_property
    def _by_image(self) -> dict[tuple[str, str], dict[str, str]]:
        grouped: dict[tuple[str, str], dict[str, str]] = {}
        for (seg_id, image_id, qid), ans in self.entries.items():
            grouped.setdefault((seg_id, image_id), {})[qid] = ans
        return grouped

    def images(self) -> list[tuple[str, str]]:
        return sorted(self._by_image)

    def answers_for(self, seg_id: str, image_id: str) -> dict[str, str]:
        return dict(self._by_image.get((seg_id, image_id), {}))


def _normalize_answer(text: str) -> str:
    return text.strip().casefold()


def _gating_order(qg: QuestionGraph) -> list[str] | None:
    """Question ids with every parent before its children; None on a cycle."""
    succs: dict[str, list[tuple[str, int]]] = {q.id: [] for q in qg.questions}
    for q in qg.questions:
        for p in q.parent_ids:
            succs[p].append((q.id, 1))  # the weight goes unread
    return _topological_order(succs)


def _cycle_error(qg: QuestionGraph, source: str) -> ValidationError:
    return ValidationError(f"{source}: question graph {qg.prompt_id!r} has a cyclic dependency")


_GRAPH_FIELDS = {"prompt_id": str, "questions": object}  # any non-list is the non-empty-list error below
_QUESTION_FIELDS = {"id": str, "parent_ids": list, "expected_answer": str}


def _parse_question_graph(data: dict, source: str) -> QuestionGraph:
    prompt_id, raw_questions = fields(data, _GRAPH_FIELDS, "question graph", source)
    if not isinstance(raw_questions, list) or not raw_questions:
        raise ParseError("field 'questions' must be a non-empty list", source=source)
    questions = []
    ids = set()
    for i, q in enumerate(raw_questions):
        where = f"question graph {prompt_id!r}: questions[{i}]"
        qid, parent_ids, expected = fields(q, _QUESTION_FIELDS, where, source)
        if not qid:
            raise ParseError(f"{where}: field 'id' must be a non-empty string", source=source)
        if qid in ids:
            raise ValidationError(f"{source}: duplicate question id {qid!r}")
        ids.add(qid)
        questions.append(Question(qid, str_list(parent_ids, "parent_ids", where, source), expected))
    for q in questions:
        for pid in q.parent_ids:
            if pid not in ids:
                raise ValidationError(f"{source}: question {q.id!r} references unknown parent {pid!r}")
    qg = QuestionGraph(prompt_id=prompt_id, questions=tuple(questions))
    if _gating_order(qg) is None:
        raise _cycle_error(qg, source)
    return qg


def load_question_graphs(path: str | Path) -> list[QuestionGraph]:
    """One or more question graphs from a JSON file (object or array)."""
    path = Path(path)
    data = read_json(path)
    items = data if isinstance(data, list) else [data]
    if not items:
        raise ParseError("no question graphs in file", source=str(path))
    graphs = [_parse_question_graph(item, str(path)) for item in items]
    seen: set[str] = set()
    for g in graphs:
        if g.prompt_id in seen:
            raise ValidationError(f"{path}: duplicate prompt_id {g.prompt_id!r}")
        seen.add(g.prompt_id)
    return graphs


def load_answer_table(path: str | Path) -> AnswerTable:
    """Answers from a CSV file, holding one string per distinct id and answer text."""
    path = Path(path)
    entries: dict[tuple[str, str, str], str] = {}
    share = {}.setdefault  # each field's first equal string; local, as answers are free text
    for lineno, (seg_id, image_id, question_id, answer) in read_csv(path, ANSWER_CSV_HEADER):
        key = (share(seg_id, seg_id), share(image_id, image_id), share(question_id, question_id))
        if key in entries:
            raise ParseError(f"line {lineno}: duplicate answer for {key}", source=str(path))
        entries[key] = share(answer, answer)
    return AnswerTable(entries=entries)


# ---------------------------------------------------------------------------
# accumulation


class _Plan(NamedTuple):
    """What scoring one image against a question graph needs, derived once per graph."""

    expected: dict[str, str]  # question id -> normalized expected answer
    gated: bool
    # dsg only: (id, normalized expected answer, parent ids), each parent
    # before its children; None in tifa mode or when the graph has a cycle
    steps: tuple[tuple[str, str, tuple[str, ...]], ...] | None


def _plan(qg: QuestionGraph, gated: bool) -> _Plan:
    expected = {q.id: _normalize_answer(q.expected_answer) for q in qg.questions}
    if not gated:
        return _Plan(expected, False, None)
    parents = {q.id: q.parent_ids for q in qg.questions}
    order = _gating_order(qg)
    steps = None if order is None else tuple((qid, expected[qid], parents[qid]) for qid in order)
    return _Plan(expected, True, steps)


def _accumulate(qg: QuestionGraph, plan: _Plan, answers: Mapping[str, str]) -> float:
    """The share of questions answered correctly (and, gated, with every parent satisfied)."""
    if not answers.keys() >= plan.expected.keys():
        missing = sorted(q.id for q in qg.questions if q.id not in answers)
        raise CoverageError(
            "missing answer(s) for question id(s): " + ", ".join(missing), missing=missing
        )
    if not plan.gated:
        correct = sum(_normalize_answer(answers[qid]) == expected for qid, expected in plan.expected.items())
        return correct / len(plan.expected)
    if plan.steps is None:
        raise _cycle_error(qg, "<data>")
    satisfied: set[str] = set()
    for qid, expected, parents in plan.steps:
        if _normalize_answer(answers[qid]) == expected and satisfied.issuperset(parents):
            satisfied.add(qid)
    # not len(plan.expected): the two differ only on an API-built graph that repeats an id
    return len(satisfied) / len(qg.questions)


def tifa_accumulate(qg: QuestionGraph, answers: Mapping[str, str]) -> float:
    """Flat correct-answer rate over all questions, in [0, 1]."""
    return _accumulate(qg, _plan(qg, gated=False), answers)


def dsg_accumulate(qg: QuestionGraph, answers: Mapping[str, str]) -> float:
    """Ancestor-gated satisfaction rate, in [0, 1].

    A question is satisfied iff its own answer is correct and every parent
    question is satisfied (so a wrong answer anywhere upstream removes
    credit for the whole subtree).
    """
    return _accumulate(qg, _plan(qg, gated=True), answers)


def accumulate_scores(
    graphs: list[QuestionGraph],
    answers: AnswerTable,
    mode: AccumulationMode,
    metric_name: str | None = None,
) -> ScoreTable:
    """Score every (seg, image) in the answer table under one accumulation rule.

    With a single graph it applies to every seg in the table; with several,
    each seg uses the graph whose prompt_id equals the seg id.  The metric
    name defaults to the prompt id (or "questions") suffixed ``-{mode}-acc``.
    Each graph's expected answers and gating order are derived once, on
    first use, and held while that graph's images are scored.
    """
    if mode not in ACCUMULATION_MODES:
        raise ValueError(f"unknown accumulation mode: {mode!r}")
    if not graphs:
        raise ValueError("no question graphs given")
    by_prompt = {g.prompt_id: g for g in graphs}
    planned: QuestionGraph | None = None
    base = metric_name or (graphs[0].prompt_id if len(graphs) == 1 else "questions")
    name = f"{base}-{mode}-acc"

    entries: dict[tuple[str, str], float] = {}
    for key in answers.images():  # the index's own key tuples, shared with the output
        seg_id, image_id = key
        if len(graphs) == 1:
            qg = graphs[0]
        elif seg_id in by_prompt:
            qg = by_prompt[seg_id]
        else:
            raise CoverageError(
                f"no question graph with prompt_id {seg_id!r} for seg {seg_id!r}"
            )
        if qg is not planned:  # images come sorted by seg id, so a graph's are contiguous
            plan, planned = _plan(qg, gated=mode == "dsg"), qg
        per_image = answers._by_image[key]  # read, not copied as answers_for copies it
        unknown = sorted(per_image.keys() - plan.expected.keys())
        if unknown:
            raise ValidationError(
                f"answers for seg {seg_id!r} image {image_id!r} reference unknown "
                "question id(s): " + ", ".join(unknown)
            )
        try:
            entries[key] = _accumulate(qg, plan, per_image)
        except CoverageError as exc:
            raise CoverageError(
                f"seg {seg_id!r} image {image_id!r}: {exc}", missing=exc.missing
            ) from exc
    return ScoreTable(metric_name=name, entries=entries)


# ---------------------------------------------------------------------------
# embedding correlation


class EmbeddingVector(NamedTuple):
    values: tuple[float, ...]

    def norm(self) -> float:
        return math.sqrt(reduce(add, map(mul, self.values, self.values), 0.0))


def load_embeddings(path: str | Path) -> dict[str, EmbeddingVector]:
    """Parse ``id v1 v2 ...`` records; all vectors must share a dimension."""
    path = Path(path)
    vectors: dict[str, EmbeddingVector] = {}
    dim: int | None = None
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from exc
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        vec_id, raw = parts[0], parts[1:]
        if not raw:
            raise ParseError(f"line {lineno}: record {vec_id!r} has no values", source=str(path))
        if vec_id in vectors:
            raise ParseError(f"line {lineno}: duplicate id {vec_id!r}", source=str(path))
        try:
            values = tuple(float(tok) for tok in raw)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric value in record {vec_id!r}", source=str(path)) from None
        if not all(math.isfinite(v) for v in values):
            raise ParseError(f"line {lineno}: non-finite value in record {vec_id!r}", source=str(path))
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise ParseError(
                f"line {lineno}: record {vec_id!r} has dimension {len(values)}, expected {dim}",
                source=str(path),
            )
        vec = EmbeddingVector(values=values)
        if vec.norm() == 0.0:
            raise ParseError(f"line {lineno}: zero-norm vector {vec_id!r}", source=str(path))
        vectors[vec_id] = vec
    if not vectors:
        raise ParseError("no embedding records found", source=str(path))
    return vectors


def embedding_correlation_score(text_vec: EmbeddingVector, image_vec: EmbeddingVector) -> float:
    """Cosine similarity clamped to [0, 1]."""
    if len(text_vec.values) != len(image_vec.values):
        raise ValueError(
            f"dimension mismatch: {len(text_vec.values)} vs {len(image_vec.values)}"
        )
    nt, ni = text_vec.norm(), image_vec.norm()
    if nt == 0.0 or ni == 0.0:
        raise ValueError("zero-norm embedding vector")
    dot = reduce(add, map(mul, text_vec.values, image_vec.values), 0.0)
    return min(1.0, max(0.0, dot / (nt * ni)))


def embedding_score_table(
    collection: SegCollection,
    text_embeddings: Mapping[str, EmbeddingVector],
    image_embeddings: Mapping[str, EmbeddingVector],
    metric_name: str = "embedding-corr",
) -> ScoreTable:
    """Score every image of every SEG against its prompt's text embedding.

    Text vectors are keyed by seg id, image vectors by image id.
    """
    entries: dict[tuple[str, str], float] = {}
    missing: list[tuple[str, str]] = []
    for seg in collection:
        if seg.id not in text_embeddings:
            missing.append((seg.id, "<prompt>"))
            continue
        tv = text_embeddings[seg.id]
        for img in seg.image_ids():
            if img not in image_embeddings:
                missing.append((seg.id, img))
                continue
            entries[(seg.id, img)] = embedding_correlation_score(tv, image_embeddings[img])
    if missing:
        raise CoverageError(
            "missing embedding(s) for: "
            + ", ".join(f"{s}/{i}" for s, i in missing[:10])
            + ("..." if len(missing) > 10 else ""),
            missing=missing,
        )
    return ScoreTable(metric_name=metric_name, entries=entries)
