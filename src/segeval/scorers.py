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
accepted); answers are CSV ``seg_id,image_id,question_id,answer``, read
image by image through an index view, as scores are read SEG by SEG;
embeddings are text files with one ``id v1 v2 ...`` record per line.
Both producers build their table as the per-SEG index ``{seg_id: {image_id:
score}}`` that a loaded score table holds, so no key tuple is made per image.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import reduce
from operator import add, mul
from pathlib import Path
from typing import Literal, NamedTuple

from .errors import CoverageError, ParseError, SegEvalError, ValidationError
from .fileio import IndexView, check_keys, fields, load_csv, not_utf8, read_json, str_list
from .metametrics import ScoreTable
from .seg import SegCollection, _topological_order
from .stats import _unit_exponent

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


def _index(rows) -> tuple[IndexView, int]:
    """The per-image index of ``(seg_id, image_id, question_id, answer)`` rows, one string per distinct text; the row count."""
    by_image: dict[tuple[str, str], dict[str, str]] = {}
    get = by_image.get
    share = {}.setdefault  # each field's first equal string; local, as answers are free text
    n = 0
    for n, (seg_id, image_id, question_id, answer) in enumerate(rows, 1):
        per_image = get((seg_id, image_id))
        if per_image is None:
            per_image = by_image[share(seg_id, seg_id), share(image_id, image_id)] = {}
        per_image[share(question_id, question_id)] = share(answer, answer)
    return IndexView(by_image), n


class AnswerTable:
    """Answers keyed by (seg_id, image_id, question_id), indexed per image when the table is built.

    ``entries`` is an :class:`~segeval.fileio.IndexView` of that index, read
    image by image; a mapping given is copied into it, and a key that is not
    a tuple of three strings is a ValidationError.
    """

    def __init__(self, entries: Mapping[tuple[str, str, str], str]) -> None:
        if not isinstance(entries, IndexView):
            check_keys(entries, ANSWER_CSV_HEADER[:3], "answer ")
            entries = _index((*key, answer) for key, answer in entries.items())[0]
        self.__dict__["entries"] = entries

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"AnswerTable(entries={self.entries!r})"

    def __eq__(self, other: object) -> bool:
        return self.entries == other.entries if other.__class__ is self.__class__ else NotImplemented

    def images(self) -> list[tuple[str, str]]:
        return sorted(self.entries.index)

    def answers_for(self, seg_id: str, image_id: str) -> dict[str, str]:
        return dict(self.entries.index.get((seg_id, image_id), {}))


def _normalize_answer(text: str) -> str:
    return text.strip().casefold()


class _Normalized(dict):
    """Each answer text's normalized form, computed on its first lookup."""

    def __missing__(self, text: str) -> str:
        self[text] = norm = _normalize_answer(text)
        return norm


def _gating_order(qg: QuestionGraph, source: str) -> list[str]:
    """Question ids with every parent before its children; a repeated id, then an unknown parent, then a cycle
    is a ValidationError naming ``source``, as the loader words it."""
    succs: dict[str, list[tuple[str, int]]] = {}
    for q in qg.questions:
        if q.id in succs:
            raise ValidationError(f"{source}: duplicate question id {q.id!r}")
        succs[q.id] = []
    for q in qg.questions:
        for p in q.parent_ids:
            if p not in succs:
                raise ValidationError(f"{source}: question {q.id!r} references unknown parent {p!r}")
            succs[p].append((q.id, 1))  # the weight goes unread
    order = _topological_order(succs)
    if order is None:
        raise ValidationError(f"{source}: question graph {qg.prompt_id!r} has a cyclic dependency")
    return order


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
        if qid in ids:  # raised here, so it precedes any later question's ParseError
            raise ValidationError(f"{source}: duplicate question id {qid!r}")
        ids.add(qid)
        questions.append(Question(qid, str_list(parent_ids, "parent_ids", where, source), expected))
    qg = QuestionGraph(prompt_id=prompt_id, questions=tuple(questions))
    _gating_order(qg, source)
    return qg


def load_question_graphs(path: str | Path) -> list[QuestionGraph]:
    """One or more question graphs from a JSON file (object or array)."""
    path = Path(path)
    data = read_json(path)
    items = data if isinstance(data, list) else [data]
    if not items:
        raise ParseError("no question graphs in file", source=str(path))
    graphs = [_parse_question_graph(item, str(path)) for item in items]
    _by_prompt(graphs, str(path))
    return graphs


def _by_prompt(graphs: list[QuestionGraph], source: str) -> dict[str, QuestionGraph]:
    """``graphs`` keyed by prompt_id; a repeated prompt_id is a ValidationError."""
    by_prompt: dict[str, QuestionGraph] = {}
    for g in graphs:
        if g.prompt_id in by_prompt:
            raise ValidationError(f"{source}: duplicate prompt_id {g.prompt_id!r}")
        by_prompt[g.prompt_id] = g
    return by_prompt


def _answer_table(rows) -> AnswerTable | None:
    entries, n = _index(rows)  # a key answered twice leaves fewer answers than rows
    return AnswerTable(entries) if len(entries) == n else None


def _first_bad_answer(rows, source: str) -> None:
    """The ParseError of the first duplicate ``(lineno, row)``, as the loader raised it row by row."""
    seen = set()
    for lineno, (seg_id, image_id, question_id, _) in rows:
        key = (seg_id, image_id, question_id)
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate answer for {key}", source=source)
        seen.add(key)


def load_answer_table(path: str | Path) -> AnswerTable:
    """Answers from a CSV file, indexed per image, holding one string per distinct id and answer text."""
    return load_csv(Path(path), ANSWER_CSV_HEADER, _answer_table, _first_bad_answer)


# ---------------------------------------------------------------------------
# accumulation


class _Plan(NamedTuple):
    """What scoring one image against a question graph needs, derived once per graph."""

    expected: dict[str, str]  # question id -> normalized expected answer
    # (id, normalized expected answer, parent ids) in gating order; tifa gives no question parents
    steps: tuple[tuple[str, str, tuple[str, ...]], ...]


def _plan(qg: QuestionGraph, gated: bool) -> _Plan:
    order = _gating_order(qg, "<data>")
    expected = {q.id: _normalize_answer(q.expected_answer) for q in qg.questions}
    parents = {q.id: q.parent_ids if gated else () for q in qg.questions}
    return _Plan(expected, tuple((qid, expected[qid], parents[qid]) for qid in order))


def _answers_error(plan: _Plan, answers: Mapping[str, str], image: str = "") -> SegEvalError:
    """Why ``answers`` for ``image`` (if named) miss ``plan``'s question ids: unknown ids first, then missing ones."""
    unknown = sorted(answers.keys() - plan.expected.keys())
    if unknown:
        whose = f"answers for {image}" if image else "answers"
        return ValidationError(f"{whose} reference unknown question id(s): " + ", ".join(unknown))
    missing = sorted(plan.expected.keys() - answers.keys())
    where = f"{image}: " if image else ""
    return CoverageError(where + "missing answer(s) for question id(s): " + ", ".join(missing), missing=missing)


def _accumulate(plan: _Plan, answers: Mapping[str, str], normalized: _Normalized) -> float:
    """The share of questions answered correctly with every parent satisfied (tifa: no parents).

    ``answers`` holds an answer for exactly the question ids of the plan.
    """
    satisfied: set[str] = set()
    for qid, expected, parents in plan.steps:
        if normalized[answers[qid]] == expected and satisfied.issuperset(parents):
            satisfied.add(qid)
    return len(satisfied) / len(plan.expected)


def _accumulate_one(qg: QuestionGraph, answers: Mapping[str, str], gated: bool) -> float:
    plan = _plan(qg, gated)
    if answers.keys() != plan.expected.keys():
        raise _answers_error(plan, answers)
    return _accumulate(plan, answers, _Normalized())


def tifa_accumulate(qg: QuestionGraph, answers: Mapping[str, str]) -> float:
    """Flat correct-answer rate over all questions, in [0, 1]."""
    return _accumulate_one(qg, answers, gated=False)


def dsg_accumulate(qg: QuestionGraph, answers: Mapping[str, str]) -> float:
    """Ancestor-gated satisfaction rate, in [0, 1].

    A question is satisfied iff its own answer is correct and every parent
    question is satisfied (so a wrong answer anywhere upstream removes
    credit for the whole subtree).
    """
    return _accumulate_one(qg, answers, gated=True)


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
    first use, and held while that graph's images are scored; each distinct
    answer text is normalized once per call.  In both modes, a repeated
    prompt_id, or a graph that repeats a question id, names an unknown parent
    or has a cycle, raises the ValidationError :func:`load_question_graphs`
    would, with source ``<data>``.
    """
    if mode not in ACCUMULATION_MODES:
        raise ValueError(f"unknown accumulation mode: {mode!r}")
    if not graphs:
        raise ValueError("no question graphs given")
    by_prompt = _by_prompt(graphs, "<data>")
    single = graphs[0] if len(graphs) == 1 else None
    planned: QuestionGraph | None = None
    base = metric_name or (single.prompt_id if single else "questions")
    name = f"{base}-{mode}-acc"

    normalized = _Normalized()
    by_image = answers.entries.index  # read, not copied as answers_for copies it
    index: dict[str, dict[str, float]] = {}
    for key in answers.images():  # sorted, so each SEG's images are contiguous
        seg_id, image_id = key  # the answer index's own strings, shared with the output
        qg = single or by_prompt.get(seg_id)
        if qg is None:
            raise CoverageError(
                f"no question graph with prompt_id {seg_id!r} for seg {seg_id!r}"
            )
        if qg is not planned:
            plan, planned = _plan(qg, gated=mode == "dsg"), qg
        per_image = by_image[key]
        if per_image.keys() != plan.expected.keys():
            raise _answers_error(plan, per_image, f"seg {seg_id!r} image {image_id!r}")
        index.setdefault(seg_id, {})[image_id] = _accumulate(plan, per_image, normalized)
    return ScoreTable(metric_name=name, entries=IndexView(index))


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
        if not any(values):
            raise ParseError(f"line {lineno}: zero-norm vector {vec_id!r}", source=str(path))
        vectors[vec_id] = EmbeddingVector(values=values)
    if not vectors:
        raise ParseError("no embedding records found", source=str(path))
    return vectors


def _unit_scaled(vec: EmbeddingVector) -> EmbeddingVector:
    """``vec`` times the power of two that puts its largest |value| in [0.5, 1): exact in range, and no norm overflows."""
    exponent = _unit_exponent(vec.values)
    return EmbeddingVector(tuple(math.ldexp(v, -exponent) for v in vec.values))


def embedding_correlation_score(text_vec: EmbeddingVector, image_vec: EmbeddingVector) -> float:
    """Cosine similarity clamped to [0, 1]; only an all-zero vector has no direction."""
    if len(text_vec.values) != len(image_vec.values):
        raise ValueError(
            f"dimension mismatch: {len(text_vec.values)} vs {len(image_vec.values)}"
        )
    text_vec, image_vec = _unit_scaled(text_vec), _unit_scaled(image_vec)
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
    index: dict[str, dict[str, float]] = {}
    missing: list[tuple[str, str]] = []
    for seg in collection:
        if seg.id not in text_embeddings:
            missing.append((seg.id, "<prompt>"))
            continue
        tv, scores = text_embeddings[seg.id], index.setdefault(seg.id, {})  # a repeated seg id merges
        for img in seg.image_ids():
            if img not in image_embeddings:
                missing.append((seg.id, img))
                continue
            scores[img] = embedding_correlation_score(tv, image_embeddings[img])
    if missing:
        raise CoverageError(
            "missing embedding(s) for: "
            + ", ".join(f"{s}/{i}" for s, i in missing[:10])
            + ("..." if len(missing) > 10 else ""),
            missing=missing,
        )
    return ScoreTable(metric_name=metric_name, entries=IndexView(index))
