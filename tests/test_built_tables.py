"""Every score table segeval builds against the flat tables it used to build.

Oracle, ``accumulate`` and embedding tables are built as the per-SEG index
``{seg_id: {image_id: score}}`` behind :class:`~segeval.fileio.IndexView`.
Each must read as the flat ``{(seg_id, image_id): score}`` dict the same
producer built before, in the same order, and write the same bytes.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import segeval.metametrics as metametrics
import segeval.scorers as scorers
import segeval.synth as synth
from segeval.fileio import IndexView
from segeval.metametrics import ScoreTable, load_score_tables, write_score_tables
from segeval.scorers import (
    AnswerTable, EmbeddingVector, Question, QuestionGraph, accumulate_scores, dsg_accumulate,
    embedding_correlation_score, embedding_score_table, tifa_accumulate,
)
from segeval.seg import SegCollection
from segeval.synth import ORACLE_KINDS, SynthConfig, generate_segs, oracle_scores

from conftest import FlatTable, chain_seg, make_seg, reference_oracle_scores, reference_write


def _range(lo: int, hi: int):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(sorted).map(tuple)


CONFIGS = st.builds(
    SynthConfig,
    seed=st.integers(0, 2**32),
    seg_count=st.integers(1, 8),
    nodes_per_seg=_range(2, 12),
    images_per_node=_range(1, 8),
    branch_probability=st.floats(0.0, 1.0),
    multi_error_edge_probability=st.floats(0.0, 1.0),
    noise_sigma=st.floats(0.0, 2.0),
)


def reference_accumulate(graphs, answers: AnswerTable, mode: str, metric_name=None) -> FlatTable:
    """The accumulate table as it was built: a flat dict in sorted image order, each image scored on its own."""
    by_prompt = {g.prompt_id: g for g in graphs}
    score = dsg_accumulate if mode == "dsg" else tifa_accumulate
    base = metric_name or (graphs[0].prompt_id if len(graphs) == 1 else "questions")
    entries = {}
    for seg_id, image_id in answers.images():
        qg = graphs[0] if len(graphs) == 1 else by_prompt[seg_id]
        entries[(seg_id, image_id)] = score(qg, answers.answers_for(seg_id, image_id))
    return FlatTable(f"{base}-{mode}-acc", entries)


def reference_embedding(collection, text, images, metric_name="embedding-corr") -> FlatTable:
    """The embedding table as it was built: a flat dict in collection order."""
    entries = {}
    for seg in collection:
        for img in seg.image_ids():
            entries[(seg.id, img)] = embedding_correlation_score(text[seg.id], images[img])
    return FlatTable(metric_name, entries)


def assert_reads_as_flat(table: ScoreTable, flat: FlatTable) -> None:
    assert isinstance(table.entries, IndexView) and table.metric_name == flat.metric_name
    assert dict(table.entries) == flat.entries
    assert list(table.entries) == list(flat.entries)
    assert len(table.entries) == len(flat.entries)


def assert_writes_as_flat(table: ScoreTable, flat: FlatTable, work) -> None:
    """The indexed table and tables built from its scores as a flat dict, and from that dict shuffled, write one
    file, the all-rows sort's."""
    items = list(flat.entries.items())
    random.Random(len(items)).shuffle(items)
    shuffled = ScoreTable(flat.metric_name, dict(items))
    reference_write([flat], work / "reference.csv")
    want = (work / "reference.csv").read_bytes()
    for n, written in enumerate([table, ScoreTable(*flat), shuffled]):
        write_score_tables([written], work / f"{n}.csv")
        assert (work / f"{n}.csv").read_bytes() == want


@settings(max_examples=40, deadline=None)
@given(config=CONFIGS)
def test_oracle_tables_read_and_write_as_the_flat_tables(tmp_path_factory, config):
    collection = generate_segs(config)
    work = tmp_path_factory.mktemp("oracle")
    for kind in ORACLE_KINDS:
        table = oracle_scores(collection, kind, noise_sigma=config.noise_sigma, seed=config.seed)
        flat = reference_oracle_scores(collection, kind, noise_sigma=config.noise_sigma, seed=config.seed)
        assert_reads_as_flat(table, flat)
        assert_writes_as_flat(table, flat, work)


def _random_graph(rng: random.Random, prompt_id: str) -> QuestionGraph:
    questions = []
    for i in range(rng.randint(1, 6)):
        parents = tuple(rng.sample([f"q{j}" for j in range(i)], rng.randint(0, min(i, 2))))
        questions.append(Question(f"q{i}", parents, rng.choice(["yes", "No ", "blue"])))
    rng.shuffle(questions)
    return QuestionGraph(prompt_id, tuple(questions))


@settings(max_examples=40, deadline=None)
@given(config=CONFIGS, per_seg=st.booleans(), rng=st.randoms(use_true_random=False))
def test_accumulate_tables_read_and_write_as_the_flat_tables(tmp_path_factory, config, per_seg, rng):
    collection = generate_segs(config)
    if per_seg:  # one graph per SEG, matched by prompt id
        graphs = [_random_graph(rng, seg.id) for seg in collection]
    else:
        graphs = [_random_graph(rng, "p")]
    by_prompt = {g.prompt_id: g for g in graphs}
    answers = AnswerTable({
        (seg.id, img, q.id): rng.choice(["yes", " Yes", "no", "Blue\n", "red"])
        for seg in collection
        for img in seg.image_ids()
        for q in by_prompt.get(seg.id, graphs[0]).questions
    })
    work = tmp_path_factory.mktemp("accumulate")
    for mode in ("tifa", "dsg"):
        table = accumulate_scores(graphs, answers, mode)
        flat = reference_accumulate(graphs, answers, mode)
        assert_reads_as_flat(table, flat)
        assert_writes_as_flat(table, flat, work)


@settings(max_examples=40, deadline=None)
@given(config=CONFIGS, dim=st.integers(1, 4), rng=st.randoms(use_true_random=False))
def test_embedding_tables_read_and_write_as_the_flat_tables(tmp_path_factory, config, dim, rng):
    collection = generate_segs(config)

    def vector() -> EmbeddingVector:
        return EmbeddingVector(tuple(rng.choice([1.0, 0.5, -0.25]) * rng.random() + 1e-3 for _ in range(dim)))

    text = {seg.id: vector() for seg in collection}
    images = {img: vector() for seg in collection for img in seg.image_ids()}
    table = embedding_score_table(collection, text, images)
    flat = reference_embedding(collection, text, images)
    assert_reads_as_flat(table, flat)
    assert_writes_as_flat(table, flat, tmp_path_factory.mktemp("embedding"))


def test_a_repeated_seg_id_merges_into_one_group_as_its_flat_keys_did(tmp_path):
    # a hand-built collection may hold a seg id twice; the second SEG's scores overwrite the first's
    # for the images both list, and add the rest, as assignments to the flat dict did
    first = chain_seg([2, 1, 1], seg_id="s")
    other = chain_seg([1, 1], seg_id="t")
    again = make_seg([("0", 0, ["0-1.jpg", "x.jpg"]), ("1", 3, ["1-0.jpg"])], [("0", "1", 3)], seg_id="s")
    collection = SegCollection((first, other, again))
    for kind in ORACLE_KINDS:
        table, flat = oracle_scores(collection, kind, seed=2), reference_oracle_scores(collection, kind, seed=2)
        assert dict(table.entries) == flat.entries and len(table.entries) == len(flat.entries) == 7
        assert_writes_as_flat(table, flat, tmp_path)
    vectors = {name: EmbeddingVector((1.0, k / 8)) for k, name in enumerate(["s", "t", *first.image_ids(), "x.jpg"])}
    table, flat = embedding_score_table(collection, vectors, vectors), reference_embedding(collection, vectors, vectors)
    assert dict(table.entries) == flat.entries and len(table.entries) == len(flat.entries) == 7
    assert_writes_as_flat(table, flat, tmp_path)


def test_every_builder_hands_its_table_the_index_it_built_with_no_copy(tmp_path, monkeypatch):
    # a ScoreTable holds an index view of string keys and finite floats as given, so the dict each builder
    # indexes its scores in is the table's own index, with no copy of it beside it
    collection = generate_segs(SynthConfig(seed=3, seg_count=6))
    write_score_tables([oracle_scores(collection, kind) for kind in ORACLE_KINDS], tmp_path / "scores.csv")
    graph = QuestionGraph("p", (Question("q0", (), "yes"), Question("q1", ("q0",), "no")))
    answers = AnswerTable({(seg.id, img, q): "yes" for seg in collection for img in seg.image_ids() for q in ("q0", "q1")})
    vectors = {name: EmbeddingVector((1.0, len(name) / 8)) for seg in collection for name in [seg.id, *seg.image_ids()]}

    def assert_held_as_given(module, build) -> None:
        built = []  # each index the builder hands IndexView

        class RecordingView(IndexView):
            __slots__ = ()

            def __init__(self, index: dict) -> None:
                built.append(index)
                super().__init__(index)

        with monkeypatch.context() as m:
            m.setattr(module, "IndexView", RecordingView)
            tables = build()
        tables = list(tables.values()) if isinstance(tables, dict) else [tables]
        assert len(tables) == len(built) and all(t.entries.index is index for t, index in zip(tables, built))
        assert all(type(t.entries) is RecordingView for t in tables)

    assert_held_as_given(metametrics, lambda: load_score_tables(tmp_path / "scores.csv"))
    for kind in ORACLE_KINDS:
        assert_held_as_given(synth, lambda: oracle_scores(collection, kind))
    for mode in ("tifa", "dsg"):
        assert_held_as_given(scorers, lambda: accumulate_scores([graph], answers, mode))
    assert_held_as_given(scorers, lambda: embedding_score_table(collection, vectors, vectors))
