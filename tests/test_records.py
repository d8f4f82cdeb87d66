"""The public record types: repr text, equality, hashing, immutability and
defaults, and what importing the CLI loads."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import segeval
from segeval.cost import CostModel, CostStage, QualityCostPoint
from segeval.metametrics import AggregateReport, MeanScores, MetricAggregate, ScoreTable, SegMetricResult
from segeval.reporting import CorrelationMatrix
from segeval.scorers import AnswerTable, EmbeddingVector, Question, QuestionGraph
from segeval.seg import ErrorEdge, ErrorNode, SegCollection, SemanticErrorGraph, ValidationReport
from segeval.synth import SynthConfig

NAMESPACE = {
    cls.__name__: cls
    for cls in (
        ErrorNode, ErrorEdge, SemanticErrorGraph, SegCollection, ValidationReport,
        ScoreTable, SegMetricResult, MeanScores, MetricAggregate, AggregateReport, CorrelationMatrix,
        Question, QuestionGraph, AnswerTable, EmbeddingVector, CostStage, CostModel, QualityCostPoint, SynthConfig,
    )
}

N0 = ErrorNode(id="n0", error_count=0, images=("a.jpg",))
N1 = ErrorNode(id="n1", error_count=1, images=("b.jpg", "c.jpg"))
EDGE = ErrorEdge(src="n0", dst="n1")
SEG = SemanticErrorGraph(id="s", prompt="a cat", subset="synth", nodes=(N0, N1), edges=(EDGE,))
MEANS = MeanScores(rank=1.0, sep=0.5, delta=-0.25, seg_count=2)

N0_TEXT = "ErrorNode(id='n0', error_count=0, images=('a.jpg',))"
N1_TEXT = "ErrorNode(id='n1', error_count=1, images=('b.jpg', 'c.jpg'))"
EDGE_TEXT = "ErrorEdge(src='n0', dst='n1', error_labels=(), weight=1)"
SEG_TEXT = f"SemanticErrorGraph(id='s', prompt='a cat', subset='synth', nodes=({N0_TEXT}, {N1_TEXT}), edges=({EDGE_TEXT},))"
MEANS_TEXT = "MeanScores(rank=1.0, sep=0.5, delta=-0.25, seg_count=2)"

# (record, the repr text the records have always had, a record that differs
# from it in one field, a field to assign or None where assigning is allowed)
RECORDS = [
    pytest.param(N0, N0_TEXT, ErrorNode("n0", 1, ("a.jpg",)), "id", id="ErrorNode"),
    pytest.param(EDGE, EDGE_TEXT, ErrorEdge("n0", "n1", weight=2), "weight", id="ErrorEdge"),
    pytest.param(
        ErrorEdge("n0", "n1", ("verbal", "composition"), 2),
        "ErrorEdge(src='n0', dst='n1', error_labels=('verbal', 'composition'), weight=2)",
        ErrorEdge("n0", "n1", ("verbal",), 2), "error_labels", id="ErrorEdge-labelled",
    ),
    pytest.param(
        SEG, SEG_TEXT,
        SemanticErrorGraph(id="s", prompt="a dog", subset="synth", nodes=(N0, N1), edges=(EDGE,)), "nodes",
        id="SemanticErrorGraph",
    ),
    pytest.param(SegCollection((SEG,)), f"SegCollection(segs=({SEG_TEXT},))", SegCollection(()), "segs", id="SegCollection"),
    pytest.param(
        ValidationReport("s"), "ValidationReport(seg_id='s', violations=[], warnings=[])",
        ValidationReport("s", ["bad"]), None, id="ValidationReport",
    ),
    pytest.param(
        ValidationReport("s", ["bad"], ["odd"]), "ValidationReport(seg_id='s', violations=['bad'], warnings=['odd'])",
        ValidationReport("s", ["bad"], []), None, id="ValidationReport-filled",
    ),
    pytest.param(
        ScoreTable(metric_name="m", entries={("s", "a.jpg"): 0.5}),
        "ScoreTable(metric_name='m', entries={('s', 'a.jpg'): 0.5})",
        ScoreTable(metric_name="m", entries={("s", "a.jpg"): 0.25}), "entries", id="ScoreTable",
    ),
    pytest.param(
        SegMetricResult("s", "m", 1.0, 0.5, 0.0, 1, 1),
        "SegMetricResult(seg_id='s', metric_name='m', rank=1.0, sep=0.5, delta=0.0, walk_count=1, pair_count=1)",
        SegMetricResult("s", "m", 1.0, 0.5, 0.0, 1, 2), "rank", id="SegMetricResult",
    ),
    pytest.param(MEANS, MEANS_TEXT, MeanScores(1.0, 0.5, -0.25, 3), "seg_count", id="MeanScores"),
    pytest.param(
        MetricAggregate("m", MEANS, {"synth": MEANS}),
        f"MetricAggregate(metric_name='m', overall={MEANS_TEXT}, by_subset={{'synth': {MEANS_TEXT}}}, missing_segs=())",
        MetricAggregate("m", MEANS, {"synth": MEANS}, ("t",)), "by_subset", id="MetricAggregate",
    ),
    pytest.param(
        AggregateReport({}, 0), "AggregateReport(metrics={}, seg_count=0, subset_counts={})",
        AggregateReport({}, 0, {"nat": 0}), "subset_counts", id="AggregateReport",
    ),
    pytest.param(
        AggregateReport({"m": MetricAggregate("m", MEANS, {}, ("t",))}, 2, {"synth": 2}),
        f"AggregateReport(metrics={{'m': MetricAggregate(metric_name='m', overall={MEANS_TEXT}, by_subset={{}}, "
        "missing_segs=('t',))}, seg_count=2, subset_counts={'synth': 2})",
        AggregateReport({}, 2, {"synth": 2}), "metrics", id="AggregateReport-filled",
    ),
    pytest.param(
        CorrelationMatrix(("a", "b"), ((1.0, 0.5), (0.5, 1.0)), "rank"),
        "CorrelationMatrix(metric_names=('a', 'b'), values=((1.0, 0.5), (0.5, 1.0)), basis='rank')",
        CorrelationMatrix(("a", "b"), ((1.0, 0.5), (0.5, 1.0)), "sep"), "basis", id="CorrelationMatrix",
    ),
    pytest.param(
        Question("q1", (), "yes"), "Question(id='q1', parent_ids=(), expected_answer='yes')",
        Question("q1", (), "no"), "expected_answer", id="Question",
    ),
    pytest.param(
        QuestionGraph("p", (Question("q2", ("q1",), "blue"),)),
        "QuestionGraph(prompt_id='p', questions=(Question(id='q2', parent_ids=('q1',), expected_answer='blue'),))",
        QuestionGraph("p", ()), "questions", id="QuestionGraph",
    ),
    pytest.param(
        AnswerTable({("s", "a.jpg", "q1"): "yes"}), "AnswerTable(entries={('s', 'a.jpg', 'q1'): 'yes'})",
        AnswerTable({("s", "a.jpg", "q1"): "no"}), "entries", id="AnswerTable",
    ),
    pytest.param(EmbeddingVector((3.0, 4.0)), "EmbeddingVector(values=(3.0, 4.0))", EmbeddingVector((4.0, 3.0)), "values", id="EmbeddingVector"),
    pytest.param(
        CostStage(1, 16, 1.5e8), "CostStage(calls=1, tokens_per_call=16, model_params=150000000.0)",
        CostStage(1, 16, 1.5e9), "calls", id="CostStage",
    ),
    pytest.param(
        CostModel("m", (CostStage(2, 8, 1e9),)),
        "CostModel(metric_name='m', stages=(CostStage(calls=2, tokens_per_call=8, model_params=1000000000.0),))",
        CostModel("n", (CostStage(2, 8, 1e9),)), "stages", id="CostModel",
    ),
    pytest.param(
        QualityCostPoint("m", 0.5, 3e9), "QualityCostPoint(metric_name='m', quality=0.5, cost_flops=3000000000.0)",
        QualityCostPoint("m", 0.5, 4e9), "quality", id="QualityCostPoint",
    ),
    pytest.param(
        SynthConfig(seed=1),
        "SynthConfig(seed=1, seg_count=10, nodes_per_seg=(3, 7), images_per_node=(1, 4), branch_probability=0.4, "
        "multi_error_edge_probability=0.2, noise_sigma=0.05)",
        SynthConfig(seed=1, noise_sigma=0.1), "seed", id="SynthConfig",
    ),
]

# records with a dict or list field, or whose fields may be reassigned
UNHASHABLE = (ValidationReport, ScoreTable, MetricAggregate, AggregateReport, AnswerTable)


def test_every_public_record_type_is_covered():
    covered = {type(p.values[0]) for p in RECORDS}
    public = {value for value in vars(segeval).values() if isinstance(value, type) and value.__module__ != "segeval.errors"}
    assert public <= covered
    assert covered == set(NAMESPACE.values())


@pytest.mark.parametrize("record, text, other, field", RECORDS)
def test_repr_text_equality_and_hash(record, text, other, field):
    assert repr(record) == text
    copy = eval(text, dict(NAMESPACE))
    assert copy == record and not copy != record
    assert record != other and not record == other
    if isinstance(record, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)
        assert {record, copy} == {record}


@pytest.mark.parametrize("record, text, other, field", RECORDS)
def test_fields_of_an_immutable_record_cannot_be_assigned_or_deleted(record, text, other, field):
    if field is None:
        record = eval(text, dict(NAMESPACE))
        record.seg_id = "t"
        assert record.seg_id == "t"
        return
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before
    assert repr(record) == text


def test_keyword_construction_and_defaults():
    assert ErrorEdge(dst="b", src="a") == ErrorEdge("a", "b", (), 1)
    assert ErrorEdge.default_weight(("verbal", "composition")) == 2 and ErrorEdge.default_weight(()) == 1
    assert MetricAggregate(metric_name="m", overall=MEANS, by_subset={}).missing_segs == ()
    config = SynthConfig(seed=3)
    assert (config.seg_count, config.nodes_per_seg, config.images_per_node) == (10, (3, 7), (1, 4))
    assert (config.branch_probability, config.multi_error_edge_probability, config.noise_sigma) == (0.4, 0.2, 0.05)
    assert SegCollection(segs=(SEG,)).segs == (SEG,)
    assert AnswerTable(entries={}).entries == {}
    report = ValidationReport(seg_id="s")
    assert (report.violations, report.warnings, report.ok) == ([], [], True)


def test_default_containers_are_not_shared():
    first, second = AggregateReport(metrics={}, seg_count=0), AggregateReport(metrics={}, seg_count=0)
    assert first.subset_counts == {} and first.subset_counts is not second.subset_counts
    first.subset_counts["synth"] = 1
    assert second.subset_counts == {} and AggregateReport({}, 0).subset_counts == {}

    one, two = ValidationReport("a"), ValidationReport("b")
    one.violations.append("bad")
    one.warnings.append("odd")
    assert (two.violations, two.warnings, two.ok, one.ok) == ([], [], True, False)


def test_a_collection_iterates_and_counts_its_segs():
    other = SemanticErrorGraph(id="t", prompt="p", subset="nat", nodes=(N0,), edges=())
    collection = SegCollection((SEG, other))
    assert list(collection) == [SEG, other] and len(collection) == 2
    assert collection.filter_subset("nat") == SegCollection((other,))
    assert collection.filter_subset(None) is collection


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = Path(segeval.__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); pre = set(sys.modules); import segeval.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - pre))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
