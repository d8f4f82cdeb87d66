"""Meta-evaluation engine for image-faithfulness metrics.

Ingests semantic error graphs (a prompt plus a DAG of image-bearing nodes
ordered by objective error count) and per-image metric scores, and computes
graph-based meta-metrics: walk ordering (rank), adjacent-node separation
(sep), and dynamic-range-normalized separation (delta), plus aggregates,
metric-metric correlations, compute-cost estimates, and Pareto frontiers.
"""

from .cost import CostModel, CostStage, QualityCostPoint, estimate_flops, load_cost_models, pareto_frontier
from .errors import CoverageError, ParseError, SegEvalError, ValidationError
from .metametrics import (
    AggregateReport,
    ScoreTable,
    SegMetricResult,
    aggregate,
    delta_score,
    evaluate_collection,
    evaluate_seg,
    global_std,
    load_score_tables,
    missing_scores,
    rank_score,
    sep_score,
    write_score_tables,
)
from .reporting import (
    CorrelationMatrix,
    emit_report,
    histogram_data,
    metric_correlation_matrix,
    walk_line_data,
)
from .scorers import (
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
from .seg import (
    ErrorEdge,
    ErrorNode,
    SegCollection,
    SemanticErrorGraph,
    ValidationReport,
    load_segs,
    validate_seg,
    write_seg_file,
)
from .stats import ks_statistic, population_moments, rank_transform, spearman_rho
from .synth import SynthConfig, generate_segs, oracle_scores, write_collection
from .walks import Walk, adjacent_pairs, enumerate_walks, walk_triples

__version__ = "0.1.0"
