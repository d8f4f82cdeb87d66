"""Meta-evaluation engine for image-faithfulness metrics.

Ingests semantic error graphs (a prompt plus a DAG of image-bearing nodes
ordered by objective error count) and per-image metric scores, and computes
graph-based meta-metrics: walk ordering (rank), adjacent-node separation
(sep), and dynamic-range-normalized separation (delta), plus aggregates,
metric-metric correlations, compute-cost estimates, and Pareto frontiers.
"""

from .errors import CoverageError, ParseError, SegEvalError, ValidationError
from .metametrics import (
    ScoreTable,
    aggregate,
    delta_score,
    evaluate_collection,
    evaluate_seg,
    global_std,
    load_score_tables,
    rank_score,
    sep_score,
    write_score_tables,
)
from .reporting import emit_report, walk_line_data
from .scorers import accumulate_scores, embedding_score_table, load_answer_table, load_embeddings, load_question_graphs
from .seg import (
    ErrorEdge,
    ErrorNode,
    SegCollection,
    SemanticErrorGraph,
    load_segs,
    validate_seg,
    write_seg_file,
)
from .synth import SynthConfig, generate_segs, oracle_scores, write_collection
from .walks import enumerate_walks

__version__ = "0.1.0"
