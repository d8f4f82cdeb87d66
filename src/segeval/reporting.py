"""Machine-readable reports: aggregate tables, per-SEG rows, metric-metric
correlation matrices, and plot-ready histogram / walk-line CSVs.

Emission is deterministic: keys are sorted, rows are sorted, and every float
is rendered with 6 significant digits, so re-running on identical inputs
produces byte-identical files.  No plots are rendered here, only the data
behind them.
"""

from __future__ import annotations

import json
import re
from contextlib import ExitStack
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Literal, Mapping, NamedTuple

from .errors import ValidationError
from .fileio import csv_row, nonempty_path, write_csv
from .metametrics import AggregateReport, MeanScores, ScoreTable, SegMetricResult, _results_by_metric, _SegPlan
from .seg import SegCollection, SemanticErrorGraph
from .stats import TieMode, spearman_rho
from .walks import enumerate_walks  # noqa: F401  the plan calls it; bench/tracing.py patches this name too

Basis = Literal["rank", "sep"]

BASIS_RANGES: dict[str, tuple[float, float]] = {"rank": (-1.0, 1.0), "sep": (0.0, 1.0)}

PER_SEG_CSV_HEADER = ["metric", "seg_id", "subset", "rank", "sep", "delta", "walks", "pairs"]


class CorrelationMatrix(NamedTuple):
    metric_names: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]
    basis: str


def _metric_series(results: Iterable[SegMetricResult], basis: str) -> dict[str, dict[str, float]]:
    if basis not in ("rank", "sep", "delta"):
        raise ValueError(f"unknown basis: {basis!r}")
    series: dict[str, dict[str, float]] = {}
    for r in results:
        series.setdefault(r.metric_name, {})[r.seg_id] = getattr(r, basis)
    return series


def metric_correlation_matrix(
    results: Iterable[SegMetricResult],
    basis: Basis = "rank",
    tie_mode: TieMode = "midrank",
) -> CorrelationMatrix:
    """Pairwise Spearman correlation of per-SEG score series between metrics.

    Every metric must cover the same SEG set.  Constant series correlate as
    0 with everything, themselves included.
    """
    series = _metric_series(results, basis)
    if not series:
        raise ValidationError("no results to correlate")
    names = tuple(sorted(series))
    seg_sets = {name: frozenset(series[name]) for name in names}
    reference = seg_sets[names[0]]
    mismatched = [n for n in names if seg_sets[n] != reference]
    if mismatched:
        raise ValidationError(
            "metrics with mismatched SEG coverage: " + ", ".join(sorted(mismatched))
        )
    order = sorted(reference)
    vectors = {name: [series[name][sid] for sid in order] for name in names}

    k = len(names)
    mat = [[0.0] * k for _ in range(k)]
    for i in range(k):
        xi = vectors[names[i]]
        constant = len(set(xi)) <= 1
        mat[i][i] = 0.0 if constant else 1.0
        for j in range(i + 1, k):
            mat[i][j] = mat[j][i] = spearman_rho(xi, vectors[names[j]], tie_mode)
    return CorrelationMatrix(names, tuple(map(tuple, mat)), basis)


def histogram_data(
    results: Iterable[SegMetricResult],
    metric: str,
    basis: Basis = "rank",
    bin_count: int = 20,
) -> list[tuple[float, float, int]]:
    """Equal-width (bin_lower, bin_upper, count) triples over the basis range.

    Bins are half-open [lo, hi) with the last bin closed; counts sum to the
    number of SEGs with results.
    """
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    if basis not in BASIS_RANGES:
        raise ValueError(f"basis must be one of {sorted(BASIS_RANGES)}, got {basis!r}")
    series = _metric_series(results, basis)
    if metric not in series or not series[metric]:
        raise ValidationError(f"no results for metric {metric!r}")
    lo, hi = BASIS_RANGES[basis]
    width = (hi - lo) / bin_count
    counts = [0] * bin_count
    for value in series[metric].values():
        idx = min(bin_count - 1, int((value - lo) / (hi - lo) * bin_count))
        counts[max(0, idx)] += 1
    return [(lo + i * width, lo + (i + 1) * width, counts[i]) for i in range(bin_count)]


def walk_line_data(
    seg: SemanticErrorGraph, scores: ScoreTable
) -> list[list[tuple[float, float]]]:
    """Per-walk (normalized_rank, score) series, one point per image.

    normalized_rank = error_count / max error count in the walk, so 0 is the
    head and 1 the walk's deepest node regardless of depth; on a walk whose
    max is 0 (only an unvalidated SEG has one) every point gets 0.0.
    """
    plan = _SegPlan(seg)
    points = _walk_points(plan, plan.populations(scores), lambda xr, values: [(xr, v) for v in values])
    return list(map(list, points))


def _walk_points(
    plan: _SegPlan, pops: Mapping[str, list], node_points: Callable[[float, list], list]
) -> Iterator[Iterator]:
    """Each walk's points, in walk order, as one iterator per walk.

    A walk's points are ``node_points(normalized_rank, pops[node])`` for
    each node in turn, where normalized_rank is the node's error count over
    the walk's deepest one (``plan.tops()``, built once per plan), or 0.0
    where that is 0.  A node's points depend on its walk only through that
    deepest count, so they are built once per (walk depth, node) and each
    iterator chains the stored lists.
    """
    counts = plan.counts
    by_top: dict[int, dict[str, list]] = {}
    for walk, top in zip(plan.walks, plan.tops()):
        points = by_top.setdefault(top, {})
        for node in walk:
            if node not in points:
                points[node] = node_points(counts[node] / top if top else 0.0, pops[node])
        yield chain.from_iterable(map(points.__getitem__, walk))


# ---------------------------------------------------------------------------
# emission


def _fmt(x: float) -> str:
    return format(x + 0.0, ".6g")


def _round6(x: float) -> float:
    v = float(_fmt(x))
    return v + 0.0  # never emit -0.0


def _line_rows(plan: _SegPlan, scores: ScoreTable) -> Iterator[str]:
    """One SEG's lines_*.csv data rows as CSV text, one walk at a time.

    Each score is formatted once per image, or once per node when all the
    node's images share it (the rule ``delta_score`` uses; a node without
    images, which only an unvalidated SEG has, formats nothing), and each
    "normalized_rank,score" point text once per (walk depth, node); a walk's
    rows are its points joined behind its "seg_id,walk_index," head.  Only
    the seg id can need quoting, so the csv module renders it once.
    """
    texts = {
        node: [_fmt(v[0])] * len(v) if v and v.count(v[0]) == len(v) else list(map(_fmt, v))
        for node, v in plan.populations(scores).items()
    }
    sid = csv_row((plan.seg.id, ""))[:-1]  # id and comma; a lone empty field would render as ""
    for w_idx, points in enumerate(_walk_points(plan, texts, _point_texts)):
        head = f"{sid}{w_idx},"
        if rows := head.join(points):  # "" on a walk without images, which only an unvalidated SEG has
            yield head + rows


def _point_texts(xr: float, score_texts: list[str]) -> list[str]:
    x = _fmt(xr)
    return [f"{x},{s}\n" for s in score_texts]


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def _scores_json(ms: MeanScores, scale: int = 1) -> dict:
    """The {rank, sep, delta} block of report.json; display blocks use scale 100."""
    return {key: _round6(getattr(ms, key) * scale) for key in ("rank", "sep", "delta")}


def _aggregates_json(aggregates: AggregateReport) -> dict:
    metrics = {}
    for name in sorted(aggregates.metrics):
        agg = aggregates.metrics[name]
        by_subset = sorted(agg.by_subset.items())
        metrics[name] = {
            "overall": _scores_json(agg.overall),
            "overall_display": _scores_json(agg.overall, 100),
            "by_subset": {s: {**_scores_json(ms), "seg_count": ms.seg_count} for s, ms in by_subset},
            "by_subset_display": {s: _scores_json(ms, 100) for s, ms in by_subset},
            "seg_count": agg.overall.seg_count,
            "missing_segs": list(agg.missing_segs),
        }
    return metrics


def emit_report(
    aggregates: AggregateReport,
    per_seg_results: Iterable[SegMetricResult],
    out_path: str | Path,
    collection: SegCollection,
    score_tables: Mapping[str, ScoreTable],
    tie_mode: TieMode = "midrank",
) -> list[Path]:
    """Write report.json, per_seg.csv, and plot-data CSVs under ``out_path``.

    Histograms are emitted per metric and basis; walk-line CSVs for each
    result metric that ``score_tables`` holds, all of them in one pass over
    the SEGs of ``collection`` from one plan per SEG.  Returns written paths.
    Raises, before writing anything, ValidationError when two metric names
    map to the same plot-file name, a score table is keyed by another name
    than its metric's, or a result is one :func:`aggregate` rejects, and
    FileNotFoundError on an empty ``out_path``.
    """
    results = sorted(per_seg_results, key=lambda r: (r.metric_name, r.seg_id))
    subset_of = {seg.id: seg.subset for seg in collection}
    metric_names = sorted(_results_by_metric(results, subset_of))  # raises on a repeated or unknown-SEG result
    metric_of_file: dict[str, str] = {}
    for name in metric_names:
        other = metric_of_file.setdefault(_safe_name(name), name)
        if other != name:
            raise ValidationError(f"metrics {other!r} and {name!r} both map to plot-file name {_safe_name(name)!r}")
    for key, table in score_tables.items():
        if key != table.metric_name:
            raise ValidationError(f"score table {key!r} holds metric {table.metric_name!r}")
    out = nonempty_path(out_path)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def write(file_name: str, header: list[str], rows: Iterable) -> None:
        path = out / file_name
        write_csv(path, header, rows)
        written.append(path)

    correlations = {}
    if results:
        for basis in ("rank", "sep"):
            cm = metric_correlation_matrix(results, basis=basis, tie_mode=tie_mode)
            correlations[basis] = {
                "metrics": list(cm.metric_names),
                "method": "spearman",
                "matrix": [[_round6(v) for v in row] for row in cm.values],
            }

    report = {
        "metrics": _aggregates_json(aggregates),
        "correlations": correlations,
        "seg_count": aggregates.seg_count,
        "subset_counts": dict(sorted(aggregates.subset_counts.items())),
    }
    report_path = out / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append(report_path)

    write(
        "per_seg.csv",
        PER_SEG_CSV_HEADER,
        (
            (r.metric_name, r.seg_id, subset_of[r.seg_id], _fmt(r.rank), _fmt(r.sep), _fmt(r.delta),
             r.walk_count, r.pair_count)
            for r in results
        ),
    )

    for name in metric_names:
        for basis in ("rank", "sep"):
            rows = histogram_data(results, name, basis=basis)
            write(
                f"hist_{basis}_{_safe_name(name)}.csv",
                ["bin_lower", "bin_upper", "count"],
                ((_fmt(lo), _fmt(hi), n) for lo, hi, n in rows),
            )

    tables = {name: score_tables[name] for name in metric_names if name in score_tables}
    if tables:
        with ExitStack() as stack:
            files = []  # (open lines_*.csv, its table), in metric order
            for name, table in tables.items():
                path = out / f"lines_{_safe_name(name)}.csv"
                fh = stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
                fh.write(csv_row(["seg_id", "walk_index", "normalized_rank", "score"]))
                files.append((fh, table))
                written.append(path)
            for plan in map(_SegPlan, collection):
                for fh, table in files:
                    fh.writelines(_line_rows(plan, table))

    return written
