"""Per-graph meta-metrics for a faithfulness metric, and their aggregation.

Given a SEG and one metric's scores for its images, three numbers summarize
how well the metric recovers the graph's objective structure:

* ``rank``: mean over walks of the (sign-flipped) Spearman correlation
  between per-image scores and error counts.  +1 means the metric orders
  every walk perfectly (scores fall as errors accumulate); scores constant
  on a walk contribute exactly 0.
* ``sep``: mean two-sample Kolmogorov-Smirnov statistic over adjacent node
  pairs, each node's population being the scores of its images.  1 means
  adjacent nodes are perfectly distinguishable.
* ``delta``: mean over the same pairs of (lower-error node mean - higher-
  error node mean), rescaled by the metric's population standard deviation
  over all images in the collection, so metrics with different dynamic
  ranges are comparable.  0 when that deviation is 0.

Scores arrive as a CSV with header ``seg_id,image_id,metric,score`` (UTF-8,
'.' decimal separator).  Missing scores are hard errors, never imputed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from pathlib import Path
from typing import Iterable, Mapping

from .errors import CoverageError, ParseError, ValidationError
from .fileio import read_csv
from .seg import SUBSETS, SegCollection, SemanticErrorGraph
from .stats import TieMode, _Sorted, _check_sample, _ranked_runs, ks_statistic, population_moments, spearman_rho
from .walks import PairMode, adjacent_pairs, enumerate_walks

SCORE_CSV_HEADER = ["seg_id", "image_id", "metric", "score"]


@dataclass(frozen=True)
class ScoreTable:
    """One metric's scores keyed by (seg_id, image_id)."""

    metric_name: str
    entries: Mapping[tuple[str, str], float]

    def seg_scores(self, seg: SemanticErrorGraph) -> dict[str, float]:
        """The score of every image of ``seg``, keyed by image id.

        Raises CoverageError listing every missing image.
        """
        entries = self.entries
        try:
            return {img: entries[(seg.id, img)] for img in seg.image_ids()}
        except KeyError:
            gaps = missing_scores([seg], self)
        raise CoverageError(
            f"metric {self.metric_name!r} missing {len(gaps)} score(s) on seg {seg.id}: "
            + ", ".join(img for _, img in gaps[:10])
            + ("..." if len(gaps) > 10 else ""),
            missing=gaps,
        )


@dataclass(frozen=True)
class SegMetricResult:
    seg_id: str
    metric_name: str
    rank: float
    sep: float
    delta: float
    walk_count: int
    pair_count: int


@dataclass(frozen=True)
class MeanScores:
    rank: float
    sep: float
    delta: float
    seg_count: int


@dataclass(frozen=True)
class MetricAggregate:
    metric_name: str
    overall: MeanScores
    by_subset: dict[str, MeanScores]
    missing_segs: tuple[str, ...] = ()


@dataclass(frozen=True)
class AggregateReport:
    metrics: dict[str, MetricAggregate]
    seg_count: int
    subset_counts: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# score table I/O


def load_score_tables(path: str | Path) -> dict[str, ScoreTable]:
    """Parse a score CSV into one table per metric, keyed by metric name."""
    path = Path(path)
    tables: dict[str, dict[tuple[str, str], float]] = {}
    # every table shares one key tuple per image and one string per seg id;
    # segs maps a seg id to (that string, {image id: key}) and is read once
    # per run of rows with the same seg id
    segs: dict[str, tuple[str, dict[str, tuple[str, str]]]] = {}
    seg_key = images = None
    for lineno, (seg_id, image_id, metric, raw) in read_csv(path, SCORE_CSV_HEADER):
        try:
            score = float(raw)
        except ValueError:
            raise ParseError(
                f"line {lineno}: score {raw!r} is not a number", source=str(path)
            ) from None
        if not math.isfinite(score):
            raise ParseError(f"line {lineno}: non-finite score {raw!r}", source=str(path))
        bucket = tables.setdefault(metric, {})
        if seg_id != seg_key:
            seg_key, images = segs.setdefault(seg_id, (seg_id, {}))
        key = images.get(image_id)
        if key is None:
            key = images[image_id] = (seg_key, image_id)
        if key in bucket:
            raise ParseError(
                f"line {lineno}: duplicate score for seg {seg_id!r} image {image_id!r} "
                f"metric {metric!r}",
                source=str(path),
            )
        bucket[key] = score
    return {
        name: ScoreTable(metric_name=name, entries=entries)
        for name, entries in sorted(tables.items())
    }


def write_score_tables(tables: Iterable[ScoreTable], path: str | Path) -> None:
    """Write tables as the standard CSV, rows sorted by (metric, key, score).

    One metric is sorted at a time; tables sharing a metric name are merged,
    ties on a key broken by score (keys are unique within one table).
    Lines end in CRLF (the csv default, unlike the LF report bundle), so
    score files keep the bytes earlier versions wrote.
    """
    by_metric: dict[str, list[ScoreTable]] = {}
    for table in tables:
        by_metric.setdefault(table.metric_name, []).append(table)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_CSV_HEADER)
        for metric in sorted(by_metric):
            rows = [item for table in by_metric[metric] for item in table.entries.items()]
            rows.sort()
            writer.writerows(
                [seg_id, image_id, metric, format(score, ".17g")]
                for (seg_id, image_id), score in rows
            )


def missing_scores(
    collection: SegCollection | Iterable[SemanticErrorGraph], table: ScoreTable
) -> list[tuple[str, str]]:
    """(seg_id, image_id) pairs the table fails to cover, in collection order."""
    missing = []
    for seg in collection:
        for img in seg.image_ids():
            if (seg.id, img) not in table.entries:
                missing.append((seg.id, img))
    return missing


# ---------------------------------------------------------------------------
# per-SEG meta-metrics


def rank_score(
    seg: SemanticErrorGraph, scores: ScoreTable, tie_mode: TieMode = "midrank"
) -> float:
    """Walk-averaged ordering score in [-1, 1]; higher is better.

    Spearman's rho of scores against error counts is negated so a faithful
    metric (scores decreasing with errors) lands at +1.  When every edge raises
    the error count, as in a valid SEG, a walk's error-count ranks come from its
    node image counts (the integers bisection gives); direct ``spearman_rho``
    calls still check and rank both inputs.
    """
    pops = _node_populations(seg, scores)
    counts = {n.id: n.error_count for n in seg.nodes}
    rises = all(counts[e.src] < counts[e.dst] for e in seg.edges if e.src in counts and e.dst in counts)
    walks = enumerate_walks(seg)
    total, ranked = 0.0, {}  # ranked: one _Ranked per distinct walk shape (node image counts)
    for walk in walks:
        if rises:
            runs = tuple(map(len, map(pops.__getitem__, walk)))
            errors = ranked.get(runs) or ranked.setdefault(runs, _ranked_runs(runs, tie_mode))
        else:  # an unvalidated SEG: rank the walk's counts as given
            errors = [counts[node] for node in walk for _ in pops[node]]
        total += -spearman_rho([v for node in walk for v in pops[node]], errors, tie_mode)
    return total / len(walks)


def _node_populations(seg: SemanticErrorGraph, scores: ScoreTable) -> dict[str, list[float]]:
    entries, sid = scores.entries, seg.id
    try:
        return {n.id: [entries[(sid, img)] for img in n.images] for n in seg.nodes}
    except KeyError:
        scores.seg_scores(seg)  # raises the CoverageError that lists every gap
        raise


def sep_score(seg: SemanticErrorGraph, scores: ScoreTable, pair_mode: PairMode = "per-walk") -> float:
    """Mean KS statistic over adjacent node pairs, in [0, 1]."""
    pops = _node_populations(seg, scores)
    pairs = adjacent_pairs(seg, pair_mode)
    if len(pairs) > len(pops):  # check and sort each node's sample once, not once per pair
        try:
            pops = {n: _Sorted((_check_sample(v, sort=True),)) for n, v in pops.items()}
        except ValueError:  # a bad node: each pair checks its own samples and names the bad one x or y
            pass
    return reduce(add, (ks_statistic(pops[a], pops[b]) for a, b in pairs), 0.0) / len(pairs)


def delta_score(
    seg: SemanticErrorGraph,
    scores: ScoreTable,
    global_std: float,
    pair_mode: PairMode = "per-walk",
) -> float:
    """Mean adjacent-node mean-score drop, in units of the metric's spread.

    ``global_std`` must be the population standard deviation of this
    metric's scores over all images of the whole collection under
    evaluation; a 0 spread yields 0 by convention.
    """
    if global_std < 0:
        raise ValueError("global_std must be non-negative")
    pops = _node_populations(seg, scores)  # checks coverage even when the spread is 0
    if global_std == 0.0:
        return 0.0
    # a constant node's mean is its value, which sum / len can miss by an ulp
    means = {n: v[0] if v.count(v[0]) == len(v) else reduce(add, v, 0.0) / len(v) for n, v in pops.items()}
    pairs = adjacent_pairs(seg, pair_mode)
    gap = reduce(add, (means[a] - means[b] for a, b in pairs), 0.0) / len(pairs)
    return gap / global_std


def global_std(
    collection: SegCollection | Iterable[SemanticErrorGraph], scores: ScoreTable
) -> float:
    """Population std of the metric's scores over every image of every SEG."""
    values: list[float] = []
    gaps: list[tuple[str, str]] = []
    for seg in collection:
        try:
            values.extend([scores.entries[(seg.id, img)] for n in seg.nodes for img in n.images])
        except KeyError:
            gaps.extend(missing_scores([seg], scores))
    if gaps:
        by_seg: dict[str, int] = {}
        for seg_id, _ in gaps:
            by_seg[seg_id] = by_seg.get(seg_id, 0) + 1
        detail = ", ".join(f"{sid} ({n} missing)" for sid, n in sorted(by_seg.items()))
        raise CoverageError(
            f"metric {scores.metric_name!r} does not cover: {detail}", missing=gaps
        )
    _, std = population_moments(values)
    return std


def evaluate_seg(
    seg: SemanticErrorGraph,
    scores: ScoreTable,
    std: float,
    tie_mode: TieMode = "midrank",
    pair_mode: PairMode = "per-walk",
) -> SegMetricResult:
    walks, pairs = seg._walk_data  # derived once per SEG; sep_score checks pair_mode
    return SegMetricResult(
        seg_id=seg.id,
        metric_name=scores.metric_name,
        rank=rank_score(seg, scores, tie_mode),
        sep=sep_score(seg, scores, pair_mode),
        delta=delta_score(seg, scores, std, pair_mode),
        walk_count=len(walks),
        pair_count=len(pairs) if pair_mode == "per-walk" else len(set(pairs)),
    )


def evaluate_collection(
    collection: SegCollection,
    scores: ScoreTable,
    tie_mode: TieMode = "midrank",
    pair_mode: PairMode = "per-walk",
) -> list[SegMetricResult]:
    """One result per SEG, with the dynamic-range std taken collection-wide."""
    std = global_std(collection, scores)
    return [evaluate_seg(seg, scores, std, tie_mode, pair_mode) for seg in collection]


# ---------------------------------------------------------------------------
# aggregation


def _mean_scores(results: list[SegMetricResult]) -> MeanScores:
    n = len(results)
    return MeanScores(
        rank=reduce(add, (r.rank for r in results), 0.0) / n,
        sep=reduce(add, (r.sep for r in results), 0.0) / n,
        delta=reduce(add, (r.delta for r in results), 0.0) / n,
        seg_count=n,
    )


def aggregate(
    results: Iterable[SegMetricResult], collection: SegCollection
) -> AggregateReport:
    """Unweighted per-subset and overall means, one block per metric."""
    subset_of = {seg.id: seg.subset for seg in collection}
    by_metric: dict[str, list[SegMetricResult]] = {}
    seen: set[tuple[str, str]] = set()
    for r in results:
        key = (r.seg_id, r.metric_name)
        if key in seen:
            raise ValidationError(
                f"duplicate result for seg {r.seg_id!r}, metric {r.metric_name!r}"
            )
        seen.add(key)
        if r.seg_id not in subset_of:
            raise ValidationError(f"result references unknown seg {r.seg_id!r}")
        by_metric.setdefault(r.metric_name, []).append(r)

    subset_counts = {s: 0 for s in SUBSETS}
    for seg in collection:
        subset_counts[seg.subset] += 1

    metrics: dict[str, MetricAggregate] = {}
    for name in sorted(by_metric):
        rs = by_metric[name]
        covered = {r.seg_id for r in rs}
        missing = tuple(sorted(set(subset_of) - covered))
        by_subset = {}
        for subset in SUBSETS:
            sub = [r for r in rs if subset_of[r.seg_id] == subset]
            if sub:
                by_subset[subset] = _mean_scores(sub)
        metrics[name] = MetricAggregate(
            metric_name=name,
            overall=_mean_scores(rs),
            by_subset=by_subset,
            missing_segs=missing,
        )
    return AggregateReport(
        metrics=metrics, seg_count=len(collection), subset_counts=subset_counts
    )
