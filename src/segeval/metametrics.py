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

``evaluate_collection`` scores every table in one pass over the SEGs: each
SEG's private plan (its walks, error counts and their ranks, and adjacent
pairs) is built once, read by every metric and dropped before the next SEG.
The per-SEG functions take it as an optional last argument and build their
own when none is given, so each direct call enumerates the SEG's walks.

Scores arrive as a CSV with header ``seg_id,image_id,metric,score`` (UTF-8,
'.' decimal separator).  Missing scores are hard errors, never imputed.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from functools import reduce
from operator import add, attrgetter
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import CoverageError, ParseError, ValidationError
from .fileio import read_csv
from .seg import SUBSETS, SegCollection, SemanticErrorGraph
from .stats import TieMode, _Sorted, _check_sample, _ranked_runs, ks_statistic, population_moments, spearman_rho
from .walks import PairMode, adjacent_pairs, enumerate_walks

SCORE_CSV_HEADER = ["seg_id", "image_id", "metric", "score"]


class ScoreTable(NamedTuple):
    """One metric's scores keyed by (seg_id, image_id)."""

    metric_name: str
    entries: Mapping[tuple[str, str], float]


class SegMetricResult(NamedTuple):
    seg_id: str
    metric_name: str
    rank: float
    sep: float
    delta: float
    walk_count: int
    pair_count: int


class MeanScores(NamedTuple):
    rank: float
    sep: float
    delta: float
    seg_count: int


class MetricAggregate(NamedTuple):
    metric_name: str
    overall: MeanScores
    by_subset: dict[str, MeanScores]
    missing_segs: tuple[str, ...] = ()


class _AggregateFields(NamedTuple):
    metrics: dict[str, MetricAggregate]
    seg_count: int
    subset_counts: dict[str, int]


class AggregateReport(_AggregateFields):
    """The aggregates of every metric; each report gets its own default ``subset_counts``."""

    __slots__ = ()

    def __new__(cls, metrics: dict[str, MetricAggregate], seg_count: int, subset_counts: dict[str, int] | None = None):
        return super().__new__(cls, metrics, seg_count, {} if subset_counts is None else subset_counts)


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
    return [(seg.id, img) for seg in collection for img in seg.image_ids() if (seg.id, img) not in table.entries]


# ---------------------------------------------------------------------------
# per-SEG meta-metrics


class _SegPlan:
    """What every metric's cells read of one SEG: its walks and error counts,
    and, derived on first use, the walks' error ranks per tie mode and the
    adjacent pairs per pair mode.  Nothing else holds a SEG's walks.

    The last table's node populations are kept, so one (SEG, metric) cell
    builds them once for rank, sep and delta; any gap raises CoverageError.
    """

    def __init__(self, seg: SemanticErrorGraph) -> None:
        self.seg, self.counts, self.walks = seg, {n.id: n.error_count for n in seg.nodes}, enumerate_walks(seg)
        self._errors, self._pairs, self._cell = {}, {}, (None, {})

    def populations(self, scores: ScoreTable) -> dict[str, list[float]]:
        if self._cell[0] is not scores:
            entries, sid = scores.entries, self.seg.id
            try:
                self._cell = (scores, {n.id: [entries[(sid, img)] for img in n.images] for n in self.seg.nodes})
            except KeyError:
                gaps = missing_scores([self.seg], scores)
                raise CoverageError(
                    f"metric {scores.metric_name!r} missing {len(gaps)} score(s) on seg {sid}: "
                    + ", ".join(img for _, img in gaps[:10]) + ("..." if len(gaps) > 10 else ""),
                    missing=gaps,
                ) from None
        return self._cell[1]

    def errors(self, tie_mode: TieMode) -> list:
        """Each walk's error counts for ``spearman_rho``: when every edge raises the count, as in a
        valid SEG, ``stats._Ranked`` from its node image counts, built once per walk shape."""
        errors = self._errors.get(tie_mode)
        if errors is None:
            counts, sizes = self.counts, {n.id: len(n.images) for n in self.seg.nodes}
            if all(counts[e.src] < counts[e.dst] for e in self.seg.edges if e.src in counts and e.dst in counts):
                ranked = {}  # one _Ranked per walk shape: the walk's node image counts
                shapes = (tuple(map(sizes.__getitem__, walk)) for walk in self.walks)
                errors = [ranked.get(sh) or ranked.setdefault(sh, _ranked_runs(sh, tie_mode)) for sh in shapes]
            else:  # an unvalidated SEG: rank each walk's counts as given
                errors = [[counts[n] for n in walk for _ in range(sizes[n])] for walk in self.walks]
            self._errors[tie_mode] = errors
        return errors

    def pairs(self, mode: PairMode) -> list[tuple[str, str]]:
        known = self._pairs.get(mode)
        return self._pairs.setdefault(mode, adjacent_pairs(self.walks, mode)) if known is None else known


def rank_score(
    seg: SemanticErrorGraph, scores: ScoreTable, tie_mode: TieMode = "midrank", plan: _SegPlan | None = None
) -> float:
    """Walk-averaged ordering score in [-1, 1]; higher is better.

    Spearman's rho of scores against error counts is negated so a faithful
    metric (scores decreasing with errors) lands at +1.
    """
    plan = plan or _SegPlan(seg)
    pops = plan.populations(scores)
    total = 0.0
    for walk, errors in zip(plan.walks, plan.errors(tie_mode)):
        total += -spearman_rho([v for node in walk for v in pops[node]], errors, tie_mode)
    return total / len(plan.walks)


def sep_score(
    seg: SemanticErrorGraph, scores: ScoreTable, pair_mode: PairMode = "per-walk", plan: _SegPlan | None = None
) -> float:
    """Mean KS statistic over adjacent node pairs, in [0, 1]."""
    plan = plan or _SegPlan(seg)
    pops = plan.populations(scores)
    pairs = plan.pairs(pair_mode)
    if len(pairs) > len(pops):  # check and sort each node's sample once, not once per pair
        try:
            pops = {n: _Sorted((_check_sample(v, sort=True),)) for n, v in pops.items()}
        except ValueError:  # a bad node: each pair checks its own samples and names the bad one x or y
            pass
    return reduce(add, (ks_statistic(pops[a], pops[b]) for a, b in pairs), 0.0) / len(pairs)


def delta_score(
    seg: SemanticErrorGraph, scores: ScoreTable, global_std: float,
    pair_mode: PairMode = "per-walk", plan: _SegPlan | None = None,
) -> float:
    """Mean adjacent-node mean-score drop, in units of the metric's spread.

    ``global_std`` must be the population standard deviation of this
    metric's scores over all images of the whole collection under
    evaluation; a 0 spread yields 0 by convention.
    """
    if global_std < 0:
        raise ValueError("global_std must be non-negative")
    plan = plan or _SegPlan(seg)
    pops = plan.populations(scores)  # checks coverage even when the spread is 0
    if global_std == 0.0:
        return 0.0
    # a constant node's mean is its value, which sum / len can miss by an ulp
    means = {n: v[0] if v.count(v[0]) == len(v) else reduce(add, v, 0.0) / len(v) for n, v in pops.items()}
    pairs = plan.pairs(pair_mode)
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
        by_seg = Counter(seg_id for seg_id, _ in gaps)
        detail = ", ".join(f"{sid} ({n} missing)" for sid, n in sorted(by_seg.items()))
        raise CoverageError(f"metric {scores.metric_name!r} does not cover: {detail}", missing=gaps)
    _, std = population_moments(values)
    return std


def evaluate_seg(
    seg: SemanticErrorGraph, scores: ScoreTable, std: float,
    tie_mode: TieMode = "midrank", pair_mode: PairMode = "per-walk", plan: _SegPlan | None = None,
) -> SegMetricResult:
    plan = plan or _SegPlan(seg)
    return SegMetricResult(
        seg_id=seg.id,
        metric_name=scores.metric_name,
        rank=rank_score(seg, scores, tie_mode, plan),
        sep=sep_score(seg, scores, pair_mode, plan),
        delta=delta_score(seg, scores, std, pair_mode, plan),
        walk_count=len(plan.walks),
        pair_count=len(plan.pairs(pair_mode)),
    )


def evaluate_collection(
    collection: SegCollection,
    scores: ScoreTable | Iterable[ScoreTable],
    tie_mode: TieMode = "midrank",
    pair_mode: PairMode = "per-walk",
) -> list[SegMetricResult]:
    """One result per (metric, SEG), metric-major in sorted metric order.

    Each metric's std, and so its coverage, is taken collection-wide first.
    """
    tables = [scores] if isinstance(scores, ScoreTable) else sorted(scores, key=attrgetter("metric_name"))
    stds = [global_std(collection, table) for table in tables]
    plans = map(_SegPlan, collection)  # one at a time; the k cells of each SEG are adjacent
    cells = [evaluate_seg(p.seg, t, std, tie_mode, pair_mode, p) for p in plans for t, std in zip(tables, stds)]
    return [r for i in range(len(tables)) for r in cells[i :: len(tables)]]


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
        metrics[name] = MetricAggregate(name, _mean_scores(rs), by_subset, missing)
    return AggregateReport(metrics, len(collection), subset_counts)
