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
'.' decimal separator).  Missing scores are hard errors, never imputed.  A
:class:`ScoreTable` holds finite floats, checked once, when it is built, in
a :class:`~segeval.fileio.IndexView` of its per-SEG index ``{seg_id:
{image_id: score}}``.  Node populations, ``global_std`` and the writer read
a SEG's scores from that index by image id, so rank, sep and delta take one
sample path and check no score again.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from collections.abc import Mapping
from functools import reduce
from itertools import chain, repeat
from operator import add, attrgetter
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import CoverageError, ParseError, ValidationError
from .fileio import IndexView, check_keys, load_csv
from .seg import SUBSETS, SegCollection, SemanticErrorGraph, validate_seg
from .stats import (
    TieMode, _Checked, _Sorted, _ranked_runs, _unit_exponent, ks_statistic, population_moments,
    spearman_rho,
)
from .walks import PairMode, adjacent_pairs, enumerate_walks

SCORE_CSV_HEADER = ["seg_id", "image_id", "metric", "score"]


class ScoreTable(NamedTuple("_ScoreFields", [("metric_name", str), ("entries", Mapping[tuple[str, str], float])])):
    """One metric's scores keyed by (seg_id, image_id): an IndexView of finite floats, checked when it is built.

    A view of string keys and finite floats is held as given; any other mapping is copied into one, each score
    as ``float(score)``.  A view's SEG without a dict, then a key that is not a ``(seg_id, image_id)`` tuple of
    strings, then a score that is not a finite number, is a ValidationError naming the first in mapping order.
    """

    __slots__ = ()

    def __new__(cls, metric_name: str, entries: Mapping[tuple[str, str], float]) -> ScoreTable:
        return super().__new__(cls, metric_name, _score_view(entries, f"metric {metric_name!r}: "))

    @classmethod
    def _make(cls, iterable) -> ScoreTable:  # what _replace builds through
        return cls(*iterable)


def _score_view(entries: Mapping, where: str) -> IndexView:
    """``entries`` if it is an index view of string keys and finite floats, else such a view of its scores."""
    if isinstance(entries, IndexView):
        index = entries.index
        for seg_id, scores in index.items():  # the view stands for {seg_id: {image_id: score}}
            if not isinstance(scores, dict):
                raise ValidationError(f"{where}scores for seg {seg_id!r} are a {type(scores).__name__}, not a dict")
        if (
            all(map(isinstance, chain(index, chain.from_iterable(index.values())), repeat(str)))
            and {*map(type, chain.from_iterable(map(dict.values, index.values())))} <= {float}
            and all(map(math.isfinite, chain.from_iterable(map(dict.values, index.values()))))
        ):
            return entries
    check_keys(entries, SCORE_CSV_HEADER[:2], where)
    index = {}
    for key, score in entries.items():
        try:
            finite = math.isfinite(score)
        except TypeError:  # math.isfinite, unlike float, takes no string
            raise ValidationError(f"{where}score {score!r} for {key} is not a number") from None
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValidationError(f"{where}non-finite score {score!r} for {key}")
        index.setdefault(key[0], {})[key[1]] = float(score)
    return IndexView(index)


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


class AggregateReport(NamedTuple):
    metrics: dict[str, MetricAggregate]
    seg_count: int
    subset_counts: dict[str, int]


# ---------------------------------------------------------------------------
# score table I/O


def _score_tables(rows) -> dict[str, ScoreTable] | None:
    tables: dict[str, dict[str, dict[str, float]]] = {}
    # every table shares one string per seg id and one per (seg, image id); segs maps a seg id
    # to (that string, {image id: its string}) and is read once per run of rows with the same
    # seg id and metric, as tables is per run of metrics.  Within such a run equal score texts
    # share one float: floats maps each text to it and is dropped when the run ends, so no pool
    # outlives a run (nor sys.intern, whose strings CPython 3.12 never frees)
    segs: dict[str, tuple[str, dict[str, str]]] = {}
    seg_key = metric_key = bucket = scores = share = floats = None
    n = 0
    for n, (seg_id, image_id, metric, raw) in enumerate(rows, 1):
        if seg_id != seg_key or metric != metric_key:
            if metric != metric_key:
                metric_key, bucket = metric, tables.setdefault(metric, {})
            seg_key, images = segs.setdefault(seg_id, (seg_id, {}))
            scores, share, floats = bucket.setdefault(seg_key, {}), images.setdefault, {}
        score = floats.get(raw)
        if score is None:
            score = floats[raw] = float(raw)
        scores[share(image_id, image_id)] = score
    try:
        loaded = {name: ScoreTable(name, IndexView(by_seg)) for name, by_seg in sorted(tables.items())}
    except ValidationError:  # a non-finite score
        return None
    return loaded if sum(len(t.entries) for t in loaded.values()) == n else None  # a score given twice leaves fewer


def _first_bad_score(rows, source: str) -> None:
    """The ParseError of the first faulty ``(lineno, row)``, as the loader raised it row by row."""
    seen = set()
    for lineno, (seg_id, image_id, metric, raw) in rows:
        try:
            score = float(raw)
        except ValueError:
            raise ParseError(f"line {lineno}: score {raw!r} is not a number", source=source) from None
        if not math.isfinite(score):
            raise ParseError(f"line {lineno}: non-finite score {raw!r}", source=source)
        key = (seg_id, image_id, metric)
        if key in seen:
            raise ParseError(
                f"line {lineno}: duplicate score for seg {seg_id!r} image {image_id!r} metric {metric!r}",
                source=source,
            )
        seen.add(key)


def load_score_tables(path: str | Path) -> dict[str, ScoreTable]:
    """Parse a score CSV into one table per metric, keyed by metric name."""
    return load_csv(Path(path), SCORE_CSV_HEADER, _score_tables, _first_bad_score)


def write_score_tables(tables: Iterable[ScoreTable], path: str | Path) -> None:
    """Write one table per metric name as the standard CSV, in name order, rows sorted by key.

    Each table is written from its per-SEG index, SEG ids and then each
    SEG's image ids in sorted order.  Raises ValidationError, before opening
    ``path``, if two tables share a name or no table holds a score, as
    ``segeval score`` would reject the file; a table holds no key or score
    that its loader would reject.
    Lines end in CRLF (the csv default, unlike the LF report bundle), so
    score files keep the bytes earlier versions wrote.
    """
    by_name: dict[str, dict[str, dict[str, float]]] = {}
    for table in tables:
        if table.metric_name in by_name:
            raise ValidationError(f"two score tables for metric {table.metric_name!r}")
        by_name[table.metric_name] = table.entries.index
    if not any(any(index.values()) for index in by_name.values()):
        raise ValidationError("no scores to write")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_CSV_HEADER)
        for metric, index in sorted(by_name.items()):
            writer.writerows(
                [seg_id, image_id, metric, format(score, ".17g")]
                for seg_id in sorted(index)
                for image_id, score in sorted(index[seg_id].items())
            )


def missing_scores(
    collection: SegCollection | Iterable[SemanticErrorGraph], table: ScoreTable
) -> list[tuple[str, str]]:
    """(seg_id, image_id) pairs the table fails to cover, in collection order."""
    index = table.entries.index
    return [(seg.id, img) for seg in collection for img in seg.image_ids() if img not in index.get(seg.id, ())]


# ---------------------------------------------------------------------------
# per-SEG meta-metrics


class _SegPlan:
    """What every metric's cells read of one SEG: its walks and error counts,
    and, derived on first use, the walks' error ranks per tie mode, their
    deepest error counts and the adjacent pairs per pair mode.  Nothing else
    holds a SEG's walks.

    A SEG whose head has no child, or with a node without images, a negative
    count or a count that does not rise along an edge, gets no plan: it raises
    the ValidationError ``seg S: <first violation>`` of :func:`~segeval.seg.validate_seg`.

    The last table's node populations are kept, so one (SEG, metric) cell
    builds them once for rank, sep and delta; any gap raises CoverageError.
    """

    def __init__(self, seg: SemanticErrorGraph) -> None:
        self.seg, self.counts, self.walks = seg, {n.id: n.error_count for n in seg.nodes}, enumerate_walks(seg)
        counts = self.counts  # what every reader relies on is checked here; only the validator names a fault
        rising = all(counts[e.src] < counts[e.dst] for e in seg.edges if e.src in counts and e.dst in counts)
        if not (rising and len(self.walks[0]) > 1 and all(n.images and n.error_count >= 0 for n in seg.nodes)):
            violations = validate_seg(seg).violations
            raise ValidationError(f"seg {seg.id}: {violations[0]}", violations)
        self._errors, self._pairs, self._cell, self._tops = {}, {}, (None, {}), None

    def populations(self, scores: ScoreTable) -> dict[str, list[float]]:
        if self._cell[0] is not scores:
            sid = self.seg.id
            score_of = scores.entries.index.get(sid, {}).__getitem__
            try:
                self._cell = (scores, {n.id: list(map(score_of, n.images)) for n in self.seg.nodes})
            except KeyError:
                gaps = missing_scores([self.seg], scores)
                raise CoverageError(
                    f"metric {scores.metric_name!r} missing {len(gaps)} score(s) on seg {sid}: "
                    + ", ".join(img for _, img in gaps[:10]) + ("..." if len(gaps) > 10 else ""),
                    missing=gaps,
                ) from None
        return self._cell[1]

    def errors(self, tie_mode: TieMode) -> list:
        """Each walk's error-count ranks for ``spearman_rho``: one ``_Ranked`` per walk shape, its node image counts."""
        errors = self._errors.get(tie_mode)
        if errors is None:
            ranked, sizes = {}, {n.id: len(n.images) for n in self.seg.nodes}
            shapes = (tuple(map(sizes.__getitem__, walk)) for walk in self.walks)
            errors = [ranked.get(sh) or ranked.setdefault(sh, _ranked_runs(sh, tie_mode)) for sh in shapes]
            self._errors[tie_mode] = errors
        return errors

    def tops(self) -> list[int]:
        """Each walk's deepest error count, its last node's, as the counts rise."""
        if self._tops is None:
            self._tops = [self.counts[walk[-1]] for walk in self.walks]
        return self._tops

    def pairs(self, mode: PairMode) -> list[tuple[str, str]]:
        pairs = self._pairs.get(mode)
        if pairs is None:
            pairs = self._pairs[mode] = adjacent_pairs(self.walks, mode)
        return pairs


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
    for walk, errors in zip(plan.walks, plan.errors(tie_mode)):  # the table's scores are finite floats
        total += -spearman_rho(_Checked(chain.from_iterable(map(pops.__getitem__, walk))), errors, tie_mode)
    return total / len(plan.walks)


def sep_score(
    seg: SemanticErrorGraph, scores: ScoreTable, pair_mode: PairMode = "per-walk", plan: _SegPlan | None = None
) -> float:
    """Mean KS statistic over adjacent node pairs, in [0, 1]."""
    plan = plan or _SegPlan(seg)
    pops = plan.populations(scores)
    pairs = plan.pairs(pair_mode)
    pops = {n: _Sorted((sorted(v),)) for n, v in pops.items()}  # each node's finite floats sorted once
    return reduce(add, (ks_statistic(pops[a], pops[b]) for a, b in pairs), 0.0) / len(pairs)


def delta_score(
    seg: SemanticErrorGraph, scores: ScoreTable, global_std: float,
    pair_mode: PairMode = "per-walk", plan: _SegPlan | None = None,
) -> float:
    """Mean adjacent-node mean-score drop, in units of the metric's spread.

    ``global_std`` must be the population standard deviation of this
    metric's scores over all images of the whole collection under
    evaluation; a 0 spread yields 0 by convention, and a negative, NaN or
    infinite one raises ValueError.  Scores whose sums overflow are
    scaled by a power of two first, so a delta in the float range is found
    whatever the scores' size, and one outside it raises OverflowError.
    """
    if not 0.0 <= global_std < math.inf:
        raise ValueError("global_std must be finite and non-negative")
    plan = plan or _SegPlan(seg)
    pops = plan.populations(scores)  # checks coverage even when the spread is 0
    if global_std == 0.0:
        return 0.0
    pairs = plan.pairs(pair_mode)
    delta = _mean_gap(pops, pairs) / global_std
    if not math.isfinite(delta):  # a sum, a gap or the quotient overflowed: scale both by powers of two, and back
        e = _unit_exponent(chain.from_iterable(pops.values()))
        spread, e_std = math.frexp(global_std)
        scaled = {n: [math.ldexp(x, -e) for x in v] for n, v in pops.items()}
        try:
            delta = math.ldexp(_mean_gap(scaled, pairs) / spread, e - e_std)
        except OverflowError:
            raise OverflowError("delta is outside the float range") from None
    return delta


def _mean_gap(pops: dict[str, list[float]], pairs: list[tuple[str, str]]) -> float:
    """Mean over ``pairs`` of the first node's mean score minus the second's."""
    # a constant node's mean is its value, which sum / len can miss by an ulp
    means = {n: v[0] if v.count(v[0]) == len(v) else reduce(add, v, 0.0) / len(v) for n, v in pops.items()}
    return reduce(add, (means[a] - means[b] for a, b in pairs), 0.0) / len(pairs)


def global_std(
    collection: SegCollection | Iterable[SemanticErrorGraph], scores: ScoreTable
) -> float:
    """Population std of the metric's scores over every image of every SEG."""
    values: list[float] = []
    gaps: list[tuple[str, str]] = []
    for seg in collection:
        try:
            values.extend(map(scores.entries.index.get(seg.id, {}).__getitem__, seg.image_ids()))
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


def _results_by_metric(results: Iterable[SegMetricResult], seg_ids: Mapping) -> dict[str, list[SegMetricResult]]:
    """``results`` grouped by metric; a repeated (seg, metric) or a seg not in ``seg_ids`` is a ValidationError."""
    results_of: dict[str, list[SegMetricResult]] = {}
    seen: set[tuple[str, str]] = set()
    for r in results:
        key = (r.seg_id, r.metric_name)
        if key in seen:
            raise ValidationError(f"duplicate result for seg {r.seg_id!r}, metric {r.metric_name!r}")
        seen.add(key)
        if r.seg_id not in seg_ids:
            raise ValidationError(f"result references unknown seg {r.seg_id!r}")
        results_of.setdefault(r.metric_name, []).append(r)
    return results_of


def aggregate(
    results: Iterable[SegMetricResult], collection: SegCollection
) -> AggregateReport:
    """Unweighted per-subset and overall means, one block per metric."""
    subset_of = {seg.id: seg.subset for seg in collection}
    results_of = _results_by_metric(results, subset_of)

    subset_counts = {s: 0 for s in SUBSETS}
    for seg in collection:
        subset_counts[seg.subset] += 1

    metrics: dict[str, MetricAggregate] = {}
    for name in sorted(results_of):
        rs = results_of[name]
        covered = {r.seg_id for r in rs}
        missing = tuple(sorted(set(subset_of) - covered))
        by_subset = {}
        for subset in SUBSETS:
            sub = [r for r in rs if subset_of[r.seg_id] == subset]
            if sub:
                by_subset[subset] = _mean_scores(sub)
        metrics[name] = MetricAggregate(name, _mean_scores(rs), by_subset, missing)
    return AggregateReport(metrics, len(collection), subset_counts)
