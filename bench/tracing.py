"""Per-layer tracing of segeval from outside the package.

:class:`Tracer` wraps every public function of the traced modules in a span
(name, start, end, parent) and installs each wrapper in every namespace that
looks the original up: the defining module, each module that imported it
with ``from .x import name``, the package itself, and module-level dicts
such as the CLI's command table.  Spans stay in memory, in flat arrays,
until the run ends.  A span's self time is its duration minus the time its
child spans cover.

:func:`layer_metrics` turns the spans and counters of one iteration into
the per-layer metrics named in ``LAYER_TIMES`` and ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from collections import Counter
from dataclasses import dataclass

TRACED_MODULES = ("seg", "walks", "stats", "metametrics", "reporting", "scorers", "cost", "cli")

# metric -> (kind, span names); "self" sums self times, "total" durations
LAYER_TIMES = {
    "seg.load_s": ("self", ("seg.load_segs", "seg.load_seg_file", "seg.parse_seg", "seg.seg_paths")),
    "seg.validate_s": ("self", ("seg.validate_seg",)),
    "metametrics.load_scores_s": ("self", ("metametrics.load_score_tables",)),
    "metametrics.global_std_s": ("self", ("metametrics.global_std",)),
    "metametrics.coverage_s": ("self", ("metametrics.missing_scores",)),
    "metametrics.evaluate_s": ("total", ("metametrics.evaluate_collection",)),
    "metametrics.rank_s": ("self", ("metametrics.rank_score",)),
    "metametrics.sep_s": ("self", ("metametrics.sep_score",)),
    "metametrics.delta_s": ("self", ("metametrics.delta_score",)),
    "metametrics.aggregate_s": ("self", ("metametrics.aggregate",)),
    "walks.enumerate_s": ("self", ("walks.enumerate_walks",)),
    "walks.walk_triples_s": ("self", ("walks.walk_triples",)),
    "walks.adjacent_pairs_s": ("self", ("walks.adjacent_pairs",)),
    "stats.spearman_s": ("self", ("stats.spearman_rho", "stats.rank_transform")),
    "stats.ks_s": ("self", ("stats.ks_statistic",)),
    "stats.moments_s": ("self", ("stats.population_moments",)),
    "reporting.emit_s": ("self", ("reporting.emit_report",)),
    "reporting.walk_lines_s": ("self", ("reporting.walk_line_data",)),
    "reporting.correlation_s": ("self", ("reporting.metric_correlation_matrix",)),
    "reporting.histogram_s": ("self", ("reporting.histogram_data",)),
    "cost.pareto_s": ("self", ("cost.load_cost_models", "cost.estimate_flops", "cost.pareto_frontier")),
    "scorers.load_questions_s": ("self", ("scorers.load_question_graphs",)),
    "scorers.load_answers_s": ("self", ("scorers.load_answer_table",)),
    "scorers.accumulate_s": ("total", ("scorers.accumulate_scores",)),
    "scorers.answers_for_s": ("self", ("scorers.AnswerTable.answers_for",)),
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Hooks run after a span closes and count work at the layer boundary.


def _on_enumerate_walks(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["walks.walks_enumerated"] += len(result)
    tracer.distinct_walks[_arg(args, kwargs, 0, "seg").id] = len(result)


def _on_adjacent_pairs(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["walks.pairs_returned"] += len(result)


def _on_load_score_tables(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["metametrics.score_rows"] += sum(len(t.entries) for t in result.values())


def _on_sep_score(tracer: "Tracer", args, kwargs, result) -> None:
    # every edge of a valid SEG lies on some head-to-leaf walk, so sep
    # compares exactly the SEG's distinct edges
    seg = _arg(args, kwargs, 0, "seg")
    metric = _arg(args, kwargs, 1, "scores").metric_name
    tracer.ks_edges[(seg.id, metric)] = len({(e.src, e.dst) for e in seg.edges})


def _on_emit_report(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["reporting.files_written"] += len(result)
    tracer.counters["reporting.bytes_written"] += sum(p.stat().st_size for p in result)


def _on_answers_for(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["scorers.answers_scanned"] += len(args[0].entries)
    tracer.counters["scorers.answers_returned"] += len(result)


HOOKS = {
    "walks.enumerate_walks": _on_enumerate_walks,
    "walks.adjacent_pairs": _on_adjacent_pairs,
    "metametrics.load_score_tables": _on_load_score_tables,
    "metametrics.sep_score": _on_sep_score,
    "reporting.emit_report": _on_emit_report,
    "scorers.AnswerTable.answers_for": _on_answers_for,
}


class Tracer:
    """Spans and counters around segeval's public functions."""

    def __init__(self) -> None:
        self.names: list[str] = []  # span name table, indexed by name id
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter[str] = Counter()
        self.distinct_walks: dict[str, int] = {}
        self.ks_edges: dict[tuple[str, str], int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """``fn`` inside a span called ``name``."""
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def span_count(self) -> int:
        return len(self.start)

    def reset_counters(self) -> None:
        self.counters.clear()
        self.distinct_walks.clear()
        self.ks_edges.clear()

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function wherever segeval looks it up."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers: dict[types.FunctionType, object] = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"segeval.{short}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self.wrap(f"{short}.{attr}", value)
        namespaces = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "segeval" or name.startswith("segeval.")
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._set(module, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in wrappers:
                            self._set(value, key, wrappers[item])
        from segeval.scorers import AnswerTable

        self._set(
            AnswerTable,
            "answers_for",
            self.wrap("scorers.AnswerTable.answers_for", AnswerTable.answers_for),
        )

    def _set(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()


@dataclass(frozen=True)
class SpanTimes:
    total: dict[str, float]  # summed durations per span name
    self_time: dict[str, float]  # summed self times per span name
    calls: dict[str, int]


def span_times(names, name_of, parent, start, end, lo: int = 0, hi: int | None = None) -> SpanTimes:
    """Durations, self times and call counts per name over spans [lo, hi).

    Spans of one thread nest, so the time a span's children cover is the
    sum of their durations.  Parents outside [lo, hi) are ignored.
    """
    hi = len(start) if hi is None else hi
    covered = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            covered[p - lo] += end[i] - start[i]
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in range(lo, hi):
        name = names[name_of[i]]
        duration = end[i] - start[i]
        total[name] = total.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + duration - covered[i - lo]
        calls[name] = calls.get(name, 0) + 1
    return SpanTimes(total=total, self_time=self_time, calls=calls)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(times: SpanTimes, tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one iteration (times in s, counts per iteration)."""
    out: dict[str, float] = {}
    for metric, (kind, names) in LAYER_TIMES.items():
        table = times.self_time if kind == "self" else times.total
        out[metric] = sum(table.get(name, 0.0) for name in names)
    out["cli.self_s"] = sum(v for k, v in times.self_time.items() if k.startswith("cli."))
    calls = times.calls
    counters = tracer.counters

    def n(name: str) -> int:
        return calls.get(name, 0)

    cells = n("metametrics.evaluate_seg")
    ks_calls = n("stats.ks_statistic")
    walks = counters["walks.walks_enumerated"]
    scanned = counters["scorers.answers_scanned"]
    out.update(
        {
            "seg.files": n("seg.load_seg_file"),
            "metametrics.score_rows": counters["metametrics.score_rows"],
            "metametrics.evaluate_seg_calls": cells,
            "metametrics.coverage_checks": n("metametrics.missing_scores"),
            "metametrics.coverage_checks_per_cell": _ratio(n("metametrics.missing_scores"), cells),
            "walks.enumerate_calls": n("walks.enumerate_walks"),
            "walks.walks_enumerated": walks,
            "walks.adjacent_pairs_calls": n("walks.adjacent_pairs"),
            "walks.pairs_returned": counters["walks.pairs_returned"],
            "walks.reuse_ratio": _ratio(sum(tracer.distinct_walks.values()), walks),
            "stats.spearman_calls": n("stats.spearman_rho"),
            "stats.ks_calls": ks_calls,
            "stats.ks_reuse_ratio": _ratio(sum(tracer.ks_edges.values()), ks_calls),
            "reporting.files_written": counters["reporting.files_written"],
            "reporting.bytes_written": counters["reporting.bytes_written"],
            "scorers.answers_for_calls": n("scorers.AnswerTable.answers_for"),
            "scorers.answers_scanned": scanned,
            "scorers.scan_ratio": _ratio(counters["scorers.answers_returned"], scanned),
        }
    )
    return out
