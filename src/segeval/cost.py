"""Per-image compute-cost estimates and cost-quality Pareto frontiers.

A metric's cost is modeled as a sequence of model-call stages; each forward
pass of a transformer with N parameters is taken to cost about 2N
operations, so a stage contributes calls x tokens_per_call x 2N FLOPs.
Parameter counts are configuration inputs (estimates for closed models are
third-party and only order-of-magnitude reliable), never hard-coded.

Cost model file (JSON):

    {"metric": str, "stages": [{"calls": int, "tokens_per_call": int,
                                "model_params": number}, ...]}

A top-level array of those objects covers several metrics in one file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from pathlib import Path
from typing import Iterable

from .errors import ParseError, ValidationError
from .fileio import NUMBER, fields, read_json

FLOPS_PER_PARAM_PASS = 2.0


@dataclass(frozen=True)
class CostStage:
    calls: int
    tokens_per_call: int
    model_params: float

    def validate(self) -> None:
        if self.calls <= 0:
            raise ValueError(f"calls must be positive, got {self.calls}")
        if self.tokens_per_call <= 0:
            raise ValueError(f"tokens_per_call must be positive, got {self.tokens_per_call}")
        if not (self.model_params > 0 and math.isfinite(self.model_params)):
            raise ValueError(f"model_params must be positive and finite, got {self.model_params}")


@dataclass(frozen=True)
class CostModel:
    metric_name: str
    stages: tuple[CostStage, ...]

    def validate(self) -> None:
        if not self.stages:
            raise ValueError(f"cost model for {self.metric_name!r} has no stages")
        for stage in self.stages:
            stage.validate()


@dataclass(frozen=True)
class QualityCostPoint:
    metric_name: str
    quality: float
    cost_flops: float


def estimate_flops(model: CostModel) -> float:
    """FLOPs to score one image: sum over stages of calls x tokens x 2N."""
    model.validate()
    flops = (s.calls * s.tokens_per_call * FLOPS_PER_PARAM_PASS * s.model_params for s in model.stages)
    return reduce(add, flops, 0.0)


_MODEL_FIELDS = {"metric": str, "stages": list}
_STAGE_FIELDS = {"calls": int, "tokens_per_call": int, "model_params": NUMBER}


def _parse_cost_model(data: dict, source: str) -> CostModel:
    metric, raw_stages = fields(data, _MODEL_FIELDS, "cost model", source)
    if not metric:
        raise ParseError("cost model: field 'metric' must be a non-empty string", source=source)
    where = f"cost model {metric!r}: stages"
    stages = [fields(st, _STAGE_FIELDS, f"{where}[{i}]", source) for i, st in enumerate(raw_stages)]
    try:
        model = CostModel(metric, tuple(CostStage(c, t, float(p)) for c, t, p in stages))
        flops = estimate_flops(model)  # validates the model first
    except OverflowError:  # an integer too large for a float
        flops = math.inf
    except ValueError as exc:
        raise ParseError(str(exc), source=source) from exc
    if not math.isfinite(flops):
        raise ParseError(f"cost model for {metric!r}: FLOPs per image overflow a float", source=source)
    return model


def load_cost_models(path: str | Path) -> dict[str, CostModel]:
    """Cost models from a JSON file (object or array), keyed by metric name."""
    path = Path(path)
    data = read_json(path)
    items = data if isinstance(data, list) else [data]
    models: dict[str, CostModel] = {}
    for item in items:
        model = _parse_cost_model(item, str(path))
        if model.metric_name in models:
            raise ValidationError(f"{path}: duplicate cost model for metric {model.metric_name!r}")
        models[model.metric_name] = model
    return models


def pareto_frontier(points: Iterable[QualityCostPoint]) -> list[QualityCostPoint]:
    """Non-dominated points, sorted by ascending cost.

    A point is dominated when another has quality >= and cost <= with at
    least one strict inequality; exact ties in both dimensions are all kept.
    """
    pts = list(points)
    if not pts:
        raise ValueError("no points given")
    names = [p.metric_name for p in pts]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValidationError("duplicate metric name(s): " + ", ".join(dupes))
    for p in pts:
        if not (p.cost_flops > 0 and math.isfinite(p.cost_flops)):
            raise ValueError(f"cost for {p.metric_name!r} must be positive and finite")

    # group by cost; within a group only the max-quality points survive,
    # and a group survives only if it strictly improves on cheaper ones
    by_cost: dict[float, list[QualityCostPoint]] = {}
    for p in pts:
        by_cost.setdefault(p.cost_flops, []).append(p)
    frontier: list[QualityCostPoint] = []
    best_quality = -math.inf
    for cost in sorted(by_cost):
        group = by_cost[cost]
        group_max = max(p.quality for p in group)
        if group_max > best_quality:
            frontier.extend(
                sorted(
                    (p for p in group if p.quality == group_max),
                    key=lambda p: p.metric_name,
                )
            )
            best_quality = group_max
    return frontier
