"""Acceptance suite.

One test per criterion; each prints a single [PASS]/[FAIL] line (run with
``pytest tests/test_acceptance.py -v -s`` to see them inline).  Tolerances
are pinned here and nowhere else.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time

import pytest

from segeval.cli import main
from segeval.cost import CostModel, CostStage, QualityCostPoint, estimate_flops, pareto_frontier
from segeval.metametrics import (
    ScoreTable,
    aggregate,
    delta_score,
    evaluate_collection,
    global_std,
    rank_score,
    sep_score,
    write_score_tables,
)
from segeval.reporting import emit_report, histogram_data, metric_correlation_matrix
from segeval.scorers import dsg_accumulate, tifa_accumulate
from segeval.stats import ks_statistic, spearman_rho
from segeval.synth import SynthConfig, generate_segs, oracle_scores, write_collection

from conftest import chain_seg, collection_of, make_seg, table_for
from test_cost import oracle_frontier
from test_scorers import oracle_dsg, random_dag
from test_stats import oracle_ks, oracle_spearman


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")

        return wrapper

    return decorate


@criterion(1, "tie example: midrank rank=1.0 exact, near-ties 0.948683 +/- 1e-6, < 1 s")
def test_criterion_1_tie_example():
    start = time.monotonic()
    seg = chain_seg([1, 2, 1], seg_id="ties")  # per-image error counts (0,1,1,2)
    exact_ties = table_for(seg, [1.0, 0.5, 0.5, 0.0])
    assert rank_score(seg, exact_ties, "midrank") == 1.0
    near_ties = table_for(seg, [1.0, 0.51, 0.49, 0.0])
    assert rank_score(seg, near_ties, "midrank") == pytest.approx(0.948683, abs=1e-6)
    assert time.monotonic() - start < 1.0


@criterion(2, "constant scorer: rank=sep=delta=0 exactly on 100 seeded SEGs")
def test_criterion_2_degenerate_convention():
    for seed in range(100):
        (seg,) = generate_segs(SynthConfig(seed=seed, seg_count=1))
        col = collection_of(seg)
        table = oracle_scores(col, "constant")
        assert rank_score(seg, table) == 0.0
        assert sep_score(seg, table) == 0.0
        std = global_std(col, table)
        assert std == 0.0
        assert delta_score(seg, table, std) == 0.0


@criterion(3, "oracle equivalence: spearman 1e-12, KS 1e-15, DSG exact, < 10 s")
def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(1234)
    grid = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    for _ in range(500):
        n = rng.randint(1, 8)
        x = [rng.choice(grid) for _ in range(n)]
        y = [rng.choice(grid) for _ in range(n)]
        assert abs(spearman_rho(x, y, "midrank") - oracle_spearman(x, y)) <= 1e-12
    for _ in range(500):
        x = [rng.random() for _ in range(rng.randint(1, 8))]
        y = [rng.random() for _ in range(rng.randint(1, 8))]
        assert abs(ks_statistic(x, y) - oracle_ks(x, y)) <= 1e-15
    for _ in range(100):
        qg = random_dag(rng, rng.randint(1, 10))
        answers = {q.id: rng.choice(["yes", "no"]) for q in qg.questions}
        assert dsg_accumulate(qg, answers) == oracle_dsg(qg, answers)
    assert time.monotonic() - start < 10.0


@criterion(4, "perfect/inverse oracles exact on 100 SEGs; dsg <= tifa rowwise")
def test_criterion_4_perfect_inverse():
    collection = generate_segs(
        SynthConfig(seed=2024, seg_count=100, branch_probability=0.5,
                    multi_error_edge_probability=0.3)
    )
    perfect = oracle_scores(collection, "perfect")
    inverse = oracle_scores(collection, "inverse")
    for seg in collection:
        assert rank_score(seg, perfect) == 1.0
        assert sep_score(seg, perfect) == 1.0
        assert rank_score(seg, inverse) == -1.0
    rng = random.Random(55)
    for _ in range(100):
        qg = random_dag(rng, rng.randint(1, 10))
        answers = {q.id: rng.choice(["yes", "no"]) for q in qg.questions}
        assert dsg_accumulate(qg, answers) <= tifa_accumulate(qg, answers)


@criterion(5, "cost model reproduces 604M exactly; frontier matches O(n^2) scan")
def test_criterion_5_cost_model():
    embedding = CostModel(
        "embedding", (CostStage(calls=2, tokens_per_call=1, model_params=1.51e8),)
    )
    assert estimate_flops(embedding) == 6.04e8
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 50)
        points = [
            QualityCostPoint(f"m{i}", rng.uniform(0, 100), rng.uniform(1, 1e15))
            for i in range(n)
        ]
        assert pareto_frontier(points) == oracle_frontier(points)


@criterion(6, "delta fixture: node means 0.9/0.5, sigma sqrt(0.05) -> 1.788854 +/- 1e-6")
def test_criterion_6_delta_fixture():
    seg = make_seg(
        nodes=[("0", 0, ["a", "b"]), ("1", 1, ["c", "d"])],
        edges=[("0", "1")],
    )
    table = ScoreTable(
        metric_name="m",
        entries={("seg", "a"): 0.8, ("seg", "b"): 1.0, ("seg", "c"): 0.4, ("seg", "d"): 0.6},
    )
    std = global_std(collection_of(seg), table)
    assert std == pytest.approx(math.sqrt(0.05), abs=1e-12)
    assert delta_score(seg, table, std) == pytest.approx(1.788854, abs=1e-6)


@criterion(7, "invariance: monotone transforms leave rank/sep exact, affine leaves delta 1e-12")
def test_criterion_7_invariance_suite():
    collection = generate_segs(SynthConfig(seed=777, seg_count=20))
    rng = random.Random(777)
    base = {
        seg.id: {(seg.id, img): rng.random() for img in seg.image_ids()}
        for seg in collection
    }
    originals = {
        sid: ScoreTable(metric_name="m", entries=entries) for sid, entries in base.items()
    }
    by_id = {seg.id: seg for seg in collection}
    reference = {
        sid: (rank_score(by_id[sid], t), sep_score(by_id[sid], t))
        for sid, t in originals.items()
    }
    for _ in range(50):
        # random transform built from cumulative positive increments, so it
        # is strictly increasing on the observed values by construction
        for seg in collection:
            entries = base[seg.id]
            level = rng.uniform(-3.0, 3.0)
            remap = {}
            for v in sorted(set(entries.values())):
                level += rng.uniform(0.1, 2.0)
                remap[v] = level
            t2 = ScoreTable(metric_name="m", entries={k: remap[v] for k, v in entries.items()})
            assert rank_score(seg, t2) == reference[seg.id][0]
            assert sep_score(seg, t2) == reference[seg.id][1]
    for seg in collection:
        t1 = originals[seg.id]
        col = collection_of(seg)
        d1 = delta_score(seg, t1, global_std(col, t1))
        scale, shift = rng.uniform(0.1, 9.0), rng.uniform(-5.0, 5.0)
        t2 = ScoreTable(
            metric_name="m",
            entries={k: scale * v + shift for k, v in t1.entries.items()},
        )
        d2 = delta_score(seg, t2, global_std(col, t2))
        assert d2 == pytest.approx(d1, abs=1e-12)


@criterion(8, "determinism: synth --seed 1 and score are byte-identical across runs")
def test_criterion_8_determinism(tmp_path):
    seg_dirs, report_dirs = [], []
    for tag in ("a", "b"):
        seg_dir = tmp_path / f"segs_{tag}"
        assert main(["synth", "--seed", "1", "--segs", "8", "--out", str(seg_dir)]) == 0
        seg_dirs.append(seg_dir)
    files = sorted(p.name for p in seg_dirs[0].glob("*.json"))
    assert files
    for name in files:
        assert (seg_dirs[0] / name).read_bytes() == (seg_dirs[1] / name).read_bytes()

    collection = generate_segs(SynthConfig(seed=1, seg_count=8))
    scores = tmp_path / "scores.csv"
    write_score_tables(
        [oracle_scores(collection, k) for k in ("perfect", "noisy")], scores
    )
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}"
        assert main(["score", "--segs", str(seg_dirs[0]), "--scores", str(scores), "--out", str(out)]) == 0
        report_dirs.append(out)
    emitted = sorted(p.name for p in report_dirs[0].iterdir())
    assert "report.json" in emitted
    for name in emitted:
        assert (report_dirs[0] / name).read_bytes() == (report_dirs[1] / name).read_bytes()


@criterion(9, "end-to-end: 10 SEGs x 4 oracle metrics -> report+corr+hist+pareto < 5 s")
def test_criterion_9_end_to_end_smoke(tmp_path):
    start = time.monotonic()
    collection = generate_segs(SynthConfig(seed=9, seg_count=10))
    write_collection(collection, tmp_path / "segs")
    tables = {
        kind: oracle_scores(collection, kind)
        for kind in ("perfect", "inverse", "constant", "noisy")
    }
    results = []
    for name in sorted(tables):
        results.extend(evaluate_collection(collection, tables[name]))
    report = aggregate(results, collection)
    out = tmp_path / "report"
    written = emit_report(report, results, out, collection=collection, score_tables=tables)
    assert (out / "report.json").exists()

    cm = metric_correlation_matrix(results, basis="rank")
    assert len(cm.metric_names) == 4
    hist = histogram_data(results, "noisy", basis="rank", bin_count=10)
    assert sum(n for _, _, n in hist) == 10

    points = [
        QualityCostPoint(
            name,
            report.metrics[name].overall.rank,
            estimate_flops(
                CostModel(name, (CostStage(calls=i + 1, tokens_per_call=2, model_params=1e8),))
            ),
        )
        for i, name in enumerate(sorted(report.metrics))
    ]
    frontier = pareto_frontier(points)
    assert 1 <= len(frontier) <= 4

    report_json = json.loads((out / "report.json").read_text())
    assert report_json["metrics"]["perfect"]["overall_display"]["rank"] == 100.0
    assert len(written) >= 2 + 2 * 4
    assert time.monotonic() - start < 5.0
