"""Order-statistics unit tests, brute-force oracles, and properties."""

from __future__ import annotations

import math
import random
import re
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segeval.stats as stats
from segeval.stats import (
    _Checked,
    _Ranked,
    _Sorted,
    _check_sample,
    _doubled_ranks,
    _ranked_runs,
    ks_statistic,
    population_moments,
    rank_transform,
    spearman_rho,
)

# small value grid keeps ties frequent
grid_values = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
samples = st.lists(grid_values, min_size=1, max_size=8)
float_samples = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=12
)


# ---------------------------------------------------------------------------
# independent oracles


def oracle_midrank(values):
    """Rank by sorting, then average 1-based positions within tie groups."""
    pairs = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(pairs):
        group = [pairs[i]]
        while i + len(group) < len(pairs) and values[pairs[i + len(group)]] == values[group[0]]:
            group.append(pairs[i + len(group)])
        positions = range(i + 1, i + len(group) + 1)
        mid = sum(positions) / len(positions)
        for idx in group:
            ranks[idx] = mid
        i += len(group)
    return ranks


def oracle_countbelow(values):
    return [float(sum(1 for other in values if other < v)) for v in values]


def oracle_pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    sx = math.sqrt(sum((a - mx) ** 2 for a in x) / n)
    sy = math.sqrt(sum((b - my) ** 2 for b in y) / n)
    if sx == 0 or sy == 0:
        return 0.0
    return cov / (sx * sy)


def oracle_spearman(x, y):
    return oracle_pearson(oracle_midrank(x), oracle_midrank(y))


def oracle_ks(x, y):
    best = 0.0
    for t in list(x) + list(y):
        fx = sum(1 for v in x if v <= t) / len(x)
        fy = sum(1 for v in y if v <= t) / len(y)
        best = max(best, abs(fx - fy))
    return best


def numpy_ks_reference(x, y):
    """The vectorized numpy formula that ks_statistic replaced."""
    xa = np.sort(np.asarray(x, dtype=float))
    ya = np.sort(np.asarray(y, dtype=float))
    pooled = np.concatenate([xa, ya])
    fx = np.searchsorted(xa, pooled, side="right") / xa.size
    fy = np.searchsorted(ya, pooled, side="right") / ya.size
    return float(np.max(np.abs(fx - fy)))


def numpy_moments_reference(values):
    """The numpy formula population_moments replaced."""
    x = np.asarray(values, dtype=float)
    if x.min() == x.max():
        return float(x[0]), 0.0
    mean = float(x.mean())
    return mean, float(np.sqrt(np.mean((x - mean) ** 2)))


def tie_group_doubled_ranks(vals, tie_mode):
    """The tie-group loop _doubled_ranks replaced: one pass over each run of equal values."""
    n = len(vals)
    order = sorted(range(n), key=vals.__getitem__)
    ranks = [0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and vals[order[j + 1]] == vals[order[i]]:
            j += 1
        rank = i + j + 2 if tie_mode == "midrank" else 2 * i
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def reference_rho(x, y, tie_mode="midrank"):
    """spearman_rho before its constant and tie-free paths: check both, rank both by bisection."""
    xs, ys = _check_sample(x, "x"), _check_sample(y, "y")
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    rx, ry = _doubled_ranks(xs, tie_mode), _doubled_ranks(ys, tie_mode)
    n, sx, sy = len(rx), sum(rx), sum(ry)
    num = n * sum(a * b for a, b in zip(rx, ry)) - sx * sy
    vx = n * sum(a * a for a in rx) - sx * sx
    vy = n * sum(b * b for b in ry) - sy * sy
    if vx == 0 or vy == 0:
        return 0.0
    if num * num == vx * vy:
        return 1.0 if num > 0 else -1.0
    return max(-1.0, min(1.0, num / math.sqrt(vx * vy)))


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _rho_path(x):
    distinct = len(set(map(float, x)))
    return "constant" if distinct == 1 else "tie-free" if distinct == len(x) else "tied"


# ---------------------------------------------------------------------------
# rank_transform


def test_countbelow_example():
    assert rank_transform([0, 1, 1, 2], "countbelow") == [0, 1, 1, 3]


def test_midrank_example():
    assert rank_transform([0, 1, 1, 2], "midrank") == [1, 2.5, 2.5, 4]


def test_singleton_ranks():
    assert rank_transform([5], "countbelow") == [0]
    assert rank_transform([5], "midrank") == [1]


def test_rank_transform_rejects_empty_and_nan():
    with pytest.raises(ValueError):
        rank_transform([])
    with pytest.raises(ValueError):
        rank_transform([0.0, float("nan")])
    with pytest.raises(ValueError):
        rank_transform([1.0], "bogus")


def test_unknown_tie_mode_rejected():
    with pytest.raises(ValueError, match="unknown tie_mode: 'dense'"):
        rank_transform([0.0, 1.0, 1.0], "dense")
    with pytest.raises(ValueError, match="unknown tie_mode: 'dense'"):
        spearman_rho([0.0, 1.0, 1.0], [2.0, 1.0, 0.0], "dense")


def _rank_draw(rng, n, style):
    if style == 0:
        return [rng.uniform(-10, 10) for _ in range(n)]
    if style == 1:  # heavy ties, signed zeros included
        return [rng.choice([0.0, -0.0, 0.5, -1.0, 1 / 3]) for _ in range(n)]
    if style == 2:
        return [float(rng.randint(0, 3)) for _ in range(n)]
    return [rng.choice([0.0, -0.0]) for _ in range(n)]


def test_doubled_ranks_equal_the_tie_group_loop_on_2400_samples():
    rng = random.Random(2024)
    for k in range(2400):
        vals = _rank_draw(rng, rng.randint(1, 60), k % 4)
        for mode in ("midrank", "countbelow"):
            assert _doubled_ranks(vals, mode) == tie_group_doubled_ranks(vals, mode), (vals, mode)


@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]),
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_doubled_ranks_match_the_tie_group_loop(vals):
    for mode in ("midrank", "countbelow"):
        assert _doubled_ranks(vals, mode) == tie_group_doubled_ranks(vals, mode)


@given(samples)
def test_midrank_sum_invariant(values):
    n = len(values)
    assert math.isclose(sum(rank_transform(values, "midrank")), n * (n + 1) / 2)


@given(samples)
def test_countbelow_matches_definition(values):
    assert rank_transform(values, "countbelow") == oracle_countbelow(values)


# ---------------------------------------------------------------------------
# spearman_rho


def test_perfect_anti_monotone():
    assert spearman_rho([0.9, 0.5, 0.2], [0, 1, 2]) == -1.0


def test_tie_example_midrank():
    rho = spearman_rho([1, 0.51, 0.49, 0], [0, 1, 1, 2], "midrank")
    assert rho == pytest.approx(-3 / math.sqrt(10), abs=1e-12)
    assert rho == pytest.approx(-0.9486833, abs=1e-6)


def test_tie_example_countbelow():
    rho = spearman_rho([1, 0.5, 0.5, 0], [0, 1, 1, 2], "countbelow")
    assert rho == pytest.approx(-17 / 19, abs=1e-12)


def test_aligned_ties_are_perfect_under_midrank_only():
    assert spearman_rho([1, 0.5, 0.5, 0], [0, 1, 1, 2], "midrank") == -1.0
    assert spearman_rho([1, 0.5, 0.5, 0], [0, 1, 1, 2], "countbelow") != -1.0


def test_constant_series_is_zero():
    assert spearman_rho([7, 7, 7], [0, 1, 2]) == 0.0
    assert spearman_rho([0, 1, 2], [7, 7, 7]) == 0.0
    assert spearman_rho([5], [3]) == 0.0


def test_length_mismatch_and_empty():
    with pytest.raises(ValueError):
        spearman_rho([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman_rho([], [])


def test_spearman_against_oracle_500_samples():
    rng = random.Random(42)
    grid = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    for _ in range(500):
        n = rng.randint(1, 8)
        x = [rng.choice(grid) for _ in range(n)]
        y = [rng.choice(grid) for _ in range(n)]
        assert spearman_rho(x, y, "midrank") == pytest.approx(oracle_spearman(x, y), abs=1e-12)


def test_spearman_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(13)
    seen = set()
    for k in range(600):
        n = rng.randint(2, 25)
        if k % 3 == 0:
            x = [rng.random() for _ in range(n)]
        elif k % 3 == 1:
            x = [rng.choice([0.0, -0.0, 0.5, 1.0, 2]) for _ in range(n)]
        else:
            x = rng.sample(range(-50, 50), n)
        y = [rng.choice([0, 1, 2, 3, 0.5]) if k % 2 else rng.random() for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        seen.add(_rho_path(x))
        expected = scipy_stats.spearmanr(x, y).statistic
        assert spearman_rho(x, y, "midrank") == pytest.approx(expected, abs=1e-12), (x, y)
        # a count-below rank is the "min" rank less 1, and a shift leaves Pearson's r as it is
        min_ranks = [scipy_stats.rankdata(v, method="min") for v in (x, y)]
        expected = scipy_stats.pearsonr(*min_ranks).statistic
        assert spearman_rho(x, y, "countbelow") == pytest.approx(expected, abs=1e-12), (x, y)
    assert seen == {"tie-free", "tied"}


@given(samples, samples)
def test_spearman_bounds_and_symmetry(x, y):
    if len(x) != len(y):
        x, y = x[: min(len(x), len(y))], y[: min(len(x), len(y))]
    if not x:
        return
    rho = spearman_rho(x, y)
    assert -1.0 <= rho <= 1.0
    assert rho == spearman_rho(y, x)


@given(float_samples, st.floats(min_value=0.1, max_value=5, allow_nan=False))
def test_spearman_monotone_transform_invariance(x, scale):
    y = list(reversed(range(len(x))))
    # order-preserving remap of the observed values; strictly increasing by
    # construction even where an analytic transform would collapse in floats
    remap = {v: scale * (i + 1) ** 2 for i, v in enumerate(sorted(set(x)))}
    transformed = [remap[v] for v in x]
    assert spearman_rho(x, y) == spearman_rho(transformed, y)


def _ranked_by_runs(y, tie_mode):
    """``y`` (sorted) as a ``_Ranked`` built from its tie-group run lengths."""
    assert y == sorted(y)
    return _ranked_runs([len(list(g)) for _, g in groupby(y)], tie_mode)


def test_ranked_runs_are_the_doubled_ranks_of_the_sorted_sample():
    rng = random.Random(31)
    for tie_mode in ("midrank", "countbelow"):
        for _ in range(300):
            y = sorted(rng.choice([0, 1, 2, 3, 5]) for _ in range(rng.randint(1, 20)))
            ranked = _ranked_by_runs(y, tie_mode)
            ry = _doubled_ranks(_check_sample(y), tie_mode)
            sy, n = sum(ry), len(ry)
            assert type(ranked) is _Ranked
            assert tuple(ranked) == (ry, sy, n * sum(r * r for r in ry) - sy * sy, n), (y, tie_mode)


def test_spearman_of_ranked_y_equals_spearman_of_plain_y():
    rng = random.Random(29)
    seen = set()
    for tie_mode in ("midrank", "countbelow"):
        for k in range(600):
            n = 1 if k % 10 == 0 else rng.randint(2, 25)
            x = [rng.choice([0.0, 0.25, 0.5, 1.0, 2]) if k % 2 else rng.random() for _ in range(n)]
            y = [rng.randint(0, 4) for _ in range(n)]
            expected = spearman_rho(x, y, tie_mode)
            # rho sums over (x, y) pairs, so sorting the pairs by y keeps it exactly
            xs, ys = zip(*sorted(zip(x, y), key=lambda p: p[1]))
            assert spearman_rho(list(xs), _ranked_by_runs(list(ys), tie_mode), tie_mode) == expected, (x, y)
            seen.add(expected if expected in (-1.0, 0.0, 1.0) else "other")
    assert seen == {-1.0, 0.0, 1.0, "other"}


def test_spearman_of_ranked_y_edge_cases():
    for tie_mode in ("midrank", "countbelow"):
        one = _ranked_runs([1], tie_mode)
        assert spearman_rho([0.3], one, tie_mode) == spearman_rho([0.3], [0], tie_mode) == 0.0
        runs = _ranked_runs([2, 1, 3], tie_mode)  # y = [0, 0, 1, 2, 2, 2]
        assert spearman_rho([0.5] * 6, runs, tie_mode) == 0.0
        assert spearman_rho([1, 1, 2, 3, 3, 3], runs, tie_mode) == 1.0
        distinct = _ranked_runs([1, 1, 1, 1], tie_mode)
        assert spearman_rho([0.1, 0.2, 0.4, 0.8], distinct, tie_mode) == 1.0
        assert spearman_rho([0.8, 0.4, 0.2, 0.1], distinct, tie_mode) == -1.0
        assert spearman_rho([0.9, 0.8, 0.5, 0.1, 0.2, 0.3], runs, tie_mode) == spearman_rho(
            [0.9, 0.8, 0.5, 0.1, 0.2, 0.3], [0, 0, 1, 2, 2, 2], tie_mode
        )
        with pytest.raises(ValueError, match=r"^length mismatch: 5 vs 6$"):
            spearman_rho([1, 2, 3, 4, 5], runs, tie_mode)
        with pytest.raises(ValueError, match=r"^x contains non-finite values$"):
            spearman_rho([1, 2, float("nan"), 4, 5, 6], runs, tie_mode)
        with pytest.raises(ValueError, match=r"^x must be non-empty$"):
            spearman_rho([], runs, tie_mode)
    # aligned ties anticorrelate perfectly under midrank only, as with a plain y
    assert spearman_rho([9, 9, 4, -1, -1, -1], _ranked_runs([2, 1, 3], "midrank")) == -1.0
    with pytest.raises(ValueError, match=r"^unknown tie_mode: 'dense'$"):
        spearman_rho([1, 2, 3, 4, 5, 6], _ranked_runs([2, 1, 3], "midrank"), "dense")


rho_x = st.one_of(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30, unique=True),
    st.builds(lambda v, n: [v] * n, st.sampled_from([0.5, 0.0, -0.0, 3]), st.integers(1, 20)),
    st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 2, -1]), min_size=1, max_size=30),
    st.lists(st.integers(-5, 5), min_size=1, max_size=30),
)


@settings(max_examples=300)
@given(rho_x, st.data())
def test_every_rank_path_equals_the_bisection_reference(x, data):
    n = len(x)
    y = data.draw(st.lists(st.sampled_from([0, 1, 1, 2, 3, 0.5, -0.0]), min_size=n, max_size=n))
    for tie_mode in ("midrank", "countbelow"):
        expected = reference_rho(x, y, tie_mode)
        assert _same_float(spearman_rho(x, y, tie_mode), expected), (x, y, tie_mode)
        if all(type(v) is float for v in x):
            assert _same_float(spearman_rho(_Checked(x), y, tie_mode), expected)
        # a _Ranked y: sort the (x, y) pairs by y, which keeps rho, and rank y's runs
        xs, ys = zip(*sorted(zip(x, y), key=lambda p: p[1]))
        ranked = _ranked_by_runs(list(map(float, ys)), tie_mode)
        assert _same_float(spearman_rho(list(xs), ranked, tie_mode), expected), (x, y, tie_mode)


def test_each_rank_path_is_taken_and_exact():
    cases = {
        "constant": ([0.5, 0.5, 0.5], [0, 1, 2]),
        "signed zeros are one value": ([0.0, -0.0, 0.0], [0, 1, 2]),
        "tie-free": ([0.9, 0.1, 0.5, 0.3], [0, 3, 1, 2]),
        "tie-free ints": ([9, 1, 5, 3], [0, 3, 1, 2]),
        "tied": ([0.9, 0.5, 0.5, 0.1], [0, 1, 1, 2]),
        "tied by a signed zero": ([1.0, 0.0, -0.0, -1.0], [0, 1, 1, 2]),
        "ints equal as floats": ([2**53, 2**53 + 1, 0], [0, 1, 2]),
    }
    paths = {name: _rho_path(x) for name, (x, _) in cases.items()}
    assert set(paths.values()) == {"constant", "tie-free", "tied"}
    assert paths["signed zeros are one value"] == "constant"
    assert paths["tied by a signed zero"] == paths["ints equal as floats"] == "tied"
    for name, (x, y) in cases.items():
        for tie_mode in ("midrank", "countbelow"):
            got = spearman_rho(x, y, tie_mode)
            assert _same_float(got, reference_rho(x, y, tie_mode)), (name, tie_mode)
    for tie_mode in ("midrank", "countbelow"):
        assert spearman_rho([0.5, 0.5, 0.5], [0, 1, 2], tie_mode) == 0.0
        assert spearman_rho([0.9, 0.1, 0.5, 0.3], [0, 3, 1, 2], tie_mode) == -1.0
        assert spearman_rho([9, 1, 5, 3], [9.5, 1.5, 5.5, 3.5], tie_mode) == 1.0
        assert spearman_rho([1.0, 0.0, -0.0, -1.0], [0, 1, 1, 2], "midrank") == -1.0


def test_spearman_errors_keep_their_text_and_order_on_every_path():
    ranked = _ranked_runs([1, 1, 1], "midrank")
    checks = [
        (([], [1.0], "dense"), "x must be non-empty"),
        ((_Checked(), [1.0], "dense"), "x must be non-empty"),
        (([float("nan"), 1.0], [1.0], "dense"), "x contains non-finite values"),
        (([1.0, float("inf")], ranked, "dense"), "x contains non-finite values"),
        (([1.0], [], "dense"), "y must be non-empty"),
        (([1.0, 2.0], [0.0, float("nan"), 1.0], "dense"), "y contains non-finite values"),
        (([1.0, 2.0], [1.0, 2.0, 3.0], "dense"), "length mismatch: 2 vs 3"),
        (([1.0, 2.0], ranked, "dense"), "length mismatch: 2 vs 3"),
        ((_Checked([1.0, 2.0]), ranked, "dense"), "length mismatch: 2 vs 3"),
        (([0.5, 0.5, 0.5], [0, 1, 2], "dense"), "unknown tie_mode: 'dense'"),  # constant
        (([0.5, 0.5, 0.5], ranked, "dense"), "unknown tie_mode: 'dense'"),
        (([0.1, 0.2, 0.3], [0, 1, 2], "dense"), "unknown tie_mode: 'dense'"),  # tie-free
        ((_Checked([0.1, 0.2, 0.3]), ranked, "dense"), "unknown tie_mode: 'dense'"),
        (([0.1, 0.1, 0.3], [0, 1, 2], "dense"), "unknown tie_mode: 'dense'"),  # tied
        (([5.0], [3.0], "dense"), "unknown tie_mode: 'dense'"),
    ]
    for args, message in checks:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spearman_rho(*args)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reference_rho(*(list(a) if type(a) is _Checked else a[0] if type(a) is _Ranked else a for a in args))


# ---------------------------------------------------------------------------
# ks_statistic


def test_ks_disjoint_supports():
    assert ks_statistic([0.2, 0.4], [0.5, 0.7]) == 1.0


def test_ks_identical_samples():
    assert ks_statistic([0.3, 0.6, 0.9], [0.3, 0.6, 0.9]) == 0.0


def test_ks_interleaved_example():
    assert ks_statistic([0.1, 0.5], [0.3, 0.7]) == 0.5


def test_ks_empty_rejected():
    with pytest.raises(ValueError):
        ks_statistic([], [1.0])


@pytest.mark.parametrize("bad", [[], [float("nan")], [0.5, float("inf")], [-float("inf")]])
def test_ks_rejects_bad_sample_naming_the_argument(bad):
    with pytest.raises(ValueError, match=r"^x "):
        ks_statistic(bad, [0.5])
    with pytest.raises(ValueError, match=r"^y "):
        ks_statistic([0.5], bad)


def _ks_draw(rng, n, style):
    if style == 0:
        return [rng.uniform(-1e3, 1e3) for _ in range(n)]
    if style == 1:  # few distinct values: ties inside and across the samples
        return [rng.choice([0.0, -0.0, 0.1, 0.5, -1.0, 1 / 3, 1e3]) for _ in range(n)]
    if style == 2:
        return [round(rng.uniform(-5, 5), 1) for _ in range(n)]
    return [rng.choice([0.0, -0.0]) for _ in range(n)]


def test_ks_is_bit_identical_to_numpy_reference_2400_pairs():
    rng = random.Random(2404)
    sizes = (lambda: 1, lambda: rng.randint(1, 10), lambda: rng.randint(1, 200))
    for k in range(2400):
        style = k % 4
        x = _ks_draw(rng, rng.choice(sizes)(), style)
        y = _ks_draw(rng, rng.choice(sizes)(), style)
        assert ks_statistic(x, y) == numpy_ks_reference(x, y), (x, y)


tie_prone_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.5, 1.0, -1e3, 1e3]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


@given(
    st.lists(tie_prone_floats, min_size=1, max_size=200),
    st.lists(tie_prone_floats, min_size=1, max_size=200),
)
def test_ks_matches_numpy_reference_exactly(x, y):
    assert ks_statistic(x, y) == numpy_ks_reference(x, y)


def _short_circuit_pairs(rng):
    """Seeded pairs on both sides of ks_statistic's 1.0 and 0.0 short-circuits."""
    pool = [0.0, -0.0, 0.1, 0.5, 1 / 3, 1.0, -1.0, 1e3]

    def draw(lo, hi, n):  # ties at both ends
        return [rng.choice([lo, hi, rng.uniform(lo, hi)]) for _ in range(n)]

    for _ in range(300):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        a = rng.choice(pool[:-1])  # below 1e3, the draws' upper end
        gap = math.nextafter(a, math.inf)
        yield "disjoint", draw(-1e3, a, n), draw(gap, 1e3, m)
        yield "touching", draw(-1e3, a, n) + [a], [a] + draw(a, 1e3, m)
        yield "touching", [a] * n, draw(-1e3, a, m) + [a]  # constant x at y's maximum
        x = draw(-1.0, 1.0, n) + [rng.choice(pool) for _ in range(m)]
        y = [-v if v == 0.0 else v for v in x]  # flips the sign of zeros
        rng.shuffle(y)
        yield "equal", x, y
        c = rng.choice(pool)
        yield "equal", [c] * n, [-c if c == 0.0 else c] * m
    yield "equal", [-0.0], [0.0]


def test_ks_short_circuits_are_bit_identical_to_numpy_reference():
    expected = {"disjoint": 1.0, "equal": 0.0}
    for kind, x, y in _short_circuit_pairs(random.Random(2026)):
        for a, b in ((x, y), (y, x)):
            d = ks_statistic(a, b)
            assert d == numpy_ks_reference(a, b), (kind, a, b)
            if kind == "touching":
                assert d < 1.0, (a, b)
            else:
                assert d == expected[kind], (kind, a, b)


def _marked(values):
    return _Sorted((_check_sample(values, sort=True),))


def _marked_sample_pairs(rng):
    """Seeded pairs: ties, signed zeros, ints, single values and both short-circuits."""
    for k in range(400):
        n = 1 if k % 5 == 0 else rng.randint(1, 30)
        yield _ks_draw(rng, n, k % 4), _ks_draw(rng, rng.randint(1, 30), k % 4)
        yield [rng.randint(-3, 3) for _ in range(n)], [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
    for _, x, y in _short_circuit_pairs(rng):
        yield x, y


def test_ks_of_marked_samples_equals_ks_of_plain_lists():
    pooled = 0
    for x, y in _marked_sample_pairs(random.Random(17)):
        mx, my = _marked(x), _marked(y)
        assert mx[0] == sorted(map(float, x)) and type(mx[0][0]) is float
        d = ks_statistic(x, y)
        for a, b in ((mx, my), (mx, y), (x, my)):
            got = ks_statistic(a, b)
            assert got == d and math.copysign(1.0, got) == 1.0, (x, y)
        pooled += 0.0 < d < 1.0
    assert pooled > 500  # most pairs reach the pooled loop, not a short-circuit


def test_ks_checks_every_argument_that_is_not_marked():
    assert ks_statistic((0.7, 0.1), (0.5, 0.3)) == ks_statistic([0.1, 0.7], [0.3, 0.5]) == 0.5
    with pytest.raises(ValueError, match=r"^x contains non-finite values$"):
        ks_statistic((0.5, float("nan")), _marked([0.5]))
    with pytest.raises(ValueError, match=r"^y must be non-empty$"):
        ks_statistic(_marked([0.5]), ())


def test_ks_against_oracle_500_samples():
    rng = random.Random(11)
    for _ in range(500):
        x = [rng.random() for _ in range(rng.randint(1, 8))]
        y = [rng.random() for _ in range(rng.randint(1, 8))]
        assert ks_statistic(x, y) == pytest.approx(oracle_ks(x, y), abs=1e-15)


@given(samples, samples)
def test_ks_bounds_symmetry_and_disjointness(x, y):
    d = ks_statistic(x, y)
    assert 0.0 <= d <= 1.0
    assert d == ks_statistic(y, x)
    disjoint = max(x) < min(y) or max(y) < min(x)
    assert (d == 1.0) == disjoint


# ---------------------------------------------------------------------------
# population_moments


def test_moments_example():
    mean, std = population_moments([0.8, 1.0, 0.4, 0.6])
    assert mean == pytest.approx(0.7)
    assert std == pytest.approx(math.sqrt(0.05), abs=1e-12)
    assert std == pytest.approx(0.2236068, abs=1e-6)


def test_moments_degenerate_cases():
    assert population_moments([3.5]) == (3.5, 0.0)
    assert population_moments([-1, 1]) == (0.0, 1.0)


def test_moments_of_equal_values_are_exact():
    # numpy's mean of six 0.1s is one ulp low, which once left a spread of 1.4e-17
    assert population_moments([0.1] * 6) == (0.1, 0.0)


@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(min_value=1, max_value=500))
def test_moments_of_constant_sample(value, n):
    mean, std = population_moments([value] * n)
    assert mean == value
    assert std == 0.0


def _moments_draw(rng, n, style):
    if style == 0:  # few distinct values: ties, and -0.0 beside 0.0
        return [rng.choice([0.0, -0.0, 0.1, 0.5, -1.0, 1 / 3, 1e3]) for _ in range(n)]
    if style == 1:
        return [rng.uniform(-1e3, 1e3) for _ in range(n)]
    return [rng.gauss(0.0, 1.0) for _ in range(n)]


def test_moments_are_bit_identical_to_numpy_reference():
    # sizes on both sides of numpy's 8- and 128-value blocks and its recursion
    rng = random.Random(2404)
    sizes = [n for n in range(1, 300) for _ in range(15)] + [1000, 8191, 8192, 8193, 44700, 100000]
    for k, n in enumerate(sizes):
        values = _moments_draw(rng, n, k % 3)
        assert population_moments(values) == numpy_moments_reference(values), (n, k % 3)


@given(st.lists(tie_prone_floats, min_size=1, max_size=400))
def test_moments_match_numpy_reference_exactly(values):
    assert population_moments(values) == numpy_moments_reference(values)


def test_moments_of_samples_whose_sums_overflow_are_the_moments_scaled():
    # population_moments([1e308, 0.5e308, 0.9e308]) once gave (inf, inf); squares overflow from about 1.3e154
    rng = random.Random(32)
    scaled_path = 0
    for k, n in enumerate([n for n in range(1, 140) for _ in range(3)] + [1000, 8193]):
        values = _moments_draw(rng, n, k % 3)
        top = math.frexp(max(map(abs, values)))[1]
        mean, std = numpy_moments_reference(values)
        # shifts that keep every sum finite, down to squares that underflow, keep the unscaled formula's floats
        for shift in (-1000, -600, -300, 0, 300, 450):
            shifted = [math.ldexp(v, shift) for v in values]
            assert population_moments(shifted) == numpy_moments_reference(shifted), (n, k % 3, shift)
        # sums or squares that overflow: scaled by a power of two, which is exact here
        for shift in (600, 1023 - top):
            shifted = [math.ldexp(v, shift) for v in values]
            with np.errstate(over="ignore", invalid="ignore"):
                scaled_path += bool(std) and not math.isfinite(numpy_moments_reference(shifted)[1])
            assert population_moments(shifted) == (math.ldexp(mean, shift), math.ldexp(std, shift)), (n, k % 3, shift)
    assert scaled_path > 300
    mean, std = population_moments([1e308, 0.5e308, 0.9e308])
    assert mean == pytest.approx(0.8e308, rel=1e-15)
    assert std == pytest.approx(math.sqrt(((0.2**2 + 0.3**2 + 0.1**2) / 3)) * 1e308, rel=1e-15)
    big = 1.7976931348623157e308
    assert population_moments([big, -big]) == (0.0, big)


def test_moments_read_a_list_of_floats_in_place(monkeypatch):
    with pytest.raises(ValueError, match=r"^sample contains non-finite values$"):
        population_moments([0.5, math.nan])  # checked in place, as a copy was
    seen = []
    monkeypatch.setattr(stats, "_check_floats", lambda vals, name="sample": seen.append(vals) or vals)
    floats, mixed = [0.25, 0.5, 0.75], [0.25, True, 0.75]
    assert population_moments(floats) == population_moments((0.25, 0.5, 0.75)) == (0.5, math.sqrt(0.125 / 3))
    assert population_moments(mixed) == population_moments([0.25, 1.0, 0.75])
    assert seen[0] is floats and seen[1] is not floats and seen[2] is not mixed and seen[2] == [0.25, 1.0, 0.75]


@settings(max_examples=50)
@given(float_samples)
def test_moments_match_direct_formula(values):
    mean, std = population_moments(values)
    n = len(values)
    assert mean == pytest.approx(sum(values) / n, rel=1e-12, abs=1e-12)
    assert std == pytest.approx(
        math.sqrt(sum((v - sum(values) / n) ** 2 for v in values) / n), rel=1e-9, abs=1e-12
    )
