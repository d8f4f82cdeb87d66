"""Order statistics underlying the meta-metrics.

Two rank conventions are supported throughout:

* ``midrank`` (default): tied values share the mean of the 1-based sorted
  positions they occupy.  With this convention a score vector that is a
  strictly decreasing function of the error counts correlates at exactly -1
  even in the presence of ties, which is the behaviour the meta-metrics
  rely on.
* ``countbelow``: each value is ranked by the number of strictly smaller
  values in the sample (an integer in [0, n-1]).  Ties are penalized.

Spearman's rho is the Pearson correlation of the chosen rank vectors, using
population (divide-by-n) covariance and standard deviations.  When either
rank vector is constant the correlation is defined to be exactly 0.0 rather
than NaN: a constant series carries no ordering information.  Because both
rank conventions produce half-integer ranks, the correlation is evaluated
in exact integer arithmetic on doubled ranks; perfectly (anti)monotone
inputs therefore return exactly +/-1.0, ties included.  A constant x returns
0.0 unranked; an x without ties is ranked by one argsort (its k-th smallest
value has doubled rank 2k + 2, or 2k counting below, so its rank sums are
closed forms in n); any other x, and any y but a ``_Ranked`` one (a walk's
error-count ranks, which ``rank_score`` derives from node image counts), is
ranked by bisection.  All three give the same integers.  ``spearman_rho``
checks both inputs, except a non-empty ``_Checked`` x, which ``rank_score``
passes for every walk: a score table holds finite floats, checked when it is
built.

The two-sample Kolmogorov-Smirnov statistic uses the right-continuous
empirical CDF, F(x) = fraction of sample values <= x, and takes the
supremum over all pooled sample points.  Each ECDF value is an exact
count, taken by bisection in the sorted sample, divided once, so the result
is the float that evaluating F_X - F_Y at every pooled point in float64 gives.
Direct calls check each argument, but not a ``_Sorted`` one: ``sep_score``'s.

Population moments add in numpy's pairwise order, so they are numpy's floats
wherever numpy's are finite.  Only a finite sample whose sums or squares
overflow is summed again, scaled by a power of two, so its moments are finite.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import reduce
from operator import add, mul
from typing import Iterable, Literal, Sequence

TieMode = Literal["midrank", "countbelow"]

TIE_MODES = ("midrank", "countbelow")


class _Sorted(tuple):
    """``(vals,)``, where ``vals`` is a non-empty sorted list of finite floats; ``ks_statistic`` checks it no further."""
    __slots__ = ()


class _Checked(list):
    """Finite floats, checked by the caller; ``spearman_rho`` checks a non-empty one no further."""
    __slots__ = ()


class _Ranked(tuple):
    """``(ry, sum(ry), n * sum(r * r for r in ry) - sum(ry) ** 2, n)`` for an n-value sample's doubled ranks."""
    __slots__ = ()

    def __new__(cls, ry: list[int]) -> _Ranked:
        sy = sum(ry)
        return tuple.__new__(cls, (ry, sy, len(ry) * sum(map(mul, ry, ry)) - sy * sy, len(ry)))


def _check_sample(values: Sequence[float], name: str = "sample", sort: bool = False) -> list[float]:
    return _check_floats(sorted(map(float, values)) if sort else list(map(float, values)), name)


def _check_floats(vals: list[float], name: str = "sample") -> list[float]:
    if not vals:
        raise ValueError(f"{name} must be non-empty")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"{name} contains non-finite values")
    return vals


def _check_tie_mode(tie_mode: TieMode) -> None:
    if tie_mode not in TIE_MODES:
        raise ValueError(f"unknown tie_mode: {tie_mode!r}")


def _doubled_ranks(vals: list[float], tie_mode: TieMode) -> list[int]:
    # twice the rank, so both conventions stay in exact integers: a value's
    # tie group holds sorted positions lo .. hi - 1, so its midrank is
    # (lo + hi + 1) / 2 and exactly lo values are strictly smaller
    _check_tie_mode(tie_mode)
    s = sorted(vals)
    if tie_mode == "midrank":
        return [bisect_left(s, v) + bisect_right(s, v) + 1 for v in vals]
    return [2 * bisect_left(s, v) for v in vals]


def _ranked_runs(runs: Sequence[int], tie_mode: TieMode) -> _Ranked:
    """The doubled ranks of a sorted sample whose tie groups hold ``runs`` values, in order."""
    ry: list[int] = []
    for m in runs:  # a group of m after lo = len(ry) values: midrank 2 lo + m + 1, count-below 2 lo
        ry += [2 * len(ry) + m + 1 if tie_mode == "midrank" else 2 * len(ry)] * m
    return _Ranked(ry)


def rank_transform(values: Sequence[float], tie_mode: TieMode = "midrank") -> list[float]:
    """Rank a sample under the given tie convention.

    midrank ranks are 1-based and sum to n(n+1)/2; countbelow ranks are
    0-based integers counting strictly smaller sample values.
    """
    return [r / 2 for r in _doubled_ranks(_check_sample(values), tie_mode)]


def spearman_rho(
    x: Sequence[float],
    y: Sequence[float],
    tie_mode: TieMode = "midrank",
) -> float:
    """Spearman rank correlation of two equal-length samples, in [-1, 1].

    Returns exactly 0.0 when either rank vector is constant, and exactly
    +/-1.0 when the rank vectors are affinely dependent.
    """
    xs = x if type(x) is _Checked and x else _check_sample(x, "x")
    ranked = type(y) is _Ranked  # y's ranks and sums for this tie_mode, built once by the caller
    ys = y if ranked else _check_sample(y, "y")
    if len(xs) != (n := y[3] if ranked else len(ys)):
        raise ValueError(f"length mismatch: {len(xs)} vs {n}")
    _check_tie_mode(tie_mode)
    if (distinct := len(set(xs))) == 1:  # a constant x: its rank vector is constant
        return 0.0
    ry, sy, vy, _ = y if ranked else _Ranked(_doubled_ranks(ys, tie_mode))
    # population moments scaled by n^2; exact in integer arithmetic
    if distinct == n:  # no ties: the k-th smallest has doubled rank 2k + c (c = 2 midrank, 0 count-below),
        # and c cancels out of both moments, which leaves sum(k * ry) in argsort order and closed forms in n
        order = sorted(range(n), key=xs.__getitem__)
        num = n * (2 * sum(map(mul, range(n), map(ry.__getitem__, order))) - (n - 1) * sy)
        vx = n * n * (n * n - 1) // 3
    else:
        rx = _doubled_ranks(xs, tie_mode)
        sx = sum(rx)
        num = n * sum(map(mul, rx, ry)) - sx * sy
        vx = n * sum(map(mul, rx, rx)) - sx * sx
    if vy == 0:
        return 0.0
    if num * num == vx * vy:
        return 1.0 if num > 0 else -1.0
    rho = num / math.sqrt(vx * vy)
    return max(-1.0, min(1.0, rho))


def ks_statistic(x: Sequence[float], y: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, in [0, 1].

    sup over pooled sample points t of |F_X(t) - F_Y(t)|, with
    F(t) = fraction of values <= t.
    """
    xs = x[0] if type(x) is _Sorted else _check_sample(x, "x", sort=True)
    ys = y[0] if type(y) is _Sorted else _check_sample(y, "y", sort=True)
    if xs[-1] < ys[0] or ys[-1] < xs[0]:  # disjoint: 1 - 0 at the lower maximum
        return 1.0
    if xs == ys or xs[0] == xs[-1] == ys[0] == ys[-1]:  # equal ECDFs
        return 0.0
    nx, ny = len(xs), len(ys)
    return max(abs(bisect_right(xs, t) / nx - bisect_right(ys, t) / ny) for t in xs + ys)


def _pairwise_sum(vals: list[float], lo: int, hi: int) -> float:
    """Sum of vals[lo:hi] in numpy's float64 order (``DOUBLE_pairwise_sum``).

    Not ``sum()``, which compensates float rounding from Python 3.12 on.
    """
    n = hi - lo
    if n < 8:
        return reduce(add, vals[lo:hi], 0.0)
    if n <= 128:  # eight strided accumulators seeded with the first eight values
        m = hi - n % 8
        r = [reduce(add, vals[j:m:8]) for j in range(lo, lo + 8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, vals[m:hi], head)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(vals, lo, lo + half) + _pairwise_sum(vals, lo + half, hi)


def _unit_exponent(values: Iterable[float]) -> int:
    """The e that puts the largest |value| times 2**-e in [0.5, 1); 0 for no or only zero values.

    Scaling by 2**-e is exact for every value it leaves at or above 2**-1022.
    """
    return math.frexp(max(map(abs, values), default=0.0))[1]


def _moments(vals: list[float], n: int) -> tuple[float, float]:
    mean = _pairwise_sum(vals, 0, n) / n
    # each deviation squared as numpy squares it, d * d; d ** 2 can differ in the last bit
    return mean, math.sqrt(_pairwise_sum([(v - mean) * (v - mean) for v in vals], 0, n) / n)


def population_moments(values: Sequence[float]) -> tuple[float, float]:
    """(mean, population standard deviation) of a non-empty sample; a list of floats is read in place, not copied.

    A sample whose sums or squares overflow gets the moments of its values
    scaled by the power of two that puts the largest |value| in [0.5, 1),
    scaled back, so every finite sample has finite moments; any other sample
    gets numpy's floats.
    """
    vals = values if type(values) is list and {*map(type, values)} == {float} else list(map(float, values))
    n = len(_check_floats(vals))
    if vals.count(vals[0]) == n:
        # their float mean can miss them by an ulp, leaving a tiny nonzero spread
        return vals[0], 0.0
    mean, std = _moments(vals, n)
    if not math.isfinite(std):  # a sum or a square overflowed
        e = _unit_exponent(vals)
        mean, std = _moments([math.ldexp(v, -e) for v in vals], n)
        mean, std = math.ldexp(mean, e), math.ldexp(std, e)
    return mean, std
