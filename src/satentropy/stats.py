"""Standardization, simple OLS with normal p-values, bootstrap resamples,
and the slope-comparison tests used to compare heuristic pairs. The tests
take their series as given: callers standardize them."""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence


def normal_cdf(z: float) -> float:
    """Standard normal CDF via erf."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def mean(xs: Sequence[float]) -> float:
    return math.fsum(xs) / len(xs)


def sample_std(xs: Sequence[float]) -> float:
    m = mean(xs)
    return math.sqrt(math.fsum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def standardize(xs: Sequence[float]) -> list[float]:
    """Shift and scale to mean 0 and sample standard deviation 1."""
    if len(xs) < 2:
        raise ValueError("standardization needs at least 2 values")
    if xs.count(xs[0]) == len(xs):  # exact, unlike a spread about a float mean
        raise ValueError("cannot standardize a constant series")
    m, s = mean(xs), sample_std(xs)
    return [(x - m) / s for x in xs]


@dataclass(frozen=True)
class RegressionResult:
    beta: float
    intercept: float
    beta_std: float
    z: float
    p_two_sided: float
    ci95: tuple[float, float]


def line_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float] | None:
    """Least-squares (slope, intercept) of ys on xs, or None for a constant x."""
    if xs.count(xs[0]) == len(xs):
        return None
    xbar, ybar = mean(xs), mean(ys)
    sxx = math.fsum([(x - xbar) ** 2 for x in xs])
    beta = math.fsum([(x - xbar) * (y - ybar) for x, y in zip(xs, ys)]) / sxx
    return beta, ybar - beta * xbar


def ols(xs: Sequence[float], ys: Sequence[float]) -> RegressionResult:
    """Least-squares line fit with a two-sided z-test of slope = 0."""
    n = len(xs)
    if n != len(ys):
        raise ValueError("series length mismatch")
    if n < 3:
        raise ValueError("regression needs at least 3 points")
    fit = line_fit(xs, ys)
    if fit is None:
        raise ValueError("x series is constant")
    beta, intercept = fit
    xbar = mean(xs)
    sxx = math.fsum([(x - xbar) ** 2 for x in xs])
    sse = math.fsum((y - (intercept + beta * x)) ** 2 for x, y in zip(xs, ys))
    beta_std = math.sqrt(max(sse, 0.0) / (n - 2) / sxx)
    if beta_std == 0.0:
        z = 0.0 if beta == 0.0 else math.copysign(math.inf, beta)
    else:
        z = beta / beta_std
    p_two = 2.0 * normal_cdf(-abs(z)) if math.isfinite(z) else (1.0 if beta == 0 else 0.0)
    return RegressionResult(
        beta=beta,
        intercept=intercept,
        beta_std=beta_std,
        z=z,
        p_two_sided=min(p_two, 1.0),
        ci95=(beta - 1.96 * beta_std, beta + 1.96 * beta_std),
    )


def _summary(values: Sequence[float]) -> tuple[tuple[float, float], float]:
    """The 95% interval and two-sided p of a bootstrap series, both read off
    one sorted copy. The interval runs from the ceil(n/40)-th smallest to
    the ceil(n/40)-th largest value, the order-statistic percentile interval
    (Efron & Tibshirani 1993); p is 2 * min(#<= 0, #>= 0) / n, clamped to 1.
    With that rank on both ends the interval excludes 0 exactly when p < 0.05."""
    s, n = sorted(values), len(values)
    rank = math.ceil(n / 40)
    le, ge = bisect.bisect_right(s, 0.0), n - bisect.bisect_left(s, 0.0)
    return (s[rank - 1], s[n - rank]), min(1.0, 2.0 * min(le, ge) / n)


def resamples(rows: Sequence[tuple], k: int, seed: int) -> Iterator[list[tuple]]:
    """k bootstrap resamples of rows, each len(rows) rows drawn uniformly
    with replacement. Deterministic in seed."""
    n = len(rows)
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 rows and k >= 1 iterations")
    master = random.Random(seed)
    width = n.bit_length()
    for _ in range(k):
        # n draws of randrange(n): getrandbits values of n or more are redrawn
        draw, sample = random.Random(master.getrandbits(64)).getrandbits, []
        while len(sample) < n:
            i = draw(width)
            if i < n:
                sample.append(rows[i])
        yield sample


@dataclass(frozen=True)
class BetaGapResult:
    """Comparison of two regression slopes under a shared bootstrap
    resampling: the `_summary` of each slope, of their gap and of their
    intercepts' gap, in that order, all over the same kept draws."""

    beta_a_ci95: tuple[float, float]
    beta_a_p: float
    beta_b_ci95: tuple[float, float]
    beta_b_p: float
    gap_ci95: tuple[float, float]
    gap_p: float
    intercept_gap_ci95: tuple[float, float]
    intercept_gap_p: float
    skipped: int


def delta_test(
    measure: Sequence[float],
    conflicts_a: Sequence[float],
    conflicts_b: Sequence[float],
) -> RegressionResult:
    """Regression of the per-point conflict gap (a - b) on the measure."""
    if len(conflicts_a) != len(conflicts_b):
        raise ValueError("series length mismatch")
    return ols(measure, [a - b for a, b in zip(conflicts_a, conflicts_b)])


def slope_gaps(
    columns: dict[str, Sequence[float]],
    gaps: Sequence[tuple[tuple[str, str], tuple[str, str]]],
    k: int,
    seed: int,
) -> list[BetaGapResult]:
    """Compare pairs of regression slopes under one shared bootstrap.

    A gap names two (x, y) column pairs, each fitted y on x. Each bootstrap
    iteration fits every distinct pair once; a pair whose resampled x is
    constant gets no fit. A gap's intervals and p-values, its slopes' too,
    come from the iterations in which both of its pairs have a fit, and the
    rest count as skipped."""
    pairs = list(dict.fromkeys(pair for gap in gaps for pair in gap))
    per_iteration = []
    for sample in resamples(list(zip(*columns.values())), k, seed):
        cols = dict(zip(columns, zip(*sample)))
        draws = []
        for x, y in pairs:
            draws += line_fit(cols[x], cols[y]) or (None, None)  # None: constant x
        per_iteration.append(draws)

    def result(pair_a: tuple[str, str], pair_b: tuple[str, str]) -> BetaGapResult:
        a, b = 2 * pairs.index(pair_a), 2 * pairs.index(pair_b)
        kept = [d for d in per_iteration if None not in (d[a], d[b])]
        if not kept:
            raise ValueError(
                f"{pair_a[1]} on {pair_a[0]} vs {pair_b[1]} on {pair_b[0]}: all "
                f"k = {k} bootstrap resamples have a constant x; rerun with a "
                "larger --k (an experiment rerun re-reports without solving)"
            )
        betas_a, ints_a, betas_b, ints_b = (
            [d[i] for d in kept] for i in (a, a + 1, b, b + 1)
        )
        gap = [x - y for x, y in zip(betas_a, betas_b)]
        int_gap = [x - y for x, y in zip(ints_a, ints_b)]
        summaries = map(_summary, (betas_a, betas_b, gap, int_gap))
        return BetaGapResult(*(f for ci_p in summaries for f in ci_p), k - len(kept))

    return [result(*gap) for gap in gaps]


def delta_beta_test(
    measure: Sequence[float],
    conflicts_a: Sequence[float],
    conflicts_b: Sequence[float],
    k: int = 1000,
    seed: int = 0,
) -> BetaGapResult:
    """Compare the slopes of conflicts_a-vs-measure and conflicts_b-vs-measure
    (`slope_gaps` with one gap)."""
    columns = dict(measure=measure, conflicts_a=conflicts_a, conflicts_b=conflicts_b)
    gap = (("measure", "conflicts_a"), ("measure", "conflicts_b"))
    return slope_gaps(columns, [gap], k, seed)[0]


def beta_gap_entropy_vs_density(
    entropy: Sequence[float],
    density: Sequence[float],
    conflicts: Sequence[float],
    k: int = 1000,
    seed: int = 0,
) -> BetaGapResult:
    """Compare the entropy-vs-conflicts slope with the density-vs-conflicts
    slope for a single solver, bootstrapping their gap with shared indices."""
    columns = {"entropy": entropy, "density": density, "conflicts": conflicts}
    gap = (("entropy", "conflicts"), ("density", "conflicts"))
    return slope_gaps(columns, [gap], k, seed)[0]
