"""Standardization, simple OLS with normal p-values, bootstrap resamples,
and the slope-comparison tests used to compare heuristic pairs. The tests
take their series as given: callers standardize them."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence


def normal_cdf(z: float) -> float:
    """Standard normal CDF via erf."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def sample_std(xs: Sequence[float]) -> float:
    m = mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def standardize(xs: Sequence[float]) -> list[float]:
    """Shift and scale to mean 0 and sample standard deviation 1."""
    if len(xs) < 2:
        raise ValueError("standardization needs at least 2 values")
    s = sample_std(xs)
    if s == 0.0:
        raise ValueError("cannot standardize a constant series")
    m = mean(xs)
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
    xbar, ybar = mean(xs), mean(ys)
    sxx = sum([(x - xbar) ** 2 for x in xs])
    if sxx == 0.0:
        return None
    beta = sum([(x - xbar) * (y - ybar) for x, y in zip(xs, ys)]) / sxx
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
    sxx = sum([(x - xbar) ** 2 for x in xs])
    sse = sum((y - (intercept + beta * x)) ** 2 for x, y in zip(xs, ys))
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


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    xbar, ybar = mean(xs), mean(ys)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = math.sqrt(
        sum((x - xbar) ** 2 for x in xs) * sum((y - ybar) ** 2 for y in ys)
    )
    return num / den


def percentile(sorted_vals: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of pre-sorted values, q in [0,1]."""
    n = len(sorted_vals)
    if n == 1:
        return sorted_vals[0]
    pos = q * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def _ci95(values: Sequence[float]) -> tuple[float, float]:
    """Percentile 95% interval of unsorted values."""
    s = sorted(values)
    return (percentile(s, 0.025), percentile(s, 0.975))


def _percentile_two_sided_p(values: Sequence[float]) -> float:
    """2 * min(fraction <= 0, fraction >= 0), clamped to [0,1]."""
    n = len(values)
    le = sum(1 for v in values if v <= 0.0)
    ge = sum(1 for v in values if v >= 0.0)
    return min(1.0, 2.0 * min(le / n, ge / n))


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
    resampling: the full-data fits and percentile statistics of the draws."""

    beta_a: RegressionResult
    beta_b: RegressionResult
    gap_ci95: tuple[float, float]
    gap_p: float
    intercept_gap_ci95: tuple[float, float]
    intercept_gap_p: float
    beta_a_ci95: tuple[float, float]
    beta_b_ci95: tuple[float, float]
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
    constant gets no fit. A gap's percentile CIs and two-sided p-values come
    from the iterations in which both of its pairs have a fit, and the rest
    count as skipped."""
    pairs = list(dict.fromkeys(pair for gap in gaps for pair in gap))
    fits = {pair: ols(columns[pair[0]], columns[pair[1]]) for pair in pairs}
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
        return BetaGapResult(
            beta_a=fits[pair_a],
            beta_b=fits[pair_b],
            gap_ci95=_ci95(gap),
            gap_p=_percentile_two_sided_p(gap),
            intercept_gap_ci95=_ci95(int_gap),
            intercept_gap_p=_percentile_two_sided_p(int_gap),
            beta_a_ci95=_ci95(betas_a),
            beta_b_ci95=_ci95(betas_b),
            skipped=k - len(kept),
        )

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
