import math
import random
import statistics

import pytest

from satentropy import stats
from satentropy.stats import (
    RegressionResult,
    beta_gap_entropy_vs_density,
    delta_beta_test,
    delta_test,
    line_fit,
    mean,
    normal_cdf,
    ols,
    resamples,
    slope_gaps,
    standardize,
)


# slope, intercept, beta_std worked out by hand from the normal equations
HAND_DATASETS = [
    ([0, 1, 2], [0, 1, 2], 1.0, 0.0, 0.0),
    ([0, 1, 2], [1, 1, 1], 0.0, 1.0, 0.0),
    ([0, 1, 2, 3], [0, 2, 3, 5], 1.6, 0.1, math.sqrt(0.02)),
    ([1, 2, 3, 4, 5], [2, 2, 4, 4, 6], 1.0, 0.6, 0.2),
    ([-1, 0, 1], [1, 0, 1], 0.0, 2.0 / 3.0, math.sqrt(1.0 / 3.0)),
]


def reference_line(xs, ys):
    """The slope and intercept from the normal equations, each sum correctly
    rounded (math.fsum, the same on every Python): the floats line_fit and
    ols must reproduce bit for bit."""
    xbar, ybar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    beta = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    return beta, ybar - beta * xbar


class TestLineFit:
    def series(self):
        rng = random.Random(12)
        for xs, ys, *_ in HAND_DATASETS:
            yield xs, ys
        for n in (3, 4, 15, 100):
            for _ in range(25):
                xs = [rng.gauss(0, 1) for _ in range(n)]
                ys = [rng.expovariate(0.01) for _ in range(n)]
                yield xs, ys
                yield standardize(xs), standardize(ys)

    def test_equals_ols_bit_for_bit(self):
        for xs, ys in self.series():
            r = ols(xs, ys)
            bits = [float.hex(v) for v in line_fit(xs, ys)]
            assert bits == [r.beta.hex(), r.intercept.hex()]
            assert bits == [float.hex(v) for v in reference_line(xs, ys)]

    def test_constant_x_has_no_fit(self):
        # mean([0.1] * 3) is 0.10000000000000002: the spread about it is
        # rounding residue, not 0, and still there is no slope
        inexact = [([v] * 3, [1.0, 2.0, 3.0]) for v in (0.1, 0.2, 0.7)]
        for xs, ys in (([2, 2, 2], [1, 2, 3]), ([0.5] * 6, [0.0] * 6), *inexact):
            assert line_fit(xs, ys) is None
            with pytest.raises(ValueError, match="x series is constant"):
                ols(xs, ys)


class TestStandardize:
    def test_three_points(self):
        assert standardize([1, 2, 3]) == pytest.approx([-1, 0, 1], abs=1e-12)

    def test_mean_zero_sd_one(self, rng):
        xs = [rng.gauss(5, 3) for _ in range(200)]
        zs = standardize(xs)
        assert abs(mean(zs)) < 1e-12
        var = sum(z * z for z in zs) / (len(zs) - 1)
        assert abs(math.sqrt(var) - 1.0) < 1e-12

    def test_idempotent(self, rng):
        xs = [rng.random() for _ in range(50)]
        once = standardize(xs)
        twice = standardize(once)
        assert all(abs(a - b) < 1e-12 for a, b in zip(once, twice))

    def test_constant_rejected(self):
        for xs in ([3, 3, 3], [0.1] * 3, [0.2] * 3, [0.7] * 3):
            with pytest.raises(ValueError, match="constant"):
                standardize(xs)


class TestOls:
    @pytest.mark.parametrize("xs,ys,beta,intercept,beta_std", HAND_DATASETS)
    def test_hand_derived(self, xs, ys, beta, intercept, beta_std):
        r = ols(xs, ys)
        assert r.beta == pytest.approx(beta, abs=1e-10)
        assert r.intercept == pytest.approx(intercept, abs=1e-10)
        assert r.beta_std == pytest.approx(beta_std, abs=1e-10)

    def test_perfect_line(self):
        r = ols([0, 1, 2], [0, 1, 2])
        assert r.beta == 1.0
        assert r.intercept == 0.0
        assert r.p_two_sided == 0.0

    def test_z_times_std_is_beta(self):
        r = ols([0, 1, 2, 3], [0, 2, 3, 5])
        assert abs(r.z * r.beta_std - r.beta) < 1e-12

    def test_ci_contains_beta(self):
        r = ols([0, 1, 2, 3], [0, 2, 3, 5])
        assert r.ci95[0] <= r.beta <= r.ci95[1]

    def test_intercept_shift(self, rng):
        xs = [rng.random() for _ in range(20)]
        ys = [rng.random() for _ in range(20)]
        r1 = ols(xs, ys)
        r2 = ols(xs, [y + 10 for y in ys])
        assert r2.beta == pytest.approx(r1.beta, abs=1e-12)
        assert r2.intercept == pytest.approx(r1.intercept + 10, abs=1e-10)

    def test_standardized_slope_is_pearson(self, rng):
        xs = [rng.gauss(0, 1) for _ in range(100)]
        ys = [2 * x + rng.gauss(0, 1) for x in xs]
        r = ols(standardize(xs), standardize(ys))
        assert r.beta == pytest.approx(statistics.correlation(xs, ys), abs=1e-10)

    def test_two_sided_one_sided_relation(self, rng):
        for _ in range(20):
            xs = [rng.gauss(0, 1) for _ in range(10)]
            ys = [rng.gauss(0, 1) for _ in range(10)]
            r = ols(xs, ys)
            phi = normal_cdf(r.z)
            expect = 2 * min(phi, 1 - phi)
            assert r.p_two_sided == pytest.approx(expect, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            ols([1, 2], [1, 2])
        with pytest.raises(ValueError):
            ols([1, 2, 3], [1, 2])
        with pytest.raises(ValueError):
            ols([2, 2, 2], [1, 2, 3])


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_quantile(self):
        assert normal_cdf(-1.959964) == pytest.approx(0.025, abs=1e-5)

    def test_symmetry(self, rng):
        for _ in range(100):
            z = rng.uniform(-6, 6)
            assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-10)


class TestBootstrap:
    def test_resamples_are_the_randrange_draws(self):
        # resamples draws its own indices from getrandbits; they must be
        # the ones randrange(n) gives on each iteration's stream
        for n in (*range(2, 40), 64, 65, 100, 1000):
            rows = [(i,) for i in range(n)]
            master = random.Random(n)
            for sample in resamples(rows, 5, n):
                rng = random.Random(master.getrandbits(64))
                assert sample == [rows[rng.randrange(n)] for _ in range(n)], n

    def test_single_iteration(self):
        assert len(list(resamples([(1.0,), (2.0,)], 1, 0))) == 1

    def test_deterministic_in_seed(self):
        rows = [(float(i),) for i in range(20)]
        assert list(resamples(rows, 30, 9)) == list(resamples(rows, 30, 9))
        assert list(resamples(rows, 30, 9)) != list(resamples(rows, 30, 10))

    def test_noiseless_line_slope_constant(self):
        rows = [(x, 3.0 * x - 1.0) for x in range(10)]
        for sample in resamples(rows, 50, 4):
            fit = line_fit([r[0] for r in sample], [r[1] for r in sample])
            if len({r[0] for r in sample}) == 1:
                assert fit is None
            else:
                assert fit[0] == pytest.approx(3.0, abs=1e-9)

    def test_slope_gap_tests_run_this_loop(self):
        # the paired slope tests fit both slopes on each of these resamples
        m = [0.0, 0.0, 0.0, 1.0, 2.0]
        ca = [1.0, 3.0, 2.0, 5.0, 4.0]
        cb = [6.0, 5.0, 5.0, 2.0, 3.0]
        gaps = []
        for sample in resamples(list(zip(m, ca, cb)), 300, 6):
            xs = [r[0] for r in sample]
            fit_a = line_fit(xs, [r[1] for r in sample])
            if fit_a is not None:
                gaps.append(fit_a[0] - line_fit(xs, [r[2] for r in sample])[0])
        r = delta_beta_test(m, ca, cb, k=300, seed=6)
        assert 0 < r.skipped == 300 - len(gaps)
        ordered, rank = sorted(gaps), math.ceil(len(gaps) / 40)
        assert r.gap_ci95 == (ordered[rank - 1], ordered[-rank])
        below, above = sum(g <= 0 for g in gaps), sum(g >= 0 for g in gaps)
        assert r.gap_p == min(1.0, 2.0 * min(below, above) / len(gaps))


class TestDeltaTest:
    def test_identical_heuristics(self):
        m = [0.1, 0.5, 0.9, 0.3]
        c = [3.0, 1.0, 2.0, 4.0]
        r = delta_test(standardize(m), standardize(c), standardize(c))
        assert r.beta == 0.0
        assert r.p_two_sided == 1.0

    def test_unequal_conflict_series_are_refused(self):
        # a - b over zip would drop the longer series' tail
        with pytest.raises(ValueError, match="series length mismatch"):
            delta_test([0.1, 0.5, 0.9], [3.0, 1.0, 2.0], [3.0, 1.0])

    def test_identical_heuristics_on_two_points(self):
        # refused like every other 2-point input
        with pytest.raises(ValueError, match="at least 3 points"):
            delta_test([0.1, 0.5], [3.0, 1.0], [3.0, 1.0])

    def test_constructed_identity(self):
        m = [0.0, 1.0, 2.0, 3.0]
        c2 = [5.0, 5.0, 5.0, 5.0]
        c1 = [c + x for c, x in zip(c2, m)]
        r = delta_test(m, c1, c2)
        assert r.beta == pytest.approx(1.0, abs=1e-12)

    def test_planted_slope_recovered(self):
        hits = 0
        trials = 200
        for t in range(trials):
            rng = random.Random(t)
            m = [rng.gauss(0, 1) for _ in range(80)]
            c2 = [rng.gauss(0, 1) for _ in m]
            c1 = [c - 2 * x + rng.gauss(0, 0.5) for c, x in zip(c2, m)]
            r = delta_test(m, c1, c2)
            if r.ci95[0] <= -2.0 <= r.ci95[1]:
                hits += 1
        assert hits / trials >= 0.93


class TestDeltaBetaTest:
    def test_identical_series_gap_zero(self):
        m = [0.1, 0.4, 0.7, 0.9, 0.2, 0.6]
        c = [5.0, 3.0, 2.0, 1.0, 4.0, 2.5]
        m, c = standardize(m), standardize(c)
        r = delta_beta_test(m, c, c, k=100, seed=0)
        assert r.gap_ci95 == (0.0, 0.0)
        assert r.gap_p == 1.0

    def test_shift_invariance_of_slope(self):
        m = [0.0, 1.0, 2.0, 3.0, 4.0]
        c1 = [1.0, 3.0, 4.0, 7.0, 8.0]
        c2 = [c + 5.0 for c in c1]
        r = delta_beta_test(m, c1, c2, k=200, seed=1)
        assert r.gap_ci95 == pytest.approx((0.0, 0.0), abs=1e-9)
        assert r.intercept_gap_ci95[0] == pytest.approx(-5.0, abs=1e-9)

    def test_opposed_planted_slopes_detected(self):
        rng = random.Random(3)
        m = [rng.gauss(0, 1) for _ in range(100)]
        c1 = [x + rng.gauss(0, 0.2) for x in m]
        c2 = [-x + rng.gauss(0, 0.2) for x in m]
        r = delta_beta_test(m, c1, c2, k=500, seed=3)
        assert r.gap_ci95[0] > 0.0
        assert r.gap_p < 0.01


class TestSlopeGaps:
    COLUMNS = {
        "x": [0.0, 0.0, 1.0, 1.0],
        "z": [0.0, 1.0, 2.0, 3.0],
        "y": [1.0, 3.0, 2.0, 5.0],
    }

    def test_each_gap_skips_only_its_own_degenerate_resamples(self):
        gaps = [(("x", "y"), ("z", "y")), (("z", "y"), ("z", "x"))]
        assert [g.skipped for g in slope_gaps(self.COLUMNS, gaps, 50, 5)] == [3, 0]

    def test_a_gap_without_a_usable_resample_is_refused(self):
        # at seed 5 the one resample has a constant x column
        gap = (("x", "y"), ("z", "y"))
        with pytest.raises(ValueError, match=r"^y on x vs y on z: all k = 1 .*--k"):
            slope_gaps(self.COLUMNS, [gap], 1, 5)
        [other] = slope_gaps(self.COLUMNS, [(("z", "y"), ("z", "x"))], 1, 5)
        assert other.skipped == 0

    def test_only_resamples(self, monkeypatch):
        def no_ols(*args):
            raise AssertionError("slope_gaps made a full-data fit")

        monkeypatch.setattr(stats, "ols", no_ols)
        gaps = [(("x", "y"), ("z", "y")), (("z", "y"), ("z", "x"))]
        for result in slope_gaps(self.COLUMNS, gaps, 50, 5):
            values = vars(result).values()
            assert not any(isinstance(v, RegressionResult) for v in values)

    def test_each_slope_takes_its_p_from_its_ci_draws(self):
        # heavy-tailed x, like raw density, puts many slopes near 0.05. Each
        # series of a result, both slopes, their gap and their intercepts'
        # gap, has an interval that covers 0 exactly when its p is >= 0.05
        for t in range(300):
            rng = random.Random(t)
            x, w = ([math.exp(rng.gauss(0, 2)) for _ in range(20)] for _ in "xw")
            y = [rng.gauss(0, 1) + 0.15 * math.sqrt(v) for v in x]
            cols = {"x": standardize(x), "w": standardize(w), "y": standardize(y)}
            [r] = slope_gaps(cols, [(("x", "y"), ("w", "y"))], 300, t)
            for ci, p in (
                (r.beta_a_ci95, r.beta_a_p),
                (r.beta_b_ci95, r.beta_b_p),
                (r.gap_ci95, r.gap_p),
                (r.intercept_gap_ci95, r.intercept_gap_p),
            ):
                covers = ci[0] <= 0.0 <= ci[1]
                assert covers == (p >= 0.05), (t, ci, p)


class TestSummary:
    def test_one_draw(self):
        assert stats._summary([0.5]) == ((0.5, 0.5), 0.0)
        assert stats._summary([-2.0]) == ((-2.0, -2.0), 0.0)
        assert stats._summary([0.0]) == ((0.0, 0.0), 1.0)

    @pytest.mark.parametrize("n,rank", [(39, 1), (40, 1), (41, 2), (80, 2), (81, 3)])
    def test_interval_ends_are_the_ceil_n_over_40th_draws(self, n, rank):
        values = [float(v) for v in range(1, n + 1)]
        random.Random(n).shuffle(values)
        assert stats._summary(values) == ((float(rank), float(n + 1 - rank)), 0.0)

    def test_zeros(self):
        assert stats._summary([0.0] * 50) == ((0.0, 0.0), 1.0)
        assert stats._summary([-0.0, 0.0, 1.0]) == ((-0.0, 1.0), 1.0)

    @pytest.mark.parametrize("n", [40, 80, 400])
    def test_n_over_40_draws_at_or_below_0_cover_0_with_p_005(self, n):
        low = [-1.0] * (n // 40 - 1) + [0.0]
        values = [1.0 + v for v in range(n - len(low))] + low
        (lo, hi), p = stats._summary(values)
        assert p == 0.05 and lo <= 0.0 <= hi
        # one draw fewer at or below 0 excludes 0, with p below 0.05
        (lo, hi), p = stats._summary(values[:-1] + [0.5])
        assert p < 0.05 and lo > 0.0

    def test_counts_each_side(self):
        values = [-3.0, -1.0, 0.0, 2.0, 5.0, 7.0]
        assert stats._summary(values) == ((-3.0, 7.0), 1.0)
        assert stats._summary(values[2:] + [1.0] * 14)[1] == 2 * 1 / 18
        assert stats._summary([v - 10.0 for v in values])[1] == 0.0


class TestBetaGapEntropyVsDensity:
    def test_equal_measures_gap_zero(self):
        rng = random.Random(4)
        e = [rng.random() for _ in range(50)]
        c = [rng.random() for _ in range(50)]
        e, c = standardize(e), standardize(c)
        r = beta_gap_entropy_vs_density(e, list(e), c, k=100, seed=4)
        assert r.gap_ci95 == (0.0, 0.0)

    def test_planted_entropy_effect(self):
        rng = random.Random(5)
        e = [rng.random() for _ in range(200)]
        d = [rng.random() for _ in range(200)]
        c = [300 - 80 * x + rng.gauss(0, 5) for x in e]
        e, d, c = map(standardize, (e, d, c))
        r = beta_gap_entropy_vs_density(e, d, c, k=400, seed=5)
        assert not (r.gap_ci95[0] <= 0.0 <= r.gap_ci95[1])

    def test_null_calibration(self):
        # conflicts independent of both measures: small p should be rare
        false_pos = 0
        reps = 100
        for t in range(reps):
            rng = random.Random(1000 + t)
            e = [rng.random() for _ in range(60)]
            d = [rng.random() for _ in range(60)]
            c = [rng.random() for _ in range(60)]
            e, d, c = map(standardize, (e, d, c))
            r = beta_gap_entropy_vs_density(e, d, c, k=200, seed=t)
            if r.gap_p < 0.05:
                false_pos += 1
        assert false_pos / reps <= 0.10
