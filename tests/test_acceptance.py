"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers once its assertions hold."""

import math
import random
import time
from fractions import Fraction

import pytest

from satentropy.benchgen import gen_random_3sat
from satentropy.cnf import CnfFormula, evaluate, parse_dimacs, write_dimacs
from satentropy.counter import count_conditioned, count_models, count_models_bruteforce
from satentropy.entropy import profile_formula, variable_entropy
from satentropy.pipeline import (
    build_suite,
    emit_report,
    make_plan,
    run_experiment,
)
from satentropy.solver import (
    GlucoseRestarts,
    KeepLbdCutAtMost,
    KeepSizeAtMost,
    LubyRestarts,
    SolverConfig,
    luby,
    solve,
)
from satentropy.stats import ols, resamples, sample_std, standardize
from conftest import criterion_1_corpus, criterion_2_corpus, random_formula


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """A 250-formula suite: 50 instances per backbone bucket at n=20."""
    out = tmp_path_factory.mktemp("acceptance_suite")
    t0 = time.monotonic()
    rows = build_suite(
        targets=[2, 6, 10, 14, 18],
        per_bucket=50,
        num_vars=20,
        seed=20260823,
        out_dir=out,
        tune_clauses=True,
        max_attempts=200_000,
    )
    return out, rows, time.monotonic() - t0


def test_criterion_1_counter_correctness():
    t0 = time.monotonic()
    checked = 0
    for seed, f in criterion_1_corpus():
        assert count_models(f) == count_models_bruteforce(f), f"seed {seed}"
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(1, f"{checked} formulas, exact agreement, {elapsed:.1f}s")


def test_criterion_2_entropy_identities():
    assert variable_entropy(Fraction(1, 2)) == 1.0
    assert variable_entropy(0) == 0.0
    assert variable_entropy(1) == 0.0
    # oracle: exact-rational evaluation of the defining expression
    r = Fraction(4, 11)
    oracle = -float(r) * math.log2(float(r)) - float(1 - r) * math.log2(
        float(1 - r)
    )
    assert abs(variable_entropy(r) - oracle) < 1e-12
    assert abs(variable_entropy(r) - 0.94566) < 1e-4

    profiled = 0
    for _, f in criterion_2_corpus():
        if count_models(f) == 0:
            continue
        p = profile_formula(f)
        for vp in p.variables:
            assert vp.is_backbone == (vp.entropy == 0.0)
            # r of the negative literal measured by its own conditioned count
            r_bar = Fraction(count_conditioned(f, -vp.var), p.model_count)
            assert abs(float(vp.ratio_pos + r_bar) - 1.0) < 1e-12
        profiled += 1
    report(2, f"identities hold; backbone iff zero entropy on {profiled} formulas")


def test_criterion_3_profile_cost_contract():
    for seed in (3, 14, 15):
        f = random_formula(seed, max_vars=12)
        if count_models(f) == 0:
            continue
        calls = 0

        def counting(g):
            nonlocal calls
            calls += 1
            return count_models(g)

        profile_formula(f, count_fn=counting)
        assert calls == f.num_vars + 1
    report(3, "profile issues exactly num_vars + 1 counter calls")


def test_criterion_4_solver_soundness():
    configs = [
        SolverConfig(restart=r, deletion=d, decay=dc, reduce_interval=25, seed=1)
        for r in (LubyRestarts(100), GlucoseRestarts(50, 0.8))
        for d in (KeepLbdCutAtMost(5), KeepSizeAtMost(12))
        for dc in (0.95, 0.6)
    ]
    assert len(configs) == 8
    t0 = time.monotonic()
    solved = 0
    for seed in range(300):
        rng = random.Random(9000 + seed)
        n = rng.randint(6, 20)
        ratio = rng.choice([2, 3, 4.26, 5, 6])
        f = gen_random_3sat(n, max(1, round(n * ratio)), 9000 + seed)
        sat = count_models_bruteforce(f) > 0
        for cfg in configs:
            st = solve(f, cfg)
            assert (st.result == "SAT") == sat, (seed, cfg.label())
            if st.result == "SAT":
                assert evaluate(f, st.model)
            solved += 1
    report(
        4,
        f"{solved} solves across 8 configs, zero verdict discrepancies, "
        f"{time.monotonic() - t0:.1f}s",
    )


def test_criterion_5_luby_sequence():
    def oracle(i):
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        return oracle(i - (1 << (k - 1)) + 1)

    for i in range(1, 64):
        assert luby(i) == oracle(i), i
    report(5, "first 63 terms match the recursive-definition oracle")


def test_criterion_6_statistics_correctness():
    # hand-derived normal-equation results on 5 fixed datasets
    datasets = [
        ([0, 1, 2], [0, 1, 2], 1.0, 0.0, 0.0),
        ([0, 1, 2], [1, 1, 1], 0.0, 1.0, 0.0),
        ([0, 1, 2, 3], [0, 2, 3, 5], 1.6, 0.1, math.sqrt(0.02)),
        ([1, 2, 3, 4, 5], [2, 2, 4, 4, 6], 1.0, 0.6, 0.2),
        ([-1, 0, 1], [1, 0, 1], 0.0, 2.0 / 3.0, math.sqrt(1.0 / 3.0)),
    ]
    for xs, ys, beta, intercept, beta_std in datasets:
        r = ols(xs, ys)
        assert abs(r.beta - beta) < 1e-10
        assert abs(r.intercept - intercept) < 1e-10
        assert abs(r.beta_std - beta_std) < 1e-10

    rng = random.Random(6)
    xs = [rng.gauss(3, 7) for _ in range(500)]
    zs = standardize(xs)
    assert abs(sum(zs) / len(zs)) < 1e-12
    assert abs(sample_std(zs) - 1.0) < 1e-12

    rows = [(float(i), float(i % 7)) for i in range(5000)]
    assert sum(map(len, resamples(rows, 1000, 0))) == 5000 * 1000

    covered = 0
    trials = 1000
    for t in range(trials):
        trng = random.Random(t)
        mxs = [trng.gauss(0, 1) for _ in range(60)]
        mys = [-2.0 * x + trng.gauss(0, 1) for x in mxs]
        r = ols(mxs, mys)
        if r.ci95[0] <= -2.0 <= r.ci95[1]:
            covered += 1
    assert covered / trials >= 0.93
    report(
        6,
        f"ols/standardize/bootstrap exact; CI coverage {covered / trials:.1%} "
        f"over {trials} planted-slope trials",
    )


def test_criterion_7_hardness_trend(suite, tmp_path):
    out, rows, gen_seconds = suite
    assert len(rows) >= 250
    t0 = time.monotonic()
    plan = make_plan("hardness", runs_per_formula=3, seed=20260823)
    records = run_experiment(plan, out, tmp_path / "hardness")
    assert len(records) == len(rows) and len(records) >= 30
    reg = ols(
        standardize([r["entropy"] for r in records]),
        standardize([r["conflicts"][plan.label_a] for r in records]),
    )
    assert reg.beta < 0.0
    assert reg.p_two_sided < 0.01
    total = gen_seconds + (time.monotonic() - t0)
    assert total < 1800.0
    report(
        7,
        f"{len(records)} formulas: conflicts-vs-entropy beta={reg.beta:.3f}, "
        f"p={reg.p_two_sided:.2e}; end-to-end {total:.0f}s",
    )


def test_criterion_8_pipeline_determinism(suite, tmp_path):
    out, _, _ = suite
    plan = make_plan("decay", runs_per_formula=2, seed=77)
    blobs = []
    for d in ("det1", "det2"):
        records = run_experiment(plan, out, tmp_path / d)
        emit_report(plan, records, tmp_path / d, k=300, seed=77)
        blobs.append(
            {
                name: (tmp_path / d / name).read_bytes()
                for name in (
                    "records.jsonl",
                    "records.csv",
                    "comparison_table.csv",
                    "comparison_table.txt",
                    "hardness_table.csv",
                    "cross_measure.csv",
                )
            }
        )
    assert blobs[0] == blobs[1]
    report(8, "two identically-seeded runs produced byte-identical outputs")


def test_criterion_9_report_format(suite, tmp_path):
    import csv

    out, _, _ = suite
    plan = make_plan("decay", runs_per_formula=1, seed=5)
    records = run_experiment(plan, out, tmp_path / "fmt")
    emit_report(plan, records, tmp_path / "fmt", k=200, seed=5)
    with (tmp_path / "fmt" / "comparison_table.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["measure"] for r in rows] == ["Entropy", "Density"]
    assert list(rows[0].keys()) == [
        "measure",
        "delta_ci",
        "delta_p",
        "delta_beta_ci",
        "delta_beta_p",
        "delta_beta0_ci",
        "delta_beta0_p",
    ]
    from satentropy.pipeline import _fmt_p

    assert _fmt_p(1e-10) == "0"
    assert _fmt_p(1e-11) == "0"
    report(9, "comparison table has the 7 required columns; tiny p renders as 0")
