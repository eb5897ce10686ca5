import random

import pytest

from satentropy.cnf import CnfFormula


def random_formula(seed, max_vars=12, max_clause_len=3):
    """A random CNF formula (not necessarily 3-SAT) for property tests."""
    rng = random.Random(seed)
    n = rng.randint(1, max_vars)
    m = rng.randint(0, 5 * n)
    clauses = []
    for _ in range(m):
        k = rng.randint(1, min(max_clause_len, n))
        vs = rng.sample(range(1, n + 1), k)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return CnfFormula.from_clause_lists(n, clauses)


def backbone_literals(formula):
    """The literals true in every model, read off the formula's profile."""
    from satentropy.entropy import profile_formula

    return {
        p.var if p.ratio_pos == 1 else -p.var
        for p in profile_formula(formula).variables
        if p.is_backbone
    }


def random_3sat(seed, n, ratio):
    from satentropy.benchgen import gen_random_3sat

    return gen_random_3sat(n, max(1, round(n * ratio)), seed)


def chain(n):
    """The implication chain [-i, i+1] with no unit: its n + 1 models set a
    suffix of the variables true, and the counter's search of it takes 600
    nodes at n = 1201, one a decision."""
    return CnfFormula.from_clause_lists(n, [[-i, i + 1] for i in range(1, n)])


def criterion_1_corpus():
    """(seed, formula) for the 500 random 3-SAT formulas of acceptance
    criterion 1: n = 5..20 over five clause/variable ratios."""
    ratios = (1, 2, 3, 4.26, 6)
    for seed in range(500):
        n = random.Random(seed).randint(5, 20)
        yield seed, random_3sat(seed, n, ratios[seed % len(ratios)])


def criterion_2_corpus():
    """(seed, formula) for the 60 mixed-length formulas of acceptance
    criterion 2, with at most 10 variables."""
    for seed in range(60):
        yield seed, random_formula(seed, max_vars=10)


@pytest.fixture
def rng():
    return random.Random(12345)
