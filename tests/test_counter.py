import random

import pytest

from satentropy.cnf import Clause, CnfFormula
from satentropy.counter import (
    BudgetExceeded,
    CountBudget,
    conditioned_formula,
    count_conditioned,
    count_models,
    count_models_bruteforce,
    count_with_marginals,
    find_model,
)
from conftest import criterion_1_corpus, criterion_2_corpus, random_formula, random_3sat


def test_single_clause():
    f = CnfFormula.from_clause_lists(2, [[1, 2]])
    assert count_models(f) == 3
    assert count_models_bruteforce(f) == 3


def test_empty_conjunction_counts_everything():
    assert count_models(CnfFormula(5, ())) == 32
    assert count_models_bruteforce(CnfFormula(0, ())) == 1


def test_contradiction():
    f = CnfFormula.from_clause_lists(1, [[1], [-1]])
    assert count_models(f) == 0
    assert count_models_bruteforce(f) == 0


def test_free_variables_double_count():
    # variable 3 occurs in no clause
    f = CnfFormula.from_clause_lists(3, [[1, 2]])
    assert count_models(f) == 6


def test_three_literal_clause():
    f = CnfFormula.from_clause_lists(3, [[1, 2, 3]])
    assert count_models_bruteforce(f) == 7
    assert count_models(f) == 7


def test_tautological_clause_always_satisfied():
    f = CnfFormula.from_clause_lists(2, [[1, -1], [2]])
    assert count_models(f) == 2
    assert count_models_bruteforce(f) == 2


@pytest.mark.parametrize("ratio", [1, 2, 3, 4.26, 6])
def test_agrees_with_bruteforce(ratio):
    for seed in range(40):
        n = random.Random(seed).randint(5, 16)
        f = random_3sat(seed * 31 + int(ratio * 7), n, ratio)
        assert count_models(f) == count_models_bruteforce(f)


def test_agrees_on_mixed_clause_lengths():
    for seed in range(100):
        f = random_formula(seed)
        assert count_models(f) == count_models_bruteforce(f)


def test_partition_identity():
    for seed in range(30):
        f = random_formula(seed, max_vars=10)
        total = count_models(f)
        for v in range(1, f.num_vars + 1):
            assert count_conditioned(f, v) + count_conditioned(f, -v) == total


def test_conditioning_does_not_mutate():
    f = CnfFormula.from_clause_lists(2, [[1, 2]])
    count_conditioned(f, 1)
    assert f.num_clauses == 1


def test_conditioned_examples():
    f = CnfFormula.from_clause_lists(2, [[1, 2]])
    assert count_conditioned(f, 1) == 2
    g = CnfFormula.from_clause_lists(1, [[1], [-1]])
    assert count_conditioned(g, 1) == 0


def test_count_invariant_under_reordering():
    rng = random.Random(0)
    for seed in range(20):
        f = random_formula(seed, max_vars=10)
        base = count_models(f)
        clauses = [list(c.lits) for c in f.clauses]
        rng.shuffle(clauses)
        for c in clauses:
            rng.shuffle(c)
        g = CnfFormula.from_clause_lists(f.num_vars, clauses)
        assert count_models(g) == base


def test_bruteforce_var_limit():
    with pytest.raises(ValueError, match="30 vars"):
        count_models_bruteforce(CnfFormula(31, ()))


def test_bruteforce_above_mask_width():
    # exercises the high-variable enumeration path
    f = CnfFormula.from_clause_lists(24, [[1, 24], [-24, 2]])
    assert count_models_bruteforce(f) == count_models(f)


def test_node_budget_raises_not_wrong():
    f = random_3sat(3, 16, 4.26)
    with pytest.raises(BudgetExceeded):
        count_models(f, CountBudget(max_nodes=2))


def test_empty_clause_counts_zero():
    f = CnfFormula(2, (Clause(()),))
    assert count_models(f) == 0
    assert count_with_marginals(f) == (0, {1: 0, 2: 0})


@pytest.mark.parametrize(
    "corpus", [criterion_1_corpus, criterion_2_corpus], ids=["criterion1", "criterion2"]
)
def test_marginals_match_conditioned_counts(corpus):
    # the one-pass marginals against n separate counts and against brute force
    for seed, f in corpus():
        total, marginals = count_with_marginals(f)
        assert total == count_models_bruteforce(f), seed
        assert list(marginals) == list(range(1, f.num_vars + 1))
        for v, pos in marginals.items():
            assert pos == count_conditioned(f, v), (seed, v)
            assert pos == count_models_bruteforce(conditioned_formula(f, v)), (seed, v)


def test_cache_eviction_keeps_counts_exact(monkeypatch):
    # a cap far below the cache's size evicts over and over
    from satentropy import counter

    formulas = [random_3sat(seed, 16, 3.0) for seed in range(4)]
    full = [count_with_marginals(f) for f in formulas]
    monkeypatch.setattr(counter, "_MAX_CACHE_ENTRIES", 4)
    assert [count_with_marginals(f) for f in formulas] == full


def test_marginal_of_unconstrained_variable_is_half():
    f = CnfFormula.from_clause_lists(3, [[1, 2]])
    assert count_with_marginals(f) == (6, {1: 4, 2: 4, 3: 3})


def test_marginals_of_unit_forced_variables():
    # 1 is a unit; 2 is forced false by propagation through [-1, -2]
    f = CnfFormula.from_clause_lists(3, [[1], [-1, -2], [2, 3, -1]])
    assert count_with_marginals(f) == (1, {1: 1, 2: 0, 3: 1})


def test_marginals_across_components():
    # {1,2} has 3 models, {3,4} has 2 and variable 5 is free: 3 * 2 * 2 models
    f = CnfFormula.from_clause_lists(5, [[1, 2], [3, 4], [-3, -4]])
    total, marginals = count_with_marginals(f)
    assert total == 12
    assert marginals == {1: 8, 2: 8, 3: 6, 4: 6, 5: 6}


def test_marginals_of_unsat_formula_are_zero():
    f = CnfFormula.from_clause_lists(3, [[1, 2], [1, -2], [-1, 3], [-1, -3]])
    assert count_with_marginals(f) == (0, {1: 0, 2: 0, 3: 0})


def test_find_model_returns_verified_model():
    from satentropy.cnf import evaluate

    for seed in range(50):
        f = random_formula(seed, max_vars=12)
        model = find_model(f)
        if count_models_bruteforce(f) > 0:
            assert model is not None
            assert evaluate(f, model)
        else:
            assert model is None
