import json
import random
from itertools import count
from pathlib import Path

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
from satentropy.entropy import profile_formula
from conftest import (
    chain,
    criterion_1_corpus,
    criterion_2_corpus,
    random_formula,
    random_3sat,
)


def differential_corpus():
    """(seed, formula) for 150 seeded formulas with at most 20 variables:
    unit, binary and ternary clauses over up to three disjoint variable
    blocks (so several components), with repeated and tautological clauses,
    clauses built with a repeated literal, and units that conflict only
    after propagation."""
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(1, 20)
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 2))))
        blocks = [list(range(a + 1, b + 1)) for a, b in zip([0] + cuts, cuts + [n])]
        clauses = []
        for block in blocks:
            for _ in range(rng.randint(0, 3 * len(block))):
                k = min(len(block), rng.choice((1, 2, 2, 3, 3, 3, 3, 3, 3, 3)))
                clauses.append([v if rng.random() < 0.5 else -v for v in rng.sample(block, k)])
        if clauses and rng.random() < 0.5:
            clauses.append(list(rng.choice(clauses)))
        a, b = rng.randint(1, n), rng.randint(1, n)
        if rng.random() < 0.5:
            clauses.append([a, -a, b])
        if a != b and rng.random() < 0.3:
            # a forces b through one clause and -b through another
            clauses += [[a], [-a, b], [-a, -b]]
        rng.shuffle(clauses)
        built = tuple(Clause.from_lits(c) for c in clauses)
        if rng.random() < 0.3:
            built += (Clause((a, a, -b)),)
        yield seed, CnfFormula(n, built)


def _component_count(f):
    groups = []
    for c in f.clauses:
        vs = {abs(l) for l in c.lits}
        for g in [g for g in groups if g & vs]:
            vs |= g
            groups.remove(g)
        groups.append(vs)
    return len(groups)


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


def test_differential_corpus_against_both_oracles():
    # every total against brute force and one conditioned pair, every
    # marginal against brute force and a conditioned count: n + 1 calls
    kinds = dict.fromkeys(("unsat", "split", "tautology", "repeated clause", "repeated literal"), 0)
    for seed, f in differential_corpus():
        total, marginals = count_with_marginals(f)
        assert total == count_models_bruteforce(f), seed
        assert total == count_conditioned(f, 1) + count_conditioned(f, -1), seed
        assert list(marginals) == list(range(1, f.num_vars + 1))
        for v, pos in marginals.items():
            assert pos == count_conditioned(f, v), (seed, v)
            assert pos == count_models_bruteforce(conditioned_formula(f, v)), (seed, v)
        kinds["unsat"] += total == 0
        kinds["split"] += _component_count(f) > 1
        kinds["tautology"] += any(c.is_tautology for c in f.clauses)
        kinds["repeated clause"] += len({c.lits for c in f.clauses}) < f.num_clauses
        kinds["repeated literal"] += any(len(set(c.lits)) < len(c.lits) for c in f.clauses)
    assert all(kinds.values()), kinds


def test_long_unit_chain_does_not_recurse():
    # [1] implies 2, which implies 3, ... up to 1200: one model, all backbone
    n = 1200
    f = CnfFormula.from_clause_lists(n, [[1]] + [[-i, i + 1] for i in range(1, n)])
    assert count_models(f) == 1
    p = profile_formula(f)
    assert (p.model_count, p.backbone_count) == (1, n)


def test_branching_rule_keeps_node_count_low():
    # A pinned SAT draw with 2 models. The counter before fixpoint
    # propagation and occurrence-product branching took 2770 nodes on it,
    # this one takes 150, and most-frequent-variable branching with fixpoint
    # propagation takes 332. The budget is about twice the count of 150 and
    # below a quarter of 2770.
    from satentropy.benchgen import gen_random_3sat

    f = gen_random_3sat(80, 336, 3)
    assert count_models(f, CountBudget(max_nodes=300)) == 2


def test_deep_chain_counts_and_profiles():
    # deeper than Python's default recursion limit allows two frames a decision
    f = chain(1201)
    assert count_with_marginals(f) == (1202, {v: v for v in range(1, 1202)})
    p = profile_formula(f)
    assert (p.model_count, p.backbone_count) == (1202, 0)


@pytest.mark.parametrize(
    "budget, message",
    [
        (CountBudget(max_nodes=100), "node budget 100 exceeded"),
        (CountBudget(max_nodes=599), "node budget 599 exceeded"),
        (CountBudget(max_seconds=0), "time budget 0s exceeded"),
    ],
    ids=["nodes", "last-node", "seconds"],
)
def test_budget_is_enforced_at_any_depth(budget, message):
    # the deadline is read every 256 nodes
    with pytest.raises(BudgetExceeded, match=message):
        count_with_marginals(chain(1201), budget)


def test_time_budget_holds_from_the_first_node():
    # one component step: the clock must be read before a 256th node
    f = CnfFormula.from_clause_lists(2, [[1, 2]])
    assert count_models(f) == 3
    with pytest.raises(BudgetExceeded, match="time budget 0s exceeded"):
        count_models(f, CountBudget(max_seconds=0))


def test_nan_time_budget_is_refused():
    # a NaN deadline would never pass, leaving the count unlimited
    with pytest.raises(ValueError, match="time budget must be a number, not nan"):
        CountBudget(max_seconds=float("nan"))


# ------------------------------------------------- golden counter search

GOLDEN_SEARCH_PATH = Path(__file__).with_name("golden_counter_search.json")


def golden_search_formulas():
    """(name, formula): the criterion-1 corpus and the first 20 satisfiable
    draws of gen_random_3sat(40, 164, s)."""
    from satentropy.benchgen import gen_random_3sat

    for seed, f in criterion_1_corpus():
        yield f"criterion1-s{seed}", f
    kept = 0
    for seed in count():
        f = gen_random_3sat(40, 164, seed)
        if find_model(f) is not None:
            yield f"3sat-n40-m164-s{seed}", f
            kept += 1
            if kept == 20:
                return


def golden_search_cases(monkeypatch):
    """Per formula, the nodes and component cache entries of its counting
    pass, read off the pass's _Run."""
    from satentropy import counter

    runs = []

    class RecordingRun(counter._Run):
        def __post_init__(self):
            super().__post_init__()
            runs.append(self)

    monkeypatch.setattr(counter, "_Run", RecordingRun)
    for name, f in golden_search_formulas():
        count_with_marginals(f)
        (run,) = runs
        runs.clear()
        yield {"formula": name, "nodes": run.nodes, "cache_entries": len(run.cache)}


def test_counter_search_matches_golden_corpus(monkeypatch):
    # the counter's search is pinned: any change to branching, components,
    # the cache key or the node tick shows up as a changed node or cache count
    golden = json.loads(GOLDEN_SEARCH_PATH.read_text())
    actual = list(golden_search_cases(monkeypatch))
    assert len(actual) == len(golden) == 520
    for got, want in zip(actual, golden):
        assert got == want, want["formula"]


if __name__ == "__main__":
    # Re-record the golden search corpus (only after a deliberate change of
    # the search): PYTHONPATH=src:tests python tests/test_counter.py
    mp = pytest.MonkeyPatch()
    cases = list(golden_search_cases(mp))
    mp.undo()
    GOLDEN_SEARCH_PATH.write_text(
        "[\n" + ",\n".join(json.dumps(c, sort_keys=True) for c in cases) + "\n]\n"
    )
    print(f"wrote {len(cases)} cases to {GOLDEN_SEARCH_PATH}")
