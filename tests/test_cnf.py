import itertools

import pytest

from satentropy.cnf import (
    Clause,
    CnfFormula,
    DimacsError,
    content_hash,
    evaluate,
    parse_dimacs,
    write_dimacs,
)
from conftest import random_formula


class TestParse:
    def test_minimal(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0\n")
        assert f.num_vars == 2
        assert [c.lits for c in f.clauses] == [(1, 2)]

    def test_comments_and_units(self):
        f = parse_dimacs("c comment\np cnf 1 2\n1 0\n-1 0\n")
        assert f.num_vars == 1
        assert [c.lits for c in f.clauses] == [(1,), (-1,)]

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsError, match="literal 3 exceeds declared 2"):
            parse_dimacs("p cnf 2 1\n3 0\n")

    def test_malformed_header(self):
        with pytest.raises(DimacsError, match="line 1"):
            parse_dimacs("p cnf x 1\n1 0\n")

    def test_missing_terminator(self):
        with pytest.raises(DimacsError, match="missing terminating 0"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_empty_input(self):
        with pytest.raises(DimacsError, match="empty input"):
            parse_dimacs("")

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsError, match="declares 2 clauses"):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_multiline_clause(self):
        f = parse_dimacs("p cnf 3 1\n1\n2 3 0\n")
        assert f.clauses[0].lits == (1, 2, 3)

    def test_duplicate_literals_removed(self):
        f = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
        assert f.clauses[0].lits == (1, 2)

    def test_tautology_flagged(self):
        f = parse_dimacs("p cnf 2 1\n1 -1 2 0\n")
        assert f.clauses[0].is_tautology
        assert f.clause_lists() == []


class TestWrite:
    def test_simple(self):
        f = CnfFormula.from_clause_lists(2, [[1, 2]])
        assert write_dimacs(f) == "p cnf 2 1\n1 2 0\n"

    def test_no_clauses(self):
        f = CnfFormula(3, ())
        assert write_dimacs(f) == "p cnf 3 0\n"

    def test_round_trip_random(self):
        for seed in range(1000):
            f = random_formula(seed)
            assert parse_dimacs(write_dimacs(f)) == f


class TestEvaluate:
    def test_satisfied(self):
        f = CnfFormula.from_clause_lists(2, [[1, 2]])
        assert evaluate(f, {1: False, 2: True})

    def test_contradiction_never_satisfied(self):
        f = CnfFormula.from_clause_lists(1, [[1], [-1]])
        assert not evaluate(f, {1: True})
        assert not evaluate(f, {1: False})

    def test_empty_conjunction(self):
        f = CnfFormula(2, ())
        assert evaluate(f, {1: True, 2: False})

    def test_partial_rejected(self):
        f = CnfFormula.from_clause_lists(2, [[1, 2]])
        with pytest.raises(ValueError, match="partial"):
            evaluate(f, {1: True})

    def test_exhaustive_agreement_small(self):
        # clause-by-clause manual check over all assignments, n <= 4
        for seed in range(100):
            f = random_formula(seed, max_vars=4)
            for bits in itertools.product([False, True], repeat=f.num_vars):
                a = {v: bits[v - 1] for v in range(1, f.num_vars + 1)}
                manual = all(
                    any(a[abs(l)] == (l > 0) for l in c.lits)
                    for c in f.clauses
                )
                assert evaluate(f, a) == manual


def test_content_hash_stable():
    f = CnfFormula.from_clause_lists(3, [[1, -2], [3]])
    assert content_hash(f) == content_hash(parse_dimacs(write_dimacs(f)))
    g = CnfFormula.from_clause_lists(3, [[1, -2], [-3]])
    assert content_hash(f) != content_hash(g)


def test_clause_invariants():
    c = Clause.from_lits([1, -2, 1])
    assert c.lits == (1, -2)
    assert not c.is_tautology
    t = Clause.from_lits([1, -1])
    assert t.is_tautology
    with pytest.raises(ValueError):
        Clause.from_lits([0])


class TestLiteralRange:
    @pytest.mark.parametrize(
        "clauses,bad",
        [
            ([[1, 4]], 4),
            ([[-4, 1]], -4),
            ([[1, 2], [3, -5, 6], [7]], -5),  # the first in clause order
            ([[2, 9], [-9]], 9),
            ([[], [-1, -3], [1, 2, -4]], -4),
        ],
    )
    def test_out_of_range_literal_is_named(self, clauses, bad):
        with pytest.raises(ValueError, match=f"^literal {bad} exceeds declared 3 vars$"):
            CnfFormula.from_clause_lists(3, clauses)

    def test_every_literal_in_range_is_accepted(self):
        f = CnfFormula.from_clause_lists(3, [[-3, 3], [1, -2], [], [3]])
        assert [c.lits for c in f.clauses] == [(-3, 3), (1, -2), (), (3,)]
        assert CnfFormula(0, ()).num_clauses == 0
