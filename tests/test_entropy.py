import functools
import itertools
import math
import operator
from fractions import Fraction

import pytest

from satentropy.cnf import CnfFormula
from satentropy.counter import count_models, count_models_bruteforce
from satentropy.entropy import (
    FormulaProfile,
    UnsatisfiableFormula,
    backbone_size,
    profile_formula,
    variable_entropy,
)
from conftest import (
    backbone_literals,
    criterion_1_corpus,
    criterion_2_corpus,
    random_formula,
)


class TestVariableEntropy:
    def test_balanced_is_one(self):
        assert variable_entropy(0.5) == 1.0

    def test_backbone_is_zero(self):
        assert variable_entropy(0) == 0.0
        assert variable_entropy(1) == 0.0

    def test_four_elevenths(self):
        # e(4/11) evaluated directly from the defining expression
        assert variable_entropy(Fraction(4, 11)) == pytest.approx(0.94566, abs=1e-4)

    def test_symmetry(self):
        for num in range(0, 12):
            r = Fraction(num, 11)
            assert variable_entropy(r) == pytest.approx(
                variable_entropy(1 - r), abs=1e-12
            )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            variable_entropy(1.5)
        with pytest.raises(ValueError):
            variable_entropy(-0.1)


class TestProfile:
    def test_single_clause(self):
        f = CnfFormula.from_clause_lists(2, [[1, 2]])
        p = profile_formula(f)
        expected = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
        assert p.entropy == pytest.approx(expected, abs=1e-12)
        assert p.entropy == pytest.approx(0.91830, abs=1e-4)
        assert p.density == 0.75
        assert p.backbone_count == 0

    def test_unit_formula(self):
        f = CnfFormula.from_clause_lists(1, [[1]])
        p = profile_formula(f)
        assert p.entropy == 0.0
        assert p.density == 0.5
        assert p.backbone_count == 1

    def test_unconstrained(self):
        f = CnfFormula(4, ())
        p = profile_formula(f)
        assert p.entropy == 1.0
        assert p.density == 1.0
        assert p.backbone_count == 0

    def test_unsat_rejected(self):
        f = CnfFormula.from_clause_lists(1, [[1], [-1]])
        with pytest.raises(UnsatisfiableFormula):
            profile_formula(f)

    def test_exact_counter_call_count(self):
        f = random_formula(17, max_vars=8)
        calls = []

        def counting(g):
            calls.append(g)
            return count_models(g)

        try:
            profile_formula(f, count_fn=counting)
        except UnsatisfiableFormula:
            return
        assert len(calls) == f.num_vars + 1

    def test_profile_identical_under_both_counters(self):
        for seed in range(20):
            f = random_formula(seed, max_vars=10)
            if count_models(f) == 0:
                continue
            p1 = profile_formula(f)
            p2 = profile_formula(f, count_fn=count_models_bruteforce)
            assert p1.model_count == p2.model_count
            assert abs(p1.entropy - p2.entropy) < 1e-12
            assert abs(p1.density - p2.density) < 1e-12

    @pytest.mark.parametrize(
        "corpus", [criterion_1_corpus, criterion_2_corpus], ids=["criterion1", "criterion2"]
    )
    def test_one_pass_profile_matches_conditioned_counts(self, corpus):
        # profile sidecars and records.jsonl are compared byte for byte
        profiled = 0
        for seed, f in corpus():
            if count_models(f) == 0:
                continue
            one_pass = profile_formula(f).to_dict()
            assert one_pass == profile_formula(f, count_fn=count_models).to_dict(), seed
            profiled += 1
        assert profiled > 0

    def test_backbone_iff_zero_entropy(self):
        for seed in range(30):
            f = random_formula(seed, max_vars=9)
            if count_models(f) == 0:
                continue
            p = profile_formula(f)
            for vp in p.variables:
                assert vp.is_backbone == (vp.entropy == 0.0)
                assert vp.is_backbone == (vp.ratio_pos in (0, 1))

    def test_entropy_is_mean_of_variables(self):
        f = random_formula(23, max_vars=8)
        if count_models(f) == 0:
            return
        p = profile_formula(f)
        assert p.entropy == pytest.approx(
            sum(v.entropy for v in p.variables) / p.num_vars, abs=1e-12
        )

    def test_zero_entropy_bin_equals_backbone_count(self):
        # histogram analog: the zero bin collects exactly the backbones
        f = random_formula(5, max_vars=10)
        if count_models(f) == 0:
            return
        p = profile_formula(f)
        zero_bin = sum(1 for v in p.variables if v.entropy == 0.0)
        assert zero_bin == p.backbone_count

    def test_json_round_trip(self):
        f = CnfFormula.from_clause_lists(3, [[1, 2], [3]])
        p = profile_formula(f)
        q = FormulaProfile.from_dict(p.to_dict())
        assert q == p

    def test_an_entropy_equal_to_rounding_loads(self):
        # a sidecar written where sum adds floats left to right (Python
        # 3.11) holds another last bit of this mean than math.fsum gives
        f = CnfFormula.from_clause_lists(4, [[-4, -2], [-1, -3, 4]])
        p = profile_formula(f)
        d = p.to_dict()
        entropies = [v.entropy for v in p.variables]
        d["entropy"] = functools.reduce(operator.add, entropies) / 4
        assert d["entropy"] != p.entropy
        d["per_var"][1]["e"] = math.nextafter(entropies[1], 0.0)
        assert FormulaProfile.from_dict(d) == p
        # beyond rounding, or not a float, it is still refused
        for entropy in (p.entropy + 1e-6, str(p.entropy)):
            with pytest.raises(ValueError, match="'entropy' is "):
                FormulaProfile.from_dict({**d, "entropy": entropy})


class TestBackbone:
    def test_implied_unit(self):
        f = CnfFormula.from_clause_lists(2, [[1], [1, 2]])
        assert backbone_literals(f) == {1}

    def test_unconstrained_empty(self):
        assert backbone_literals(CnfFormula(3, ())) == set()

    def test_units_both_polarities(self):
        f = CnfFormula.from_clause_lists(2, [[1], [-2]])
        assert backbone_literals(f) == {1, -2}

    def test_unsat_rejected(self):
        f = CnfFormula.from_clause_lists(1, [[1], [-1]])
        for fn in (profile_formula, backbone_size):
            with pytest.raises(UnsatisfiableFormula):
                fn(f)

    def test_fast_size_agrees_with_counted_backbone(self):
        corpora = (criterion_1_corpus(), criterion_2_corpus())
        for seed, f in itertools.chain(*corpora):
            if count_models(f) == 0:
                continue
            assert backbone_size(f) == len(backbone_literals(f)), seed

    def test_target_decides_the_side_of_the_size(self):
        # exact at the target, target + 1 above it, below it when the size
        # is (gen_with_backbone's test)
        corpora = (criterion_1_corpus(), criterion_2_corpus())
        for seed, f in itertools.chain(*corpora):
            if count_models(f) == 0:
                continue
            size = len(backbone_literals(f))
            for t in range(f.num_vars + 2):
                got = backbone_size(f, t)
                assert (got < t) == (size < t), (seed, t)
                assert (got == t) == (size == t), (seed, t)
                if size > t:
                    assert got == t + 1, (seed, t)

    def test_size_abort_early(self):
        f = CnfFormula.from_clause_lists(3, [[1], [2], [3]])
        assert backbone_size(f, 1) == 2
