import csv
import hashlib
import random

import pytest

from satentropy.benchgen import (
    BackboneSearchExhausted,
    BenchSpec,
    gen_random_3sat,
    gen_with_backbone,
    sub_seed,
    tuned_clause_counts,
)
from satentropy.cnf import Clause, CnfFormula, parse_dimacs
from satentropy.counter import count_models, find_model
from satentropy.entropy import profile_formula
from satentropy.pipeline import build_suite


def sampled_3sat(num_vars, num_clauses, seed):
    """The generator as it was written on random.sample: the oracle for the
    getrandbits draw."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(Clause(tuple(v if rng.random() < 0.5 else -v for v in vs)))
    return CnfFormula(num_vars, tuple(clauses))


class TestDrawMatchesRandomSample:
    # random.sample keeps a pool list for 3 of at most 21 and a set above
    @pytest.mark.parametrize("n", [*range(3, 26), 40, 60, 150])
    def test_every_path(self, n):
        for seed in range(10):
            assert gen_random_3sat(n, 4 * n, seed) == sampled_3sat(n, 4 * n, seed)

    def test_random_cases(self):
        cases = random.Random(2017)
        for _ in range(2000):
            n, m = cases.randint(3, 200), cases.randint(1, 60)
            seed = cases.getrandbits(64)
            assert gen_random_3sat(n, m, seed) == sampled_3sat(n, m, seed), (n, m, seed)


class TestRandom3Sat:
    def test_single_clause_covers_all_vars(self):
        f = gen_random_3sat(3, 1, 0)
        assert sorted(abs(l) for l in f.clauses[0].lits) == [1, 2, 3]

    def test_deterministic(self):
        assert gen_random_3sat(100, 400, 5) == gen_random_3sat(100, 400, 5)
        assert gen_random_3sat(100, 400, 5) != gen_random_3sat(100, 400, 6)

    def test_shape(self):
        f = gen_random_3sat(20, 85, 3)
        assert f.num_vars == 20
        assert f.num_clauses == 85
        for c in f.clauses:
            assert len(c.lits) == 3
            assert len({abs(l) for l in c.lits}) == 3

    def test_too_few_vars_rejected(self):
        with pytest.raises(ValueError):
            gen_random_3sat(2, 1, 0)

    def test_phase_transition_mixes_sat_unsat(self):
        sat = sum(
            find_model(gen_random_3sat(20, 85, seed)) is not None
            for seed in range(60)
        )
        assert 0 < sat < 60


class TestBackboneControl:
    def test_accepted_instance_has_target_backbone(self):
        spec = BenchSpec(12, 46, target_backbone=2, seed=11, max_attempts=5000)
        f, attempts = gen_with_backbone(spec)
        assert attempts >= 1
        assert profile_formula(f).backbone_count == 2

    def test_exhaustion_carries_counts(self):
        # an unconstrained formula cannot have a full backbone
        spec = BenchSpec(10, 10, target_backbone=10, seed=0, max_attempts=5)
        with pytest.raises(BackboneSearchExhausted) as exc:
            gen_with_backbone(spec)
        # every draw is satisfiable, so each is counted on one side
        assert exc.value.smaller + exc.value.larger == 5

    def test_exhaustion_bins_sizes_around_the_target(self):
        # satisfiable draws are counted below and above the target
        spec = BenchSpec(10, 10, target_backbone=10, seed=0, max_attempts=5)
        with pytest.raises(BackboneSearchExhausted) as exc:
            gen_with_backbone(spec)
        assert (exc.value.smaller, exc.value.larger) == (5, 0)
        # 2 of the 6 draws are unsatisfiable and not counted
        spec = BenchSpec(12, 52, target_backbone=3, seed=1, max_attempts=6)
        with pytest.raises(BackboneSearchExhausted) as exc:
            gen_with_backbone(spec)
        assert (exc.value.smaller, exc.value.larger) == (1, 3)
        assert (
            "(1 satisfiable draws had a smaller backbone, 3 a larger one)"
            in str(exc.value)
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BenchSpec(10, 30, target_backbone=11, seed=0)
        with pytest.raises(ValueError):
            BenchSpec(10, 0, target_backbone=2, seed=0)


def test_sub_seed_is_the_sha256_prefix_of_the_joined_parts():
    for parts, text in (((99, 7), b"99:7"), ((3, "f00d", 2), b"3:f00d:2")):
        digest = hashlib.sha256(text).digest()
        assert sub_seed(*parts) == int.from_bytes(digest[:8], "big")


def test_tuned_clause_counts_monotone():
    counts = tuned_clause_counts(20, [2, 6, 10, 14, 18])
    vals = [counts[t] for t in (2, 6, 10, 14, 18)]
    assert vals == sorted(vals)


# sha256 of the TestSuite suite: each row's DIMACS bytes and its file, seed,
# backbone, attempts and model_count columns (the float columns are left out
# so the digest does not depend on libm). Recorded from the generator as it
# was before backbone probing moved to the CDCL solver: acceptance depends
# only on backbone size, so unforced suites must not change with the engine.
UNFORCED_SUITE_SHA256 = "b3fe032d31a6ff47efb5b5e089e6aba969e6f022be8dcce0fdec709825bc604c"


def suite_digest(out, cols):
    h = hashlib.sha256()
    with (out / "manifest.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            h.update((out / row["file"]).read_bytes())
            h.update(",".join(row[c] for c in cols).encode() + b"\n")
    return h.hexdigest()


class TestSuite:
    @pytest.fixture(scope="class")
    @staticmethod
    def suite(tmp_path_factory):
        out = tmp_path_factory.mktemp("suite")
        rows = build_suite(
            targets=[2, 6, 10],
            per_bucket=4,
            num_vars=12,
            seed=99,
            out_dir=out,
            tune_clauses=True,
            max_attempts=20_000,
        )
        return out, rows

    def test_cardinality(self, suite):
        out, rows = suite
        assert len(rows) == 12
        with (out / "manifest.csv").open() as fh:
            assert len(list(csv.DictReader(fh))) == 12

    def test_every_instance_satisfiable(self, suite):
        out, rows = suite
        for row in rows:
            f = parse_dimacs((out / row["file"]).read_text())
            assert count_models(f) > 0

    def test_manifest_backbone_matches_reprofile(self, suite):
        out, rows = suite
        for row in rows[::3]:
            f = parse_dimacs((out / row["file"]).read_text())
            p = profile_formula(f)
            assert p.backbone_count == int(row["backbone"])
            assert abs(p.entropy - float(row["entropy"])) < 1e-9

    def test_bucket_entropy_decreases_with_backbone(self, suite):
        _, rows = suite
        by_target = {}
        for row in rows:
            by_target.setdefault(int(row["backbone"]), []).append(
                float(row["entropy"])
            )
        means = [
            sum(v) / len(v) for _, v in sorted(by_target.items())
        ]
        assert means[0] > means[1] > means[2]

    def test_unforced_suite_is_golden(self, suite):
        out, _ = suite
        cols = ("file", "seed", "backbone", "attempts", "model_count")
        assert suite_digest(out, cols) == UNFORCED_SUITE_SHA256

    def test_profiles_persisted(self, suite):
        out, rows = suite
        for row in rows:
            assert (out / "profiles" / f"{row['formula_id']}.json").exists()

