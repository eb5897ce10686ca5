import csv
import hashlib

import pytest

from satentropy.benchgen import (
    BackboneSearchExhausted,
    BenchSpec,
    build_suite,
    gen_random_3sat,
    gen_with_backbone,
    tuned_clause_counts,
)
from satentropy.cnf import parse_dimacs
from satentropy.counter import count_models, find_model
from satentropy.entropy import profile_formula


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

    def test_exhaustion_carries_histogram(self):
        # an unconstrained formula cannot have a full backbone
        spec = BenchSpec(10, 10, target_backbone=10, seed=0, max_attempts=5)
        with pytest.raises(BackboneSearchExhausted) as exc:
            gen_with_backbone(spec)
        assert isinstance(exc.value.histogram, dict)

    def test_exhaustion_bins_sizes_around_the_target(self):
        # draws stop early on either side of the target: "<t" and t + 1
        spec = BenchSpec(10, 10, target_backbone=10, seed=0, max_attempts=5)
        with pytest.raises(BackboneSearchExhausted) as exc:
            gen_with_backbone(spec)
        assert exc.value.histogram == {"<10": 5}
        # 2 of the 6 draws are unsatisfiable and not binned
        spec = BenchSpec(12, 52, target_backbone=3, seed=1, max_attempts=6)
        with pytest.raises(BackboneSearchExhausted) as exc:
            gen_with_backbone(spec)
        assert exc.value.histogram == {"<3": 1, 4: 3}
        assert "(observed sizes: {'<3': 1, 4: 3})" in str(exc.value)

    def test_force_mode_pins_backbone(self):
        spec = BenchSpec(10, 30, target_backbone=9, seed=3, max_attempts=2000)
        f, _ = gen_with_backbone(spec, force=True)
        p = profile_formula(f)
        assert p.backbone_count == 9
        assert 0 < p.entropy < 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BenchSpec(10, 30, target_backbone=11, seed=0)
        with pytest.raises(ValueError):
            BenchSpec(10, 0, target_backbone=2, seed=0)


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
        h = hashlib.sha256()
        with (out / "manifest.csv").open(newline="") as fh:
            for row in csv.DictReader(fh):
                h.update((out / row["file"]).read_bytes())
                cols = ("file", "seed", "backbone", "attempts", "model_count")
                h.update(",".join(row[c] for c in cols).encode() + b"\n")
        assert h.hexdigest() == UNFORCED_SUITE_SHA256

    def test_profiles_persisted(self, suite):
        out, rows = suite
        for row in rows:
            assert (out / "profiles" / f"{row['formula_id']}.json").exists()
