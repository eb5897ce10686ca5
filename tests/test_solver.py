import json
import random
from pathlib import Path

import pytest

from satentropy.cnf import CnfFormula, content_hash, evaluate
from satentropy.counter import count_models, count_models_bruteforce
from satentropy.entropy import backbone
from satentropy.solver import (
    GlucoseRestarts,
    KeepLbdCutAtMost,
    KeepSizeAtMost,
    LearnedClauseMeta,
    LubyRestarts,
    SolverConfig,
    compute_lbd,
    glucose_restart_due,
    luby,
    reduce_database,
    _UNASSIGNED,
    _Solver,
    solve,
)
from conftest import criterion_1_corpus, criterion_2_corpus, random_3sat, random_formula


ALL_CONFIGS = [
    SolverConfig(restart=r, deletion=d, decay=dc, reduce_interval=30, seed=9)
    for r in (LubyRestarts(100), GlucoseRestarts(50, 0.8))
    for d in (KeepLbdCutAtMost(5), KeepSizeAtMost(12))
    for dc in (0.95, 0.6)
]


def luby_reference(i):
    """Direct recursive evaluation of the defining cases."""
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    if (1 << k) - 1 == i:
        return 1 << (k - 1)
    return luby_reference(i - (1 << (k - 1)) + 1)


class TestLuby:
    def test_first_nine(self):
        assert [luby(i) for i in range(1, 10)] == [1, 1, 2, 1, 1, 2, 4, 1, 1]

    def test_index_fifteen(self):
        assert luby(15) == 8

    def test_matches_recursive_definition(self):
        for i in range(1, 200):
            assert luby(i) == luby_reference(i)

    def test_powers_double(self):
        vals = [luby((1 << k) - 1) for k in range(1, 8)]
        assert vals == [1, 2, 4, 8, 16, 32, 64]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            luby(0)


class TestLbd:
    def test_distinct_levels(self):
        levels = {1: 2, 2: 2, 3: 5, 4: 7}
        assert compute_lbd([1, -2, 3, 4], lambda v: levels[v]) == 3

    def test_single_level(self):
        assert compute_lbd([1, 2, 3], lambda v: 4) == 1

    def test_all_distinct(self):
        assert compute_lbd([1, 2, 3, 4], lambda v: v) == 4

    def test_unassigned_rejected(self):
        with pytest.raises(ValueError, match="unassigned"):
            compute_lbd([1], lambda v: None)


class TestGlucoseTrigger:
    def test_fires_when_window_exceeds_global(self):
        assert glucose_restart_due([5, 5, 5], 3, 3.0, 0.8)

    def test_quiet_when_equal(self):
        assert not glucose_restart_due([3, 3, 3], 3, 3.0, 0.8)

    def test_window_not_full(self):
        assert not glucose_restart_due([9, 9], 3, 1.0, 0.8)

    def test_solver_running_sum_matches_helper(self):
        # the solver keeps a running window sum; the helper is the reference
        rng = random.Random(4)
        f = random_3sat(1, 10, 3)
        for window, margin in ((1, 0.8), (5, 0.8), (7, 1.3)):
            s = _Solver(f, SolverConfig(restart=GlucoseRestarts(window, margin)))
            history, recent = [], []
            for step in range(400):
                if rng.random() < 0.05:
                    s.do_restart()
                    recent.clear()
                lbd = rng.randint(1, 12)
                s.record_lbd(lbd)
                history.append(lbd)
                recent = (recent + [lbd])[-window:]
                mean = sum(history) / len(history)
                expected = glucose_restart_due(recent, window, mean, margin)
                assert s.restart_due() == expected, (window, step)


class TestLubyRestartLimit:
    def test_limit_follows_sequence_across_restarts(self):
        f = random_3sat(1, 10, 3)
        s = _Solver(f, SolverConfig(restart=LubyRestarts(7)))
        for i in range(1, 40):
            limit = luby(i) * 7
            s.conflicts_since_restart = limit - 1
            assert not s.restart_due()
            s.conflicts_since_restart = limit
            assert s.restart_due()
            s.do_restart()


class TestReduceDatabase:
    def make(self, lbd_cut, size, activity=0.0):
        return LearnedClauseMeta(
            lits=list(range(1, size + 1)),
            lbd_current=lbd_cut,
            lbd_cut=lbd_cut,
            activity=activity,
        )

    def test_lbd_cut_keeps_unconditionally(self):
        c = self.make(lbd_cut=3, size=20)
        kept, deleted = reduce_database([c], KeepLbdCutAtMost(5))
        assert kept == [c] and deleted == []

    def test_size_boundary(self):
        keep12 = self.make(lbd_cut=9, size=12)
        drop13 = [self.make(lbd_cut=9, size=13, activity=i) for i in range(4)]
        kept, deleted = reduce_database([keep12] + drop13, KeepSizeAtMost(12))
        assert keep12 in kept
        # lowest-activity half of the eligible clauses goes
        assert deleted == drop13[:2]

    def test_empty(self):
        assert reduce_database([], KeepLbdCutAtMost(5)) == ([], [])

    def test_protected_never_deleted(self):
        cs = [self.make(lbd_cut=9, size=20, activity=i) for i in range(4)]
        kept, deleted = reduce_database(
            cs, KeepLbdCutAtMost(5), protected=frozenset([id(cs[0])])
        )
        assert cs[0] in kept

    def test_lbd_cut_monotone(self):
        c = self.make(lbd_cut=6, size=10)
        c.update_lbd(4)
        assert c.lbd_cut == 4
        c.update_lbd(9)
        assert c.lbd_cut == 4


class TestSolve:
    def test_trivial_unsat(self):
        f = CnfFormula.from_clause_lists(1, [[1], [-1]])
        for cfg in ALL_CONFIGS:
            st = solve(f, cfg)
            assert st.result == "UNSAT"
            assert st.conflicts >= 0

    def test_empty_formula(self):
        st = solve(CnfFormula(3, ()))
        assert st.result == "SAT"
        assert st.conflicts == 0

    def test_tautologies_ignored(self):
        f = CnfFormula.from_clause_lists(2, [[1, -1], [2]])
        st = solve(f)
        assert st.result == "SAT"
        assert st.model[2] is True

    def test_unverified_model_raises(self, monkeypatch):
        # an explicit check, so it also holds under python -O
        from satentropy import solver

        monkeypatch.setattr(solver, "evaluate", lambda formula, model: False)
        with pytest.raises(RuntimeError, match="model failed verification"):
            solve(CnfFormula.from_clause_lists(2, [[1, 2]]))

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.label())
    def test_soundness_all_configs(self, cfg):
        for seed in range(40):
            n = random.Random(seed).randint(6, 20)
            f = random_3sat(seed, n, 4.26)
            sat = count_models_bruteforce(f) > 0
            st = solve(f, cfg)
            assert (st.result == "SAT") == sat
            if st.result == "SAT":
                assert evaluate(f, st.model)

    def test_mixed_clause_lengths(self):
        for seed in range(60):
            f = random_formula(seed, max_vars=14)
            sat = count_models_bruteforce(f) > 0
            st = solve(f, SolverConfig(seed=seed))
            assert (st.result == "SAT") == sat

    def test_deterministic(self):
        f = random_3sat(5, 18, 4.26)
        cfg = SolverConfig(seed=77, reduce_interval=20)
        assert solve(f, cfg) == solve(f, cfg)

    def test_verdict_agrees_across_configs(self):
        for seed in range(15):
            f = random_3sat(100 + seed, 16, 4.26)
            verdicts = {solve(f, cfg).result for cfg in ALL_CONFIGS}
            assert len(verdicts) == 1

    def test_conflict_budget(self):
        # a formula hard enough to hit a tiny budget
        for seed in range(50):
            f = random_3sat(seed, 20, 4.26)
            st = solve(f, SolverConfig(conflict_budget=1, seed=seed))
            if st.result == "BUDGET":
                assert st.conflicts == 1
                return
        pytest.fail("no instance produced a conflict")

    def test_reduction_actually_deletes(self):
        deleted = 0
        for seed in range(80):
            f = random_3sat(seed, 20, 4.26)
            st = solve(
                f,
                SolverConfig(
                    deletion=KeepSizeAtMost(1), reduce_interval=10, seed=seed
                ),
            )
            deleted += st.learned_deleted
        assert deleted > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(decay=1.0)
        with pytest.raises(ValueError):
            LubyRestarts(0)
        with pytest.raises(ValueError):
            KeepLbdCutAtMost(0)


class TestVsidsInvariance:
    def test_decay_preserves_relative_order(self):
        # exponential VSIDS: decaying by growing the increment rescales all
        # activities uniformly, so untouched variables keep their order
        f = random_3sat(2, 20, 4.26)
        s = _Solver(f, SolverConfig(seed=1))
        s.activity[3] = 5.0
        s.activity[7] = 2.0
        before = s.activity[3] > s.activity[7]
        s.decay_activities()
        s.bump_var(11)
        after = s.activity[3] > s.activity[7]
        assert before == after


class TestValueLayout:
    def check_complementary(self, s):
        for v in range(1, s.n + 1):
            pos, neg = s.value[v], s.value[-v]
            if pos == _UNASSIGNED:
                assert neg == _UNASSIGNED, v
            else:
                assert {pos, neg} == {0, 1}, v
        assert len(s.value) == 2 * s.n + 1

    def test_both_polarities_after_solve_and_backjump(self):
        checked = 0
        for seed in range(12):
            f = random_3sat(300 + seed, 30, (3, 4.26, 6)[seed % 3])
            s = _Solver(f, SolverConfig(seed=seed, reduce_interval=10))
            st = s.solve()
            self.check_complementary(s)
            assigned = {abs(l) for l in s.trail}
            for v in range(1, s.n + 1):
                assert (s.value[v] != _UNASSIGNED) == (v in assigned)
            if st.result == "SAT":
                assert len(assigned) == s.n
            s.backjump(0)
            self.check_complementary(s)
            assert s.trail_lim == [] and s.qhead == len(s.trail)
            for lit in s.trail:
                assert s.level[abs(lit)] == 0
                assert s.value[lit] == 1 and s.value[-lit] == 0
            checked += st.result == "SAT"
        assert checked > 0


class TestProbe:
    def test_implied_literal_negation_is_none(self):
        # 3 is implied, but only by search: nothing propagates at level 0
        f = CnfFormula.from_clause_lists(4, [[3, 4], [3, -4], [1, 2]])
        s = _Solver(f, SolverConfig())
        assert s.solve().result == "SAT"
        assert s.probe(-3) is None
        assert s.value[3] == 1 and s.level[3] == 0
        assert s.probe(3)[3] is True

    def test_unsat_formula_has_no_probe_model(self):
        s = _Solver(CnfFormula.from_clause_lists(2, [[1], [-1, 2], [-2]]), SolverConfig())
        assert s.solve().result == "UNSAT"
        assert s.probe(2) is None and s.probe(-2) is None

    def test_probes_agree_with_counted_backbone(self):
        # every literal of every satisfiable formula is probed on one
        # instance: None exactly for the negated backbone literals, and a
        # model that satisfies the formula and the assumption otherwise
        formulas = [f for _, f in criterion_2_corpus()]
        formulas += [f for seed, f in criterion_1_corpus() if seed < 150]
        probed = 0
        for f in formulas:
            s = _Solver(f, SolverConfig())
            if s.solve().result != "SAT":
                continue
            bb = backbone(f)
            for v in range(1, f.num_vars + 1):
                for lit in (v, -v):
                    model = s.probe(lit)
                    if model is None:
                        assert -lit in bb, (f, lit)
                    else:
                        assert evaluate(f, model) and model[v] == (lit > 0)
                        assert -lit not in bb
                    probed += 1
        assert probed > 2000

    def test_learned_clauses_keep_the_models(self):
        # learned clauses are implied by the formula alone, so after many
        # probes the formula with them has the same models and verdict
        learned = 0
        for seed in range(40):
            f = random_3sat(seed, 14, 4.0)
            s = _Solver(f, SolverConfig(reduce_interval=10))
            if s.solve().result != "SAT":
                continue
            for v in range(1, f.num_vars + 1):
                s.probe(v)
                s.probe(-v)
            extra = [m.lits for m in s.learned]
            learned += len(extra)
            g = CnfFormula.from_clause_lists(
                f.num_vars, [list(c.lits) for c in f.clauses] + extra
            )
            assert count_models(g) == count_models(f), seed
            assert solve(g).result == "SAT"
        assert learned > 0

    def test_model_violating_the_assumption_raises(self):
        # an explicit check, so it also holds under python -O
        class Flipping(_Solver):
            flip = None

            def enqueue(self, lit, reason=None, meta=None):
                return super().enqueue(-lit if lit == self.flip else lit, reason, meta)

        s = Flipping(CnfFormula.from_clause_lists(2, [[1, 2]]), SolverConfig())
        assert s.solve().result == "SAT"
        s.flip = 1
        with pytest.raises(RuntimeError, match="violates the assumption"):
            s.probe(1)


# ------------------------------------------------- golden SolveStats corpus

GOLDEN_PATH = Path(__file__).with_name("golden_solve_stats.json")


def _mixed_length(seed, n, ratio):
    """`ratio * n` clauses: two units, then 2 to 5 literals each."""
    rng = random.Random(seed)
    clauses = []
    for i in range(round(n * ratio)):
        k = 1 if i < 2 else rng.choice((2, 3, 3, 4, 5))
        vs = rng.sample(range(1, n + 1), k)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return CnfFormula.from_clause_lists(n, clauses)


def golden_formulas():
    """(name, formula): 3-SAT at n = 20..80 over ratios 3, 4.26 and 6, and
    mixed clause lengths; SAT and UNSAT, up to a few hundred conflicts."""
    shapes = [
        (20, 3), (50, 3), (80, 3),
        (20, 4.26), (40, 4.26), (60, 4.26), (70, 4.26), (80, 4.26),
        (20, 6), (40, 6), (60, 6),
    ]
    for i, (n, ratio) in enumerate(shapes):
        yield f"3sat-n{n}-r{ratio}-s{7000 + i}", random_3sat(7000 + i, n, ratio)
    for seed, n, ratio in ((1, 40, 3), (2, 60, 4), (3, 60, 4)):
        yield f"mixed-n{n}-r{ratio}-s{seed}", _mixed_length(seed, n, ratio)


def golden_configs(seed):
    """The 8 criterion-4 heuristic configs with reduce_interval=10, so
    reduce_learned and its full re-propagation fire; the default config;
    two configs that restart and delete often; and a conflict budget."""
    base = dict(reduce_interval=10, seed=seed)
    configs = [
        SolverConfig(restart=r, deletion=d, decay=dc, **base)
        for r in (LubyRestarts(100), GlucoseRestarts(50, 0.8))
        for d in (KeepLbdCutAtMost(5), KeepSizeAtMost(12))
        for dc in (0.95, 0.6)
    ]
    configs += [
        SolverConfig(seed=seed),
        SolverConfig(restart=LubyRestarts(2), deletion=KeepSizeAtMost(1), **base),
        SolverConfig(
            restart=GlucoseRestarts(5, 1.25), deletion=KeepLbdCutAtMost(1),
            decay=0.8, **base
        ),
        SolverConfig(conflict_budget=25, **base),
    ]
    return configs


def _config_id(cfg):
    budget = f"|budget:{cfg.conflict_budget}" if cfg.conflict_budget else ""
    return f"{cfg.label()}|reduce:{cfg.reduce_interval}|seed:{cfg.seed}{budget}"


def golden_cases():
    """One record per (formula, config) with the full SolveStats dict."""
    for i, (name, f) in enumerate(golden_formulas()):
        for cfg in golden_configs(seed=i):
            yield {
                "formula": name,
                "formula_hash": content_hash(f),
                "config": _config_id(cfg),
                "stats": solve(f, cfg).to_dict(),
            }


class TestGoldenStats:
    """Search trajectories are pinned: any change to propagation order,
    branching, restarts or deletion shows up as a changed SolveStats."""

    def test_solve_stats_match_golden_corpus(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        actual = list(golden_cases())
        assert len(actual) == len(golden)
        for got, want in zip(actual, golden):
            assert got == want, (want["formula"], want["config"])

    def test_corpus_covers_the_heuristics(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        stats = [case["stats"] for case in golden]
        results = {s["result"] for s in stats}
        assert results == {"SAT", "UNSAT", "BUDGET"}
        assert sum(s["learned_deleted"] for s in stats) > 0
        for policy in ("luby:", "glucose:"):
            assert any(
                s["restarts"] > 0
                for case, s in zip(golden, stats)
                if case["config"].startswith(policy)
            ), policy


if __name__ == "__main__":
    # Re-record the golden corpus (only after a deliberate change of the
    # search): PYTHONPATH=src python tests/test_solver.py
    cases = list(golden_cases())
    GOLDEN_PATH.write_text(
        "[\n" + ",\n".join(json.dumps(c, sort_keys=True) for c in cases) + "\n]\n"
    )
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")
