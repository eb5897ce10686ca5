import json
import random
from pathlib import Path

import pytest

from satentropy.cnf import CnfFormula, content_hash, evaluate
from satentropy.counter import count_models, count_models_bruteforce
from satentropy.pipeline import PAIRED_PLANS
from satentropy.solver import (
    CONFIG_KEYS,
    DeletionPolicy,
    GlucoseRestarts,
    KeepLbdCutAtMost,
    KeepSizeAtMost,
    LearnedClauseMeta,
    LubyRestarts,
    RestartPolicy,
    SolverConfig,
    glucose_restart_due,
    luby,
    reduce_database,
    _UNASSIGNED,
    _Solver,
    _satisfied,
    solve,
)
from conftest import (
    backbone_literals,
    criterion_1_corpus,
    criterion_2_corpus,
    random_3sat,
    random_formula,
)


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
            lits=list(range(1, size + 1)), lbd_cut=lbd_cut, activity=activity
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

    def test_solver_keeps_every_reason_clause(self):
        # analyze resolves on the reasons of the trail's literals, so no
        # reduction may delete a learned clause that is one; with a cut of 1
        # and a reduction after every conflict, nearly every learned clause
        # is a deletion candidate
        protected, failures = [], []

        class Checking(_Solver):
            def reduce_learned(self):
                super().reduce_learned()
                learned = {id(m) for m in self.learned}
                for lit in self.trail:
                    rec = self.reason[abs(lit)]
                    if rec is None or rec[1] is None:
                        continue
                    protected.append(rec)
                    if id(rec[1]) not in learned or rec[0] is not rec[1].lits:
                        failures.append((self.conflicts, lit))

        deleted = 0
        for seed in range(3):
            cfg = SolverConfig(
                deletion=KeepLbdCutAtMost(1), reduce_interval=1, seed=seed
            )
            st = Checking(random_3sat(seed, 50, 4.26), cfg).solve()
            deleted += st.learned_deleted
        assert deleted > 0 and protected
        assert failures == []


class TestPolicyText:
    # (policy, its label); the defaults, every PAIRED_PLANS policy, and a
    # margin that the label rounds
    LABELS = [
        (LubyRestarts(), "luby:100"),
        (GlucoseRestarts(), "glucose:50:0.8"),
        (KeepLbdCutAtMost(), "lbd:5"),
        (KeepSizeAtMost(), "size:12"),
        (KeepLbdCutAtMost(1), "lbd:1"),
        (GlucoseRestarts(50, 0.8123457), "glucose:50:0.812346"),
    ]

    def test_every_paired_plan_policy_is_covered(self):
        planned = {v for _, a, b in PAIRED_PLANS.values() for v in (a, b)}
        policies = {v for v in planned if not isinstance(v, float)}
        assert policies and policies <= {policy for policy, _ in self.LABELS}

    @pytest.mark.parametrize("policy, label", LABELS, ids=[l for _, l in LABELS])
    def test_spec_parses_back_and_label_is_unchanged(self, policy, label):
        family = RestartPolicy if isinstance(policy, RestartPolicy) else DeletionPolicy
        assert family.parse(policy.spec()) == policy
        assert policy.label() == label

    @pytest.mark.parametrize(
        "family, spec, message",
        [
            (RestartPolicy, "luby:100:5", "restart policy 'luby:100:5' has 2 fields "
             "after 'luby:'; use luby:N"),
            (DeletionPolicy, "lbd:5:3", "deletion criterion 'lbd:5:3' has 2 fields "
             "after 'lbd:'; use lbd:N"),
            (DeletionPolicy, "size:12:1", "deletion criterion 'size:12:1' has 2 "
             "fields after 'size:'; use size:N"),
        ],
        ids=["luby", "lbd", "size"],
    )
    def test_a_value_too_many_is_refused(self, family, spec, message):
        with pytest.raises(ValueError) as raised:
            family.parse(spec)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "spec, policy",
        [
            ("glucose:40:", GlucoseRestarts(40, 0.8)),
            ("glucose::", GlucoseRestarts(50, 0.8)),
            ("luby:", LubyRestarts(100)),
        ],
    )
    def test_an_empty_value_takes_its_default(self, spec, policy):
        assert RestartPolicy.parse(spec) == policy

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: LubyRestarts(0),
             "base_interval must be an integer of at least 1, not 0"),
            (lambda: KeepSizeAtMost(-1),
             "size must be an integer of at least 1, not -1"),
            (lambda: GlucoseRestarts(50, float("nan")),
             "margin must be a positive finite number, not nan"),
        ],
        ids=["luby", "size", "glucose"],
    )
    def test_a_directly_built_policy_names_its_field_and_value(self, build, message):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message


class TestDictKeys:
    STATS = ["result", "conflicts", "decisions", "propagations", "restarts",
             "learned_kept", "learned_deleted"]

    def test_solve_stats_keys_are_in_field_order_with_the_model_last(self):
        sat = solve(random_3sat(1, 20, 3))
        unsat = solve(CnfFormula.from_clause_lists(1, [[1], [-1]]))
        budget = solve(random_3sat(5, 40, 6), SolverConfig(conflict_budget=1))
        assert (sat.result, unsat.result, budget.result) == ("SAT", "UNSAT", "BUDGET")
        assert list(sat.to_dict()) == self.STATS + ["model"]
        assert list(unsat.to_dict()) == list(budget.to_dict()) == self.STATS

    def test_config_spec_has_the_config_keys_and_reads_back(self):
        configs = [
            SolverConfig(**{field: value}, reduce_interval=300)
            for field, a, b in PAIRED_PLANS.values()
            for value in (a, b)
        ]
        for config in configs:
            assert list(config.spec()) == list(CONFIG_KEYS)
            assert SolverConfig.from_spec(config.spec()) == config

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"reduce_interval": 1.5}, "reduce_interval must be an integer, not 1.5"),
            ({"reduce_interval": True}, "reduce_interval must be an integer, not True"),
            ({"decay": "0.5x"}, "decay must be a number, not '0.5x'"),
        ],
    )
    def test_a_number_is_read_from_its_text(self, spec, message):
        # run.json's values take the flags' path: 1.5 is no integer
        with pytest.raises(ValueError) as e:
            SolverConfig.from_spec(spec)
        assert str(e.value) == message


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

        monkeypatch.setattr(solver, "_satisfied", lambda clause_lits, value: False)
        with pytest.raises(RuntimeError, match="model failed verification"):
            solve(CnfFormula.from_clause_lists(2, [[1, 2]]))

    def test_flipped_variable_fails_verification(self):
        # the check reads the literal-indexed value array, not a model dict
        f = random_3sat(3, 20, 4.0)
        flipped = []

        class Flipping(_Solver):
            def pick_branch_var(self):
                v = super().pick_branch_var()
                if v is None:  # full assignment: flip the one true literal of a clause
                    value = self.value
                    assert _satisfied(f.clause_lists(), value)
                    lit = next(
                        l
                        for lits in f.clause_lists()
                        if sum(value[x] == 1 for x in lits) == 1
                        for l in lits
                        if value[l] == 1
                    )
                    value[lit], value[-lit] = 0, 1
                    flipped.append(lit)
                    assert not _satisfied(f.clause_lists(), value)
                return v

        with pytest.raises(RuntimeError, match="^model failed verification"):
            Flipping(f, SolverConfig()).solve()
        assert len(flipped) == 1

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
        for interval in (0, -5):
            with pytest.raises(ValueError, match="reduce_interval must be at least 1"):
                SolverConfig(reduce_interval=interval)
        with pytest.raises(ValueError):
            LubyRestarts(0)
        with pytest.raises(ValueError):
            KeepLbdCutAtMost(0)


class _RecordingVsids(_Solver):
    """Keeps (activities, var_inc, activities after, var_inc after, clause)
    for each analyze call."""

    def analyze(self, conflict_rec):
        before, inc = list(self.activity), self.var_inc
        learned, bj, lbd = super().analyze(conflict_rec)
        self.steps.append((before, inc, list(self.activity), self.var_inc, learned))
        return learned, bj, lbd


class TestVsidsInvariance:
    """analyze holds each conflict's VSIDS step: var_inc is added to the
    activity of every variable resolved on, once, and var_inc then grows
    by 1/decay, which rescales all activities alike; so variables left
    untouched keep their order."""

    def test_decay_preserves_relative_order(self):
        s = _RecordingVsids(random_3sat(2, 40, 4.26), SolverConfig(seed=1, decay=0.8))
        s.steps = []
        s.solve()
        assert len(s.steps) > 20
        for before, inc, after, inc_after, learned in s.steps:
            assert inc_after == inc / 0.8 < 1e100
            bumped = {v for v in range(1, s.n + 1) if after[v] != before[v]}
            assert {abs(l) for l in learned} <= bumped
            for v in bumped:
                assert after[v] == before[v] + inc

    def test_rescale_keeps_the_order_of_untouched_variables(self):
        s = _RecordingVsids(random_3sat(2, 20, 4.26), SolverConfig(seed=1))
        s.steps = []
        s.activity = [v * 1e90 for v in range(s.n + 1)]
        s.var_inc = 2e100  # the first bump passes 1e100
        s.solve()
        before, inc, after, inc_after, _ = s.steps[0]
        assert inc_after == 2e100 * 1e-100 / 0.95
        assert max(after) < 1e100
        untouched = [v for v in range(1, s.n + 1) if after[v] == before[v] * 1e-100]
        assert len(untouched) > s.n // 2
        assert [after[v] for v in untouched] == sorted(after[v] for v in untouched)


class TestWatchInvariant:
    def test_every_record_watches_its_first_two_literals(self):
        # after each propagate, every live clause record sits once in the
        # watch list of lits[0] and once in that of lits[1], and nowhere else
        class Checking(_Solver):
            checks = 0

            def propagate(self):
                conflict = super().propagate()
                live = [m.lits for m in self.learned] + self.clauses
                places = {id(lits): [] for lits in live}
                size = len(self.watches)
                for index, watchlist in enumerate(self.watches):
                    lit = index if index <= self.n else index - size
                    for lits, _ in watchlist:
                        places[id(lits)].append(lit)
                for lits in live:
                    assert sorted(places[id(lits)]) == sorted(lits[:2])
                Checking.checks += 1
                return conflict

        deleted = 0
        for seed in range(6):
            f = random_3sat(500 + seed, 60, 4.26)
            st = Checking(f, SolverConfig(seed=seed, reduce_interval=10)).solve()
            deleted += st.learned_deleted
        assert deleted > 0 and Checking.checks > 100


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
            bb = backbone_literals(f)
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

            def enqueue(self, lit, reason=None):
                return super().enqueue(-lit if lit == self.flip else lit, reason)

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


# ---------------------------------------------------- golden probe corpus

PROBE_GOLDEN_PATH = Path(__file__).with_name("golden_probe_stats.json")

# (n, ratio, formula seed, config): satisfiable 3-SAT, probed on one
# instance; two configs reduce every 10 conflicts
PROBE_CASES = [
    (20, 4.26, 8000, SolverConfig()),
    (30, 4.26, 8001, SolverConfig()),
    (40, 4.0, 8000, SolverConfig(seed=3)),
    (50, 4.0, 8000, SolverConfig(reduce_interval=10, seed=1)),
    (60, 3.9, 8000, SolverConfig(reduce_interval=10, decay=0.6)),
    (60, 4.2, 8000, SolverConfig(
        restart=GlucoseRestarts(), deletion=KeepSizeAtMost(), reduce_interval=10,
        seed=2,
    )),
]


def golden_probe_cases():
    """One record per formula: a solve, then a probe of each candidate in
    `entropy.backbone_size`'s order, with the counts after each probe."""
    for n, ratio, seed, cfg in PROBE_CASES:
        f = random_3sat(seed, n, ratio)
        s = _Solver(f, cfg)
        candidates = s.solve().model
        probes = []
        for v in range(1, n + 1):
            if v not in candidates:
                continue
            assume = -v if candidates[v] else v
            model = s.probe(assume)
            if model is not None:
                candidates = {u: b for u, b in candidates.items() if model[u] == b}
            stats = s._stats("SAT" if model else "UNSAT", model).to_dict()
            del stats["result"]
            # to_dict leaves out a None model
            probes.append({"assume": assume, "model": None, **stats})
        yield {
            "formula": f"3sat-n{n}-r{ratio}-s{seed}",
            "formula_hash": content_hash(f),
            "config": _config_id(cfg),
            "probes": probes,
        }


class TestGoldenProbes:
    """The probe path is pinned like solve: each probe's model and the
    solver's running counts after it."""

    def test_probe_stats_match_golden_corpus(self):
        golden = json.loads(PROBE_GOLDEN_PATH.read_text())
        actual = list(golden_probe_cases())
        assert len(actual) == len(golden)
        for got, want in zip(actual, golden):
            assert got == want, want["formula"]

    def test_corpus_covers_the_probe_path(self):
        golden = json.loads(PROBE_GOLDEN_PATH.read_text())
        probes = [p for case in golden for p in case["probes"]]
        assert {p["model"] is None for p in probes} == {True, False}
        assert any(p["learned_deleted"] > 0 for p in probes)
        assert any(p["restarts"] > 0 for p in probes)


if __name__ == "__main__":
    # Re-record the golden corpora (only after a deliberate change of the
    # search): PYTHONPATH=src python tests/test_solver.py
    corpora = ((GOLDEN_PATH, golden_cases), (PROBE_GOLDEN_PATH, golden_probe_cases))
    for path, make in corpora:
        cases = list(make())
        path.write_text(
            "[\n" + ",\n".join(json.dumps(c, sort_keys=True) for c in cases) + "\n]\n"
        )
        print(f"wrote {len(cases)} cases to {path}")
