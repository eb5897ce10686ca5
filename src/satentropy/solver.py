"""A CDCL SAT solver with switchable restart, deletion and decay heuristics.

The solver is a standard conflict-driven clause learner: two-watched-literal
propagation, first-UIP learning, non-chronological backjumping, phase saving
and exponential VSIDS. The three knobs under study are pluggable: restart
policy (Luby vs dynamic LBD-based), learned clause deletion criterion
(LBD-cut vs size) and the VSIDS decay factor. Its primary observable output
is the number of conflicts.

One search loop serves two entry points. `solve` runs it once on a fresh
instance. `_Solver.probe(lit)`, called after a solve on the same instance,
runs it again under the single assumption `lit`: the literal is the level-1
decision, placed again after every restart, and the answer is None once it
is false at level 0. Learned clauses carry over from probe to probe, which
is the one-instance backbone loop of Janota, Lynce & Marques-Silva
(AI Communications 2015) on a MiniSat-style assumption interface.

Assignments and watches are literal-indexed, as in MiniSat (Een & Sorensson,
"An extensible SAT-solver", SAT 2003): `value` and `watches` are flat lists
of length 2n + 1 where literal l lives at index l, so -v lands in the upper
half by Python's negative indexing and `value[lit]` is the literal's truth
value. Propagation keeps its state in locals and looks for a new watch in a
k-literal clause at lits[2], then over the prebuilt `scan[k]` = range(3, k),
a table that reaches the longest clause (a problem clause may repeat a
literal). `analyze` bumps and decays VSIDS activity in locals, backjumping
cuts the trail at a level boundary in one slice, and the restart checks
keep running totals. None of this may change the search: watch lists keep
their order and swap-with-last removal, clauses their literal order and
VSIDS its float operations, and golden corpora in the tests pin `SolveStats`
for fixed (formula, config, seed) triples and for each backbone probe.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, fields
from typing import Iterable

from .cnf import CnfFormula


# ---------------------------------------------------------------- configs

# a policy field's (wording, test) by its default's type; NaN fails the float
# test, since a NaN margin would compare false and silently never restart
_ALLOWED = {
    int: ("an integer of at least 1", lambda x: x >= 1),
    float: ("a positive finite number", lambda x: 0.0 < x < float("inf")),
}


class _Policy:
    """A heuristic setting, written KIND:v1:v2:... with one value per
    dataclass field in field order, each named by its letter in USAGE. A
    family's parse reads any of its kinds; an omitted or empty value takes
    its field's default."""

    def __post_init__(self):
        for f in fields(self):
            wording, allows = _ALLOWED[type(f.default)]
            value = getattr(self, f.name)
            if not allows(value):
                raise ValueError(f"{f.name} must be {wording}, not {value}")

    def _text(self, show_float) -> str:
        text = [self.KIND]
        for f in fields(self):
            value = getattr(self, f.name)
            text.append(show_float(value) if isinstance(f.default, float) else str(value))
        return ":".join(text)

    def label(self) -> str:
        """The text, with each float to 6 significant digits."""
        return self._text(lambda x: f"{x:g}")

    def spec(self) -> str:
        """The text that parse reads back to this policy exactly."""
        return self._text(repr)

    @classmethod
    def usage(cls) -> str:
        """The family's grammar, as in `luby:N or glucose:W:M`."""
        return " or ".join(k.USAGE for k in cls.__subclasses__())

    @classmethod
    def parse(cls, spec: str):
        """The policy of this family that spec writes; ValueError otherwise."""
        kinds = {k.KIND: k for k in cls.__subclasses__()}
        kind, *values = spec.split(":")
        if kind not in kinds:
            raise ValueError(f"unknown {cls.NOUN} {spec!r} (use {cls.usage()})")
        policy = kinds[kind]
        slots = fields(policy)
        if len(values) > len(slots):
            raise ValueError(
                f"{cls.NOUN} {spec!r} has {len(values)} fields after "
                f"'{kind}:'; use {policy.USAGE}"
            )
        given = {}
        for f, letter, text in zip(slots, policy.USAGE.split(":")[1:], values):
            wording, allows = _ALLOWED[type(f.default)]
            try:
                given[f.name] = value = type(f.default)(text or f.default)
                if not allows(value):
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"{cls.NOUN} {spec!r}: {letter} must be {wording}, not {text}; "
                    f"use {policy.USAGE}"
                ) from None
        return policy(**given)


class RestartPolicy(_Policy):
    NOUN = "restart policy"


class DeletionPolicy(_Policy):
    NOUN = "deletion criterion"


@dataclass(frozen=True)
class LubyRestarts(RestartPolicy):
    """Restart after luby(i) * base_interval conflicts, i = 1, 2, ..."""

    KIND, USAGE = "luby", "luby:N"
    base_interval: int = 100


@dataclass(frozen=True)
class GlucoseRestarts(RestartPolicy):
    """Restart when recent learned-clause LBD exceeds the long-run average."""

    KIND, USAGE = "glucose", "glucose:W:M"
    window: int = 50
    margin: float = 0.8


@dataclass(frozen=True)
class KeepLbdCutAtMost(DeletionPolicy):
    """Never delete learned clauses whose LBD-cut is at most `cut`."""

    KIND, USAGE = "lbd", "lbd:N"
    cut: int = 5

    def keeps(self, clause: "LearnedClauseMeta") -> bool:
        return clause.lbd_cut <= self.cut


@dataclass(frozen=True)
class KeepSizeAtMost(DeletionPolicy):
    """Never delete learned clauses of at most `size` literals."""

    KIND, USAGE = "size", "size:N"
    size: int = 12

    def keeps(self, clause: "LearnedClauseMeta") -> bool:
        return clause.size <= self.size


@dataclass(frozen=True)
class SolverConfig:
    restart: RestartPolicy = LubyRestarts()
    deletion: DeletionPolicy = KeepLbdCutAtMost(5)
    decay: float = 0.95
    reduce_interval: int = 2000
    seed: int = 0
    conflict_budget: int | None = None

    def __post_init__(self):
        if not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay must be strictly between 0 and 1, not {self.decay}")
        for name in ("reduce_interval", "conflict_budget"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, not {value}")

    def label(self) -> str:
        return f"{self.restart.label()}|{self.deletion.label()}|decay:{self.decay:g}"

    def spec(self) -> dict:
        """The config keys' values, which from_spec reads back exactly."""
        values = {key: getattr(self, field) for key, (field, _) in CONFIG_KEYS.items()}
        return {k: v.spec() if isinstance(v, _Policy) else v for k, v in values.items()}

    @classmethod
    def from_spec(cls, spec: dict, **given) -> "SolverConfig":
        """The config that spec's config keys and the given fields set;
        ValueError on an unknown key or a bad value."""
        return cls(**config_fields(spec), **given)


# config key -> (SolverConfig field, parser of its text); the configs in
# run.json and the flags of solve and experiment run share these keys
CONFIG_KEYS = {
    "restart": ("restart", RestartPolicy.parse),
    "keep": ("deletion", DeletionPolicy.parse),
    "decay": ("decay", float),
    "reduce_interval": ("reduce_interval", int),
}
_NUMBERS = {float: "a number", int: "an integer"}


def config_fields(spec: dict) -> dict:
    """The SolverConfig fields that spec's config keys set, parsed from
    their text, so 1.5 is no integer; ValueError on an unknown key or a
    bad value, naming the key and the value of a number."""
    given = {}
    for key, value in spec.items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown key {key!r}")
        field, parse = CONFIG_KEYS[key]
        try:
            given[field] = parse(str(value))
        except ValueError:
            if parse not in _NUMBERS:
                raise
            raise ValueError(f"{key} must be {_NUMBERS[parse]}, not {value!r}") from None
    return given


@dataclass
class SolveStats:
    result: str  # "SAT" | "UNSAT" | "BUDGET"
    model: dict[int, bool] | None
    conflicts: int
    decisions: int
    propagations: int
    restarts: int
    learned_kept: int
    learned_deleted: int

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "model"}
        if self.model is not None:
            d["model"] = [v if self.model[v] else -v for v in sorted(self.model)]
        return d


# ------------------------------------------------------------- primitives

def luby(i: int) -> int:
    """The i-th element of the Luby sequence (1,1,2,1,1,2,4,...), i >= 1."""
    if i < 1:
        raise ValueError("luby is defined for i >= 1")
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


def glucose_restart_due(
    recent_lbds: Iterable[int], window: int, global_lbd_mean: float, margin: float
) -> bool:
    """True iff the recent-LBD window is full and its scaled mean exceeds
    the global mean. The solver applies this rule to a running window sum."""
    recent = list(recent_lbds)
    if len(recent) < window:
        return False
    return (sum(recent) / len(recent)) * margin > global_lbd_mean


@dataclass
class LearnedClauseMeta:
    """Bookkeeping for one learned clause."""

    lits: list[int]
    lbd_cut: int  # lowest LBD observed so far
    activity: float = 0.0

    @property
    def size(self) -> int:
        return len(self.lits)


def reduce_database(
    learned: list[LearnedClauseMeta],
    criterion: DeletionPolicy,
    protected: frozenset[int] = frozenset(),
) -> tuple[list[LearnedClauseMeta], list[LearnedClauseMeta]]:
    """Partition learned clauses into (kept, deleted).

    Clauses meeting the keep criterion are kept unconditionally, as are
    clauses whose id() is in `protected` (current propagation antecedents).
    Of the remainder, the lowest-activity half is deleted.
    """
    saved, candidates = [], []
    for c in learned:
        if criterion.keeps(c) or id(c) in protected:
            saved.append(c)
        else:
            candidates.append(c)
    candidates.sort(key=lambda c: c.activity)
    half = len(candidates) // 2
    deleted = candidates[:half]
    kept = saved + candidates[half:]
    return kept, deleted


# ------------------------------------------------------------------ CDCL

_UNASSIGNED = -1


def _satisfied(clause_lits: list[tuple[int, ...]], value: list[int]) -> bool:
    """True iff every clause has a literal that is true in `value`."""
    for lits in clause_lits:
        for lit in lits:
            if value[lit] == 1:
                break
        else:
            return False
    return True


class _Solver:
    def __init__(self, formula: CnfFormula, config: SolverConfig):
        self.config = config
        self.n = formula.num_vars
        self.rng = random.Random(config.seed)

        # value[lit] is 1/0/_UNASSIGNED for either polarity: v at slot v,
        # -v at slot 2n + 1 - v by negative indexing
        self.value = [_UNASSIGNED] * (2 * self.n + 1)
        self.level = [0] * (self.n + 1)
        # reason[v]: the clause record that implied v, None for decisions
        # and unit clauses
        self.reason: list[tuple | None] = [None] * (self.n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0

        self.activity = [0.0] * (self.n + 1)
        self.var_inc = 1.0
        self.saved_phase = [bool(self.rng.getrandbits(1)) for _ in range(self.n + 1)]

        # watches[lit]: clause records watching lit, indexed like value; a
        # record is (lits, meta) with meta None for problem clauses
        self.watches: list[list] = []
        self.learned: list[LearnedClauseMeta] = []

        self.conflicts = self.decisions = self.propagations = 0
        self.restart_count = self.learned_deleted_total = 0

        self.luby_limit = self.current_luby_limit()
        self.conflicts_since_restart = 0
        # glucose only: the LBDs of the last `window` conflicts and their sum
        self.recent_lbds: deque[int] = deque()
        self.recent_lbd_sum = 0
        self.lbd_sum = 0
        self.lbd_count = 0
        self.conflicts_since_reduce = 0

        self.unsat = False
        self.units: list[int] = []
        self.clauses: list[list[int]] = []
        # the problem clauses as given, against which each model is checked
        self.clause_lits = formula.clause_lists()
        for lits in self.clause_lits:
            if len(lits) == 0:
                self.unsat = True
            elif len(lits) == 1:
                self.units.append(lits[0])
            else:
                self.clauses.append(list(lits))
        # scan[k]: where propagate looks for a new watch after lits[2]
        longest = max(map(len, self.clause_lits), default=0)
        self.scan = [range(3, k) for k in range(max(self.n, longest) + 1)]

    # ---- assignment plumbing

    def enqueue(self, lit: int, reason=None) -> bool:
        val = self.value[lit]
        if val == 0:
            return False
        if val == _UNASSIGNED:
            v = abs(lit)
            self.value[lit], self.value[-lit] = 1, 0
            self.level[v] = len(self.trail_lim)
            self.reason[v] = reason
            self.trail.append(lit)
        return True

    def watch(self, lits: list[int], meta) -> tuple:
        rec = (lits, meta)
        self.watches[lits[0]].append(rec)
        self.watches[lits[1]].append(rec)
        return rec

    def attach_all(self):
        self.watches = [[] for _ in range(2 * self.n + 1)]
        for lits in self.clauses:
            self.watch(lits, None)
        for meta in self.learned:
            self.watch(meta.lits, meta)

    # ---- propagation

    def propagate(self):
        """Exhaustive unit propagation; returns a conflicting record or None."""
        trail = self.trail
        value = self.value
        watches = self.watches
        level = self.level
        reason = self.reason
        scan = self.scan
        cur_level = len(self.trail_lim)
        qhead = self.qhead
        start = qhead
        conflict = None
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            watchlist = watches[falsified]
            # only the swap-with-last removal below changes this list's length
            i, end = 0, len(watchlist)
            while i < end:
                rec = watchlist[i]
                lits = rec[0]
                # normalize: falsified literal at position 1
                first = lits[0]
                if first == falsified:
                    first = lits[1]
                    lits[0], lits[1] = first, falsified
                if value[first] == 1:
                    i += 1
                    continue
                # look for a replacement watch, lits[2] first
                try:
                    other = lits[2]
                except IndexError:  # binary: no literal to move to
                    other = falsified
                if value[other] != 0:
                    lits[1], lits[2] = other, falsified
                    watches[other].append(rec)
                    end -= 1
                    watchlist[i] = watchlist[end]
                    watchlist.pop()
                    continue
                for j in scan[len(lits)]:
                    other = lits[j]
                    if value[other] != 0:
                        lits[1], lits[j] = other, falsified
                        watches[other].append(rec)
                        end -= 1
                        watchlist[i] = watchlist[end]
                        watchlist.pop()
                        break
                else:
                    # unit or conflicting
                    if value[first] == 0:
                        conflict = rec
                        break
                    v = first if first > 0 else -first
                    value[first] = 1
                    value[-first] = 0
                    level[v] = cur_level
                    reason[v] = rec
                    trail.append(first)
                    i += 1
            if conflict is not None:
                break
        self.propagations += qhead - start
        self.qhead = qhead
        return conflict

    # ---- branching

    def pick_branch_var(self) -> int | None:
        value = self.value
        activity = self.activity
        best_v = None
        best_a = -1.0
        ties = 0
        for v in range(1, self.n + 1):
            if value[v] != _UNASSIGNED:
                continue
            a = activity[v]
            if a > best_a:
                best_v, best_a, ties = v, a, 1
            elif a == best_a:
                # reservoir-style random tie-break, deterministic in seed
                ties += 1
                if self.rng.random() < 1.0 / ties:
                    best_v = v
        return best_v

    # ---- conflict analysis (first UIP)

    def analyze(self, conflict_rec) -> tuple[list[int], int, int]:
        """Learn a first-UIP clause; returns (clause, backjump level, lbd).
        Also VSIDS: bump each variable resolved on, then decay."""
        level = self.level
        trail = self.trail
        reason = self.reason
        activity = self.activity
        var_inc = self.var_inc
        learned: list[int] = [0]  # slot 0 for the asserting literal
        seen = [False] * (self.n + 1)
        counter = 0
        lits, meta = conflict_rec
        trail_idx = len(trail) - 1
        asserting = None
        cur_level = len(self.trail_lim)
        lower_levels = set()  # of the non-asserting literals

        while True:
            if meta is not None:
                meta.activity += 1.0
                lbd = len({level[l if l > 0 else -l] for l in lits})
                if lbd < meta.lbd_cut:
                    meta.lbd_cut = lbd
            for l in lits:
                if l == asserting:
                    continue
                v = l if l > 0 else -l
                if seen[v]:
                    continue
                lv = level[v]
                if lv > 0:
                    seen[v] = True
                    a = activity[v] + var_inc
                    activity[v] = a
                    if a > 1e100:
                        for u in range(1, self.n + 1):
                            activity[u] *= 1e-100
                        var_inc *= 1e-100
                    if lv == cur_level:
                        counter += 1
                    else:
                        learned.append(l)
                        lower_levels.add(lv)
            # walk back to the next marked trail literal
            p = trail[trail_idx]
            while not seen[p if p > 0 else -p]:
                trail_idx -= 1
                p = trail[trail_idx]
            trail_idx -= 1
            v = p if p > 0 else -p
            seen[v] = False
            counter -= 1
            if counter == 0:
                learned[0] = -p
                break
            lits, meta = reason[v]
            asserting = p

        self.var_inc = var_inc / self.config.decay
        # the asserting literal adds the current level to the lbd
        return learned, max(lower_levels, default=0), len(lower_levels) + 1

    def backjump(self, target_level: int):
        # levels never decrease along the trail, so everything above
        # target_level starts at that level's trail_lim entry
        trail = self.trail
        trail_lim = self.trail_lim
        if target_level < len(trail_lim):
            cut = trail_lim[target_level]
            value = self.value
            saved_phase = self.saved_phase
            reason = self.reason
            for lit in trail[cut:]:
                v = lit if lit > 0 else -lit
                saved_phase[v] = lit > 0
                value[lit] = value[-lit] = _UNASSIGNED
                reason[v] = None
            del trail[cut:]
            del trail_lim[target_level:]
        self.qhead = len(trail)

    # ---- restarts

    def current_luby_limit(self) -> int:
        r = self.config.restart
        if isinstance(r, LubyRestarts):
            return luby(self.restart_count + 1) * r.base_interval
        return 0

    def restart_due(self) -> bool:
        r = self.config.restart
        if isinstance(r, LubyRestarts):
            return self.conflicts_since_restart >= self.luby_limit
        # glucose_restart_due on running sums: exact integers, so the means
        # are the same floats; every recent LBD is also counted in lbd_count
        recent = len(self.recent_lbds)
        if recent < r.window:
            return False
        return (self.recent_lbd_sum / recent) * r.margin > self.lbd_sum / self.lbd_count

    def record_lbd(self, lbd: int):
        self.lbd_sum += lbd
        self.lbd_count += 1
        r = self.config.restart
        if isinstance(r, GlucoseRestarts):
            self.recent_lbds.append(lbd)
            self.recent_lbd_sum += lbd
            if len(self.recent_lbds) > r.window:
                self.recent_lbd_sum -= self.recent_lbds.popleft()

    def do_restart(self):
        self.backjump(0)
        self.restart_count += 1
        self.conflicts_since_restart = 0
        self.recent_lbds.clear()
        self.recent_lbd_sum = 0
        self.luby_limit = self.current_luby_limit()

    # ---- database reduction

    def reduce_learned(self):
        protected = frozenset(
            id(rec[1]) for rec in self.reason if rec is not None and rec[1] is not None
        )
        kept, deleted = reduce_database(self.learned, self.config.deletion, protected)
        if deleted:
            self.learned = kept
            self.learned_deleted_total += len(deleted)
            self.attach_all()
            # rebuilt watches may sit on falsified literals; re-propagating
            # the whole trail restores the watch invariant
            self.qhead = 0
        for m in self.learned:
            m.activity *= 0.999

    # ---- main loop

    def solve(self) -> SolveStats:
        if self.unsat:
            return self._stats("UNSAT", None)
        for u in self.units:
            if not self.enqueue(u):
                self.unsat = True
                return self._stats("UNSAT", None)
        self.attach_all()
        return self.search()

    def probe(self, assume: int) -> dict[int, bool] | None:
        """A model in which `assume` is true, or None if there is none.

        Call after solve(). The search restarts from level 0 with `assume`
        as the level-1 decision, placed again after every restart, and
        keeps every clause learned so far: they are implied by the formula
        alone. The answer is None once `assume` is false at level 0.
        """
        if self.unsat:
            return None
        self.backjump(0)
        st = self.search(assume)
        if st.result == "BUDGET":
            raise RuntimeError("conflict budget exhausted during a probe")
        return st.model

    def search(self, assume: int | None = None) -> SolveStats:
        """The CDCL loop from the current trail; with `assume`, the search
        decides that literal first at level 0 and stops with "UNSAT" once
        it is false there."""
        while True:
            conflict = self.propagate()
            if conflict is not None:
                self.conflicts += 1
                self.conflicts_since_restart += 1
                self.conflicts_since_reduce += 1
                if not self.trail_lim:
                    self.unsat = True
                    return self._stats("UNSAT", None)
                learned, bj, lbd = self.analyze(conflict)
                self.backjump(bj)
                self.record_lbd(lbd)
                if len(learned) == 1:
                    self.enqueue(learned[0])
                else:
                    meta = LearnedClauseMeta(lits=learned, lbd_cut=lbd, activity=1.0)
                    self.learned.append(meta)
                    self.enqueue(learned[0], self.watch(learned, meta))
                budget = self.config.conflict_budget
                if budget is not None and self.conflicts >= budget:
                    return self._stats("BUDGET", None)
                if self.conflicts_since_reduce >= self.config.reduce_interval:
                    self.conflicts_since_reduce = 0
                    self.reduce_learned()
                continue

            if self.restart_due():
                self.do_restart()
                continue

            if assume is not None and not self.trail_lim:
                val = self.value[assume]
                if val == 0:
                    return self._stats("UNSAT", None)
                if val == _UNASSIGNED:
                    self.decisions += 1
                    self.trail_lim.append(len(self.trail))
                    self.enqueue(assume)
                    continue
            v = self.pick_branch_var()
            if v is None:
                value = self.value
                if not _satisfied(self.clause_lits, value):
                    raise RuntimeError("model failed verification (soundness bug)")
                if assume is not None and value[assume] != 1:
                    raise RuntimeError("model violates the assumption (soundness bug)")
                model = {u: value[u] == 1 for u in range(1, self.n + 1)}
                return self._stats("SAT", model)
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            lit = v if self.saved_phase[v] else -v
            self.enqueue(lit)

    def _stats(self, result: str, model) -> SolveStats:
        return SolveStats(
            result, model, self.conflicts, self.decisions, self.propagations,
            self.restart_count, len(self.learned), self.learned_deleted_total,
        )


def solve(formula: CnfFormula, config: SolverConfig | None = None) -> SolveStats:
    """Solve a formula under the given heuristic configuration.

    Deterministic for a fixed (formula, config) pair including the seed.
    SAT models are verified against the formula before being returned.
    """
    return _Solver(formula, config or SolverConfig()).solve()
