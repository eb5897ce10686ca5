"""Exact model counting.

count_with_marginals is a DPLL-style counter in the manner of sharpSAT
(Thurley, SAT 2006). Each step asserts a literal and propagates unit
clauses to fixpoint in one loop over occurrence lists, splits the residual
into connected components over its variables, looks each component up in a
cache keyed by its clause ids and variables, and on a miss branches on the
variable with the largest occurrence product (pos + 1) * (neg + 1), where a
binary clause weighs 5 and ties go to the lowest variable (Sang, Beame &
Kautz, SAT 2005). A node of CountBudget.max_nodes is one such component
step. The steps run on one explicit stack, so the search has no depth
limit. In one pass the counter returns the model count and, per variable,
the number of models that set the variable true; count_models is its count
half. count_models_bruteforce is an independent truth-table oracle used by
the test suite. All count total assignments over all declared variables,
so a variable that occurs in no clause doubles the count.

find_model is the satisfiability probe: it asks the CDCL solver of
satentropy.solver for one model and counts nothing.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice

from .cnf import CnfFormula, Clause
from .solver import solve


class BudgetExceeded(RuntimeError):
    """The counting run hit its configured resource budget."""


@dataclass
class CountBudget:
    """Resource limits for one counting run; None means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        # a NaN deadline would compare false and silently never expire
        if self.max_seconds != self.max_seconds:
            raise ValueError(f"time budget must be a number, not {self.max_seconds}")


# Memory guard on the component cache of one counting run. Past it, the
# oldest quarter of the entries is evicted at once (FIFO): evicting one at a
# time through next(iter(dict)) rescans the deleted slots at the front of
# the dict, which is quadratic.
_MAX_CACHE_ENTRIES = 1_000_000


@dataclass
class _Run:
    """One counting pass: budget, component cache, and the ids (indices into
    `clauses`) of the clauses holding each literal (occ) and variable (var_occ)."""

    clauses: list
    budget: CountBudget = field(default_factory=CountBudget)
    nodes: int = 0
    deadline: float | None = None
    cache: dict[tuple, tuple[int, dict]] = field(default_factory=dict)

    def __post_init__(self):
        if self.budget.max_seconds is not None:
            self.deadline = time.monotonic() + self.budget.max_seconds
        occ = self.occ = {}
        for i, cl in enumerate(self.clauses):
            for l in cl:
                occ.setdefault(l, []).append(i)
        self.var_occ = {abs(l): frozenset(occ[l] + occ.get(-l, [])) for l in occ}

    def tick(self):
        self.nodes += 1
        if self.budget.max_nodes is not None and self.nodes > self.budget.max_nodes:
            raise BudgetExceeded(f"node budget {self.budget.max_nodes} exceeded")
        # the clock is read on the first node and every 256th after it
        if self.deadline is not None and self.nodes % 256 == 1:
            if time.monotonic() > self.deadline:
                raise BudgetExceeded(
                    f"time budget {self.budget.max_seconds}s exceeded"
                )

    def cache_put(self, key: tuple, value: tuple[int, dict]):
        cache = self.cache
        cache[key] = value
        if len(cache) > _MAX_CACHE_ENTRIES:
            for old in list(islice(cache, len(cache) // 4)):
                del cache[old]


def _propagate(res: dict, lits, occ: dict) -> tuple[dict, set, set] | None:
    """Assert `lits`, then every implied unit, to fixpoint in one loop.

    `res` maps clause ids to residual clauses of two or more literals.
    Returns the new residual, every asserted literal and the residual's
    variables; None on conflict.
    """
    res = dict(res)
    asserted = set(lits)
    if any(-l in asserted for l in asserted):
        return None
    queue = list(asserted)
    for u in queue:
        for i in occ.get(u, ()):
            res.pop(i, None)
        for i in occ.get(-u, ()):
            cl = res.get(i)
            if cl is None:
                continue
            if len(cl) > 2:
                res[i] = tuple([l for l in cl if l != -u])
                continue
            del res[i]
            l = cl[0] if cl[1] == -u else cl[1]
            if l not in asserted:
                if -l in asserted:
                    return None
                asserted.add(l)
                queue.append(l)
    return res, asserted, set(map(abs, set().union(*res.values())))


def _components(res: dict, variables: set, var_occ: dict) -> list[tuple[dict, set]]:
    """Split a residual over `variables` into variable-connected components
    by breadth-first search over the clauses that hold each variable."""
    comps = []
    todo = set(variables)
    while todo:
        frontier = {todo.pop()}
        cvars, ids = set(frontier), set()
        while frontier:
            new = res.keys() & set().union(*[var_occ[v] for v in frontier])
            new -= ids
            ids |= new
            frontier = set(map(abs, set().union(*[res[i] for i in new]))) - cvars
            cvars |= frontier
        todo -= cvars
        comps.append((res if len(ids) == len(res) else {i: res[i] for i in ids}, cvars))
    return comps


def _count(res: dict, variables: set, lits, run: _Run):
    """One decision: the models over `variables` of residual `res` with `lits`
    asserted, and per variable the number of models setting it true; (0, {})
    on conflict. Variables missing from the marginal dict are true in none.

    A generator: it yields each branch of a component as the arguments of
    that branch's step, (res, variables, lits), and is sent back the step's
    (count, marginals). The residual's variables are counted component by
    component, one node each; the others were asserted, so each is true in
    all models or in none, or vanished unassigned, so each doubles the count
    and is true in half the models. Cached results are never mutated.
    """
    residual = _propagate(res, lits, run.occ)
    if residual is None:
        return 0, {}
    res, asserted, rvars = residual
    parts = []
    total = 1
    for comp, cvars in _components(res, rvars, run.var_occ):
        run.tick()
        # the clause ids and variables fix each residual clause: the original
        # clause's literals over `cvars`
        key = (frozenset(comp), frozenset(cvars))
        part = run.cache.get(key)
        if part is None:
            # occurrence product, a binary clause weighing 5; ties to the lowest variable
            occ = Counter(chain.from_iterable(comp.values()))
            occ.update(chain.from_iterable([cl for cl in comp.values() if len(cl) == 2] * 4))
            v = -max([((occ.get(u, 0) + 1) * (occ.get(-u, 0) + 1), -u) for u in cvars])[1]
            count, marg = yield comp, cvars, (v,)
            neg_count, neg_marg = yield comp, cvars, (-v,)
            if marg:
                for u, m in neg_marg.items():
                    marg[u] = marg.get(u, 0) + m
            else:
                marg = neg_marg
            part = (count + neg_count, marg)
            run.cache_put(key, part)
        total *= part[0]
        if total == 0:
            return 0, {}
        parts.append(part)
    free = variables - rvars - set(map(abs, asserted))
    k = len(free)
    # each marginal is scaled by the product of the other components' counts
    marg = {}
    for count, comp_marg in parts:
        scale = (total // count) << k
        for v, m in comp_marg.items():
            marg[v] = m * scale
    total <<= k
    marg.update(dict.fromkeys(free, total >> 1))
    marg.update((l, total) for l in asserted if l > 0)
    return total, marg


def count_with_marginals(
    formula: CnfFormula, budget: CountBudget | None = None
) -> tuple[int, dict[int, int]]:
    """Exact model count and, for every variable v in 1..num_vars, the number
    of models that set v true, from one counting pass.

    The budget bounds that single pass. Marginals are exact integers, so
    marginals[v] == count_conditioned(formula, v) for every v.
    """
    n = formula.num_vars
    if not all(formula.clauses):
        return 0, dict.fromkeys(range(1, n + 1), 0)
    # _propagate needs distinct literals; a directly built Clause may repeat one
    clauses = [tuple(set(cl)) for cl in formula.clause_lists()]
    run = _Run(clauses, budget or CountBudget())
    units = [cl[0] for cl in clauses if len(cl) == 1]
    res = {i: cl for i, cl in enumerate(clauses) if len(cl) > 1}
    # the steps run on one explicit stack, the innermost last: no recursion
    stack, sent = [_count(res, set(range(1, n + 1)), units, run)], None
    while stack:
        try:
            stack.append(_count(*stack[-1].send(sent), run))
            sent = None
        except StopIteration as done:
            stack.pop()
            sent = done.value
    total, marg = sent
    return total, {v: marg.get(v, 0) for v in range(1, n + 1)}


def count_models(formula: CnfFormula, budget: CountBudget | None = None) -> int:
    """Exact number of total satisfying assignments of the formula."""
    return count_with_marginals(formula, budget)[0]


def conditioned_formula(formula: CnfFormula, lit: int) -> CnfFormula:
    """The formula with a unit clause asserting `lit` appended."""
    if not 1 <= abs(lit) <= formula.num_vars:
        raise ValueError(f"literal {lit} out of range for {formula.num_vars} vars")
    return CnfFormula(formula.num_vars, formula.clauses + (Clause((lit,)),))


def count_conditioned(
    formula: CnfFormula, lit: int, budget: CountBudget | None = None
) -> int:
    """#SAT(formula AND lit), without mutating the input formula."""
    return count_models(conditioned_formula(formula, lit), budget)


_BRUTEFORCE_MAX_VARS = 30
_BITMASK_MAX_VARS = 22  # truth-table masks stay under ~1 MB per variable


def _bitmask_count(clauses, nvars: int) -> int:
    """Truth-table count over nvars variables via bit-parallel masks."""
    n_assign = 1 << nvars
    all_ones = (1 << n_assign) - 1
    # var_mask[v] has bit a set iff assignment a sets variable v true
    var_mask = [0] * (nvars + 1)
    for v in range(1, nvars + 1):
        half = 1 << (v - 1)
        m = ((1 << half) - 1) << half
        span = half << 1
        while span < n_assign:
            m |= m << span
            span <<= 1
        var_mask[v] = m

    sat = all_ones
    for cl in clauses:
        cm = 0
        for l in cl:
            if l > 0:
                cm |= var_mask[l]
            else:
                cm |= var_mask[-l] ^ all_ones
        sat &= cm
        if sat == 0:
            return 0
    return sat.bit_count()


def _condition(clauses, true_lits: set) -> list[tuple]:
    """The clauses not satisfied by `true_lits`, without their false literals.

    Part of the brute-force oracle only: the counter conditions through
    _propagate, so the two share no conditioning code.
    """
    false_lits = {-l for l in true_lits}
    return [
        tuple(l for l in cl if l not in false_lits)
        for cl in clauses
        if true_lits.isdisjoint(cl)
    ]


def count_models_bruteforce(formula: CnfFormula) -> int:
    """Count by exhaustive enumeration of all 2^n assignments.

    Independent of count_models: a straight truth-table sweep (bit-parallel
    for speed, with the high variables enumerated explicitly when n exceeds
    the mask width). Rejects formulas with more than 30 variables.
    """
    n = formula.num_vars
    if n > _BRUTEFORCE_MAX_VARS:
        raise ValueError(f"brute force limited to {_BRUTEFORCE_MAX_VARS} vars, got {n}")
    clauses = formula.clause_lists()
    if any(len(cl) == 0 for cl in clauses):
        return 0
    nlow = min(n, _BITMASK_MAX_VARS)
    if n == nlow:
        return _bitmask_count(clauses, n)

    # enumerate assignments to the high variables, bitmask over the low ones
    total = 0
    nhigh = n - nlow
    for bits in range(1 << nhigh):
        true_lits = set()
        for i in range(nhigh):
            v = nlow + 1 + i
            true_lits.add(v if (bits >> i) & 1 else -v)
        # an emptied clause makes the bitmask count 0
        total += _bitmask_count(_condition(clauses, true_lits), nlow)
    return total


def find_model(formula: CnfFormula) -> dict[int, bool] | None:
    """A satisfying total assignment, or None if unsatisfiable.

    The model of one CDCL solve under the default SolverConfig, which the
    solver checks against the formula before returning it; the shared
    satisfiability probe of backbone extraction and the generator.
    """
    return solve(formula).model
