"""Exact model counting.

count_with_marginals is a DPLL-style counter with unit propagation,
connected component decomposition and component caching. In one pass it
returns the model count and, per variable, the number of models that set
the variable true; count_models is its count half. count_models_bruteforce
is an independent truth-table oracle used by the test suite. All count
total assignments over all declared variables, so a variable that occurs
in no clause doubles the count.

find_model is the satisfiability probe: it asks the CDCL solver of
satentropy.solver for one model and counts nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice

from .cnf import CnfFormula, Clause
from .solver import solve


class BudgetExceeded(RuntimeError):
    """The counting run hit its configured resource budget."""


@dataclass
class CountBudget:
    """Resource limits for one counting run; None means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None


# Memory guard on the component cache of one counting run. Past it, the
# oldest quarter of the entries is evicted at once (FIFO): evicting one at a
# time through next(iter(dict)) rescans the deleted slots at the front of
# the dict, which is quadratic.
_MAX_CACHE_ENTRIES = 1_000_000


@dataclass
class _Run:
    budget: CountBudget = field(default_factory=CountBudget)
    nodes: int = 0
    deadline: float | None = None
    cache: dict[tuple, tuple[int, dict]] = field(default_factory=dict)

    def __post_init__(self):
        if self.budget.max_seconds is not None:
            self.deadline = time.monotonic() + self.budget.max_seconds

    def tick(self):
        self.nodes += 1
        if self.budget.max_nodes is not None and self.nodes > self.budget.max_nodes:
            raise BudgetExceeded(f"node budget {self.budget.max_nodes} exceeded")
        if self.deadline is not None and self.nodes % 256 == 0:
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


def _condition(clauses: tuple, true_lits) -> tuple | None:
    """Residual formula after asserting the given literals; None on conflict."""
    false_lits = {-l for l in true_lits}
    out = []
    for cl in clauses:
        for l in cl:
            if l in true_lits:
                break
        else:
            nl = tuple(l for l in cl if l not in false_lits)
            if not nl:
                return None
            out.append(nl)
    return tuple(out)


def _vars_of(clauses: tuple) -> set[int]:
    return {abs(l) for cl in clauses for l in cl}


def _components(clauses: tuple) -> list[tuple]:
    """Split clauses into variable-connected components."""
    parent: dict[int, int] = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for cl in clauses:
        vs = [abs(l) for l in cl]
        for v in vs:
            parent.setdefault(v, v)
        r = find(vs[0])
        for v in vs[1:]:
            parent[find(v)] = r

    groups: dict[int, list] = {}
    for cl in clauses:
        groups.setdefault(find(abs(cl[0])), []).append(cl)
    return [tuple(g) for g in groups.values()]


def _lift(count: int, marg: dict, free, true_lits) -> tuple[int, dict]:
    """Extend a residual result to the variables conditioning removed.

    `free` vanished without being assigned, so each doubles the count and is
    true in half the models; each literal of `true_lits` was asserted, so its
    variable is true in all models or in none. Always returns a fresh dict.
    """
    if not count:
        return 0, {}
    k = len(free)
    total = count << k
    out = {v: m << k for v, m in marg.items()} if k else dict(marg)
    if k:
        half = count << (k - 1)
        for v in free:
            out[v] = half
    for l in true_lits:
        if l > 0:
            out[l] = total
    return total, out


def _count_marginals(clauses: tuple, run: _Run) -> tuple[int, dict]:
    """Models over exactly the variables occurring in `clauses`, and for each
    of those variables the number of models that set it true.

    Variables missing from the marginal dict are true in no model. Returned
    dicts may be shared with the component cache: callers must not mutate
    them.
    """
    run.tick()
    if not clauses:
        return 1, {}

    # unit propagation
    units = {cl[0] for cl in clauses if len(cl) == 1}
    if units:
        if any(-l in units for l in units):
            return 0, {}
        reduced = _condition(clauses, units)
        if reduced is None:
            return 0, {}
        free = _vars_of(clauses) - _vars_of(reduced) - {abs(l) for l in units}
        return _lift(*_count_marginals(reduced, run), free, units)

    comps = _components(clauses)
    if len(comps) > 1:
        # each marginal is scaled by the product of the other components' counts
        parts = []
        total = 1
        for comp in comps:
            part = _count_marginals(comp, run)
            total *= part[0]
            if total == 0:
                return 0, {}
            parts.append(part)
        marg = {}
        for count, comp_marg in parts:
            scale = total // count
            for v, m in comp_marg.items():
                marg[v] = m * scale
        return total, marg

    key = tuple(sorted(clauses))
    cached = run.cache.get(key)
    if cached is not None:
        return cached

    # branch on the most frequent variable
    counts: dict[int, int] = {}
    for cl in clauses:
        for l in cl:
            v = abs(l)
            counts[v] = counts.get(v, 0) + 1
    branch_var = max(counts, key=lambda v: (counts[v], -v))

    nvars = set(counts)
    total = 0
    marg: dict[int, int] = {}
    for lit in (branch_var, -branch_var):
        reduced = _condition(clauses, {lit})
        if reduced is None:
            continue
        free = nvars - _vars_of(reduced)
        free.discard(branch_var)
        count, branch_marg = _lift(*_count_marginals(reduced, run), free, (lit,))
        total += count
        if marg:
            for v, m in branch_marg.items():
                marg[v] = marg.get(v, 0) + m
        else:
            marg = branch_marg

    result = (total, marg)
    run.cache_put(key, result)
    return result


def _prepared_clauses(formula: CnfFormula) -> tuple:
    """Sorted literal tuples with tautological clauses dropped."""
    return tuple(tuple(sorted(cl)) for cl in formula.clause_lists())


def count_with_marginals(
    formula: CnfFormula, budget: CountBudget | None = None
) -> tuple[int, dict[int, int]]:
    """Exact model count and, for every variable v in 1..num_vars, the number
    of models that set v true, from one counting pass.

    The budget bounds that single pass. Marginals are exact integers, so
    marginals[v] == count_conditioned(formula, v) for every v.
    """
    clauses = _prepared_clauses(formula)
    n = formula.num_vars
    if any(not cl for cl in clauses):
        return 0, dict.fromkeys(range(1, n + 1), 0)
    run = _Run(budget or CountBudget())
    occurring = _vars_of(clauses)
    free = [v for v in range(1, n + 1) if v not in occurring]
    total, marg = _lift(*_count_marginals(clauses, run), free, ())
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
        reduced = _condition(tuple(clauses), true_lits)
        if reduced is None:
            continue
        total += _bitmask_count(reduced, nlow)
    return total


def find_model(formula: CnfFormula) -> dict[int, bool] | None:
    """A satisfying total assignment, or None if unsatisfiable.

    The model of one CDCL solve under the default SolverConfig, which the
    solver checks against the formula before returning it; the shared
    satisfiability probe of backbone extraction and the generator.
    """
    return solve(formula).model
