"""Entropy and solution density of satisfiable CNF formulas, a heuristic-
configurable CDCL solver, and the statistics to relate the two."""

from .cnf import Clause, CnfFormula, DimacsError, evaluate, parse_dimacs, write_dimacs
from .counter import (
    BudgetExceeded,
    CountBudget,
    count_conditioned,
    count_models,
    count_models_bruteforce,
    count_with_marginals,
)
from .entropy import (
    FormulaProfile,
    UnsatisfiableFormula,
    VariableProfile,
    profile_formula,
    variable_entropy,
)
from .solver import (
    GlucoseRestarts,
    KeepLbdCutAtMost,
    KeepSizeAtMost,
    LubyRestarts,
    SolveStats,
    SolverConfig,
    glucose_restart_due,
    luby,
    reduce_database,
    solve,
)

__all__ = [
    "Clause",
    "CnfFormula",
    "DimacsError",
    "evaluate",
    "parse_dimacs",
    "write_dimacs",
    "BudgetExceeded",
    "CountBudget",
    "count_conditioned",
    "count_models",
    "count_models_bruteforce",
    "count_with_marginals",
    "FormulaProfile",
    "UnsatisfiableFormula",
    "VariableProfile",
    "profile_formula",
    "variable_entropy",
    "GlucoseRestarts",
    "KeepLbdCutAtMost",
    "KeepSizeAtMost",
    "LubyRestarts",
    "SolveStats",
    "SolverConfig",
    "glucose_restart_due",
    "luby",
    "reduce_database",
    "solve",
]

__version__ = "0.1.0"
