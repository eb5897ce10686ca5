"""Entropy and solution density of satisfiable CNF formulas, a heuristic-
configurable CDCL solver, and the statistics to relate the two."""

__version__ = "0.1.0"
