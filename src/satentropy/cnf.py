"""CNF formulas, DIMACS I/O and assignment evaluation.

Literals use the DIMACS convention throughout: a positive integer v is the
positive literal of variable v, and -v is its negation. Variables are
1-indexed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain
from typing import Iterable


class DimacsError(ValueError):
    """Malformed DIMACS input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals, deduplicated and tautology-flagged."""

    lits: tuple[int, ...]
    is_tautology: bool = False

    @classmethod
    def from_lits(cls, lits: Iterable[int]) -> "Clause":
        seen: list[int] = []
        present: set[int] = set()
        taut = False
        for l in lits:
            if l == 0:
                raise ValueError("0 is not a literal")
            if l in present:
                continue
            if -l in present:
                taut = True
            present.add(l)
            seen.append(l)
        return cls(tuple(seen), taut)

    def __len__(self) -> int:
        return len(self.lits)


@dataclass(frozen=True)
class CnfFormula:
    """An immutable CNF formula over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        n = self.num_vars
        lits = set(chain.from_iterable([c.lits for c in self.clauses]))
        if lits and (min(lits) < -n or max(lits) > n):
            bad = next(l for c in self.clauses for l in c.lits if abs(l) > n)
            raise ValueError(f"literal {bad} exceeds declared {n} vars")

    @classmethod
    def from_clause_lists(
        cls, num_vars: int, clauses: Iterable[Iterable[int]]
    ) -> "CnfFormula":
        return cls(num_vars, tuple(Clause.from_lits(c) for c in clauses))

    def clause_lists(self) -> list[tuple[int, ...]]:
        """Plain literal tuples with always-true (tautological) clauses dropped."""
        return [c.lits for c in self.clauses if not c.is_tautology]

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


# Assignments are dicts mapping variable index -> bool; a variable missing
# from the dict is unassigned.
Assignment = dict[int, bool]


def parse_dimacs(text: str) -> CnfFormula:
    """Parse a DIMACS CNF document into a CnfFormula.

    Accepts comment lines (`c ...`), a single `p cnf <vars> <clauses>`
    header, and zero-terminated clauses which may span lines. Errors are
    reported with the line number they occur on.
    """
    num_vars: int | None = None
    num_clauses: int | None = None
    clauses: list[Clause] = []
    current: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate problem header", lineno)
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise DimacsError(f"malformed header {line!r}", lineno)
            try:
                num_vars = int(fields[2])
                num_clauses = int(fields[3])
            except ValueError:
                raise DimacsError(f"malformed header {line!r}", lineno) from None
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(f"malformed header {line!r}", lineno)
            continue
        if num_vars is None:
            raise DimacsError("clause before problem header", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"bad token {tok!r}", lineno) from None
            if lit == 0:
                clauses.append(Clause.from_lits(current))
                current = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(
                        f"literal {lit} exceeds declared {num_vars} vars", lineno
                    )
                current.append(lit)

    if num_vars is None:
        raise DimacsError("empty input: no problem header")
    if current:
        raise DimacsError("missing terminating 0 in final clause")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise DimacsError(
            f"header declares {num_clauses} clauses but {len(clauses)} found"
        )
    return CnfFormula(num_vars, tuple(clauses))


def write_dimacs(formula: CnfFormula) -> str:
    """Serialize to DIMACS text; parse_dimacs(write_dimacs(f)) == f."""
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for c in formula.clauses:
        lines.append(" ".join(str(l) for l in c.lits) + " 0")
    return "\n".join(lines) + "\n"


def evaluate(formula: CnfFormula, assignment: Assignment) -> bool:
    """True iff the total assignment satisfies every clause."""
    for v in range(1, formula.num_vars + 1):
        if v not in assignment:
            raise ValueError(f"assignment is partial: variable {v} unassigned")
    for c in formula.clauses:
        if c.is_tautology:
            continue
        if not any(assignment[abs(l)] == (l > 0) for l in c.lits):
            return False
    return True


def content_hash(formula: CnfFormula) -> str:
    """Stable identifier of a formula: sha256 of its canonical DIMACS text."""
    return hashlib.sha256(write_dimacs(formula).encode()).hexdigest()[:16]

