"""Solution-space profiling: literal ratios, entropy, density, backbones.

A profile, backbone flags included, comes from one exact counting pass.
profile_from_counts is the one derivation of a profile from its counts
(variable count, model count and each variable's exact ratio):
profile_formula builds through it, and FormulaProfile.from_dict rebuilds
a stored profile from its counts and refuses one whose other fields
differ from what they give (its entropies by more than rounding), or
whose counts no formula has.
backbone_size counts no models: it probes one incremental CDCL instance,
one probe per candidate literal under the assumption that it is false,
and can stop early once the size is known to lie above or below a
`target`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .cnf import CnfFormula
# find_model is not called here; perfbench's tests find it at this binding
from .counter import conditioned_formula, count_with_marginals, find_model
from .solver import SolverConfig, _Solver


class UnsatisfiableFormula(ValueError):
    """Entropy, density and backbones are defined only for satisfiable formulas."""


@dataclass(frozen=True)
class VariableProfile:
    var: int
    ratio_pos: Fraction
    entropy: float
    is_backbone: bool


@dataclass(frozen=True)
class FormulaProfile:
    num_vars: int
    model_count: int
    entropy: float
    density: float
    backbone_count: int
    variables: tuple[VariableProfile, ...]

    def to_dict(self) -> dict:
        return {
            "vars": self.num_vars,
            "model_count": str(self.model_count),
            "entropy": self.entropy,
            "density": self.density,
            "backbone_count": self.backbone_count,
            "per_var": [
                {
                    "v": p.var,
                    "r_exact": str(p.ratio_pos),
                    "e": p.entropy,
                }
                for p in self.variables
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FormulaProfile":
        """The profile that a to_dict dict's vars, model_count and r_exact
        values give; ValueError naming any other to_dict field that differs
        (an entropy by more than rounding, math.isclose), or a count no
        formula has: a model_count outside 1..2^vars, or an r_exact that
        does not give a whole number of models. Other keys, such as an
        older sidecar's float 'r', are ignored."""
        ratios = []
        for p in d["per_var"]:
            r = Fraction(p["r_exact"]) if isinstance(p["r_exact"], str) else None
            if r is None or not 0 <= r <= 1:
                raise ValueError(f"'r_exact' {p['r_exact']!r} is not a ratio in [0, 1]")
            ratios.append(r)
        n, model_count = d["vars"], int(d["model_count"])
        if len(ratios) != n:
            raise ValueError(f"'per_var' has {len(ratios)} entries, not 'vars' {n!r}")
        if not 1 <= model_count <= 1 << n:
            raise ValueError(f"'model_count' {model_count} is not in 1..2^{n}")
        profile = profile_from_counts(n, model_count, ratios)
        want = profile.to_dict()
        # an entropy is a float made of log2 values and, for the mean, their
        # sum: it must equal its counts' value to rounding, the rest exactly
        fields = [
            (repr(k), d[k], want[k], k == "entropy")
            for k in ("entropy", "density", "backbone_count")
        ]
        for i, (p, q) in enumerate(zip(d["per_var"], want["per_var"])):
            fields += [(f"per_var[{i}] {k!r}", p[k], q[k], k == "e") for k in ("v", "e")]
        for name, stored, given, rounded in fields:
            if stored != given and not (
                rounded and isinstance(stored, float) and math.isclose(stored, given)
            ):
                raise ValueError(f"{name} is {stored!r}, but its counts give {given!r}")
        for i, r in enumerate(ratios):
            if (r * model_count).denominator != 1:
                raise ValueError(
                    f"per_var[{i}] 'r_exact' {d['per_var'][i]['r_exact']!r} of "
                    f"'model_count' {model_count} is not a whole number of models"
                )
        return profile


def variable_entropy(r) -> float:
    """Binary entropy of a ratio in [0,1], with 0*log2(0) taken as 0."""
    r = Fraction(r) if not isinstance(r, Fraction) else r
    if r < 0 or r > 1:
        raise ValueError(f"ratio {r} outside [0,1]")
    if r == 0 or r == 1:
        return 0.0
    rf = float(r)
    return -rf * math.log2(rf) - (1.0 - rf) * math.log2(1.0 - rf)


def profile_from_counts(
    num_vars: int, model_count: int, ratios: list[Fraction]
) -> FormulaProfile:
    """The profile of a formula over num_vars variables with model_count
    models, in ratios[v - 1] of which variable v is true: each variable's
    entropy, the mean entropy, the density model_count / 2^num_vars and the
    backbone count, which counts the ratios 0 and 1."""
    variables = tuple(
        VariableProfile(v, r, variable_entropy(r), is_backbone=r == 0 or r == 1)
        for v, r in enumerate(ratios, 1)
    )
    return FormulaProfile(
        num_vars=num_vars,
        model_count=model_count,
        entropy=math.fsum(p.entropy for p in variables) / num_vars if num_vars else 1.0,
        density=float(Fraction(model_count, 1 << num_vars)),
        backbone_count=sum(p.is_backbone for p in variables),
        variables=variables,
    )


def profile_formula(
    formula: CnfFormula, count_fn: Callable[[CnfFormula], int] | None = None
) -> FormulaProfile:
    """Full solution-space profile of a satisfiable formula.

    By default every ratio comes from one count_with_marginals pass. An
    injected `count_fn` instead gets exactly num_vars + 1 calls: one for the
    unconditioned count, then one per variable for the count conditioned on
    its positive literal.
    """
    if count_fn is None:
        total, marginals = count_with_marginals(formula)
        positive_count = marginals.__getitem__
    else:
        total = count_fn(formula)
        positive_count = lambda v: count_fn(conditioned_formula(formula, v))
    if total == 0:
        raise UnsatisfiableFormula("entropy undefined for unsatisfiable formula")
    n = formula.num_vars
    ratios = [Fraction(positive_count(v), total) for v in range(1, n + 1)]
    return profile_from_counts(n, total, ratios)


def backbone_size(formula: CnfFormula, target: int | None = None) -> int:
    """Number of backbone variables, via satisfiability probes with model
    filtering on one incremental solver (Janota, Lynce & Marques-Silva,
    AI Communications 2015).

    Needs no model count. One _Solver finds a first model and then answers
    every probe under an assumption, keeping its learned clauses. Only a
    polarity that every model seen so far agrees on can be backbone, so a
    variable is probed only while it is still a candidate: its literal l is
    backbone iff no model sets NOT l, and each model found drops every
    candidate whose polarity it flips. Variables are decided in increasing
    order. With a target set the call returns target + 1 as soon as the
    count exceeds the target, and a number below the target as soon as the
    count plus the undecided candidates is below it; so the result is exact
    when it equals the target, and on the same side of the target as the
    size otherwise. Without a target the result is exact.
    """
    solver = _Solver(formula, SolverConfig())
    candidates = solver.solve().model
    if candidates is None:
        raise UnsatisfiableFormula("backbone undefined for unsatisfiable formula")
    count = 0
    for v in range(1, formula.num_vars + 1):
        if v not in candidates:
            continue
        lit = v if candidates[v] else -v
        model = solver.probe(-lit)
        if model is None:
            count += 1
            if target is not None and count > target:
                return count
        else:
            candidates = {u: b for u, b in candidates.items() if model[u] == b}
            # the candidates up to v are the backbone found so far, so
            # len(candidates) is count + undecided candidates
            if target is not None and len(candidates) < target:
                return len(candidates)
    return count
