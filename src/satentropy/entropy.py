"""Solution-space profiling: literal ratios, entropy, density, backbones."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .cnf import CnfFormula
from .counter import (
    CountBudget,
    conditioned_formula,
    count_with_marginals,
    find_model,
)


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
                    "r": float(p.ratio_pos),
                    "r_exact": str(p.ratio_pos),
                    "e": p.entropy,
                }
                for p in self.variables
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FormulaProfile":
        variables = []
        for p in d["per_var"]:
            r = Fraction(p["r_exact"]) if "r_exact" in p else Fraction(p["r"])
            variables.append(
                VariableProfile(
                    var=p["v"],
                    ratio_pos=r,
                    entropy=p["e"],
                    is_backbone=r == 0 or r == 1,
                )
            )
        variables = tuple(variables)
        return cls(
            num_vars=d["vars"],
            model_count=int(d["model_count"]),
            entropy=d["entropy"],
            density=d["density"],
            backbone_count=d["backbone_count"],
            variables=variables,
        )


def variable_entropy(r) -> float:
    """Binary entropy of a ratio in [0,1], with 0*log2(0) taken as 0."""
    r = Fraction(r) if not isinstance(r, Fraction) else r
    if r < 0 or r > 1:
        raise ValueError(f"ratio {r} outside [0,1]")
    if r == 0 or r == 1:
        return 0.0
    rf = float(r)
    return -rf * math.log2(rf) - (1.0 - rf) * math.log2(1.0 - rf)


def profile_formula(
    formula: CnfFormula,
    count_fn: Callable[[CnfFormula], int] | None = None,
    budget: CountBudget | None = None,
) -> FormulaProfile:
    """Full solution-space profile of a satisfiable formula.

    By default every ratio comes from one count_with_marginals pass, and
    `budget` bounds that single pass. An injected `count_fn` instead gets
    exactly num_vars + 1 calls: one for the unconditioned count, then one
    per variable for the count conditioned on its positive literal; `budget`
    is then unused.
    """
    if count_fn is None:
        total, marginals = count_with_marginals(formula, budget)
        positive_count = marginals.__getitem__
    else:
        total = count_fn(formula)
        positive_count = lambda v: count_fn(conditioned_formula(formula, v))
    if total == 0:
        raise UnsatisfiableFormula("entropy undefined for unsatisfiable formula")

    variables = []
    for v in range(1, formula.num_vars + 1):
        r = Fraction(positive_count(v), total)
        variables.append(
            VariableProfile(
                var=v,
                ratio_pos=r,
                entropy=variable_entropy(r),
                is_backbone=r == 0 or r == 1,
            )
        )

    n = formula.num_vars
    mean_entropy = sum(p.entropy for p in variables) / n if n else 1.0
    return FormulaProfile(
        num_vars=n,
        model_count=total,
        entropy=mean_entropy,
        density=float(Fraction(total, 1 << n)),
        backbone_count=sum(p.is_backbone for p in variables),
        variables=tuple(variables),
    )


def backbone(formula: CnfFormula) -> set[int]:
    """The set of literals true in every solution, read off the one-pass
    marginals: v is backbone when it is true in all models, -v when in none."""
    total, marginals = count_with_marginals(formula)
    if total == 0:
        raise UnsatisfiableFormula("backbone undefined for unsatisfiable formula")
    return {
        v if pos == total else -v
        for v, pos in marginals.items()
        if pos in (0, total)
    }


def backbone_size(formula: CnfFormula, abort_above: int | None = None) -> int:
    """Number of backbone variables, via satisfiability probes with model
    filtering (Janota, Lynce & Marques-Silva, AI Communications 2015).

    Needs no model count. Only a polarity that every model seen so far
    agrees on can be backbone, so a variable is probed only while it is
    still a candidate: its literal l is backbone iff formula AND NOT l is
    unsatisfiable, and each satisfiable probe's model drops every candidate
    whose polarity it flips. Variables are decided in increasing order, so
    with abort_above set the call returns abort_above + 1 as soon as the
    count exceeds it.
    """
    candidates = find_model(formula)
    if candidates is None:
        raise UnsatisfiableFormula("backbone undefined for unsatisfiable formula")
    count = 0
    for v in range(1, formula.num_vars + 1):
        if v not in candidates:
            continue
        lit = v if candidates[v] else -v
        model = find_model(conditioned_formula(formula, -lit))
        if model is None:
            count += 1
            if abort_above is not None and count > abort_above:
                return count
        else:
            candidates = {u: b for u, b in candidates.items() if model[u] == b}
    return count
