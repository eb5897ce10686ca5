"""Random 3-SAT generation with controlled backbone size.

Instances are drawn uniformly and filtered by rejection: a satisfiable
draw is accepted only when its backbone has the requested size, and an
exhausted search reports how many draws fell below and above it.

This module only draws formulas and does no file I/O;
pipeline.build_suite writes them out as a suite.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .cnf import Clause, CnfFormula
# find_model is not called here; perfbench's tests find it at this binding
from .counter import find_model
from .entropy import UnsatisfiableFormula, backbone_size


class BackboneSearchExhausted(RuntimeError):
    """Rejection sampling failed; carries how many satisfiable draws had a
    backbone smaller and how many larger than the target. Its args are
    its constructor's, so that it pickles across a process pool."""

    def __init__(self, spec: "BenchSpec", smaller: int, larger: int):
        super().__init__(spec, smaller, larger)
        self.spec, self.smaller, self.larger = spec, smaller, larger

    def __str__(self) -> str:
        return (
            f"no instance with backbone {self.spec.target_backbone} found in "
            f"{self.spec.max_attempts} attempts ({self.smaller} satisfiable draws "
            f"had a smaller backbone, {self.larger} a larger one)"
        )


@dataclass(frozen=True)
class BenchSpec:
    num_vars: int
    num_clauses: int
    target_backbone: int
    seed: int
    max_attempts: int = 100_000

    def __post_init__(self):
        t, n, m = self.target_backbone, self.num_vars, self.num_clauses
        if not 0 <= t <= n:
            raise ValueError(f"backbone target {t} must be in 0..{n}")
        if m < 1:
            raise ValueError(f"backbone target {t}: num_clauses must be >= 1, not {m}")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, not {self.max_attempts}"
            )


def sub_seed(*parts) -> int:
    """A 64-bit seed from the parts joined by ':': the first 8 bytes,
    big-endian, of their sha256."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def gen_random_3sat(num_vars: int, num_clauses: int, seed: int) -> CnfFormula:
    """A uniform random 3-SAT formula: per clause, 3 distinct variables
    drawn without replacement (random.sample(range(1, num_vars + 1), 3)'s
    draw, inlined) and independent uniform signs."""
    if num_vars < 3:
        raise ValueError("need at least 3 variables for 3-SAT")
    rng = random.Random(seed)
    bits, rand = rng.getrandbits, rng.random
    # random.sample picks 3 from a shrinking pool list up to 21 variables
    # and from the whole range, redrawing repeats, above that
    n, keeps_set = num_vars, num_vars > 21
    n1, n2 = (n, n) if keeps_set else (n - 1, n - 2)
    w, w1, w2 = n.bit_length(), n1.bit_length(), n2.bit_length()
    clauses = []
    for _ in range(num_clauses):
        a = bits(w)
        while a >= n:
            a = bits(w)
        b = bits(w1)
        while b >= n1 or keeps_set and b == a:
            b = bits(w1)
        c = bits(w2)
        while c >= n2 or keeps_set and (c == a or c == b):
            c = bits(w2)
        # pool indices: the pool 1..n refills slot a with its last value n,
        # then slot b with its slot n - 2; without a pool they never meet
        c = (n if a == n - 2 else n - 1) if c == b else n if c == a else c + 1
        b = n if b == a else b + 1
        a += 1
        clauses.append(Clause((
            a if rand() < 0.5 else -a,
            b if rand() < 0.5 else -b,
            c if rand() < 0.5 else -c,
        )))
    return CnfFormula(num_vars, tuple(clauses))


def gen_with_backbone(spec: BenchSpec) -> tuple[CnfFormula, int]:
    """Draw random 3-SAT instances until one has the target backbone size;
    returns (formula, attempts_used)."""
    smaller = larger = 0
    target = spec.target_backbone
    for attempt in range(spec.max_attempts):
        f = gen_random_3sat(
            spec.num_vars, spec.num_clauses, sub_seed(spec.seed, attempt)
        )
        try:
            size = backbone_size(f, target)
        except UnsatisfiableFormula:
            continue
        if size == target:
            return f, attempt + 1
        smaller += size < target
        larger += size > target
    raise BackboneSearchExhausted(spec, smaller, larger)


def tuned_clause_counts(num_vars: int, targets: list[int]) -> dict[int, int]:
    """Per-target clause counts that center the backbone-size distribution
    near each target, keeping rejection sampling cheap.

    Larger backbones need more constrained formulas; empirically the
    clause/variable ratio that makes a backbone fraction f common is close
    to 3.4 + 1.05 f near the 3-SAT phase transition.
    """
    return {
        t: max(num_vars, round(num_vars * (3.4 + 1.05 * t / num_vars)))
        for t in targets
    }
