"""Random 3-SAT generation with controlled backbone size.

Instances are drawn uniformly and filtered by rejection: unsatisfiable
draws are discarded, and a draw is accepted only when its backbone has
exactly the requested number of variables. An optional force mode pins
extreme backbone targets by appending unit clauses consistent with one
model of the base formula; planting changes the distribution, so suites
flag forced instances in their manifest.

This module only draws formulas and does no file I/O;
pipeline.build_suite writes them out as a suite.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from .cnf import Clause, CnfFormula
from .counter import find_model
from .entropy import UnsatisfiableFormula, backbone_size


class BackboneSearchExhausted(RuntimeError):
    """Rejection sampling failed; carries a histogram of observed sizes.

    backbone_size stops early on both sides of the target t, so the
    satisfiable draws fall in two bins: "<t" for sizes below t and t + 1
    for sizes above it. Unsatisfiable draws are not counted.
    """

    def __init__(self, spec: "BenchSpec", histogram: dict[int | str, int]):
        # the "<t" bin first, then the sizes
        shown = dict(
            sorted(histogram.items(), key=lambda kv: (isinstance(kv[0], int), kv[0]))
        )
        super().__init__(
            f"no instance with backbone {spec.target_backbone} found in "
            f"{spec.max_attempts} attempts (observed sizes: {shown})"
        )
        self.histogram = histogram


@dataclass(frozen=True)
class BenchSpec:
    num_vars: int
    num_clauses: int
    target_backbone: int
    seed: int
    max_attempts: int = 100_000

    def __post_init__(self):
        if not 0 <= self.target_backbone <= self.num_vars:
            raise ValueError("target_backbone must be in 0..num_vars")
        if self.num_clauses < 1:
            raise ValueError("num_clauses must be >= 1")


def _attempt_seed(seed: int, attempt: int) -> int:
    digest = hashlib.sha256(f"{seed}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _sample(rng: random.Random, n: int, k: int) -> list[int]:
    """random.sample(range(1, n + 1), k) from the same getrandbits stream:
    redraws at or above the bound, and on a repeat when it keeps a set."""
    pooled = n <= 21 + (4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 0)
    pool, picked = list(range(1, n + 1)), []
    for m in range(n, n - k, -1) if pooled else [n] * k:
        j = rng.getrandbits(m.bit_length())
        while j >= m or not pooled and pool[j] in picked:
            j = rng.getrandbits(m.bit_length())
        picked.append(pool[j])
        if pooled:
            pool[j] = pool[m - 1]
    return picked


def gen_random_3sat(num_vars: int, num_clauses: int, seed: int) -> CnfFormula:
    """A uniform random 3-SAT formula: per clause, 3 distinct variables
    drawn without replacement (_sample(rng, num_vars, 3), inlined) and
    independent uniform signs."""
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


def gen_with_backbone(spec: BenchSpec, force: bool = False) -> tuple[CnfFormula, int]:
    """Draw random 3-SAT instances until one has the target backbone size.

    Returns (formula, attempts_used). With force=True, unit clauses pinning
    target_backbone variables to one model of the draw are appended, which
    guarantees at least that many backbone variables; the draw is still
    rejected if extra backbone variables appear.
    """
    histogram: dict[int | str, int] = {}
    target = spec.target_backbone
    for attempt in range(spec.max_attempts):
        f = gen_random_3sat(
            spec.num_vars, spec.num_clauses, _attempt_seed(spec.seed, attempt)
        )
        if force:
            # the pinned model comes from a fresh default solve
            model = find_model(f)
            if model is None:
                continue
            rng = random.Random(_attempt_seed(spec.seed ^ 0x5EED, attempt))
            pinned = _sample(rng, spec.num_vars, target)
            units = tuple(
                Clause((v if model[v] else -v,)) for v in sorted(pinned)
            )
            f = CnfFormula(f.num_vars, f.clauses + units)
        try:
            size = backbone_size(f, target)
        except UnsatisfiableFormula:
            continue
        key = size if size >= target else f"<{target}"
        histogram[key] = histogram.get(key, 0) + 1
        if size == target:
            return f, attempt + 1
    raise BackboneSearchExhausted(spec, histogram)


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
