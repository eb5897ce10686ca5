"""Random 3-SAT generation with controlled backbone size.

Instances are drawn uniformly and filtered by rejection: unsatisfiable
draws are discarded, and a draw is accepted only when its backbone has
exactly the requested number of variables. An optional force mode pins
extreme backbone targets by appending unit clauses consistent with one
model of the base formula; forced instances are flagged in the manifest
because planting changes the distribution.
"""

from __future__ import annotations

import csv
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from .cnf import Clause, CnfFormula, content_hash, write_dimacs
from .counter import find_model
from .entropy import backbone_size, profile_formula
from .pipeline import _profile_dir, write_profile


class BackboneSearchExhausted(RuntimeError):
    """Rejection sampling failed; carries a histogram of observed sizes."""

    def __init__(self, spec: "BenchSpec", histogram: dict[int, int]):
        super().__init__(
            f"no instance with backbone {spec.target_backbone} found in "
            f"{spec.max_attempts} attempts (observed sizes: {dict(sorted(histogram.items()))})"
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


def gen_random_3sat(num_vars: int, num_clauses: int, seed: int) -> CnfFormula:
    """A uniform random 3-SAT formula: per clause, 3 distinct variables
    drawn without replacement and independent uniform signs."""
    if num_vars < 3:
        raise ValueError("need at least 3 variables for 3-SAT")
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(Clause(tuple(v if rng.random() < 0.5 else -v for v in vs)))
    return CnfFormula(num_vars, tuple(clauses))


def gen_with_backbone(spec: BenchSpec, force: bool = False) -> tuple[CnfFormula, int]:
    """Draw random 3-SAT instances until one has the target backbone size.

    Returns (formula, attempts_used). With force=True, unit clauses pinning
    target_backbone variables to one model of the draw are appended, which
    guarantees at least that many backbone variables; the draw is still
    rejected if extra backbone variables appear.
    """
    histogram: dict[int, int] = {}
    for attempt in range(spec.max_attempts):
        f = gen_random_3sat(
            spec.num_vars, spec.num_clauses, _attempt_seed(spec.seed, attempt)
        )
        model = find_model(f)
        if model is None:
            continue
        if force:
            rng = random.Random(_attempt_seed(spec.seed ^ 0x5EED, attempt))
            pinned = rng.sample(range(1, spec.num_vars + 1), spec.target_backbone)
            units = tuple(
                Clause((v if model[v] else -v,)) for v in sorted(pinned)
            )
            f = CnfFormula(f.num_vars, f.clauses + units)
        size = backbone_size(f, abort_above=spec.target_backbone)
        histogram[size] = histogram.get(size, 0) + 1
        if size == spec.target_backbone:
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


def build_suite(
    targets: list[int],
    per_bucket: int,
    num_vars: int,
    seed: int,
    out_dir: str | Path,
    clauses_per_target: dict[int, int] | None = None,
    clause_ratio: float = 4.25,
    max_attempts: int = 100_000,
    force_targets: set[int] | None = None,
    tune_clauses: bool = False,
) -> list[dict]:
    """Generate per_bucket instances per backbone bucket, write DIMACS files
    and a manifest.csv, and return the manifest rows.

    Each accepted instance is re-profiled exactly, and the profile's
    backbone count is checked against the bucket target. Profiles are
    stored as JSON sidecars under out_dir/profiles/, or under
    $SATENTROPY_CACHE_DIR when it is set, where experiment runs look.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    force_targets = force_targets or set()

    rows = []
    default_clauses = round(num_vars * clause_ratio)
    if clauses_per_target is None and tune_clauses:
        clauses_per_target = tuned_clause_counts(num_vars, targets)
    for target in targets:
        num_clauses = (clauses_per_target or {}).get(target, default_clauses)
        for i in range(per_bucket):
            spec = BenchSpec(
                num_vars=num_vars,
                num_clauses=num_clauses,
                target_backbone=target,
                seed=seed + 7919 * target + i,
                max_attempts=max_attempts,
            )
            formula, attempts = gen_with_backbone(
                spec, force=target in force_targets
            )
            profile = profile_formula(formula)
            if profile.backbone_count != target:
                raise AssertionError(
                    f"accepted instance has backbone {profile.backbone_count}, "
                    f"expected {target}"
                )
            fid = content_hash(formula)
            fname = f"bb{target:03d}_{i:04d}_{fid}.cnf"
            (out / fname).write_text(write_dimacs(formula))
            write_profile(_profile_dir(out) / f"{fid}.json", profile)
            rows.append(
                {
                    "file": fname,
                    "formula_id": fid,
                    "seed": spec.seed,
                    "num_vars": formula.num_vars,
                    "num_clauses": formula.num_clauses,
                    "backbone": target,
                    "entropy": profile.entropy,
                    "density": profile.density,
                    "model_count": profile.model_count,
                    "forced": int(target in force_targets),
                    "attempts": attempts,
                }
            )

    with (out / "manifest.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return rows

