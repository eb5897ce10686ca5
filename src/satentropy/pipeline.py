"""Experiment orchestration: run paired solver configurations over a
generated suite, persist per-formula records, and emit plot data and
regression tables for each measure in MEASURES, the one measure table.

Each formula is solved runs_per_formula times under each of plan.configs,
run r seeded by sub_seed(seed, formula_id, r). A solve record holds
formula_id, the config label, run, result, conflicts, restarts and
learned_deleted. formula_record turns a formula's solve records into its
records.jsonl row, whose conflicts are each config's mean over its runs,
and raises RuntimeError (exit 2) when the solves disagree on the verdict.

This module also owns the suite format: build_suite writes a suite's
DIMACS files, manifest.csv and profile sidecars, and load_suite,
load_profile and run_experiment read them back. load_profile reads a
sidecar through FormulaProfile.from_dict, which refuses one whose stored
fields differ from what its counts give; ensure_profile checks only what
needs the formula, the sidecar's variable count."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__, stats
from .benchgen import BenchSpec, gen_with_backbone, sub_seed, tuned_clause_counts
from .cnf import CnfFormula, content_hash, parse_dimacs, write_dimacs
from .entropy import FormulaProfile, profile_formula
from .solver import (
    GlucoseRestarts,
    KeepLbdCutAtMost,
    KeepSizeAtMost,
    LubyRestarts,
    SolverConfig,
    solve,
)


@dataclass(frozen=True)
class ExperimentPlan:
    """A paired comparison of two solver configurations differing in one
    dimension (or a single-config hardness study when config_b is None)."""

    name: str
    config_a: SolverConfig
    config_b: SolverConfig | None
    runs_per_formula: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.runs_per_formula < 1:
            raise ValueError(
                f"runs_per_formula must be at least 1, not {self.runs_per_formula}"
            )

    @property
    def configs(self) -> tuple[tuple[str, SolverConfig], ...]:
        """(label, config) of config A, then of config B if there is one."""
        return tuple((c.label(), c) for c in (self.config_a, self.config_b) if c)


CACHE_DIR_ENV = "SATENTROPY_CACHE_DIR"
# (name, title): a FormulaProfile attribute, record field and records.csv
# column, and its table-row label; two-measure tests take the first two rows
MEASURES = (("entropy", "Entropy"), ("density", "Density"))


# plan -> (SolverConfig field under test, value in config A, value in B)
PAIRED_PLANS = {
    "deletion": ("deletion", KeepLbdCutAtMost(5), KeepSizeAtMost(12)),
    "lbdcut": ("deletion", KeepLbdCutAtMost(1), KeepLbdCutAtMost(5)),
    "restarts": ("restart", LubyRestarts(100), GlucoseRestarts(50, 0.8)),
    "decay": ("decay", 0.95, 0.60),
}
PLAN_NAMES = (*PAIRED_PLANS, "hardness")


def make_plan(
    name: str,
    runs_per_formula: int = 5,
    seed: int = 0,
    base_overrides: dict | None = None,
) -> ExperimentPlan:
    """The built-in experiment plans.

    deletion: keep LBD-cut <= 5 vs keep size <= 12
    lbdcut:   keep LBD-cut <= 1 vs keep LBD-cut <= 5
    restarts: Luby(100) vs dynamic LBD restarts (window 50, margin 0.8)
    decay:    VSIDS decay 0.95 vs 0.60
    hardness: single configuration, conflicts vs entropy/density

    Deletion-criterion plans only differentiate once database reduction
    actually fires; on small instances set a reduce_interval well below
    the typical conflict count.

    base_overrides (SolverConfig fields, e.g. from solver.config_fields)
    adjusts the shared dimensions; the dimension under test always keeps
    its paired values.
    """
    if name not in PLAN_NAMES:
        raise ValueError(f"unknown plan {name!r}")
    shared = base_overrides or {}
    if name == "hardness":
        config_a, config_b = SolverConfig(**shared), None
    else:
        field, a, b = PAIRED_PLANS[name]
        config_a = SolverConfig(**{**shared, field: a})
        config_b = SolverConfig(**{**shared, field: b})
    return ExperimentPlan(name, config_a, config_b, runs_per_formula, seed)


# --------------------------------------------------------------- suite I/O

def load_suite(suite_dir: str | Path) -> list[dict]:
    """Read manifest.csv rows; each row gains a 'path' key. ValueError
    for a manifest without a formula_id or file column, or without rows."""
    suite = Path(suite_dir)
    manifest = suite / "manifest.csv"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest.csv in {suite}")
    rows, seen = [], set()
    with manifest.open(newline="") as fh:
        reader = csv.DictReader(fh)
        for name in ("formula_id", "file"):
            if name not in (reader.fieldnames or ()):
                raise ValueError(f"{manifest} has no column {name!r}")
        for row in reader:
            if row["formula_id"] in seen:
                raise ValueError(f"{manifest} names formula {row['formula_id']} twice")
            seen.add(row["formula_id"])
            row["path"] = str(suite / row["file"])
            rows.append(row)
    if not rows:
        raise ValueError(f"{manifest} lists no formulas")
    return rows


def _profile_path(suite_dir: str | Path, formula_id: str) -> Path:
    # the env var relocates the profile cache away from the suite directory
    override = os.environ.get(CACHE_DIR_ENV)
    profiles = Path(override) if override else Path(suite_dir) / "profiles"
    return profiles / f"{formula_id}.json"


def load_profile(suite_dir: str | Path, formula_id: str) -> FormulaProfile | None:
    """The profile in formula_id's sidecar, or None when there is none;
    ValueError naming the sidecar when it cannot be read."""
    p = _profile_path(suite_dir, formula_id)
    if not p.exists():
        return None
    try:
        return FormulaProfile.from_dict(json.loads(p.read_text()))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        why = f"missing field {e}" if isinstance(e, KeyError) else str(e)
        raise ValueError(
            f"profile sidecar {p} cannot be read ({why}); delete the sidecar "
            "to profile it again"
        ) from None


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file and a rename, so that a reader finds
    the old file or the new one, never a partial one. The text is written
    as it is, with no newline translation."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_profile(path: Path, profile: FormulaProfile) -> None:
    """Write a profile sidecar in the form load_profile reads back."""
    _write_atomic(path, json.dumps(profile.to_dict(), sort_keys=True, indent=1))


def ensure_profile(
    suite_dir: str | Path, formula_id: str, formula: CnfFormula
) -> FormulaProfile:
    """Cached profile lookup; profiles on the missing path, never fails
    silently. A cached sidecar must agree with itself (load_profile) and
    have its formula's variable count."""
    path = _profile_path(suite_dir, formula_id)
    cached = load_profile(suite_dir, formula_id)
    if cached is None:
        profile = profile_formula(formula)
        write_profile(path, profile)
        return profile
    if cached.num_vars != formula.num_vars:
        raise ValueError(
            f"profile sidecar {path}: 'vars' does not agree with formula "
            f"{formula_id}; delete the sidecar to profile it again"
        )
    return cached


def _draw_slot(spec: BenchSpec) -> tuple[CnfFormula, int, FormulaProfile]:
    """One bucket slot: its accepted draw, the attempts it took and its
    profile. Module-level, so that a process pool can pickle it."""
    formula, attempts = gen_with_backbone(spec)
    return formula, attempts, profile_formula(formula)


def build_suite(
    targets: list[int],
    per_bucket: int,
    num_vars: int,
    seed: int,
    out_dir: str | Path,
    clause_ratio: float = 4.25,
    max_attempts: int = 100_000,
    tune_clauses: bool = False,
    jobs: int = 1,
) -> list[dict]:
    """Generate per_bucket instances per backbone bucket, write DIMACS files
    and a manifest.csv, and return the manifest rows. Every file is written
    whole or not at all, and none before every instance is drawn.

    Each bucket slot is drawn and profiled by _draw_slot, on a pool of jobs
    processes when jobs > 1; the checks, rows and writes stay here, in slot
    order, so the suite is the same for every jobs. A pool started from a
    library call needs the caller's `if __name__ == "__main__"` guard on
    platforms that spawn their workers.

    A bucket has round(num_vars * clause_ratio) clauses, or its
    tuned_clause_counts value under tune_clauses. Each accepted instance is
    re-profiled exactly, and the profile's backbone count is checked against
    the bucket target. Profiles are stored as JSON sidecars under
    out_dir/profiles/, or under $SATENTROPY_CACHE_DIR when it is set, where
    experiment runs look. out_dir must be new or empty, so that it holds
    this suite alone.
    """
    out = Path(out_dir)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    if per_bucket < 1 or not targets:
        raise ValueError(
            f"no instances to generate: targets {targets}, per_bucket {per_bucket}"
        )
    repeated = sorted({t for t in targets if targets.count(t) > 1})
    if repeated:
        raise ValueError(f"backbone targets {repeated} are given more than once")
    if out.exists() and any(out.iterdir()):
        raise ValueError(
            f"{out} is not empty; write the suite to a new or empty directory"
        )
    num_clauses = dict.fromkeys(targets, round(num_vars * clause_ratio))
    if tune_clauses:
        num_clauses = tuned_clause_counts(num_vars, targets)

    # specs are checked before the first draw, and instances drawn and profiled
    # before the first write, so a bad or exhausted bucket writes nothing
    specs = [
        BenchSpec(num_vars, num_clauses[t], t, seed + 7919 * t + i, max_attempts)
        for t in targets
        for i in range(per_bucket)
    ]
    with _mapper(jobs, len(specs)) as map_fn:
        drawn = list(map_fn(_draw_slot, specs))
    rows, instances = [], []
    for index, (spec, (formula, attempts, profile)) in enumerate(zip(specs, drawn)):
        target, i = spec.target_backbone, index % per_bucket
        if profile.backbone_count != target:
            raise AssertionError(
                f"accepted instance has backbone {profile.backbone_count}, "
                f"expected {target}"
            )
        fid = content_hash(formula)
        instances.append((formula, profile))
        rows.append({
            "file": f"bb{target:03d}_{i:04d}_{fid}.cnf",
            "formula_id": fid,
            "seed": spec.seed,
            "num_vars": formula.num_vars,
            "num_clauses": formula.num_clauses,
            "backbone": target,
            "entropy": profile.entropy,
            "density": profile.density,
            "model_count": profile.model_count,
            "attempts": attempts,
        })
    for row, (formula, profile) in zip(rows, instances):
        _write_atomic(out / row["file"], write_dimacs(formula))
        write_profile(_profile_path(out, row["formula_id"]), profile)
    _write_atomic(out / "manifest.csv", csv_text(rows))
    return rows


# ------------------------------------------------------------ run.json

RUN_FILE = "run.json"
# the run.json fields that fix what records.jsonl holds; k only sets the
# report's bootstrap, so a rerun may change it
_RUN_IDENTITY = ("plan", "config_a", "config_b", "seed", "runs_per_formula", "suite")


def _run_spec(plan: ExperimentPlan, k: int, suite: str | None) -> dict:
    return {
        "plan": plan.name,
        "config_a": plan.config_a.spec(),
        "config_b": plan.config_b.spec() if plan.config_b else None,
        "seed": plan.seed,
        "runs_per_formula": plan.runs_per_formula,
        "suite": suite,
        "k": k,
        "satentropy_version": __version__,
        "python_version": "%d.%d.%d" % sys.version_info[:3],
    }


def write_run(out_dir: str | Path, plan: ExperimentPlan, k: int, suite: str) -> None:
    """Write run.json: the plan, its configs, seed, runs per formula, the
    suite's digest and the report's bootstrap k. It holds no paths or
    times, so identical runs write identical bytes."""
    text = json.dumps(_run_spec(plan, k, suite), sort_keys=True, indent=1) + "\n"
    _write_atomic(Path(out_dir) / RUN_FILE, text)


def load_run(out_dir: str | Path) -> tuple[ExperimentPlan, int]:
    """The plan and bootstrap k that run.json records."""
    path = Path(out_dir) / RUN_FILE
    try:
        spec = json.loads(path.read_text())
        config_b = spec["config_b"]
        plan = ExperimentPlan(
            spec["plan"],
            SolverConfig.from_spec(spec["config_a"]),
            SolverConfig.from_spec(config_b) if config_b is not None else None,
            spec["runs_per_formula"],
            spec["seed"],
        )
        return plan, spec["k"]
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: not a run description ({e!r})") from None


def _claim_run(out: Path, plan: ExperimentPlan, k: int, suite: str) -> None:
    """Write run.json for this run. A directory that already holds another
    run's records is refused: run.json differs in a field other than k (a
    run.json without a suite digest differs in it), or records.jsonl exists
    without run.json."""
    if (out / RUN_FILE).exists():
        recorded = _run_spec(
            *load_run(out), json.loads((out / RUN_FILE).read_text()).get("suite")
        )
        wanted = _run_spec(plan, k, suite)
        for key in _RUN_IDENTITY:
            if recorded[key] != wanted[key]:
                raise ValueError(
                    f"{out / RUN_FILE} records {key} {json.dumps(recorded[key])}, "
                    f"not {json.dumps(wanted[key])}: {out} holds another run's "
                    "records; write to a new directory"
                )
    elif (out / "records.jsonl").exists():
        raise ValueError(
            f"{out} holds records.jsonl but no {RUN_FILE}, so the run that "
            "wrote them is unknown; write to a new directory"
        )
    write_run(out, plan, k, suite)


# ------------------------------------------------------------ running

def _solve_formula(args) -> tuple[FormulaProfile, list[dict]]:
    """Worker: from one parse, one formula's cached or fresh profile and its
    solve records, one per (config, run) of the plan in plan.configs order.
    The profile comes first, so a bad sidecar or an unsatisfiable formula is
    refused before any solve."""
    suite_dir, path, formula_id, plan = args
    formula = parse_dimacs(Path(path).read_text())
    # the profile sidecar and the record are keyed by formula_id, so a file
    # edited after gen would otherwise take the old formula's profile
    found = content_hash(formula)
    if found != formula_id:
        raise ValueError(
            f"{path} hashes to {found}, not to its manifest formula_id "
            f"{formula_id}: the file changed after the suite was written"
        )
    profile = ensure_profile(suite_dir, formula_id, formula)
    solves = []
    for label, cfg in plan.configs:
        for run in range(plan.runs_per_formula):
            seed = sub_seed(plan.seed, formula_id, run)
            st = solve(formula, replace(cfg, seed=seed))
            solves.append({
                "formula_id": formula_id, "config": label, "run": run,
                "result": st.result, "conflicts": st.conflicts,
                "restarts": st.restarts, "learned_deleted": st.learned_deleted,
            })
    return profile, solves


def formula_record(
    plan: ExperimentPlan, profile: FormulaProfile, solves: list[dict]
) -> dict:
    """One formula's records.jsonl row from its profile and solve records;
    the one place that averages solves. No I/O and no solving."""
    formula_id = solves[0]["formula_id"]
    per_config = {
        label: [s for s in solves if s["config"] == label] for label, _ in plan.configs
    }
    verdicts = {label: {s["result"] for s in ss} for label, ss in per_config.items()}
    if len(set().union(*verdicts.values())) != 1:
        raise RuntimeError(
            f"solver verdict mismatch on {formula_id}: {verdicts} (soundness bug)"
        )
    return {
        "formula_id": formula_id,
        **{name: getattr(profile, name) for name, _ in MEASURES},
        "backbone": profile.backbone_count,
        "conflicts": {
            label: sum(s["conflicts"] for s in ss) / len(ss)
            for label, ss in per_config.items()
        },
        "seed": plan.seed,
        "plan": plan.name,
    }


@contextmanager
def _mapper(jobs: int, items: int):
    """map, or an order-keeping map on a pool of at most min(jobs, items)
    processes when that is more than one. Leaving the block, by an
    exception too, cancels the work no worker has started and waits for
    the workers to exit."""
    if jobs > 1 and items > 1:
        # imported here, so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(jobs, items))
        try:
            yield pool.map
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        yield map


def run_experiment(
    plan: ExperimentPlan,
    suite_dir: str | Path,
    out_dir: str | Path,
    jobs: int = 1,
    k: int = 1000,
) -> list[dict]:
    """Run the plan over every suite formula; append records to
    records.jsonl under out_dir in manifest order, each as soon as it is
    done. Writes run.json (with the suite's digest and the report's
    bootstrap k) first and refuses a directory that holds another run, or
    a k or jobs below 1.
    Resumable: recorded formulas are skipped. Returns all records sorted by
    formula_id."""
    for name, value in (("k", k), ("jobs", jobs)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, not {value}")
    manifest = sorted(load_suite(suite_dir), key=lambda r: r["formula_id"])
    # the manifest names every formula by content hash and holds no path,
    # so a byte-identical copy of the suite is the same suite
    suite = hashlib.sha256((Path(suite_dir) / "manifest.csv").read_bytes())
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _claim_run(out, plan, k, suite.hexdigest())
    records_path = out / "records.jsonl"

    existing: dict[str, dict] = {}
    if records_path.exists():
        records, complete = _read_records(records_path)
        if complete < records_path.stat().st_size:
            os.truncate(records_path, complete)
        existing = {rec["formula_id"]: rec for rec in records}

    todo = [
        (suite_dir, row["path"], row["formula_id"], plan)
        for row in manifest
        if row["formula_id"] not in existing
    ]
    new_records = []
    if todo:
        with records_path.open("a") as fh, _mapper(jobs, len(todo)) as map_fn:
            for profile, solves in map_fn(_solve_formula, todo):
                rec = formula_record(plan, profile, solves)
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
                fh.flush()
                new_records.append(rec)

    return sorted([*existing.values(), *new_records], key=lambda r: r["formula_id"])


def _read_records(path: Path) -> tuple[list[dict], int]:
    """The records of a records.jsonl file and the byte length of its
    complete lines.

    An unterminated final line is a write that was cut short: it is left
    out, with a warning on stderr. A malformed line anywhere else is a
    ValueError that names its line.
    """
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1
    if complete < len(data):
        print(
            f"warning: {path}: ignoring its unterminated final line "
            f"({len(data) - complete} bytes), a record cut short",
            file=sys.stderr,
        )
    records = []
    for lineno, line in enumerate(data[:complete].decode().splitlines(), 1):
        if line.strip():
            try:
                records.append(json.loads(line))
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: malformed record: {e}") from None
    return records, complete


def load_records(out_dir: str | Path) -> list[dict]:
    """The records of out_dir/records.jsonl, sorted by formula_id."""
    records, _ = _read_records(Path(out_dir) / "records.jsonl")
    records.sort(key=lambda r: r["formula_id"])
    return records


# ----------------------------------------------------------- analysis

@dataclass(frozen=True)
class PlotPoint:
    x: float
    y: float
    count: int


def aggregate_plot(
    records: list[dict], measure: str, value_fn
) -> tuple[list[PlotPoint], stats.RegressionResult | None]:
    """Round x to 2 decimals and average y per rounded x; the trendline is
    fitted on the raw, unaggregated points."""
    if not records:
        raise ValueError("no records to plot")
    raw = [(r[measure], value_fn(r)) for r in records]
    buckets: dict[float, list[float]] = {}
    for x, y in raw:
        buckets.setdefault(round(x, 2), []).append(y)
    points = [
        PlotPoint(x=x, y=stats.mean(ys), count=len(ys))
        for x, ys in sorted(buckets.items())
    ]
    trend = None
    if len(raw) >= 3 and len({x for x, _ in raw}) > 1:
        trend = stats.ols([x for x, _ in raw], [y for _, y in raw])
    return points, trend


def standard_columns(raw: dict[str, list]) -> dict[str, list[float]]:
    """Each named column as numbers, standardized, for every report and
    `analyze` statistic; ValueError naming the column on a non-number, a
    constant column or one with fewer than the 3 rows a slope needs."""
    cols = {}
    for name, values in raw.items():
        xs = []
        for row, v in enumerate(values, 1):
            try:
                xs.append(float(v))
            except (TypeError, ValueError):
                raise ValueError(
                    f"column {name!r}, data row {row}: {v!r} is not a number"
                ) from None
        n = len(xs)
        if n < 3:
            raise ValueError(f"column {name!r} has {n} of the 3 rows a slope needs")
        if len(set(xs)) == 1:
            raise ValueError(f"column {name!r} is constant, {xs[0]:.12g} in all {n} rows")
        cols[name] = stats.standardize(xs)
    return cols


# ------------------------------------------------------------ reporting

def _fmt_p(p: float) -> str:
    # p-values at or below 1e-10 are rendered as 0
    return "0" if p <= 1e-10 else f"{p:.4g}"


def _fmt_ci(ci: tuple[float, float]) -> str:
    return f"({ci[0]:.4g}, {ci[1]:.4g})"


def comparison_table(
    deltas: list[stats.RegressionResult], gaps: list[stats.BetaGapResult]
) -> list[dict]:
    """One row per measure with the gap-regression and slope-gap tests."""
    return [
        {
            "measure": title,
            "delta_ci": _fmt_ci(delta.ci95),
            "delta_p": _fmt_p(delta.p_two_sided),
            "delta_beta_ci": _fmt_ci(gap.gap_ci95),
            "delta_beta_p": _fmt_p(gap.gap_p),
            "delta_beta0_ci": _fmt_ci(gap.intercept_gap_ci95),
            "delta_beta0_p": _fmt_p(gap.intercept_gap_p),
        }
        for (_, title), delta, gap in zip(MEASURES, deltas, gaps)
    ]


def hardness_table(labels: list[str], gaps: list[stats.BetaGapResult]) -> list[dict]:
    """Per solver config: the first two measures' slope CIs and slope gap."""
    (a, _), (b, _) = MEASURES[:2]
    return [
        {
            "config": label,
            f"beta_{a}_ci": _fmt_ci(gap.beta_a_ci95),
            f"beta_{a}_p": _fmt_p(gap.beta_a_p),
            f"beta_{b}_ci": _fmt_ci(gap.beta_b_ci95),
            f"beta_{b}_p": _fmt_p(gap.beta_b_p),
            "gap_ci": _fmt_ci(gap.gap_ci95),
            "gap_p": _fmt_p(gap.gap_p),
        }
        for label, gap in zip(labels, gaps)
    ]


def analysis_table(
    path: str | Path, test: str, col_a: str, col_b: str, k: int, seed: int
) -> list[dict]:
    """The `analyze` table of the results CSV at path, refused when empty
    or short of a column; test is delta or delta-beta (one row per measure)
    or beta-gap (col_a's entropy slope against its density slope)."""
    if k < 1:
        raise ValueError(f"k must be at least 1, not {k}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError("empty results file")
    measures = [name for name, _ in MEASURES]
    names = [*measures, col_a] + ([col_b] if test != "beta-gap" else [])
    for name in names:
        if name not in reader.fieldnames:
            raise ValueError(
                f"{path} has no column {name!r} (columns: "
                f"{', '.join(reader.fieldnames)}); name the conflict columns "
                "with --col-a/--col-b"
            )
    cols = standard_columns({name: [r[name] for r in rows] for name in names})
    if test == "delta":
        fits = [stats.delta_test(cols[m], cols[col_a], cols[col_b]) for m in measures]
        results = [(t, f.ci95, f.p_two_sided) for (_, t), f in zip(MEASURES, fits)]
    elif test == "delta-beta":
        gaps = [((m, col_a), (m, col_b)) for m in measures]
        fits = stats.slope_gaps(cols, gaps, k, seed)
        results = [(t, f.gap_ci95, f.gap_p) for (_, t), f in zip(MEASURES, fits)]
    else:
        (a, title_a), (b, title_b) = MEASURES[:2]
        [fit] = stats.slope_gaps(cols, [((a, col_a), (b, col_a))], k, seed)
        results = [(f"{title_a}-vs-{title_b}", fit.gap_ci95, fit.gap_p)]
    return [
        {"measure": title, "conf_interval": _fmt_ci(ci), "p_val": _fmt_p(p)}
        for title, ci, p in results
    ]


def csv_text(rows: list[dict]) -> str:
    """Header and rows as CSV, columns in the first row's key order."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def aligned_text(rows: list[dict]) -> str:
    """Header and rows as space-padded columns, one line each."""
    cols = list(rows[0])
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
    for r in rows:
        lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    return "\n".join(lines) + "\n"


def emit_report(
    plan: ExperimentPlan,
    records: list[dict],
    out_dir: str | Path,
    k: int = 1000,
    seed: int = 0,
) -> list[Path]:
    """Write records CSV, per-measure plot CSVs, the paired-comparison table
    (for two-config plans), the per-config hardness table and the
    entropy-density check, and return their paths. Every file is rendered
    before the first is written, so a statistic that fails leaves the old
    report as it was."""
    if not records:
        raise ValueError("empty record set: nothing to report")
    files: dict[str, str] = {}

    labels = [label for label, _ in plan.configs]
    paired = len(labels) == 2

    measures = [m for m, _ in MEASURES]
    ys = [f"conflicts[{label}]" for label in labels]
    rec_rows = [
        {
            "formula_id": r["formula_id"],
            **{m: f"{r[m]:.12g}" for m in measures},
            "backbone": r["backbone"],
            **{y: f"{r['conflicts'][lb]:.12g}" for y, lb in zip(ys, labels)},
        }
        for r in records
    ]
    files["records.csv"] = csv_text(rec_rows)

    def value_fn(r):
        c = r["conflicts"]
        return c[labels[0]] - c[labels[1]] if paired else c[labels[0]]

    for measure in measures:
        stem = f"plot_{plan.name}_{'gap' if paired else 'conflicts'}_vs_{measure}"
        points, trend = aggregate_plot(records, measure, value_fn)
        rows = [
            {"x": f"{pt.x:.2f}", "y": f"{pt.y:.12g}", "count": pt.count}
            for pt in points
        ]
        files[f"{stem}.csv"] = csv_text(rows)
        if trend is not None:
            files[f"{stem}_trend.csv"] = csv_text([{
                "beta": f"{trend.beta:.12g}",
                "intercept": f"{trend.intercept:.12g}",
                "p_two_sided": _fmt_p(trend.p_two_sided),
            }])

    raw = {m: [r[m] for r in records] for m in measures}
    raw.update((y, [r["conflicts"][lb] for r in records]) for y, lb in zip(ys, labels))
    cols = standard_columns(raw)
    # one bootstrap for all slope gaps: a vs b per measure, then per config
    gaps = [((m, ys[0]), (m, ys[1])) for m in measures if paired]
    gaps += [((measures[0], y), (measures[1], y)) for y in ys]
    results = stats.slope_gaps(cols, gaps, k, seed)

    if paired:
        ca, cb = cols[ys[0]], cols[ys[1]]
        deltas = [stats.delta_test(cols[m], ca, cb) for m in measures]
        table = comparison_table(deltas, results[: len(measures)])
        files["comparison_table.csv"] = csv_text(table)
        files["comparison_table.txt"] = aligned_text(table)

    htable = hardness_table(labels, results[-len(labels):])
    files["hardness_table.csv"] = csv_text(htable)
    files["hardness_table.txt"] = aligned_text(htable)

    # cross-measure check: are the first two measures themselves correlated?
    xm = stats.ols(cols[measures[0]], cols[measures[1]])
    files["cross_measure.csv"] = csv_text([{
        "beta_ci": _fmt_ci(xm.ci95),
        "beta": f"{xm.beta:.12g}",
        "p_two_sided": _fmt_p(xm.p_two_sided),
    }])

    paths = [Path(out_dir) / name for name in files]
    for path, text in zip(paths, files.values()):
        _write_atomic(path, text)
    return paths


def report(out_dir: str | Path) -> list[Path]:
    """Emit the report of the run in out_dir from its run.json and
    records.jsonl alone, and return the report's paths."""
    plan, k = load_run(out_dir)
    return emit_report(plan, load_records(out_dir), out_dir, k=k, seed=plan.seed)
