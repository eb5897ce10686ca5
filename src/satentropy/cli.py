"""Command-line front-end.

Exit codes: 0 ok/SAT, 20 UNSAT (or model count 0), 1 usage error,
2 runtime error, 3 resource budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import benchgen, pipeline
from .cnf import DimacsError, parse_dimacs
from .counter import BudgetExceeded, CountBudget, count_models
from .entropy import UnsatisfiableFormula, profile_formula
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3
EXIT_UNSAT = 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_formula(path: str):
    return parse_dimacs(Path(path).read_text())


def _cmd_count(args) -> int:
    formula = _read_formula(args.file)
    budget = CountBudget(
        max_nodes=args.max_nodes, max_seconds=args.max_seconds
    )
    n = count_models(formula, budget)
    print(n)
    return EXIT_UNSAT if n == 0 else EXIT_OK


def _cmd_profile(args) -> int:
    formula = _read_formula(args.file)
    profile = profile_formula(formula)
    record = {"clauses": formula.num_clauses, **profile.to_dict()}
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def _cmd_solve(args) -> int:
    formula = _read_formula(args.file)
    config = SolverConfig(
        restart=pipeline.parse_restart(args.restart),
        deletion=pipeline.parse_keep(args.keep),
        decay=args.decay,
        reduce_interval=args.reduce_interval,
        seed=args.seed,
        conflict_budget=args.conflict_budget,
    )
    st = solve(formula, config)
    print(json.dumps(st.to_dict(), sort_keys=True))
    if st.result == "SAT":
        lits = " ".join(
            str(v if st.model[v] else -v) for v in sorted(st.model)
        )
        print(f"v {lits} 0")
        return EXIT_OK
    if st.result == "UNSAT":
        return EXIT_UNSAT
    return EXIT_BUDGET


def _cmd_gen(args) -> int:
    targets = [int(t) for t in args.backbones.split(",")]
    clauses_per_target = None
    if args.clauses_per_bucket:
        pairs = [p.split("=") for p in args.clauses_per_bucket.split(",")]
        clauses_per_target = {int(t): int(m) for t, m in pairs}
    force_targets = (
        {int(t) for t in args.force.split(",")} if args.force else None
    )
    rows = benchgen.build_suite(
        targets=targets,
        per_bucket=args.per_bucket,
        num_vars=args.vars,
        seed=args.seed,
        out_dir=args.out,
        clauses_per_target=clauses_per_target,
        clause_ratio=args.ratio,
        max_attempts=args.max_attempts,
        force_targets=force_targets,
        tune_clauses=args.tune_clauses,
    )
    print(f"wrote {len(rows)} instances to {args.out}", file=sys.stderr)
    print(str(Path(args.out) / "manifest.csv"))
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.action == "run":
        overrides = (
            pipeline.load_solver_defaults(args.config) if args.config else None
        )
        plan = pipeline.make_plan(
            args.plan,
            args.runs_per_formula,
            args.seed,
            args.reduce_interval,
            base_overrides=overrides,
        )
        records = pipeline.run_experiment(
            plan, args.suite, args.out, jobs=args.jobs, k=args.k
        )
        pipeline.emit_report(plan, records, args.out, k=args.k, seed=args.seed)
        print(f"{len(records)} records in {args.out}", file=sys.stderr)
        print(str(Path(args.out) / "records.jsonl"))
        return EXIT_OK
    # report: plan, seed and k come from the run's run.json
    plan, k = pipeline.load_run(args.indir)
    records = pipeline.load_records(args.indir)
    pipeline.emit_report(plan, records, args.indir, k=k, seed=plan.seed)
    print(str(Path(args.indir) / "records.csv"))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    with open(args.file, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError("empty results file")
    needed = ["entropy", "density", args.col_a]
    if args.test != "beta-gap":
        needed.append(args.col_b)
    for name in needed:
        if name not in reader.fieldnames:
            raise ValueError(
                f"{args.file} has no column {name!r} (columns: "
                f"{', '.join(reader.fieldnames)}); name the conflict columns "
                "with --col-a/--col-b"
            )
    table = pipeline.analysis_table(
        rows, args.test, args.col_a, args.col_b, args.k, args.seed
    )
    sys.stdout.write(pipeline.csv_text(table))
    sys.stderr.write(pipeline.aligned_text(table))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="satentropy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact model count of a CNF file")
    p.add_argument("file")
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--max-seconds", type=float, default=None)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("profile", help="entropy/density/backbone profile")
    p.add_argument("file")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("solve", help="run the CDCL solver")
    p.add_argument("file")
    p.add_argument("--restart", default="luby:100", help="luby:N or glucose:W:M")
    p.add_argument("--keep", default="lbd:5", help="lbd:N or size:N")
    p.add_argument("--decay", type=float, default=0.95)
    p.add_argument("--reduce-interval", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--conflict-budget", type=int, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="generate a backbone-controlled 3-SAT suite")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--backbones", required=True, help="comma-separated targets")
    p.add_argument("--per-bucket", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ratio", type=float, default=4.25)
    p.add_argument(
        "--clauses-per-bucket",
        default=None,
        help="per-target clause counts, e.g. 2=70,18=92",
    )
    p.add_argument("--max-attempts", type=int, default=100_000)
    p.add_argument(
        "--tune-clauses",
        action="store_true",
        help="pick a per-bucket clause count that makes the target common",
    )
    p.add_argument("--force", default=None, help="targets to pin via unit clauses")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("experiment", help="run or re-report an experiment")
    psub = p.add_subparsers(dest="action", required=True)
    pr = psub.add_parser("run")
    pr.add_argument("--plan", required=True, choices=pipeline.PLAN_NAMES)
    pr.add_argument("--suite", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--jobs", type=int, default=1)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--runs-per-formula", type=int, default=5)
    pr.add_argument(
        "--reduce-interval",
        type=int,
        default=None,
        help="conflicts between database reductions (default: the --config "
        "file's reduce_interval, else 2000)",
    )
    pr.add_argument(
        "--config",
        default=None,
        help="key=value file with solver defaults for the shared dimensions",
    )
    pr.add_argument("--k", type=int, default=1000)
    pr.set_defaults(func=_cmd_experiment)
    pp = psub.add_parser("report")
    pp.add_argument("--in", dest="indir", required=True)
    pp.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("analyze", help="regression tests over a results CSV")
    p.add_argument("file")
    p.add_argument("--test", required=True, choices=["delta", "delta-beta", "beta-gap"])
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--col-a", default="conflicts_a")
    p.add_argument("--col-b", default="conflicts_b")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (DimacsError, UnsatisfiableFormula, ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:
        # anything else is a runtime error too: one line, no traceback
        print(f"error: unexpected {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
