"""Command-line front-end.

Exit codes: 0 ok/SAT, 20 UNSAT (or model count 0), 1 usage error,
2 runtime error, 3 resource budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pipeline
from .cnf import DimacsError, parse_dimacs
from .counter import BudgetExceeded, CountBudget, count_models
from .entropy import UnsatisfiableFormula, profile_formula
from .solver import (
    CONFIG_KEYS, DeletionPolicy, RestartPolicy, SolverConfig, config_fields, solve
)

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
    budget = CountBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    n = count_models(formula, budget)
    print(n)
    return EXIT_UNSAT if n == 0 else EXIT_OK


def _cmd_profile(args) -> int:
    formula = _read_formula(args.file)
    profile = profile_formula(formula)
    record = {"clauses": formula.num_clauses, **profile.to_dict()}
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def _add_config_flags(p) -> None:
    """The config keys as solve's and experiment run's flags."""
    p.add_argument("--restart", help=RestartPolicy.usage())
    p.add_argument("--keep", help=DeletionPolicy.usage())
    p.add_argument("--decay")
    p.add_argument("--reduce-interval", help="conflicts between database reductions")


def _config_flags(args) -> dict:
    """The config keys given as flags; SolverConfig has the rest's defaults."""
    given = {key: getattr(args, key) for key in CONFIG_KEYS}
    return {key: value for key, value in given.items() if value is not None}


def _cmd_solve(args) -> int:
    formula = _read_formula(args.file)
    config = SolverConfig.from_spec(
        _config_flags(args), seed=args.seed, conflict_budget=args.conflict_budget
    )
    st = solve(formula, config)
    stats = st.to_dict()
    print(json.dumps(stats, sort_keys=True))
    if st.result == "SAT":
        print(f"v {' '.join(map(str, stats['model']))} 0")
        return EXIT_OK
    if st.result == "UNSAT":
        return EXIT_UNSAT
    return EXIT_BUDGET


# argparse types; argparse names the option and the value it rejects
def int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


def _cmd_gen(args) -> int:
    rows = pipeline.build_suite(
        targets=args.backbones,
        per_bucket=args.per_bucket,
        num_vars=args.vars,
        seed=args.seed,
        out_dir=args.out,
        clause_ratio=args.ratio,
        max_attempts=args.max_attempts,
        tune_clauses=args.tune_clauses,
    )
    print(f"wrote {len(rows)} instances to {args.out}", file=sys.stderr)
    print(str(Path(args.out) / "manifest.csv"))
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.action == "run":
        shared = config_fields(_config_flags(args))
        plan = pipeline.make_plan(
            args.plan, args.runs_per_formula, args.seed, base_overrides=shared
        )
        records = pipeline.run_experiment(
            plan, args.suite, args.out, jobs=args.jobs, k=args.k
        )
        pipeline.report(args.out)
        print(f"{len(records)} records in {args.out}", file=sys.stderr)
        print(str(Path(args.out) / "records.jsonl"))
        return EXIT_OK
    pipeline.report(args.indir)
    print(str(Path(args.indir) / "records.csv"))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    table = pipeline.analysis_table(
        args.file, args.test, args.col_a, args.col_b, args.k, args.seed
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
    _add_config_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--conflict-budget", type=int, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="generate a backbone-controlled 3-SAT suite")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument(
        "--backbones", type=int_list, required=True, help="comma-separated targets"
    )
    p.add_argument("--per-bucket", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ratio", type=float, default=4.25)
    p.add_argument("--max-attempts", type=int, default=100_000)
    p.add_argument(
        "--tune-clauses",
        action="store_true",
        help="pick a per-bucket clause count that makes the target common",
    )
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
    # the flag of the plan's tested dimension is ignored
    _add_config_flags(pr)
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
