"""The benchmark's workloads: input set-up, one timed pass, output checks.

Every workload has a fixed input set and runs its timed pass over it
once per `seconds_per_pass` of --seconds (at least once), so the same
command does the same work on every commit. Each pass returns its wall
time, per-item latencies, an output digest and exact work counts; all
passes of a run must produce the same digest and counts.

Why the inputs are pinned: random 3-SAT instances of one size differ in
hardness by an order of magnitude (n = 150 solves took 0.02-5.4 s each,
n = 40 profiles varied with a coefficient of variation of 0.3), and a
fresh draw per seed would make every timing depend mostly on the draw.
So each workload draws its instances from a pinned stream, and the
benchmark seed varies what can vary without changing the amount of work:
an isomorphic shuffle of each profiled formula, the solve order, and the
seed of the experiment stage.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# Pins the base instance streams (the source paper's arXiv id).
BASE_SEED = 170605637


def _sub_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exc()


@dataclass
class PassResult:
    wall_s: float
    item_s: list[float]
    operations: int
    failed: int
    digest: str
    work: dict = field(default_factory=dict)


def cdcl_backbone(formula, sat) -> dict[int, bool] | None:
    """Backbone as {var: polarity} by CDCL probes, or None if UNSAT.

    One solve of formula AND NOT l per candidate literal l of a first
    model; every SAT probe's model drops the candidates whose polarity it
    flips (model filtering).
    """
    solve, config = sat.solver.solve, sat.solver.SolverConfig()
    first = solve(formula, config)
    if first.result != "SAT":
        return None
    candidates = dict(first.model)
    backbone = {}
    for v in range(1, formula.num_vars + 1):
        if v not in candidates:
            continue
        lit = v if candidates[v] else -v
        probe = sat.cnf.CnfFormula(formula.num_vars, formula.clauses + (sat.cnf.Clause((-lit,)),))
        st = solve(probe, config)
        if st.result == "UNSAT":
            backbone[v] = candidates[v]
            continue
        for u, value in st.model.items():
            if candidates.get(u, value) != value:
                del candidates[u]
    return backbone


class _Workload:
    name = ""
    item_name = ""
    items = 0  # per pass
    seconds_per_pass = 10.0  # measured on 2 cores, Python 3.11

    def __init__(self, seed: int, seconds: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.passes = max(1, round(seconds / self.seconds_per_pass))

    def setup(self, sat) -> str:
        """Make the inputs; return their digest."""
        raise NotImplementedError

    def run_pass(self, index: int, tracer=None) -> PassResult:
        raise NotImplementedError

    def check(self) -> tuple[int, int]:
        """Run the output checks; return (checks run, checks failed)."""
        raise NotImplementedError


class StudyN20(_Workload):
    """The README flow in-process through cli.main: gen, then experiment run."""

    name = "study-n20"
    item_name = "accepted suite formula"
    TARGETS = "2,6,10,14,18"
    PER_BUCKET = 3
    items = 5 * PER_BUCKET

    def setup(self, sat) -> str:
        self.sat = sat
        self.args = {
            "gen": [
                "gen", "--vars", "20", "--backbones", self.TARGETS,
                "--per-bucket", str(self.PER_BUCKET), "--tune-clauses",
                "--seed", str(BASE_SEED),
            ],
            "run": ["experiment", "run", "--plan", "decay", "--seed", str(self.seed)],
        }
        return _sha256_json(self.args)

    def _dirs(self, index: int) -> tuple[Path, Path]:
        base = self.workdir / f"pass{index}"
        return base / "suite", base / "results"

    def run_pass(self, index, tracer=None) -> PassResult:
        cli = self.sat.cli
        suite, results = self.outputs = self._dirs(index)
        argvs = [
            ("gen", self.args["gen"] + ["--out", str(suite)]),
            ("experiment_run", self.args["run"] + ["--suite", str(suite), "--out", str(results)]),
        ]
        failed = 0
        saved_env = os.environ.pop("SATENTROPY_CACHE_DIR", None)
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            for stage, argv in argvs:
                if tracer is not None:
                    tracer.item = stage
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = cli.main(argv)
                except Exception:
                    _report_failure(stage)
                    code = -1
                if code != 0:
                    print(f"perfbench: {stage} exited {code}: {sink.getvalue()[-500:]}",
                          file=sys.stderr)
                    failed += 1
                    break
        finally:
            wall = time.perf_counter() - t0
            if saved_env is not None:
                os.environ["SATENTROPY_CACHE_DIR"] = saved_env
        digest, work = self._digest(suite, results)
        return PassResult(wall, [], len(argvs), failed, digest, work)

    @staticmethod
    def _digest(suite: Path, results: Path) -> tuple[str, dict]:
        h = hashlib.sha256()
        for root in (suite, results):
            if not root.exists():
                continue
            for p in sorted(root.rglob("*")):
                if p.is_file():
                    h.update(f"{root.name}/{p.relative_to(root)}\0".encode())
                    h.update(p.read_bytes())
        work = {"suite_formulas": 0, "generation_attempts": 0, "records": 0}
        manifest = suite / "manifest.csv"
        if manifest.exists():
            with manifest.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            work["suite_formulas"] = len(rows)
            work["generation_attempts"] = sum(int(r["attempts"]) for r in rows)
        records = results / "records.jsonl"
        if records.exists():
            work["records"] = sum(1 for line in records.read_text().splitlines() if line.strip())
        return h.hexdigest(), work

    def check(self) -> tuple[int, int]:
        """Recompute each suite formula's backbone size with CDCL probes and
        its model count by brute force; every formula has a record."""
        sat = self.sat
        suite, results = self.outputs
        if not (suite / "manifest.csv").exists() or not (results / "records.jsonl").exists():
            return 1, 1
        run = failed = 0
        with (suite / "manifest.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        run += 1
        failed += len(rows) != self.items
        for row in rows:
            formula = sat.cnf.parse_dimacs((suite / row["file"]).read_text())
            bb = cdcl_backbone(formula, sat)
            run += 2
            failed += bb is None or len(bb) != int(row["backbone"])
            failed += sat.counter.count_models_bruteforce(formula) != int(row["model_count"])
        ids = {json.loads(line)["formula_id"] for line in
               (results / "records.jsonl").read_text().splitlines() if line.strip()}
        run += 1
        failed += ids != {row["formula_id"] for row in rows}
        return run, failed


def _shuffled(formula, rng, sat):
    """An isomorphic copy: variables renamed, polarities flipped, clauses
    and the literals inside them reordered."""
    n = formula.num_vars
    names = list(range(1, n + 1))
    rng.shuffle(names)
    flip = [False] + [rng.random() < 0.5 for _ in range(n)]

    def lit(l):
        v = names[abs(l) - 1]
        return -v if (l < 0) != flip[abs(l)] else v

    clauses = []
    for c in formula.clauses:
        lits = [lit(l) for l in c.lits]
        rng.shuffle(lits)
        clauses.append(sat.cnf.Clause(tuple(lits)))
    rng.shuffle(clauses)
    return sat.cnf.CnfFormula(n, tuple(clauses))


class ProfileN40(_Workload):
    """parse_dimacs then profile_formula per formula: the `profile` path."""

    name = "profile-n40"
    item_name = "profiled formula"
    items = 8

    VARS, CLAUSES = 40, 164

    def setup(self, sat) -> str:
        self.sat = sat
        base = random.Random(_sub_seed(BASE_SEED, self.name))
        texts = []
        while len(texts) < self.items:
            f = sat.benchgen.gen_random_3sat(self.VARS, self.CLAUSES, base.getrandbits(64))
            if sat.solver.solve(f).result != "SAT":
                continue
            rng = random.Random(_sub_seed(self.seed, self.name, len(texts)))
            g = _shuffled(f, rng, sat)
            texts.append(sat.cnf.write_dimacs(g))
        self.texts = texts
        return _sha256_json(texts)

    def run_pass(self, index, tracer=None) -> PassResult:
        parse, profile = self.sat.cnf.parse_dimacs, self.sat.entropy.profile_formula
        item_s, dicts, failed = [], [], 0
        t0 = time.perf_counter()
        for i, text in enumerate(self.texts):
            if tracer is not None:
                tracer.item = i
            a = time.perf_counter()
            try:
                d = profile(parse(text)).to_dict()
            except Exception:
                _report_failure(f"profile of formula {i}")
                d = None
                failed += 1
            item_s.append(time.perf_counter() - a)
            dicts.append(d)
        wall = time.perf_counter() - t0
        self.profiles = dicts
        work = {
            "formulas": len(dicts),
            "backbone_vars": sum(d["backbone_count"] for d in dicts if d),
            "model_count_sum": str(sum(int(d["model_count"]) for d in dicts if d)),
        }
        return PassResult(wall, item_s, len(self.texts), failed, _sha256_json(dicts), work)

    def check(self) -> tuple[int, int]:
        """model_count > 0 and backbone flags agree with CDCL probes."""
        sat = self.sat
        run = failed = 0
        for text, d in zip(self.texts, self.profiles):
            run += 2
            if d is None:
                failed += 2
                continue
            failed += int(d["model_count"]) <= 0
            formula = sat.cnf.parse_dimacs(text)
            bb = cdcl_backbone(formula, sat)
            flagged = {p["v"]: p["r_exact"] == "1" for p in d["per_var"] if p["r_exact"] in ("0", "1")}
            failed += bb != flagged
        return run, failed


class SolveN150(_Workload):
    """parse_dimacs then solve per (formula, config), under the four
    configurations the paired plans compare, with matched seeds."""

    name = "solve-n150"
    item_name = "solve"
    seconds_per_pass = 15.0

    VARS, CLAUSES = 150, 639
    # Positions in the pinned instance stream: two UNSAT formulas (about
    # 6-8 s for their four solves) and two SAT ones (about 1 s).
    STREAM_PICKS = (0, 5, 6, 7)
    items = 4 * len(STREAM_PICKS)

    def setup(self, sat) -> str:
        self.sat = sat
        s = sat.solver
        self.configs = [
            ("luby:100|lbd:5|decay:0.95", {}),
            ("decay:0.6", {"decay": 0.60}),
            ("glucose:50:0.8", {"restart": s.GlucoseRestarts(50, 0.8)}),
            ("size:12", {"deletion": s.KeepSizeAtMost(12)}),
        ]
        base = random.Random(_sub_seed(BASE_SEED, self.name))
        stream = [base.getrandbits(64) for _ in range(max(self.STREAM_PICKS) + 1)]
        self.texts = [
            sat.cnf.write_dimacs(sat.benchgen.gen_random_3sat(self.VARS, self.CLAUSES, stream[k]))
            for k in self.STREAM_PICKS
        ]
        self.solver_seeds = [_sub_seed(BASE_SEED, self.name, "solver", k) for k in self.STREAM_PICKS]
        self.order = [(i, c) for i in range(len(self.texts)) for c in range(len(self.configs))]
        random.Random(_sub_seed(self.seed, self.name)).shuffle(self.order)
        return _sha256_json([self.texts, self.solver_seeds, self.order])

    def _config(self, i: int, c: int):
        s = self.sat.solver
        base = dict(restart=s.LubyRestarts(100), deletion=s.KeepLbdCutAtMost(5),
                    decay=0.95, reduce_interval=2000, seed=self.solver_seeds[i])
        base.update(self.configs[c][1])
        return s.SolverConfig(**base)

    def run_pass(self, index, tracer=None) -> PassResult:
        parse, solve = self.sat.cnf.parse_dimacs, self.sat.solver.solve
        item_s, failed = [], 0
        stats: dict[tuple, dict] = {}
        t0 = time.perf_counter()
        for i, c in self.order:
            if tracer is not None:
                tracer.item = f"{i}:{self.configs[c][0]}"
            a = time.perf_counter()
            try:
                stats[i, c] = solve(parse(self.texts[i]), self._config(i, c)).to_dict()
            except Exception:
                _report_failure(f"solve of formula {i} under {self.configs[c][0]}")
                stats[i, c] = None
                failed += 1
            item_s.append(time.perf_counter() - a)
        wall = time.perf_counter() - t0
        self.stats = stats
        ordered = [stats[key] for key in sorted(stats)]
        work = {k: sum(d[k] for d in ordered if d) for k in
                ("conflicts", "decisions", "propagations", "restarts", "learned_deleted")}
        work["unsat_solves"] = sum(1 for d in ordered if d and d["result"] == "UNSAT")
        return PassResult(wall, item_s, len(self.order), failed, _sha256_json(ordered), work)

    def check(self) -> tuple[int, int]:
        """Every SAT model satisfies its formula; the four configurations
        agree on each formula's verdict, which is SAT or UNSAT."""
        sat = self.sat
        run = failed = 0
        for i, text in enumerate(self.texts):
            formula = sat.cnf.parse_dimacs(text)
            verdicts = set()
            for c in range(len(self.configs)):
                d = self.stats.get((i, c))
                run += 1
                if d is None:
                    failed += 1
                    continue
                verdicts.add(d["result"])
                if d["result"] == "SAT":
                    model = {abs(l): l > 0 for l in d["model"]}
                    failed += not sat.cnf.evaluate(formula, model)
            run += 1
            failed += len(verdicts) != 1 or not verdicts <= {"SAT", "UNSAT"}
        return run, failed


WORKLOADS = {w.name: w for w in (StudyN20, ProfileN40, SolveN150)}
