"""Span tracing from outside the program, for the traced benchmark run.

Each traced function of a satentropy module is replaced by a wrapper that
records one span (name, start, end, parent span, item id) and returns the
wrapped function's result unchanged. Modules bind imported names in their
own namespace (``from .counter import find_model``), so a wrapper is
installed at every module attribute that holds the original function, not
only at its home module. Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

# Layer boundaries that get a span: "module.function" -> span name.
SPANNED = {
    "cnf.parse_dimacs": "cnf.parse_dimacs",
    "cnf.write_dimacs": "cnf.write_dimacs",
    "counter.find_model": "counter.find_model",
    "counter.count_models": "counter.count_models",
    "entropy.profile_formula": "entropy.profile_formula",
    "entropy.backbone_size": "entropy.backbone_size",
    "benchgen.gen_random_3sat": "benchgen.gen_random_3sat",
    "benchgen.gen_with_backbone": "benchgen.gen_with_backbone",
    "solver.solve": "solver.solve",
    "stats.delta_beta_test": "stats.delta_beta_test",
    "stats.beta_gap_entropy_vs_density": "stats.beta_gap_entropy_vs_density",
    "pipeline.load_profile": "pipeline.load_profile",
    "pipeline.ensure_profile": "pipeline.ensure_profile",
    "pipeline.run_experiment": "pipeline.run_experiment",
    "pipeline.emit_report": "pipeline.emit_report",
    "cli._cmd_gen": "cli.gen",
    "cli._cmd_experiment": "cli.experiment_run",
}
# Called thousands of times per bootstrap; counted, not spanned.
COUNTED = {"stats.ols": "stats.ols"}

MODULES = ("cnf", "counter", "entropy", "benchgen", "solver", "stats", "pipeline", "cli")

_SOLVE_COUNTERS = ("conflicts", "decisions", "propagations", "restarts", "learned_deleted")


def _outcome(name: str, result):
    """The part of a result that a per-layer ratio needs, or None."""
    if name == "counter.find_model":
        return result is None  # unsatisfiable probe
    if name == "pipeline.load_profile":
        return result is not None  # cache hit
    if name == "benchgen.gen_with_backbone":
        return result[1]  # attempts used
    if name == "solver.solve":
        return {c: getattr(result, c) for c in _SOLVE_COUNTERS}
    return None


class Tracer:
    """In-memory span recorder. Spans are lists
    [name, start, end, parent_index, item, outcome]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.item = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _spanning(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.item, None]
            spans.append(rec)
            stack.append(index)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[5] = _outcome(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Wrap every traced function wherever a satentropy module holds it."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        for table, make in ((SPANNED, self._spanning), (COUNTED, self._counting)):
            for qualname, name in table.items():
                home, attr = qualname.split(".")
                original = getattr(getattr(package, home), attr)
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._installed.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()

    def write(self, path: Path) -> None:
        """Write spans as JSON lines: id, name, start, end, parent, item."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for i, (name, start, end, parent, item, _) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start - t0,
                            "end": end - t0,
                            "parent": parent,
                            "item": item,
                        }
                    )
                    + "\n"
                )


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, and self seconds (duration
    minus the time its direct child spans cover; spans nest, so direct
    children never overlap)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _, _, _) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - child_time[i]
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer numbers from one traced pass: calls, self seconds and
    their share of the traced pass, work counts and ratios."""
    spans = tracer.spans
    tot = layer_totals(spans)

    def t(name: str) -> dict:
        return tot.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    m: dict[str, float] = {}
    for name in (
        "cnf.parse_dimacs",
        "cnf.write_dimacs",
        "counter.find_model",
        "counter.count_models",
        "entropy.profile_formula",
        "entropy.backbone_size",
        "benchgen.gen_with_backbone",
        "solver.solve",
        "stats.delta_beta_test",
        "stats.beta_gap_entropy_vs_density",
        "pipeline.ensure_profile",
    ):
        m[f"{name}.calls"] = t(name)["calls"]
        m[f"{name}.self_s"] = t(name)["self_s"]
    m["benchgen.gen_random_3sat.self_s"] = t("benchgen.gen_random_3sat")["self_s"]
    m["stats.ols.calls"] = tracer.counts["stats.ols"]

    find = [s for s in spans if s[0] == "counter.find_model"]
    m["counter.find_model.unsat_frac"] = _ratio(sum(1 for s in find if s[5]), len(find))
    m["counter.count_models.calls_per_profile"] = _ratio(
        t("counter.count_models")["calls"], t("entropy.profile_formula")["calls"]
    )

    gens = [i for i, s in enumerate(spans) if s[0] == "benchgen.gen_with_backbone"]
    attempts = sum(spans[i][5] for i in gens)
    gen_set = set(gens)
    sat_draws = sum(1 for s in find if s[3] in gen_set and not s[5])
    m["benchgen.attempts"] = attempts
    m["benchgen.sat_draw_ratio"] = _ratio(sat_draws, attempts)
    m["benchgen.accept_ratio"] = _ratio(len(gens), attempts)

    solves = [s for s in spans if s[0] == "solver.solve"]
    for c in _SOLVE_COUNTERS:
        m[f"solver.{c}"] = sum(s[5][c] for s in solves)
    solve_s = t("solver.solve")["s"]
    m["solver.propagations_per_s"] = _ratio(m["solver.propagations"], solve_s)
    m["solver.conflicts_per_s"] = _ratio(m["solver.conflicts"], solve_s)

    ensure = [i for i, s in enumerate(spans) if s[0] == "pipeline.ensure_profile"]
    ensure_set = set(ensure)
    hits = sum(1 for s in spans if s[0] == "pipeline.load_profile" and s[3] in ensure_set and s[5])
    m["pipeline.profile_cache_hit_ratio"] = _ratio(hits, len(ensure))
    m["pipeline.run_experiment.s"] = t("pipeline.run_experiment")["s"]
    m["pipeline.emit_report.s"] = t("pipeline.emit_report")["s"]
    m["cli.gen.s"] = t("cli.gen")["s"]
    m["cli.experiment_run.s"] = t("cli.experiment_run")["s"]
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    # Each time as a share of the traced pass as well.
    for name in list(m):
        if name.endswith(".self_s"):
            m[name.removesuffix("_s") + "_share"] = m[name] / traced_wall
        elif name.endswith(".s"):
            m[name.removesuffix(".s") + ".share"] = m[name] / traced_wall
    return m
