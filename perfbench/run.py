"""satentropy benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload study-n20 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src. With
--trace 0 the last stdout line is a JSON object holding every end-to-end
metric of BENCHMARK.json; with --trace 1 it holds every per-layer metric.
The full result (environment, digests, work counts, latencies, checks) is
written under .perfbench_out/results/, with the spans of a traced run.
The exit code is 0 only when every operation and output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
MODULES = ("cnf", "counter", "entropy", "benchgen", "solver", "stats", "pipeline", "cli")


def import_program():
    """Import satentropy afresh from ./src, every module included."""
    for name in [m for m in sys.modules if m == "satentropy" or m.startswith("satentropy.")]:
        del sys.modules[name]
    package = importlib.import_module("satentropy")
    for m in MODULES:
        importlib.import_module(f"satentropy.{m}")
    return package


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def tail_latency(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None
    ordered = sorted(samples)
    return {"percentile": 100.0 * (n - 10) / n, "ms": ordered[n - 11] * 1e3, "samples": n}


def measure(workload_cls, seed: int, seconds: int, trace: int, workdir: Path):
    """Set up, run the timed passes, check outputs; return the full result
    and the tracer of a traced run (None untraced)."""
    setups, digests = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sat = import_program()
        workload = workload_cls(seed, seconds, workdir)
        digests.append(workload.setup(sat))
        setups.append(time.perf_counter() - t0)

    tracer = None
    if trace:
        from tracing import Tracer

        untraced = workload.run_pass(0)
        tracer = Tracer()
        tracer.install(sat)
        try:
            traced = workload.run_pass(1, tracer)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
    else:
        passes = [workload.run_pass(i) for i in range(workload.passes)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks_run, checks_failed = workload.check()
    # Identical inputs must give identical outputs and work in every pass,
    # traced or not, and set-up must make the same inputs every time.
    checks_run += 2
    checks_failed += len({(p.digest, json.dumps(p.work, sort_keys=True)) for p in passes}) != 1
    checks_failed += len(set(digests)) != 1

    operations = sum(p.operations for p in passes)
    op_failed = sum(p.failed for p in passes)
    attempted = operations + checks_run
    failed = op_failed + checks_failed
    item_s = [t for p in passes for t in p.item_s]
    wall_s = statistics.fmean(p.wall_s for p in passes)

    result = {
        "workload": workload_cls.name,
        "trace": trace,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "package_version": sat.__version__,
            "git_commit": git_commit(),
            "seed": seed,
            "seconds": seconds,
            "passes": len(passes),
            "items_per_pass": workload.items,
            "item": workload_cls.item_name,
            "item_samples": len(item_s),
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "operations": {"run": operations, "failed": op_failed},
        "checks": {"run": checks_run, "failed": checks_failed},
        "input_digest": digests[0],
        "output_digest": passes[-1].digest,
        "work": passes[-1].work,
        "setup_s_samples": setups,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_item_s": [p.item_s for p in passes],
        "latency": {
            "item_ms_p50": statistics.median(item_s) * 1e3 if item_s else None,
            "item_ms_tail": tail_latency(item_s),
        },
    }
    if trace:
        from tracing import per_layer_metrics

        result["metrics"] = per_layer_metrics(tracer, passes[1].wall_s, passes[0].wall_s)
    else:
        result["metrics"] = {
            "wall_s": wall_s,
            "items_per_s": workload.items / wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
    return result, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "satentropy" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no satentropy sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, tracer = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    # Per-layer seconds are printed and kept in the result file; the JSON
    # line carries them as shares of the traced pass (a layer that a
    # workload does not reach reads 0 s on every run).
    measured = {name: {"value": value, "unit": units.get(name, "s")}
                for name, value in result["metrics"].items()}
    metrics = {name: measured[name] for name in units}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(results_dir / f"{stem}-spans.jsonl")
    result["metrics"] = measured
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    env = result["environment"]
    print(f"workload {args.workload}: {env['passes']} passes x {env['items_per_pass']} "
          f"{env['item']}s, seed {args.seed}, nproc {env['nproc']}, python {env['python']}")
    for name, m in measured.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    lat = result["latency"]
    if lat["item_ms_p50"] is not None:
        print(f"item_ms_p50 = {lat['item_ms_p50']:.6g} ms over {env['item_samples']} samples")
    if lat["item_ms_tail"]:
        t = lat["item_ms_tail"]
        print(f"item_ms_tail = {t['ms']:.6g} ms at p{t['percentile']:.1f} of {t['samples']} samples")
    print(f"error_rate = {result['error_rate']:.6g} ({result['failed']} of {result['attempted']})")
    print(f"output_digest = {result['output_digest']}")
    print(f"work = {json.dumps(result['work'], sort_keys=True)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
