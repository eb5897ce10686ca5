import ast
import csv
import dataclasses
import hashlib
import json
import math
import multiprocessing
import pathlib
import random
import re
import shutil
import time
from fractions import Fraction

import pytest

from satentropy import pipeline, stats
from satentropy.benchgen import sub_seed
from satentropy.cli import main
from satentropy.cnf import CnfFormula, parse_dimacs
from satentropy.entropy import profile_formula, profile_from_counts
from satentropy.solver import (
    DeletionPolicy,
    GlucoseRestarts,
    KeepLbdCutAtMost,
    KeepSizeAtMost,
    LubyRestarts,
    RestartPolicy,
    SolverConfig,
)
from satentropy.pipeline import (
    ExperimentPlan,
    PlotPoint,
    aggregate_plot,
    build_suite,
    emit_report,
    load_records,
    make_plan,
    run_experiment,
)


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    build_suite(
        targets=[2, 6, 10],
        per_bucket=4,
        num_vars=12,
        seed=1234,
        out_dir=out,
        tune_clauses=True,
        max_attempts=20_000,
    )
    return out


def synthetic_records(n=100, slope=-80.0, seed=0, labels=("a",)):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        e = rng.random()
        d = rng.random()
        conflicts = {
            label: 300.0 + slope * e + rng.gauss(0, 10) for label in labels
        }
        records.append(
            {
                "formula_id": f"f{i:04d}",
                "entropy": e,
                "density": d,
                "backbone": 0,
                "conflicts": conflicts,
            }
        )
    return records


class TestMakePlan:
    def test_known_plans(self):
        for name in ("deletion", "lbdcut", "restarts", "decay"):
            plan = make_plan(name)
            assert plan.config_b is not None
            assert len({label for label, _ in plan.configs}) == 2

    def test_hardness_single_config(self):
        plan = make_plan("hardness")
        assert plan.config_b is None

    def test_plans_differ_in_one_dimension(self):
        plan = make_plan("decay")
        a, b = plan.config_a, plan.config_b
        assert a.decay != b.decay
        assert a.restart == b.restart
        assert a.deletion == b.deletion

    def test_unknown_plan(self):
        with pytest.raises(ValueError):
            make_plan("nope")

    def test_override_of_tested_field_is_ignored(self):
        # even a value SolverConfig would refuse
        plan = make_plan("decay", base_overrides={"decay": 1.5})
        assert (plan.config_a.decay, plan.config_b.decay) == (0.95, 0.6)

    # plan -> (field under test, label A, label B, labels A and B over
    # base_overrides restart=glucose:50:0.8, decay=0.8)
    LABELS = {
        "deletion": (
            "deletion",
            "luby:100|lbd:5|decay:0.95",
            "luby:100|size:12|decay:0.95",
            "glucose:50:0.8|lbd:5|decay:0.8",
            "glucose:50:0.8|size:12|decay:0.8",
        ),
        "lbdcut": (
            "deletion",
            "luby:100|lbd:1|decay:0.95",
            "luby:100|lbd:5|decay:0.95",
            "glucose:50:0.8|lbd:1|decay:0.8",
            "glucose:50:0.8|lbd:5|decay:0.8",
        ),
        "restarts": (
            "restart",
            "luby:100|lbd:5|decay:0.95",
            "glucose:50:0.8|lbd:5|decay:0.95",
            "luby:100|lbd:5|decay:0.8",
            "glucose:50:0.8|lbd:5|decay:0.8",
        ),
        "decay": (
            "decay",
            "luby:100|lbd:5|decay:0.95",
            "luby:100|lbd:5|decay:0.6",
            "glucose:50:0.8|lbd:5|decay:0.95",
            "glucose:50:0.8|lbd:5|decay:0.6",
        ),
        "hardness": (
            None,
            "luby:100|lbd:5|decay:0.95",
            None,
            "glucose:50:0.8|lbd:5|decay:0.8",
            None,
        ),
    }

    def test_every_plan_labels_and_tested_field(self):
        overrides = {"restart": RestartPolicy.parse("glucose:50:0.8"), "decay": 0.8}
        for name, (field, a, b, over_a, over_b) in self.LABELS.items():
            for base, want in ((None, (a, b)), (overrides, (over_a, over_b))):
                plan = make_plan(name, base_overrides=base)
                labels = [label for label, _ in plan.configs]
                assert labels == [w for w in want if w is not None], (name, base)
                configs = [config for _, config in plan.configs]
                assert configs == [c for c in (plan.config_a, plan.config_b) if c]
                if field is None:
                    assert plan.config_b is None
                    continue
                differ = {
                    f.name
                    for f in dataclasses.fields(SolverConfig)
                    if getattr(plan.config_a, f.name) != getattr(plan.config_b, f.name)
                }
                assert differ == {field}, (name, base)


class TestRunExperiment:
    def test_records_complete_and_persisted(self, suite_dir, tmp_path):
        plan = make_plan("decay", runs_per_formula=2, seed=5)
        records = run_experiment(plan, suite_dir, tmp_path / "out")
        assert len(records) == 12
        for rec in records:
            assert set(rec["conflicts"]) == {label for label, _ in plan.configs}
        on_disk = load_records(tmp_path / "out")
        assert on_disk == records

    def test_resume_skips_done_work(self, suite_dir, tmp_path):
        plan = make_plan("decay", runs_per_formula=1, seed=5)
        first = run_experiment(plan, suite_dir, tmp_path / "out")
        again = run_experiment(plan, suite_dir, tmp_path / "out")
        assert first == again
        lines = (tmp_path / "out" / "records.jsonl").read_text().splitlines()
        assert len(lines) == 12

    def test_records_match_profiles(self, suite_dir, tmp_path):
        plan = make_plan("hardness", runs_per_formula=1, seed=5)
        records = run_experiment(plan, suite_dir, tmp_path / "out")
        manifest = {r["formula_id"]: r for r in pipeline.load_suite(suite_dir)}
        for rec in records:
            f = parse_dimacs(
                open(manifest[rec["formula_id"]]["path"]).read()
            )
            p = profile_formula(f)
            assert abs(p.entropy - rec["entropy"]) < 1e-9
            assert abs(p.density - rec["density"]) < 1e-9

    def test_determinism_byte_identical(self, suite_dir, tmp_path):
        plan = make_plan("restarts", runs_per_formula=2, seed=11)
        for d in ("run1", "run2"):
            records = run_experiment(plan, suite_dir, tmp_path / d)
            emit_report(plan, records, tmp_path / d, k=100, seed=11)
        for name in (
            "records.jsonl",
            "records.csv",
            "comparison_table.csv",
            "hardness_table.csv",
        ):
            a = (tmp_path / "run1" / name).read_bytes()
            b = (tmp_path / "run2" / name).read_bytes()
            assert a == b, name

    def test_runs_keep_every_config_field_but_the_seed(self, suite_dir, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class TaggedConfig(SolverConfig):
            tag: str = "extra field"

        plan = make_plan("decay", runs_per_formula=2, seed=5)
        plan = dataclasses.replace(
            plan,
            config_a=TaggedConfig(
                **{**vars(plan.config_a), "conflict_budget": 777}
            ),
        )
        row = pipeline.load_suite(suite_dir)[0]
        seen = []
        real_solve = pipeline.solve

        def recording_solve(formula, cfg):
            seen.append(cfg)
            return real_solve(formula, cfg)

        monkeypatch.setattr(pipeline, "solve", recording_solve)
        pipeline._solve_formula((suite_dir, row["path"], row["formula_id"], plan))
        expected = [
            dataclasses.replace(
                cfg, seed=sub_seed(plan.seed, row["formula_id"], run)
            )
            for cfg in (plan.config_a, plan.config_b)
            for run in range(2)
        ]
        assert seen == expected

    def test_parallel_matches_serial(self, suite_dir, tmp_path):
        plan = make_plan("decay", runs_per_formula=1, seed=3)
        serial = run_experiment(plan, suite_dir, tmp_path / "s", jobs=1)
        parallel = run_experiment(plan, suite_dir, tmp_path / "p", jobs=2)
        assert serial == parallel


    def test_parallel_profiles_cold_formulas_like_serial(
        self, suite_dir, tmp_path, monkeypatch
    ):
        plan = make_plan("hardness", runs_per_formula=1, seed=3)
        outputs = []
        for jobs in (1, 2):
            cache = tmp_path / f"cache{jobs}"
            monkeypatch.setenv(pipeline.CACHE_DIR_ENV, str(cache))
            out = tmp_path / f"out{jobs}"
            run_experiment(plan, suite_dir, out, jobs=jobs)
            files = {p.name: p.read_bytes() for p in sorted(cache.iterdir())}
            outputs.append((files, (out / "records.jsonl").read_bytes()))
        assert len(outputs[0][0]) == 12
        assert outputs[0] == outputs[1]

    def test_a_suite_in_the_older_format_runs_to_the_same_results(
        self, suite_dir, tmp_path, monkeypatch
    ):
        # earlier releases wrote a manifest column `forced` (0 for a drawn
        # instance) before `attempts`, and a float `r` beside each per-variable
        # `r_exact` in the sidecars; neither is written or read now
        monkeypatch.delenv(pipeline.CACHE_DIR_ENV, raising=False)
        old = tmp_path / "old"
        shutil.copytree(suite_dir, old)
        manifest = old / "manifest.csv"
        with manifest.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert "forced" not in rows[0]
        for row in rows:
            row["forced"] = "0"
            row["attempts"] = row.pop("attempts")
        manifest.write_text(pipeline.csv_text(rows), newline="")
        sidecars = sorted((old / "profiles").iterdir())
        assert len(sidecars) == len(rows)
        for path in sidecars:
            d = json.loads(path.read_text())
            for p in d["per_var"]:
                assert "r" not in p
                p["r"] = float(Fraction(p["r_exact"]))
            path.write_text(json.dumps(d, sort_keys=True, indent=1))

        runs = {}
        for name, suite in (("new", suite_dir), ("old", old)):
            out = tmp_path / f"run-{name}"
            argv = ["experiment", "run", "--plan", "decay", "--suite", str(suite)]
            argv += ["--out", str(out), "--runs-per-formula", "1", "--k", "50"]
            assert main(argv) == 0
            runs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        new_run, old_run = (json.loads(runs[name].pop("run.json")) for name in runs)
        assert new_run.pop("suite") != old_run.pop("suite")
        assert new_run == old_run
        assert "records.jsonl" in runs["new"] and len(runs["new"]) > 2
        assert runs["new"] == runs["old"]


def _solves(formula_id, label, results, conflicts):
    """Hand-built solve records of one config, one per run."""
    return [
        {
            "formula_id": formula_id,
            "config": label,
            "run": run,
            "result": result,
            "conflicts": c,
            "restarts": run,
            "learned_deleted": 2 * run,
        }
        for run, (result, c) in enumerate(zip(results, conflicts))
    ]


class TestFormulaRecord:
    PROFILE = profile_formula(CnfFormula.from_clause_lists(3, [[1, 2], [-1, 3]]))

    @pytest.fixture(autouse=True)
    def no_solving_or_io(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the aggregation solved, parsed or touched a file")

        for name in ("solve", "parse_dimacs", "ensure_profile", "_write_atomic"):
            monkeypatch.setattr(pipeline, name, refuse)
        monkeypatch.setattr(pathlib.Path, "read_text", refuse)

    def _row(self, plan, formula_id, conflicts):
        return {
            "formula_id": formula_id,
            "entropy": self.PROFILE.entropy,
            "density": self.PROFILE.density,
            "backbone": self.PROFILE.backbone_count,
            "conflicts": conflicts,
            "seed": plan.seed,
            "plan": plan.name,
        }

    def test_paired_plan_averages_each_config(self):
        plan = make_plan("decay", runs_per_formula=3, seed=9)
        (label_a, _), (label_b, _) = plan.configs
        a, b = [3, 4, 4], [10, 0, 7]
        solves = _solves("f1", label_a, ["SAT"] * 3, a)
        solves += _solves("f1", label_b, ["SAT"] * 3, b)
        means = {label_a: sum(a) / len(a), label_b: sum(b) / len(b)}
        want = self._row(plan, "f1", means)
        assert pipeline.formula_record(plan, self.PROFILE, solves) == want
        assert want["conflicts"][label_a] == 11 / 3
        # the solves' order does not matter
        assert pipeline.formula_record(plan, self.PROFILE, solves[::-1]) == want

    def test_hardness_averages_its_one_config(self):
        plan = make_plan("hardness", runs_per_formula=2, seed=4)
        [(label, _)] = plan.configs
        solves = _solves("f2", label, ["UNSAT", "UNSAT"], [5, 8])
        want = self._row(plan, "f2", {label: 6.5})
        assert pipeline.formula_record(plan, self.PROFILE, solves) == want

    @pytest.mark.parametrize(
        "plan_name, results",
        [
            ("decay", (["SAT", "SAT"], ["UNSAT", "UNSAT"])),
            ("decay", (["SAT", "SAT"], ["SAT", "UNSAT"])),
            ("hardness", (["UNSAT", "SAT"],)),
        ],
        ids=["across-configs", "within-config-b", "within-hardness"],
    )
    def test_verdict_mismatch_is_a_runtime_error(self, plan_name, results):
        plan = make_plan(plan_name, runs_per_formula=2)
        labels = [label for label, _ in plan.configs]
        solves = []
        for label, verdicts in zip(labels, results):
            solves += _solves("f7", label, verdicts, [1, 2])
        with pytest.raises(RuntimeError) as raised:
            pipeline.formula_record(plan, self.PROFILE, solves)
        message = str(raised.value)
        head, tail = "solver verdict mismatch on f7: ", " (soundness bug)"
        assert message.startswith(head) and message.endswith(tail)
        named = ast.literal_eval(message[len(head) : -len(tail)])
        assert named == {label: set(v) for label, v in zip(labels, results)}


def _mark_slot(path):
    """Run one slot: wait, then leave its mark."""
    time.sleep(0.2)
    path.touch()
    return path


class TestMapper:
    def test_a_failing_block_cancels_the_slots_no_worker_started(self, tmp_path):
        # experiment run writes each record inside the block; when a write
        # fails, the slots no worker has started are dropped, not run
        paths = [tmp_path / f"slot{i}" for i in range(20)]
        with pytest.raises(OSError, match="disk full"):
            with pipeline._mapper(2, len(paths)) as map_fn:
                for _ in map_fn(_mark_slot, paths):
                    raise OSError("disk full")
        assert multiprocessing.active_children() == []
        assert 1 <= sum(p.exists() for p in paths) < len(paths)


SUITE = hashlib.sha256(b"manifest").hexdigest()


class TestRunFile:
    OVERRIDES = {
        "restart": RestartPolicy.parse("glucose:50:0.8123457"),
        "decay": 0.9876543,
        "reduce_interval": 300,
    }

    def test_round_trip_every_plan(self, tmp_path):
        for name in pipeline.PLAN_NAMES:
            for base in (None, self.OVERRIDES):
                plan = make_plan(name, runs_per_formula=3, seed=11, base_overrides=base)
                pipeline.write_run(tmp_path, plan, 250, SUITE)
                assert pipeline.load_run(tmp_path) == (plan, 250), (name, base)

    def test_round_trip_is_exact_where_labels_round(self, tmp_path):
        plan = make_plan("deletion", base_overrides=self.OVERRIDES)
        assert plan.configs[0][0] == "glucose:50:0.812346|lbd:5|decay:0.987654"
        pipeline.write_run(tmp_path, plan, 10, SUITE)
        loaded, _ = pipeline.load_run(tmp_path)
        for config in (loaded.config_a, loaded.config_b):
            assert config.restart.margin == 0.8123457
            assert config.decay == 0.9876543

    def test_contents_are_fixed_by_the_plan_and_k(self, tmp_path):
        plan = make_plan("decay", runs_per_formula=2, seed=7)
        pipeline.write_run(tmp_path, plan, 50, SUITE)
        text = (tmp_path / "run.json").read_text()
        assert str(tmp_path) not in text
        spec = json.loads(text)
        assert spec["config_a"] == {
            "decay": 0.95, "keep": "lbd:5", "reduce_interval": 2000, "restart": "luby:100"
        }
        assert (spec["plan"], spec["seed"], spec["runs_per_formula"], spec["k"]) == (
            "decay", 7, 2, 50
        )
        assert spec["suite"] == SUITE
        assert set(spec) == {
            "plan", "config_a", "config_b", "seed", "runs_per_formula", "suite", "k",
            "satentropy_version", "python_version",
        }
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_bad_run_json_is_a_value_error(self, tmp_path):
        (tmp_path / "run.json").write_text('{"plan": "decay"}\n')
        with pytest.raises(ValueError, match="not a run description"):
            pipeline.load_run(tmp_path)

    def test_run_experiment_writes_it_before_solving(self, suite_dir, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise ZeroDivisionError

        monkeypatch.setattr(pipeline, "solve", no_solve)
        plan = make_plan("decay", runs_per_formula=1, seed=3)
        with pytest.raises(ZeroDivisionError):
            run_experiment(plan, suite_dir, tmp_path, k=40)
        assert pipeline.load_run(tmp_path) == (plan, 40)


class TestAggregatePlot:
    def test_rounding_collision(self):
        records = [
            {"entropy": 0.501, "conflicts": {"a": 2.0}},
            {"entropy": 0.499, "conflicts": {"a": 4.0}},
        ]
        points, trend = aggregate_plot(
            records, "entropy", lambda r: r["conflicts"]["a"]
        )
        assert points == [PlotPoint(x=0.5, y=3.0, count=2)]

    def test_single_record_no_trend(self):
        records = [{"entropy": 0.3, "conflicts": {"a": 1.0}}]
        points, trend = aggregate_plot(
            records, "entropy", lambda r: r["conflicts"]["a"]
        )
        assert len(points) == 1
        assert trend is None

    def test_trend_fitted_on_raw_not_aggregated(self):
        # heavy multiplicity at one x pulls the raw fit away from the
        # fit through aggregated points
        records = [{"entropy": 0.0, "conflicts": {"a": 0.0}}] * 10
        records += [
            {"entropy": 0.0, "conflicts": {"a": 10.0}},
            {"entropy": 1.0, "conflicts": {"a": 1.0}},
            {"entropy": 2.0, "conflicts": {"a": 2.0}},
        ]
        points, trend = aggregate_plot(
            records, "entropy", lambda r: r["conflicts"]["a"]
        )
        from satentropy.stats import ols

        agg_fit = ols([p.x for p in points], [p.y for p in points])
        assert trend.beta != pytest.approx(agg_fit.beta, abs=1e-6)

    def test_counts_sum_to_records(self):
        records = synthetic_records(n=200, seed=9)
        points, _ = aggregate_plot(
            records, "entropy", lambda r: r["conflicts"]["a"]
        )
        assert sum(p.count for p in points) == 200
        assert len({p.x for p in points}) == len(points)


class TestAnalysisTable:
    """analysis_table reads the results file itself and refuses, without
    the CLI, a file it cannot analyze."""

    def test_a_missing_column_is_named(self, tmp_path):
        path = tmp_path / "results.csv"
        rows = "".join(f"0.{i},0.{9 - i},{i}\n" for i in range(5))
        path.write_text("entropy,density,conflicts_a\n" + rows)
        with pytest.raises(ValueError) as exc:
            pipeline.analysis_table(path, "delta", "conflicts_a", "conflicts_b", 20, 0)
        assert str(exc.value) == (
            f"{path} has no column 'conflicts_b' (columns: entropy, density, "
            "conflicts_a); name the conflict columns with --col-a/--col-b"
        )

    @pytest.mark.parametrize(
        "text",
        ["", "entropy,density,conflicts_a,conflicts_b\n"],
        ids=["no-header", "header-only"],
    )
    def test_an_empty_file_is_refused(self, tmp_path, text):
        path = tmp_path / "results.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            pipeline.analysis_table(path, "delta", "conflicts_a", "conflicts_b", 20, 0)
        assert str(exc.value) == "empty results file"


class TestEmitReport:
    def test_comparison_table_columns(self, tmp_path):
        records = synthetic_records(n=60, seed=3, labels=("a", "b"))
        plan = ExperimentPlan(
            "decay",
            make_plan("decay").config_a,
            make_plan("decay").config_b,
            runs_per_formula=1,
            seed=0,
        )
        # remap labels onto the synthetic conflicts
        (label_a, _), (label_b, _) = plan.configs
        for rec in records:
            rec["conflicts"] = {
                label_a: rec["conflicts"]["a"],
                label_b: rec["conflicts"]["b"],
            }
        emit_report(plan, records, tmp_path, k=100, seed=0)
        with (tmp_path / "comparison_table.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["measure"] for r in rows] == ["Entropy", "Density"]
        assert list(rows[0].keys()) == [
            "measure",
            "delta_ci",
            "delta_p",
            "delta_beta_ci",
            "delta_beta_p",
            "delta_beta0_ci",
            "delta_beta0_p",
        ]

    def test_tiny_p_rendered_as_zero(self):
        assert pipeline._fmt_p(1e-11) == "0"
        assert pipeline._fmt_p(1e-10) == "0"
        assert pipeline._fmt_p(0.03) != "0"

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty record set"):
            emit_report(make_plan("decay"), [], tmp_path)

    def test_cross_measure_written(self, tmp_path):
        records = synthetic_records(n=60, seed=4)
        plan = make_plan("hardness")
        [(label, _)] = plan.configs
        for rec in records:
            rec["conflicts"] = {label: rec["conflicts"]["a"]}
        emit_report(plan, records, tmp_path, k=50, seed=0)
        assert (tmp_path / "cross_measure.csv").exists()
        assert (tmp_path / "hardness_table.csv").exists()


class TestSpecParsers:
    @pytest.mark.parametrize(
        "parse,spec,policy",
        [
            (RestartPolicy.parse, "luby", LubyRestarts(100)),
            (RestartPolicy.parse, "glucose", GlucoseRestarts(50, 0.8)),
            (RestartPolicy.parse, "glucose:40", GlucoseRestarts(40, 0.8)),
            (RestartPolicy.parse, "glucose::0.7", GlucoseRestarts(50, 0.7)),
            (DeletionPolicy.parse, "lbd", KeepLbdCutAtMost(5)),
            (DeletionPolicy.parse, "size", KeepSizeAtMost(12)),
        ],
        ids=["luby", "glucose", "glucose:40", "glucose::0.7", "lbd", "size"],
    )
    def test_an_omitted_field_takes_its_default(self, parse, spec, policy):
        assert parse(spec) == policy


class TestProfileCacheEnvVar:
    def test_cache_redirected(self, suite_dir, tmp_path, monkeypatch):
        rows = pipeline.load_suite(suite_dir)
        path, formula_id = rows[0]["path"], rows[0]["formula_id"]
        formula = parse_dimacs(open(path).read())

        cache = tmp_path / "cache"
        monkeypatch.setenv(pipeline.CACHE_DIR_ENV, str(cache))
        profile = pipeline.ensure_profile(suite_dir, formula_id, formula)
        assert (cache / f"{formula_id}.json").exists()
        assert pipeline.load_profile(suite_dir, formula_id).entropy == pytest.approx(
            profile.entropy
        )

        monkeypatch.delenv(pipeline.CACHE_DIR_ENV)
        sidecar = pipeline.load_profile(suite_dir, formula_id)
        assert sidecar is not None  # generator-written sidecar still found


class TestProfileSidecarCheck:
    """ensure_profile checks a cached sidecar against its own counts and
    its formula's variable count."""

    @pytest.fixture
    def sidecar(self, tmp_path, monkeypatch):
        monkeypatch.delenv(pipeline.CACHE_DIR_ENV, raising=False)
        formula = parse_dimacs("p cnf 4 3\n1 2 0\n-1 2 0\n3 -4 0\n")
        written = pipeline.ensure_profile(tmp_path, "f1", formula)
        path = tmp_path / "profiles" / "f1.json"
        return tmp_path, formula, written, path

    def test_a_valid_sidecar_is_read_as_written(self, sidecar, monkeypatch):
        suite, formula, written, path = sidecar
        text = path.read_text()

        def no_profile(formula):
            raise AssertionError("profiled a formula with a valid sidecar")

        monkeypatch.setattr(pipeline, "profile_formula", no_profile)
        assert pipeline.ensure_profile(suite, "f1", formula) == written
        assert written.backbone_count == 1 and written.density == 0.375
        assert path.read_text() == text

    @pytest.mark.parametrize(
        "field,edit",
        [
            ("vars", lambda d: d.update(vars=5)),
            ("per_var", lambda d: d["per_var"].reverse()),
            ("per_var", lambda d: d["per_var"].pop()),
            ("backbone_count", lambda d: d.update(backbone_count=0)),
            ("density", lambda d: d.update(density=0.5)),
            ("density", lambda d: d.update(model_count="7")),
        ],
    )
    def test_a_hand_edited_sidecar_is_refused(self, sidecar, field, edit):
        suite, formula, _, path = sidecar
        d = json.loads(path.read_text())
        edit(d)
        path.write_text(json.dumps(d))
        message = (
            f"^profile sidecar {re.escape(str(path))} cannot be read "
            rf"\([^)]*{re.escape(field)}.*; delete the sidecar to profile it again$"
        )
        with pytest.raises(ValueError, match=message):
            pipeline.ensure_profile(suite, "f1", formula)

    @pytest.mark.parametrize(
        "model_count, r, message",
        [
            (0, 1, "'model_count' 0 is not in 1..2^3"),
            (-5, 1, "'model_count' -5 is not in 1..2^3"),
            (100, 1, "'model_count' 100 is not in 1..2^3"),
            (3, Fraction(1, 2), "per_var[0] 'r_exact' '1/2' of 'model_count' 3 is "
             "not a whole number of models"),
        ],
        ids=["no-models", "negative-models", "too-many-models", "half-a-model"],
    )
    def test_counts_no_formula_has_are_refused(
        self, tmp_path, monkeypatch, model_count, r, message
    ):
        # every derived field agrees with these counts; the counts are impossible
        monkeypatch.delenv(pipeline.CACHE_DIR_ENV, raising=False)
        formula = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        profile = profile_from_counts(3, model_count, [r] * 3)
        pipeline.write_profile(tmp_path / "profiles" / "f1.json", profile)
        with pytest.raises(ValueError) as raised:
            pipeline.ensure_profile(tmp_path, "f1", formula)
        assert f"cannot be read ({message});" in str(raised.value)

    def test_a_sidecar_of_another_variable_count_is_refused(self, sidecar):
        suite, formula, _, path = sidecar
        wider = CnfFormula(5, formula.clauses)
        pipeline.write_profile(path, profile_formula(wider))
        message = f"^profile sidecar {re.escape(str(path))}: 'vars' does not agree"
        with pytest.raises(ValueError, match=message):
            pipeline.ensure_profile(suite, "f1", formula)


def small_records(labels):
    """Six records whose entropy and density values repeat, so that some
    bootstrap resamples have a constant x column and are skipped."""
    entropy = (0.2, 0.2, 0.5, 0.5, 0.5, 0.9)
    density = (0.1, 0.3, 0.3, 0.3, 0.6, 0.6)
    conflicts = ((12, 7), (9, 8.5), (15, 4), (6, 6.5), (11, 3), (4, 9))
    return [
        {
            "formula_id": f"s{i}",
            "entropy": e,
            "density": d,
            "backbone": i % 3,
            "conflicts": dict(zip(labels, c)),
        }
        for i, (e, d, c) in enumerate(zip(entropy, density, conflicts))
    ]


def _sha256_files(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class TestGoldenReport:
    """Every report file and every `analyze` output, byte for byte, for
    fixed synthetic records; the digests were recorded before the report
    and analysis code was last restructured."""

    K, SEED = 200, 3
    REPORTS = {
        ("decay", "synthetic"):
            "fdd7aec13186ab167579e4ee75fb0c80c2b791b6115dc7a12b3f52de55e194da",
        ("decay", "small"):
            "911e5b89cbeb1311c77508c532c7b1d8562aa19add47c7311f9ae1e0de9caf6f",
        ("hardness", "synthetic"):
            "fbd496e606f1b2dc5a3795d06f7f5c2602860c8b57b7d19f0320e4d029ee0054",
        ("hardness", "small"):
            "abed652046e48b321dc03479c46d88eee29827296f38914c9734d8836f30674f",
    }
    ANALYZE = {
        ("synthetic", "delta"):
            "a6b8a4c4d1d24619cf5b197cd121176cd5dbe6348f73c1c338a36717c831b49c",
        ("synthetic", "delta-beta"):
            "2beb7ab3df7c79e6f78a00877a1662d00ef2d55f26fa25cfbc82fe49585124e3",
        ("synthetic", "beta-gap"):
            "5ed27466a96a009371dc316e9181bbd6785f11d209a7333e9eaf5e76a89c0748",
        ("small", "delta"):
            "f301191f93d7e35ab6010976142ff6e24007d59de20c216d1f87bf6b336b2e6d",
        ("small", "delta-beta"):
            "056c8d3d764f32d230de86992fbeea333266c15472c5a2b26e9774b97fc71cc5",
        ("small", "beta-gap"):
            "fb1fe08aa9fd9483a1193268fb8a548f2ff68fe113f02423467c9d57234c23ab",
    }

    @staticmethod
    def records(plan, which):
        labels = [label for label, _ in plan.configs]
        if which == "small":
            return small_records(labels)
        records = synthetic_records(n=40, seed=8, labels=("a", "b"))
        for rec in records:
            rec["conflicts"] = dict(zip(labels, rec["conflicts"].values()))
        return records

    def test_report_files_are_golden(self, tmp_path):
        digests = {}
        for plan_name, which in self.REPORTS:
            plan = make_plan(plan_name)
            out = tmp_path / f"{plan_name}-{which}"
            written = emit_report(
                plan, self.records(plan, which), out, k=self.K, seed=self.SEED
            )
            assert sorted(written) == sorted(out.iterdir())
            digests[plan_name, which] = _sha256_files(written)
        assert digests == self.REPORTS

    def test_a_torn_write_leaves_every_report_file_whole(self, tmp_path, monkeypatch):
        # a write that dies part way must leave each file old or new
        plan = make_plan("decay")
        emit_report(plan, self.records(plan, "small"), tmp_path, k=10, seed=0)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_write = pathlib.Path.write_text

        def torn(path, text, *args, **kwargs):
            real_write(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(pathlib.Path, "write_text", torn)
        with pytest.raises(OSError):
            emit_report(plan, self.records(plan, "synthetic"), tmp_path, k=10, seed=0)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_a_failing_statistic_leaves_the_old_report(self, tmp_path):
        plan = make_plan("decay")
        emit_report(plan, self.records(plan, "small"), tmp_path, k=10, seed=0)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        records = self.records(plan, "synthetic")
        for rec in records:
            rec["density"] = 0.5
        with pytest.raises(ValueError, match="constant"):
            emit_report(plan, records, tmp_path, k=10, seed=0)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_small_records_skip_degenerate_resamples(self):
        plan = make_plan("decay")
        (label_a, _), (label_b, _) = plan.configs
        recs = small_records([label_a, label_b])
        e, d = ([r[m] for r in recs] for m in ("entropy", "density"))
        ca = [r["conflicts"][label_a] for r in recs]
        cb = [r["conflicts"][label_b] for r in recs]
        e, d, ca, cb = map(stats.standardize, (e, d, ca, cb))
        gap = stats.delta_beta_test(e, ca, cb, k=self.K, seed=self.SEED)
        assert 0 < gap.skipped < self.K
        gap = stats.beta_gap_entropy_vs_density(e, d, ca, k=self.K, seed=self.SEED)
        assert 0 < gap.skipped < self.K

    def test_report_fits_each_pair_once_from_one_bootstrap(self, tmp_path, monkeypatch):
        calls = {"line_fit": 0, "ols": 0, "resamples": 0}

        def counting(name):
            real = getattr(stats, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(stats, name, counting(name))
        k = self.K
        # a paired plan line-fits its 4 (measure, config) pairs in each
        # iteration; ols fits them on the full data, plus 2 gap regressions,
        # and every plan fits 2 trendlines and the cross-measure line; each
        # ols call makes one more line fit
        for plan_name, fits, ols_calls in (("decay", 4 * k, 9), ("hardness", 2 * k, 5)):
            plan = make_plan(plan_name)
            calls.update(line_fit=0, ols=0, resamples=0)
            records = self.records(plan, "synthetic")
            emit_report(plan, records, tmp_path, k=k, seed=self.SEED)
            expected = {"line_fit": fits + ols_calls, "ols": ols_calls, "resamples": 1}
            assert calls == expected, plan_name

    def test_shared_gaps_equal_the_gaps_computed_alone(self, tmp_path, monkeypatch):
        # each gap reads only the iterations where both of its pairs fit, so
        # sharing one bootstrap changes no figure, skipped counts included
        real = stats.slope_gaps
        calls = []

        def recording(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(stats, "slope_gaps", recording)
        kw = {"k": self.K, "seed": self.SEED}
        for plan_name in ("decay", "hardness"):
            plan = make_plan(plan_name)
            labels = [label for label, _ in plan.configs]
            for which in ("synthetic", "small"):
                recs = self.records(plan, which)
                calls.clear()
                emit_report(plan, recs, tmp_path / f"{plan_name}-{which}", **kw)
                [shared] = calls
                e = stats.standardize([r["entropy"] for r in recs])
                d = stats.standardize([r["density"] for r in recs])
                cs = [
                    stats.standardize([r["conflicts"][label] for r in recs])
                    for label in labels
                ]
                alone = []
                if len(labels) == 2:
                    alone += [stats.delta_beta_test(m, *cs, **kw) for m in (e, d)]
                alone += [stats.beta_gap_entropy_vs_density(e, d, c, **kw) for c in cs]
                assert shared == alone, (plan_name, which)
                if which == "small":
                    assert any(gap.skipped for gap in shared)

    def test_a_gap_without_a_usable_resample_is_named(self, tmp_path):
        plan = make_plan("decay")
        recs = self.records(plan, "small")
        emit_report(plan, recs, tmp_path, k=10, seed=0)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # the one resample at this seed has a constant entropy column
        with pytest.raises(ValueError, match=r"on entropy: all k = 1 .*larger --k"):
            emit_report(plan, recs, tmp_path, k=1, seed=100)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_analyze_output_is_golden(self, tmp_path, capsys):
        plan = make_plan("decay")
        (label_a, _), (label_b, _) = plan.configs
        digests = {}
        for which, test in self.ANALYZE:
            out = tmp_path / which
            emit_report(plan, self.records(plan, which), out, k=10, seed=0)
            argv = ["analyze", str(out / "records.csv"), "--test", test]
            argv += ["--k", str(self.K), "--seed", str(self.SEED)]
            argv += ["--col-a", f"conflicts[{label_a}]"]
            argv += ["--col-b", f"conflicts[{label_b}]"]
            capsys.readouterr()
            assert main(argv) == 0
            captured = capsys.readouterr()
            blob = captured.out.encode() + b"\0" + captured.err.encode()
            digests[which, test] = hashlib.sha256(blob).hexdigest()
        assert digests == self.ANALYZE


class TestUnusableColumn:
    """A report or `analyze` column that no slope can be fitted on is
    refused with its name and row count, and no report file is written."""

    @staticmethod
    def plan_and_records(n):
        plan = make_plan("decay")
        return plan, TestGoldenReport.records(plan, "synthetic")[:n]

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_report_on_too_few_records(self, tmp_path, n):
        plan, records = self.plan_and_records(n)
        message = f"^column 'entropy' has {n} of the 3 rows a slope needs$"
        with pytest.raises(ValueError, match=message):
            emit_report(plan, records, tmp_path / "out", k=10, seed=0)
        assert not (tmp_path / "out").exists()

    def test_a_report_on_a_constant_conflict_column(self, tmp_path):
        plan, records = self.plan_and_records(40)
        (label_a, _), _ = plan.configs
        for rec in records:
            rec["conflicts"][label_a] = 7.0
        column = f"conflicts[{label_a}]"
        message = f"column {column!r} is constant, 7 in all 40 rows"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            emit_report(plan, records, tmp_path / "out", k=10, seed=0)
        assert not (tmp_path / "out").exists()

    @staticmethod
    def results_csv(tmp_path, rows):
        path = tmp_path / "results.csv"
        lines = [f"0.{i + 1},0.{9 - i},{a},{b}\n" for i, (a, b) in enumerate(rows)]
        path.write_text("entropy,density,conflicts_a,conflicts_b\n" + "".join(lines))
        return path

    @pytest.mark.parametrize("test", ["delta", "delta-beta", "beta-gap"])
    def test_analyze_on_two_rows(self, tmp_path, capsys, test):
        path = self.results_csv(tmp_path, [(3, 4), (5, 1)])
        message = "column 'entropy' has 2 of the 3 rows a slope needs"
        with pytest.raises(ValueError, match=f"^{message}$"):
            pipeline.analysis_table(path, test, "conflicts_a", "conflicts_b", 20, 0)
        assert main(["analyze", str(path), "--test", test]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("test", ["delta", "delta-beta", "beta-gap"])
    def test_analyze_on_a_constant_col_a(self, tmp_path, capsys, test):
        path = self.results_csv(tmp_path, [(3, 4), (3, 1), (3, 8)])
        message = "column 'conflicts_a' is constant, 3 in all 3 rows"
        with pytest.raises(ValueError, match=f"^{message}$"):
            pipeline.analysis_table(path, test, "conflicts_a", "conflicts_b", 20, 0)
        assert main(["analyze", str(path), "--test", test]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestMeasureTable:
    """pipeline.MEASURES is the one list of measures: a row added to it
    reaches every per-measure report file and `analyze` table, and the
    files that compare the first two measures do not change."""

    def test_a_third_measure_reaches_every_per_measure_output(
        self, tmp_path, monkeypatch
    ):
        plan = make_plan("decay")
        (label_a, _), (label_b, _) = plan.configs
        records = TestGoldenReport.records(plan, "synthetic")
        for i, rec in enumerate(records):
            rec["backbone"] = i % 4
        two, three = tmp_path / "two", tmp_path / "three"
        emit_report(plan, records, two, k=50, seed=1)
        monkeypatch.setattr(
            pipeline, "MEASURES", (*pipeline.MEASURES, ("backbone", "Backbone"))
        )
        emit_report(plan, records, three, k=50, seed=1)

        def read(path):
            with path.open(newline="") as fh:
                return list(csv.DictReader(fh))

        old = read(two / "comparison_table.csv")
        new = read(three / "comparison_table.csv")
        assert [r["measure"] for r in new] == ["Entropy", "Density", "Backbone"]
        assert new[:2] == old
        assert (three / "plot_decay_gap_vs_backbone.csv").exists()
        assert not (two / "plot_decay_gap_vs_backbone.csv").exists()
        for name in ("hardness_table.csv", "cross_measure.csv", "records.csv"):
            assert (three / name).read_bytes() == (two / name).read_bytes(), name

        args = (f"conflicts[{label_a}]", f"conflicts[{label_b}]", 50, 1)
        tables = {
            test: pipeline.analysis_table(three / "records.csv", test, *args)
            for test in ("delta", "delta-beta")
        }
        monkeypatch.undo()
        for test, table in tables.items():
            assert [r["measure"] for r in table] == ["Entropy", "Density", "Backbone"]
            assert table[:2] == pipeline.analysis_table(
                three / "records.csv", test, *args
            )
