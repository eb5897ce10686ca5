import csv
import json
import shutil

import pytest

from satentropy import pipeline
from satentropy.benchgen import gen_random_3sat
from satentropy.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_UNSAT,
    EXIT_USAGE,
    main,
)
from satentropy.cnf import CnfFormula, content_hash, parse_dimacs, write_dimacs
from satentropy.solver import SolverConfig, solve


@pytest.fixture
def sat_file(tmp_path):
    p = tmp_path / "sat.cnf"
    p.write_text("p cnf 2 1\n1 2 0\n")
    return str(p)


@pytest.fixture
def unsat_file(tmp_path):
    p = tmp_path / "unsat.cnf"
    p.write_text("p cnf 1 2\n1 0\n-1 0\n")
    return str(p)


class TestCount:
    def test_sat(self, sat_file, capsys):
        assert main(["count", sat_file]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "3"

    def test_unsat_exit_20(self, unsat_file, capsys):
        assert main(["count", unsat_file]) == EXIT_UNSAT
        assert capsys.readouterr().out.strip() == "0"

    def test_budget_exit_3(self, tmp_path, capsys):
        from satentropy.benchgen import gen_random_3sat
        from satentropy.cnf import write_dimacs

        p = tmp_path / "hard.cnf"
        p.write_text(write_dimacs(gen_random_3sat(18, 76, 1)))
        assert main(["count", str(p), "--max-nodes", "1"]) == EXIT_BUDGET


class TestProfile:
    def test_json_on_stdout(self, sat_file, capsys):
        assert main(["profile", sat_file]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["vars"] == 2
        assert rec["clauses"] == 1
        assert rec["density"] == 0.75
        assert rec["backbone_count"] == 0
        assert len(rec["per_var"]) == 2

    def test_unsat_is_runtime_error(self, unsat_file, capsys):
        assert main(["profile", unsat_file]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err


class TestSolve:
    def test_sat_model_v_line(self, sat_file, capsys):
        assert main(["solve", sat_file, "--seed", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        stats = json.loads(out.splitlines()[0])
        assert stats["result"] == "SAT"
        assert out.splitlines()[1].startswith("v ")
        assert out.splitlines()[1].endswith(" 0")

    def test_unsat_exit(self, unsat_file, capsys):
        assert main(["solve", unsat_file]) == EXIT_UNSAT
        assert json.loads(capsys.readouterr().out)["result"] == "UNSAT"

    def test_flag_parsing(self, sat_file):
        assert (
            main(
                [
                    "solve",
                    sat_file,
                    "--restart",
                    "glucose:50:0.8",
                    "--keep",
                    "size:12",
                    "--decay",
                    "0.6",
                    "--seed",
                    "1",
                ]
            )
            == EXIT_OK
        )

    def test_bad_restart_spec(self, sat_file, capsys):
        assert main(["solve", sat_file, "--restart", "bogus"]) == EXIT_ERROR

    @pytest.mark.parametrize(
        "lines",
        [
            [],
            ["decay = 0.6"],
            ["restart = glucose:40:0.7", "keep = size:9", "reduce_interval = 30"],
        ],
    )
    def test_flags_mean_what_config_keys_mean(self, tmp_path, capsys, lines):
        # flags not given take SolverConfig's defaults, as in a config file
        path = tmp_path / "f.cnf"
        path.write_text(write_dimacs(gen_random_3sat(70, 298, 5)))
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("".join(line + "\n" for line in lines))
        argv = ["solve", str(path)]
        for line in lines:
            key, _, value = line.partition(" = ")
            argv += ["--" + key.replace("_", "-"), value]
        main(argv)
        config = SolverConfig(**pipeline.load_solver_defaults(cfg))
        st = solve(parse_dimacs(path.read_text()), config)
        assert st.conflicts > 50
        out = capsys.readouterr().out
        assert out.splitlines()[0] == json.dumps(st.to_dict(), sort_keys=True)


    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_reduce_interval_below_one_is_refused(self, sat_file, tmp_path, capsys, value):
        message = f"error: reduce_interval must be at least 1, not {value}\n"
        assert main(["solve", sat_file, "--reduce-interval", value]) == EXIT_ERROR
        assert capsys.readouterr().err == message
        cfg = tmp_path / "solver.cfg"
        cfg.write_text(f"reduce_interval = {value}\n")
        argv = ["experiment", "run", "--plan", "decay", "--suite", str(tmp_path)]
        argv += ["--out", str(tmp_path / "res"), "--config", str(cfg)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == message
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                "glucose:50:0.8:junk",
                "restart policy 'glucose:50:0.8:junk' has 3 fields after "
                "'glucose:'; use glucose:W:M",
            ),
            ("glucose:50:nan", "margin must be positive and finite, not nan"),
            ("glucose:50:inf", "margin must be positive and finite, not inf"),
            ("glucose:50:-3", "margin must be positive and finite, not -3.0"),
            ("glucose:50:0", "margin must be positive and finite, not 0.0"),
        ],
        ids=["third-field", "nan-margin", "inf-margin", "negative-margin", "zero-margin"],
    )
    def test_bad_glucose_spec_is_refused(
        self, sat_file, tmp_path, capsys, spec, message
    ):
        assert main(["solve", sat_file, "--restart", spec]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        cfg = tmp_path / "solver.cfg"
        cfg.write_text(f"restart = {spec}\n")
        argv = ["experiment", "run", "--plan", "decay", "--suite", str(tmp_path)]
        argv += ["--out", str(tmp_path / "res"), "--config", str(cfg)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {cfg}:1: {message}\n"
        assert not (tmp_path / "res").exists()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_file(self, capsys):
        assert main(["count", "/nonexistent.cnf"]) == EXIT_ERROR

    def test_malformed_dimacs(self, tmp_path, capsys):
        p = tmp_path / "bad.cnf"
        p.write_text("p cnf 2 1\n3 0\n")
        assert main(["count", str(p)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "literal 3" in err

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--backbones", "2,x"),
            ("--per-bucket", "x"),
            ("--clauses-per-bucket", "2:70"),
            ("--clauses-per-bucket", "2=x"),
            ("--force", "2,"),
        ],
    )
    def test_malformed_gen_option_is_usage_error(self, tmp_path, capsys, option, value):
        argv = ["gen", "--vars", "10", "--backbones", "2", "--per-bucket", "1"]
        argv += ["--seed", "3", "--out", str(tmp_path / "suite"), option, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {option}: ") and repr(value) in err
        assert not (tmp_path / "suite").exists()


GEN_SMALL = ["gen", "--vars", "10", "--backbones", "2,4", "--per-bucket", "2"]
GEN_SMALL += ["--seed", "3", "--tune-clauses"]


@pytest.fixture(scope="module")
def small_suite(tmp_path_factory):
    suite = tmp_path_factory.mktemp("small") / "suite"
    assert main(GEN_SMALL + ["--out", str(suite)]) == EXIT_OK
    return suite


def _run_args(suite, out, *extra):
    args = ["experiment", "run", "--plan", "decay", "--suite", str(suite)]
    return args + ["--out", str(out), "--runs-per-formula", "1", "--k", "20", *extra]


def _json_edit(edit):
    """A sidecar text edit that applies edit to the parsed JSON in place."""

    def apply(text):
        d = json.loads(text)
        edit(d)
        return json.dumps(d)

    return apply


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _tree(directory):
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


class TestGenAndExperiment:
    def test_end_to_end_determinism(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        code = main(
            [
                "gen",
                "--vars",
                "12",
                "--backbones",
                "2,6",
                "--per-bucket",
                "3",
                "--seed",
                "5",
                "--out",
                str(suite),
                "--tune-clauses",
            ]
        )
        assert code == EXIT_OK
        capsys.readouterr()

        outs = []
        for d in ("e1", "e2"):
            code = main(
                [
                    "experiment",
                    "run",
                    "--plan",
                    "decay",
                    "--suite",
                    str(suite),
                    "--out",
                    str(tmp_path / d),
                    "--seed",
                    "7",
                    "--runs-per-formula",
                    "2",
                    "--k",
                    "50",
                ]
            )
            assert code == EXIT_OK
            capsys.readouterr()
            outs.append((tmp_path / d / "records.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_analyze(self, tmp_path, capsys):
        p = tmp_path / "results.csv"
        with p.open("w", newline="") as fh:
            w = csv.DictWriter(
                fh, fieldnames=["entropy", "density", "conflicts_a", "conflicts_b"]
            )
            w.writeheader()
            import random

            rng = random.Random(0)
            for _ in range(40):
                e = rng.random()
                w.writerow(
                    {
                        "entropy": e,
                        "density": rng.random(),
                        "conflicts_a": 10 - 5 * e + rng.gauss(0, 1),
                        "conflicts_b": rng.gauss(5, 1),
                    }
                )
        for test in ("delta", "delta-beta", "beta-gap"):
            assert (
                main(["analyze", str(p), "--test", test, "--k", "50", "--seed", "1"])
                == EXIT_OK
            )
            out = capsys.readouterr().out
            assert "measure,conf_interval,p_val" in out

    def test_analyze_names_a_missing_column(self, tmp_path, capsys):
        # a report's records.csv names its columns conflicts[<label>], so
        # the default --col-a conflicts_a is not there
        p = tmp_path / "records.csv"
        p.write_text(
            "formula_id,entropy,density,backbone,conflicts[x],conflicts[y]\n"
            + "".join(f"f{i},0.{i},0.{9 - i},0,{i},{2 * i}\n" for i in range(5))
        )
        assert main(["analyze", str(p), "--test", "delta"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unexpected" not in err
        assert "'conflicts_a'" in err and "conflicts[x], conflicts[y]" in err
        assert "--col-a" in err and "--col-b" in err

    def test_config_file_sets_shared_dimensions(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        assert (
            main(
                [
                    "gen",
                    "--vars",
                    "10",
                    "--backbones",
                    "2,4",
                    "--per-bucket",
                    "2",
                    "--seed",
                    "3",
                    "--out",
                    str(suite),
                    "--tune-clauses",
                ]
            )
            == EXIT_OK
        )
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("restart = glucose:30:0.7\nkeep = size:8\n")
        code = main(
            [
                "experiment",
                "run",
                "--plan",
                "decay",
                "--suite",
                str(suite),
                "--out",
                str(tmp_path / "res"),
                "--config",
                str(cfg),
                "--k",
                "20",
                "--runs-per-formula",
                "1",
            ]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        records = (tmp_path / "res" / "records.jsonl").read_text().splitlines()
        labels = set(json.loads(records[0])["conflicts"])
        assert labels == {
            "glucose:30:0.7|size:8|decay:0.95",
            "glucose:30:0.7|size:8|decay:0.6",
        }

    def test_config_file_bad_key_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("colour = blue\n")
        code = main(
            [
                "experiment",
                "run",
                "--plan",
                "decay",
                "--suite",
                str(tmp_path),
                "--out",
                str(tmp_path / "res"),
                "--config",
                str(cfg),
            ]
        )
        assert code == EXIT_ERROR
        assert "unknown key" in capsys.readouterr().err

    def test_report_reproduces_config_run_files(self, small_suite, tmp_path, capsys):
        # report takes the configs from run.json, so the config file's
        # labels are known to it
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("restart = glucose:50:0.8\n")
        res = tmp_path / "res"
        run = _run_args(small_suite, res, "--config", str(cfg), "--k", "20")
        assert main(run) == EXIT_OK
        before = _files(res)
        assert "conflicts[glucose:50:0.8|lbd:5|decay:0.95]" in before["records.csv"].decode()
        capsys.readouterr()
        assert main(["experiment", "report", "--in", str(res)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert _files(res) == before

    @pytest.mark.parametrize("plan", pipeline.PLAN_NAMES)
    def test_report_reproduces_every_plan_run(self, small_suite, tmp_path, plan):
        res = tmp_path / "res"
        argv = _run_args(small_suite, res, "--plan", plan, "--reduce-interval", "20")
        assert main(argv) == EXIT_OK
        before = _files(res)
        for name in before:
            (res / name).unlink()
        (res / "run.json").write_bytes(before["run.json"])
        (res / "records.jsonl").write_bytes(before["records.jsonl"])
        assert main(["experiment", "report", "--in", str(res)]) == EXIT_OK
        assert _files(res) == before

    def test_reduce_interval_argument_wins(self, small_suite, tmp_path):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("reduce_interval = 500\n")
        res = tmp_path / "res"
        argv = _run_args(small_suite, res, "--config", str(cfg))
        assert main(argv + ["--reduce-interval", "50"]) == EXIT_OK
        spec = json.loads((res / "run.json").read_text())
        assert spec["config_a"]["reduce_interval"] == 50
        assert spec["config_b"]["reduce_interval"] == 50

    def test_config_file_reduce_interval_reaches_run_json(self, small_suite, tmp_path):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("reduce_interval = 50\n")
        res, plain = tmp_path / "res", tmp_path / "plain"
        assert main(_run_args(small_suite, res, "--config", str(cfg))) == EXIT_OK
        assert main(_run_args(small_suite, plain)) == EXIT_OK
        configs = json.loads((res / "run.json").read_text())
        assert configs["config_a"]["reduce_interval"] == 50
        assert configs["config_b"]["reduce_interval"] == 50
        default = json.loads((plain / "run.json").read_text())
        assert default["config_a"]["reduce_interval"] == 2000

    def test_report_keeps_the_runs_seed_and_k(self, small_suite, tmp_path):
        res = tmp_path / "res"
        assert main(_run_args(small_suite, res, "--seed", "7", "--k", "50")) == EXIT_OK
        before = (res / "hardness_table.csv").read_bytes()
        assert main(["experiment", "report", "--in", str(res)]) == EXIT_OK
        assert (res / "hardness_table.csv").read_bytes() == before

    def test_report_options_are_gone(self, tmp_path, capsys):
        for extra in (["--plan", "decay"], ["--seed", "7"], ["--k", "50"]):
            with pytest.raises(SystemExit) as exc:
                main(["experiment", "report", "--in", str(tmp_path)] + extra)
            assert exc.value.code == EXIT_USAGE

    def test_report_without_run_json_is_runtime_error(self, tmp_path, capsys):
        (tmp_path / "records.jsonl").write_text("")
        assert main(["experiment", "report", "--in", str(tmp_path)]) == EXIT_ERROR
        assert "run.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, change",
        [
            ("plan", ["--plan", "restarts"]),
            ("seed", ["--seed", "8"]),
            ("runs_per_formula", ["--runs-per-formula", "2"]),
            ("config_a", ["--reduce-interval", "50"]),
        ],
    )
    def test_rerun_of_another_run_is_refused(
        self, small_suite, tmp_path, capsys, field, change
    ):
        res = tmp_path / "res"
        assert main(_run_args(small_suite, res)) == EXIT_OK
        files = _files(res)
        capsys.readouterr()
        assert main(_run_args(small_suite, res) + change) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"records {field} " in err and "unexpected" not in err
        assert _files(res) == files

    def test_rerun_with_another_suite_is_refused(self, small_suite, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(GEN_SMALL + ["--seed", "4", "--out", str(other)]) == EXIT_OK
        res = tmp_path / "res"
        assert main(_run_args(small_suite, res)) == EXIT_OK
        files = _files(res)
        capsys.readouterr()
        assert main(_run_args(other, res)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "records suite " in err
        assert _files(res) == files

        # a run.json without the suite's digest is another run too
        spec = json.loads(files["run.json"])
        del spec["suite"]
        (res / "run.json").write_text(json.dumps(spec))
        assert main(_run_args(small_suite, res)) == EXIT_ERROR
        assert "records suite null, not " in capsys.readouterr().err

    def test_rerun_with_a_copy_of_the_suite_resumes(
        self, small_suite, tmp_path, monkeypatch
    ):
        res = tmp_path / "res"
        assert main(_run_args(small_suite, res)) == EXIT_OK
        files = _files(res)
        copy = tmp_path / "copy"
        shutil.copytree(small_suite, copy)

        def no_solve(*args, **kwargs):
            raise AssertionError("solved a recorded formula")

        monkeypatch.setattr(pipeline, "solve", no_solve)
        assert main(_run_args(copy, res)) == EXIT_OK
        assert _files(res) == files

    def test_rerun_with_another_k_reports_without_solving(
        self, small_suite, tmp_path, monkeypatch
    ):
        res, fresh = tmp_path / "res", tmp_path / "fresh"
        assert main(_run_args(small_suite, res, "--k", "20")) == EXIT_OK
        assert main(_run_args(small_suite, fresh, "--k", "30")) == EXIT_OK
        records = (res / "records.jsonl").read_bytes()

        def no_solve(*args, **kwargs):
            raise AssertionError("solved a recorded formula")

        monkeypatch.setattr(pipeline, "solve", no_solve)
        assert main(_run_args(small_suite, res, "--k", "30")) == EXIT_OK
        assert json.loads((res / "run.json").read_text())["k"] == 30
        assert (res / "records.jsonl").read_bytes() == records
        assert _files(res) == _files(fresh)

    def test_records_without_run_json_are_refused(self, small_suite, tmp_path, capsys):
        res = tmp_path / "res"
        assert main(_run_args(small_suite, res)) == EXIT_OK
        (res / "run.json").unlink()
        records = (res / "records.jsonl").read_bytes()
        capsys.readouterr()
        assert main(_run_args(small_suite, res)) == EXIT_ERROR
        assert "no run.json" in capsys.readouterr().err
        assert (res / "records.jsonl").read_bytes() == records

    def test_torn_final_record_is_dropped_and_solved_again(
        self, small_suite, tmp_path, capsys
    ):
        res = tmp_path / "res"
        assert main(_run_args(small_suite, res)) == EXIT_OK
        path = res / "records.jsonl"
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - 25])  # cut inside the last line
        capsys.readouterr()
        assert main(_run_args(small_suite, res)) == EXIT_OK
        err = capsys.readouterr().err
        assert "unterminated final line" in err
        assert path.read_bytes() == whole

    def test_malformed_inner_record_names_its_line(self, small_suite, tmp_path, capsys):
        res = tmp_path / "res"
        assert main(_run_args(small_suite, res)) == EXIT_OK
        path = res / "records.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:30] + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert main(_run_args(small_suite, res)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "records.jsonl:2: malformed record" in err
        assert main(["experiment", "report", "--in", str(res)]) == EXIT_ERROR
        assert "records.jsonl:2: malformed record" in capsys.readouterr().err

    def test_tuned_buckets_keep_their_count_beside_given_ones(self, tmp_path):
        suite = tmp_path / "suite"
        argv = ["gen", "--vars", "12", "--backbones", "2,6", "--per-bucket", "1"]
        argv += ["--seed", "5", "--tune-clauses", "--clauses-per-bucket", "2=46"]
        assert main(argv + ["--out", str(suite)]) == EXIT_OK
        clauses = {r["backbone"]: r["num_clauses"] for r in pipeline.load_suite(suite)}
        assert clauses == {"2": "46", "6": "47"}  # 47 = round(12 * (3.4 + 1.05 / 2))

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--backbones", "2,4,2", "backbone targets [2] are given more than once"),
            (
                "--clauses-per-bucket",
                "2=40,6=50",
                "clause counts are given for targets [6], which are not among "
                "the backbone targets [2, 4]",
            ),
            (
                "--force",
                "4,8",
                "force is asked for targets [8], which are not among the "
                "backbone targets [2, 4]",
            ),
            ("--per-bucket", "0", "no instances to generate: targets [2, 4], per_bucket 0"),
        ],
        ids=["repeated-target", "stray-clause-count", "stray-force", "no-instances"],
    )
    def test_bad_suite_request_is_refused(self, tmp_path, capsys, option, value, message):
        suite = tmp_path / "suite"
        assert main(GEN_SMALL + ["--out", str(suite), option, value]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not suite.exists()

    def test_gen_into_a_non_empty_directory_is_refused(
        self, tmp_path, capsys, monkeypatch
    ):
        suite = tmp_path / "suite"
        suite.mkdir()
        assert main(GEN_SMALL + ["--out", str(suite)]) == EXIT_OK
        before = _tree(suite)
        assert "manifest.csv" in before
        assert any(name.startswith("profiles") for name in before)
        capsys.readouterr()

        def no_draw(*args, **kwargs):
            raise AssertionError("drew a formula")

        monkeypatch.setattr(pipeline, "gen_with_backbone", no_draw)
        assert main(GEN_SMALL + ["--seed", "4", "--out", str(suite)]) == EXIT_ERROR
        err = capsys.readouterr().err
        message = "is not empty; write the suite to a new or empty directory"
        assert err == f"error: {suite} {message}\n"
        assert _tree(suite) == before

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--runs-per-formula", "0", "runs_per_formula must be at least 1, not 0"),
            ("--runs-per-formula", "-2", "runs_per_formula must be at least 1, not -2"),
            ("--k", "0", "k must be at least 1, not 0"),
        ],
        ids=["no-runs", "negative-runs", "no-resamples"],
    )
    def test_bad_run_parameter_is_refused_before_run_json(
        self, small_suite, tmp_path, capsys, option, value, message
    ):
        res = tmp_path / "res"
        argv = ["experiment", "run", "--plan", "decay", "--suite", str(small_suite)]
        assert main(argv + ["--out", str(res), option, value]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not res.exists()

    def test_manifest_naming_a_formula_twice_is_refused(self, small_suite, tmp_path, capsys):
        suite = tmp_path / "suite"
        shutil.copytree(small_suite, suite)
        lines = (suite / "manifest.csv").read_bytes().splitlines(keepends=True)
        (suite / "manifest.csv").write_bytes(b"".join(lines + lines[2:3]))
        twice = pipeline.load_suite(small_suite)[1]["formula_id"]
        assert main(_run_args(suite, tmp_path / "res")) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: {suite / 'manifest.csv'} names formula {twice} twice\n"
        assert not (tmp_path / "res" / "records.jsonl").exists()

    def test_formula_edited_after_gen_is_refused(self, small_suite, tmp_path, capsys):
        suite = tmp_path / "suite"
        shutil.copytree(small_suite, suite)
        row = min(pipeline.load_suite(suite), key=lambda r: r["formula_id"])
        formula = parse_dimacs((suite / row["file"]).read_text())
        edited = CnfFormula(formula.num_vars, formula.clauses[:-1])
        (suite / row["file"]).write_text(write_dimacs(edited))
        res = tmp_path / "res"
        assert main(_run_args(suite, res)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {suite / row['file']} hashes to ")
        assert content_hash(edited) in err and row["formula_id"] in err
        assert (res / "records.jsonl").read_bytes() == b""

    def test_sidecar_edited_after_gen_is_refused(
        self, small_suite, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv(pipeline.CACHE_DIR_ENV, raising=False)
        suite = tmp_path / "suite"
        shutil.copytree(small_suite, suite)
        row = min(pipeline.load_suite(suite), key=lambda r: r["formula_id"])
        sidecar = suite / "profiles" / f"{row['formula_id']}.json"
        d = json.loads(sidecar.read_text())
        d["backbone_count"] += 1
        sidecar.write_text(json.dumps(d))
        assert main(_run_args(suite, tmp_path / "res")) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: profile sidecar {sidecar}: 'backbone_count' ")

    @pytest.mark.parametrize(
        "edit,why",
        [
            (lambda text: text[: len(text) // 2], "Expecting "),
            (_json_edit(lambda d: d.pop("per_var")), "missing field 'per_var'"),
            (
                _json_edit(lambda d: [p.pop("r_exact") for p in d["per_var"]]),
                "missing field 'r_exact'",
            ),
            (
                _json_edit(lambda d: d["per_var"][0].update(r_exact="3/2")),
                "'r_exact' '3/2' is not a ratio in [0, 1]",
            ),
        ],
        ids=["truncated", "no-per-var", "no-r-exact", "bad-r-exact"],
    )
    def test_an_unreadable_sidecar_is_refused(
        self, small_suite, tmp_path, capsys, monkeypatch, edit, why
    ):
        monkeypatch.delenv(pipeline.CACHE_DIR_ENV, raising=False)
        suite = tmp_path / "suite"
        shutil.copytree(small_suite, suite)
        row = min(pipeline.load_suite(suite), key=lambda r: r["formula_id"])
        sidecar = suite / "profiles" / f"{row['formula_id']}.json"
        sidecar.write_text(edit(sidecar.read_text()))
        assert main(_run_args(suite, tmp_path / "res")) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: profile sidecar {sidecar} cannot be read (")
        assert why in err
        assert err.endswith("; delete the sidecar to profile it again\n")

    def test_run_finds_profiles_gen_wrote_to_the_cache_dir(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv(pipeline.CACHE_DIR_ENV, str(cache))
        suite = tmp_path / "suite"
        assert main(GEN_SMALL + ["--out", str(suite)]) == EXIT_OK
        assert not (suite / "profiles").exists()
        assert len(list(cache.glob("*.json"))) == 4

        def no_profile(formula):
            raise AssertionError("profiled a formula gen had profiled")

        monkeypatch.setattr(pipeline, "profile_formula", no_profile)
        assert main(_run_args(suite, tmp_path / "res")) == EXIT_OK

    def test_analyze_names_a_bad_cell(self, tmp_path, capsys):
        p = tmp_path / "results.csv"
        rows = [f"0.{i},0.{9 - i},{i},{2 * i}\n" for i in range(5)]
        rows[3] = "0.3,,3,6\n"
        p.write_text("entropy,density,conflicts_a,conflicts_b\n" + "".join(rows))
        assert main(["analyze", str(p), "--test", "delta"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: column 'density', data row 4: '' is not a number\n"


def test_unexpected_exception_is_runtime_error(sat_file, capsys, monkeypatch):
    from satentropy import cli

    def boom(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "solve", boom)
    assert main(["solve", sat_file]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: unexpected ZeroDivisionError: division by zero\n"
