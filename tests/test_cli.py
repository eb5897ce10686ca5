import csv
import json

import pytest

from satentropy.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_UNSAT,
    EXIT_USAGE,
    main,
)


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


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


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

    def test_rerun_with_another_k_reports_without_solving(
        self, small_suite, tmp_path, monkeypatch
    ):
        res, fresh = tmp_path / "res", tmp_path / "fresh"
        assert main(_run_args(small_suite, res, "--k", "20")) == EXIT_OK
        assert main(_run_args(small_suite, fresh, "--k", "30")) == EXIT_OK
        records = (res / "records.jsonl").read_bytes()

        from satentropy import pipeline

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

    def test_run_finds_profiles_gen_wrote_to_the_cache_dir(self, tmp_path, monkeypatch):
        from satentropy import pipeline

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
