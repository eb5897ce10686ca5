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

    def test_report_after_config_run_is_runtime_error(self, tmp_path, capsys):
        # the records carry the config file's labels, which report does not
        # know; that must end in exit 2 with one error line, not a traceback
        suite = tmp_path / "suite"
        gen = ["gen", "--vars", "10", "--backbones", "2,4", "--per-bucket", "2"]
        gen += ["--seed", "3", "--out", str(suite), "--tune-clauses"]
        assert main(gen) == EXIT_OK
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("restart = glucose:50:0.8\n")
        res = str(tmp_path / "res")
        run = ["experiment", "run", "--plan", "decay", "--suite", str(suite)]
        run += ["--out", res, "--config", str(cfg), "--k", "20"]
        assert main(run + ["--runs-per-formula", "1"]) == EXIT_OK
        capsys.readouterr()
        code = main(["experiment", "report", "--in", res, "--plan", "decay"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "KeyError" in err and "Traceback" not in err


def test_unexpected_exception_is_runtime_error(sat_file, capsys, monkeypatch):
    from satentropy import cli

    def boom(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "solve", boom)
    assert main(["solve", sat_file]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: unexpected ZeroDivisionError: division by zero\n"
