import csv
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import satentropy
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
from conftest import chain


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

    def test_time_budget_holds_from_the_first_node(self, sat_file, capsys):
        assert main(["count", sat_file, "--max-seconds", "0"]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.err == "error: time budget 0.0s exceeded\n"
        assert captured.out == ""

    def test_nan_time_budget_is_refused(self, chain_file, capsys):
        assert main(["count", chain_file, "--max-seconds", "nan"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == "error: time budget must be a number, not nan\n"
        assert captured.out == ""

    @pytest.fixture
    def chain_file(self, tmp_path):
        p = tmp_path / "chain.cnf"
        p.write_text(write_dimacs(chain(1201)))
        return str(p)

    def test_deep_search(self, chain_file, capsys):
        assert main(["count", chain_file]) == EXIT_OK
        assert capsys.readouterr().out == "1202\n"
        assert main(["profile", chain_file]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert (rec["model_count"], rec["backbone_count"]) == ("1202", 0)

    @pytest.mark.parametrize("nodes", ["100", "599"])
    def test_deep_search_budget_exit_3(self, chain_file, capsys, nodes):
        assert main(["count", chain_file, "--max-nodes", nodes]) == EXIT_BUDGET
        assert capsys.readouterr().err == f"error: node budget {nodes} exceeded\n"


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

    THROUGHPUT = re.compile(
        r"c (\d+) conflicts, (\d+) propagations in \d+\.\d{3} s \(\d+ propagations/s\)\n"
    )

    def test_stdout_is_the_stats_and_stderr_the_throughput(self, tmp_path, capsys):
        # the model is decoded to DIMACS literals of both signs
        p = tmp_path / "small.cnf"
        p.write_text("p cnf 4 4\n1 -2 0\n2 3 0\n-1 -3 0\n-4 0\n")
        assert main(["solve", str(p), "--seed", "3"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out == (
            '{"conflicts": 0, "decisions": 1, "learned_deleted": 0, "learned_kept": 0, '
            '"model": [1, 2, -3, -4], "propagations": 4, "restarts": 0, "result": "SAT"}\n'
            "v 1 2 -3 -4 0\n"
        )
        assert self.THROUGHPUT.fullmatch(err).groups() == ("0", "4")

    @pytest.mark.parametrize("seed", [5, 8])
    def test_the_throughput_line_counts_the_search(self, tmp_path, capsys, seed):
        formula = gen_random_3sat(40, 170, seed)
        p = tmp_path / "f.cnf"
        p.write_text(write_dimacs(formula))
        code = main(["solve", str(p), "--seed", "2"])
        st = solve(formula, SolverConfig(seed=2))
        assert code == {"SAT": EXIT_OK, "UNSAT": EXIT_UNSAT}[st.result]
        out, err = capsys.readouterr()
        stats = st.to_dict()
        want = json.dumps(stats, sort_keys=True) + "\n"
        if st.result == "SAT":
            want += f"v {' '.join(map(str, stats['model']))} 0\n"
        assert out == want and st.conflicts > 0
        assert self.THROUGHPUT.fullmatch(err).groups() == (
            str(st.conflicts), str(st.propagations)
        )

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
        "flags, spec",
        [
            ([], {}),
            (["--decay", "0.6"], {"decay": 0.6}),
            (
                ["--restart", "glucose:40:0.7", "--keep", "size:9"]
                + ["--reduce-interval", "30"],
                {"restart": "glucose:40:0.7", "keep": "size:9", "reduce_interval": 30},
            ),
        ],
        ids=["none", "decay", "restart-keep-reduce"],
    )
    def test_flags_mean_the_same_config_on_both_commands(
        self, small_suite, tmp_path, capsys, flags, spec
    ):
        # flags not given take SolverConfig's defaults on both commands
        res = tmp_path / "res"
        assert main(_run_args(small_suite, res, "--plan", "hardness", *flags)) == EXIT_OK
        config_a = json.loads((res / "run.json").read_text())["config_a"]
        default = {"restart": "luby:100", "keep": "lbd:5", "decay": 0.95}
        assert config_a == {**default, "reduce_interval": 2000, **spec}
        capsys.readouterr()
        formula = gen_random_3sat(70, 298, 5)
        path = tmp_path / "f.cnf"
        path.write_text(write_dimacs(formula))
        main(["solve", str(path), *flags])
        st = solve(formula, SolverConfig.from_spec(config_a, seed=0))
        assert st.conflicts > 50
        out = capsys.readouterr().out
        assert out.splitlines()[0] == json.dumps(st.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_conflict_budget_below_one_is_refused(self, sat_file, capsys, value):
        assert main(["solve", sat_file, "--conflict-budget", value]) == EXIT_ERROR
        message = f"error: conflict_budget must be at least 1, not {value}\n"
        assert capsys.readouterr() == ("", message)


    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_reduce_interval_below_one_is_refused(self, sat_file, tmp_path, capsys, value):
        message = f"error: reduce_interval must be at least 1, not {value}\n"
        assert main(["solve", sat_file, "--reduce-interval", value]) == EXIT_ERROR
        assert capsys.readouterr().err == message
        argv = ["experiment", "run", "--plan", "decay", "--suite", str(tmp_path)]
        argv += ["--out", str(tmp_path / "res"), "--reduce-interval", value]
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
            ("glucose:50:nan", "restart policy 'glucose:50:nan': M must be a "
             "positive finite number, not nan; use glucose:W:M"),
            ("glucose:50:inf", "restart policy 'glucose:50:inf': M must be a "
             "positive finite number, not inf; use glucose:W:M"),
            ("glucose:50:-3", "restart policy 'glucose:50:-3': M must be a "
             "positive finite number, not -3; use glucose:W:M"),
            ("glucose:50:0", "restart policy 'glucose:50:0': M must be a "
             "positive finite number, not 0; use glucose:W:M"),
        ],
        ids=["third-field", "nan-margin", "inf-margin", "negative-margin", "zero-margin"],
    )
    def test_bad_glucose_spec_is_refused(
        self, sat_file, tmp_path, capsys, spec, message
    ):
        assert main(["solve", sat_file, "--restart", spec]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        argv = ["experiment", "run", "--plan", "decay", "--suite", str(tmp_path)]
        argv += ["--out", str(tmp_path / "res"), "--restart", spec]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "res").exists()

    # (flag, spec, its refusal): the spec as typed, the grammar letter of
    # the bad value, the value as typed and the kind's usage
    BAD_VALUES = [
        ("--restart", "luby:0", "restart policy 'luby:0': N must be an integer "
         "of at least 1, not 0; use luby:N"),
        ("--keep", "lbd:0", "deletion criterion 'lbd:0': N must be an integer "
         "of at least 1, not 0; use lbd:N"),
        ("--keep", "size:-1", "deletion criterion 'size:-1': N must be an "
         "integer of at least 1, not -1; use size:N"),
        ("--restart", "glucose:0:0.8", "restart policy 'glucose:0:0.8': W must "
         "be an integer of at least 1, not 0; use glucose:W:M"),
        ("--restart", "luby:x", "restart policy 'luby:x': N must be an integer "
         "of at least 1, not x; use luby:N"),
        ("--restart", "glucose:0.5", "restart policy 'glucose:0.5': W must be an "
         "integer of at least 1, not 0.5; use glucose:W:M"),
        ("--restart", "glucose:50:abc", "restart policy 'glucose:50:abc': M must "
         "be a positive finite number, not abc; use glucose:W:M"),
    ]

    @pytest.mark.parametrize(
        "flag, spec, message", BAD_VALUES, ids=[spec for _, spec, _ in BAD_VALUES]
    )
    def test_a_bad_policy_value_names_what_was_typed(
        self, sat_file, tmp_path, capsys, flag, spec, message
    ):
        assert main(["solve", sat_file, flag, spec]) == EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: {message}\n")
        argv = ["experiment", "run", "--plan", "decay", "--suite", str(tmp_path)]
        argv += ["--out", str(tmp_path / "res"), flag, spec]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("value", ["1.5", "nan", "0"])
    def test_a_bad_decay_is_named(self, sat_file, tmp_path, capsys, value):
        message = f"error: decay must be strictly between 0 and 1, not {float(value)}\n"
        assert main(["solve", sat_file, "--decay", value]) == EXIT_ERROR
        assert capsys.readouterr() == ("", message)
        # the decay plan's own values replace --decay; hardness keeps it
        argv = ["experiment", "run", "--plan", "hardness", "--suite", str(tmp_path)]
        argv += ["--out", str(tmp_path / "res"), "--decay", value]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr() == ("", message)
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--decay", "abc", "decay must be a number, not 'abc'"),
            ("--reduce-interval", "1.5", "reduce_interval must be an integer, not '1.5'"),
            ("--reduce-interval", "x", "reduce_interval must be an integer, not 'x'"),
        ],
        ids=["decay-abc", "reduce-interval-1.5", "reduce-interval-x"],
    )
    def test_number_text_is_refused_like_policy_text(
        self, sat_file, tmp_path, capsys, flag, value, message
    ):
        # a runtime refusal (exit 2) naming the key and the text, as for a
        # bad policy value, not an argparse usage error
        assert main(["solve", sat_file, flag, value]) == EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: {message}\n")
        argv = ["experiment", "run", "--plan", "hardness", "--suite", str(tmp_path)]
        argv += ["--out", str(tmp_path / "res"), flag, value]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "res").exists()

    def test_policy_help_is_the_grammar(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--restart RESTART luby:N or glucose:W:M" in help_text
        assert "--keep KEEP lbd:N or size:N" in help_text


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
            ("--backbones", "2,"),
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

    def test_gen_has_no_force_option(self, tmp_path, capsys):
        argv = ["gen", "--vars", "12", "--backbones", "2", "--per-bucket", "1"]
        argv += ["--seed", "5", "--out", str(tmp_path / "suite"), "--force", "2"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --force 2" in capsys.readouterr().err
        assert not (tmp_path / "suite").exists()

    def test_gen_has_no_clauses_per_bucket_option(self, tmp_path, capsys):
        argv = ["gen", "--vars", "12", "--backbones", "2", "--per-bucket", "1"]
        argv += ["--seed", "5", "--out", str(tmp_path / "suite")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--clauses-per-bucket", "2=46"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unrecognized arguments: --clauses-per-bucket 2=46" in err
        assert not (tmp_path / "suite").exists()

    def test_experiment_run_has_no_config_option(self, tmp_path, capsys):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("decay = 0.8\n")
        argv = ["experiment", "run", "--plan", "decay", "--suite", str(tmp_path)]
        argv += ["--out", str(tmp_path / "res"), "--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: --config {cfg}" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()


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

    @pytest.mark.parametrize("test", ["delta", "delta-beta", "beta-gap"])
    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_analyze_refuses_k_below_one(self, tmp_path, capsys, test, k):
        # the same message as experiment run's, whether or not the test resamples
        p = tmp_path / "results.csv"
        p.write_text(
            "entropy,density,conflicts_a,conflicts_b\n"
            + "".join(f"0.{i},0.{9 - i},{i},{i * i}\n" for i in range(5))
        )
        assert main(["analyze", str(p), "--test", test, "--k", k]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: k must be at least 1, not {k}\n"
        assert captured.out == ""


    def test_config_flags_set_shared_dimensions(self, tmp_path, capsys):
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
                "--restart",
                "glucose:30:0.7",
                "--keep",
                "size:8",
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

    def test_report_reproduces_config_run_files(self, small_suite, tmp_path, capsys):
        # report takes the configs from run.json, so the config flags'
        # labels are known to it
        res = tmp_path / "res"
        run = _run_args(small_suite, res, "--restart", "glucose:50:0.8", "--k", "20")
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

    def test_reduce_interval_flag_reaches_run_json(self, small_suite, tmp_path):
        res, plain = tmp_path / "res", tmp_path / "plain"
        assert main(_run_args(small_suite, res, "--reduce-interval", "50")) == EXIT_OK
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

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--backbones", "2,4,2", "backbone targets [2] are given more than once"),
            ("--per-bucket", "0", "no instances to generate: targets [2, 4], per_bucket 0"),
            ("--jobs", "0", "jobs must be at least 1, not 0"),
            ("--jobs", "-4", "jobs must be at least 1, not -4"),
        ],
        ids=["repeated-target", "no-instances", "no-jobs", "negative-jobs"],
    )
    def test_bad_suite_request_is_refused(self, tmp_path, capsys, option, value, message):
        suite = tmp_path / "suite"
        assert main(GEN_SMALL + ["--out", str(suite), option, value]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not suite.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--backbones", "2,11"], "backbone target 11 must be in 0..10"),
            (
                ["--backbones", "2,6", "--ratio", "0"],
                "backbone target 2: num_clauses must be >= 1, not 0",
            ),
            (
                ["--backbones", "2,6", "--max-attempts", "0"],
                "max_attempts must be at least 1, not 0",
            ),
            (
                ["--backbones", "2,6", "--max-attempts", "-5"],
                "max_attempts must be at least 1, not -5",
            ),
        ],
        ids=["target-above-vars", "no-clauses", "no-attempts", "negative-attempts"],
    )
    def test_bad_bucket_writes_nothing(self, tmp_path, capsys, extra, message):
        # the good bucket comes first, and is not drawn either
        suite = tmp_path / "suite"
        argv = ["gen", "--vars", "10", "--per-bucket", "1", "--seed", "3"]
        argv += ["--out", str(suite)]
        assert main(argv + extra) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not suite.exists()
        assert main(argv + ["--backbones", "2"]) == EXIT_OK

    def test_an_exhausted_bucket_writes_nothing(self, tmp_path, capsys):
        # the good bucket is drawn first, and none of its files is written
        suite = tmp_path / "suite"
        argv = ["gen", "--vars", "10", "--per-bucket", "1", "--seed", "3"]
        argv += ["--out", str(suite)]
        assert main(argv + ["--backbones", "2,9", "--max-attempts", "40"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == (
            "error: no instance with backbone 9 found in 40 attempts "
            "(24 satisfiable draws had a smaller backbone, 5 a larger one)\n"
        )
        assert not suite.exists()
        assert main(argv + ["--backbones", "2"]) == EXIT_OK

    def test_an_exhausted_pool_stops_and_writes_nothing(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        argv = ["gen", "--vars", "10", "--per-bucket", "1", "--seed", "3", "--jobs", "2"]
        argv += ["--out", str(suite), "--backbones", "2,9", "--max-attempts", "40"]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: no instance with backbone 9 found in 40 attempts "
            "(24 satisfiable draws had a smaller backbone, 5 a larger one)\n"
        )
        assert multiprocessing.active_children() == []
        assert not suite.exists()

    @pytest.mark.parametrize(
        "request_args",
        [
            ["--vars", "20", "--backbones", "2,6,10,14,18", "--per-bucket", "3"],
            ["--vars", "40", "--backbones", "4,20", "--per-bucket", "2"],
        ],
        ids=["n20", "n40"],
    )
    def test_a_pool_writes_the_serial_suite(self, tmp_path, capsys, request_args):
        argv = ["gen", *request_args, "--seed", "11", "--tune-clauses"]
        trees = []
        for jobs in ("2", "1"):
            suite = tmp_path / f"suite{jobs}"
            assert main(argv + ["--out", str(suite), "--jobs", jobs]) == EXIT_OK
            assert multiprocessing.active_children() == []
            trees.append(_tree(suite))
        assert trees[0] == trees[1]

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
            ("--jobs", "0", "jobs must be at least 1, not 0"),
            ("--jobs", "-4", "jobs must be at least 1, not -4"),
        ],
        ids=["no-runs", "negative-runs", "no-resamples", "no-jobs", "negative-jobs"],
    )
    def test_bad_run_parameter_is_refused_before_run_json(
        self, small_suite, tmp_path, capsys, option, value, message
    ):
        res = tmp_path / "res"
        argv = ["experiment", "run", "--plan", "decay", "--suite", str(small_suite)]
        assert main(argv + ["--out", str(res), option, value]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not res.exists()

    def test_a_missing_suite_makes_no_out_directory(self, tmp_path, capsys):
        res = tmp_path / "res"
        assert main(_run_args(tmp_path / "nosuch", res)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: no manifest.csv in {tmp_path / 'nosuch'}\n"
        assert not res.exists()

    def test_an_empty_manifest_makes_no_out_directory(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        manifest = suite / "manifest.csv"
        manifest.write_text("file,formula_id\n")
        res = tmp_path / "res"
        assert main(_run_args(suite, res)) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {manifest} lists no formulas\n"
        assert not res.exists()

    @pytest.mark.parametrize("column", ["file", "formula_id"])
    def test_a_manifest_without_a_key_column_is_refused(
        self, small_suite, tmp_path, capsys, column
    ):
        suite = tmp_path / "suite"
        shutil.copytree(small_suite, suite)
        manifest = suite / "manifest.csv"
        with manifest.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            del row[column]
        manifest.write_text(pipeline.csv_text(rows), newline="")
        res = tmp_path / "res"
        assert main(_run_args(suite, res)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: {manifest} has no column {column!r}\n"
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
        assert err.startswith(
            f"error: profile sidecar {sidecar} cannot be read ('backbone_count' is "
        )

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
            (
                _json_edit(lambda d: d.update(entropy=0.123456)),
                "'entropy' is 0.123456, but its counts give ",
            ),
            (
                _json_edit(lambda d: d["per_var"][0].update(e=-1.0)),
                "per_var[0] 'e' is -1.0, but its counts give ",
            ),
        ],
        ids=["truncated", "no-per-var", "no-r-exact", "bad-r-exact", "entropy", "e"],
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
        res = tmp_path / "res"
        assert main(_run_args(suite, res)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: profile sidecar {sidecar} cannot be read (")
        assert why in err
        assert err.endswith("; delete the sidecar to profile it again\n")
        assert (res / "records.jsonl").read_bytes() == b""

    def test_a_corrupt_sidecar_is_refused_before_any_solve(
        self, small_suite, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv(pipeline.CACHE_DIR_ENV, raising=False)
        suite = tmp_path / "suite"
        shutil.copytree(small_suite, suite)
        row = min(pipeline.load_suite(suite), key=lambda r: r["formula_id"])
        sidecar = suite / "profiles" / f"{row['formula_id']}.json"
        sidecar.write_text(sidecar.read_text()[:10])
        solves = []
        monkeypatch.setattr(pipeline, "solve", lambda *a: solves.append(a))
        assert main(_run_args(suite, tmp_path / "res")) == EXIT_ERROR
        assert f"profile sidecar {sidecar} cannot be read" in capsys.readouterr().err
        assert solves == []

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


def test_the_package_binds_only_its_version():
    # each public name lives in its module only, as in satentropy.solver.solve
    code = "import satentropy as s; print([n for n in vars(s) if n[0] != '_'])"
    env = {**os.environ, "PYTHONPATH": str(Path(satentropy.__file__).parents[1])}
    argv = [sys.executable, "-c", code + "; print(s.__version__)"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, f"[]\n{satentropy.__version__}\n")
