"""Command-line interface: parsing, exit codes, reports, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paretogof
from paretogof import CriticalValueTable, RandomStream, pareto_sample
from paretogof.cli import _parse_tests, main, read_numeric_file
from paretogof.inference import _TABLE_FORMAT  # noqa: F401  (existence check)
from paretogof.statistics import ALL_KINDS, EXP_KINDS, PARETO_KINDS

SRC = Path(paretogof.__file__).resolve().parents[1]


@pytest.fixture()
def null_file(tmp_path):
    vals = pareto_sample(2.0, 300, RandomStream(777, 0)).values
    path = tmp_path / "data.txt"
    path.write_text("\n".join(repr(float(v)) for v in vals) + "\n")
    return path


# ---------------------------------------------------------------------------
# input parsing


def test_read_numeric_file_plain_and_csv_header(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("2.5\n3.25\n\n4.0\n")
    np.testing.assert_array_equal(read_numeric_file(plain), [2.5, 3.25, 4.0])

    headed = tmp_path / "headed.csv"
    headed.write_text("earnings\n2.5,\n3.25\n")
    np.testing.assert_array_equal(read_numeric_file(headed), [2.5, 3.25])


def test_read_numeric_file_names_the_bad_line(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2.5\n3.0\noops\n4.0\n")
    from paretogof.cli import CliParseError

    with pytest.raises(CliParseError, match="line 3"):
        read_numeric_file(bad)


def test_read_numeric_file_refuses_a_file_without_numbers(tmp_path):
    from paretogof.cli import CliParseError

    headed = tmp_path / "headed.csv"
    headed.write_text("earnings\n\n")  # a header and a blank line
    with pytest.raises(CliParseError, match="no numeric observations found"):
        read_numeric_file(headed)


# ---------------------------------------------------------------------------
# test subcommand


def test_cmd_test_happy_path(null_file, capsys):
    code = main(["test", str(null_file), "--seed", "3", "--b", "400"])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed: 3" in out
    assert "n = 300" in out
    assert out.count("/ mme:") == 7
    assert "recommended combination: MP2 or G with the MME fit" in out
    for label in ("KS", "CV", "AD", "ZA", "G", "MP1", "MP2"):
        assert label in out


def test_cmd_test_both_estimators_and_highlights(null_file, capsys):
    code = main(["test", str(null_file), "--seed", "3", "--b", "200",
                 "--estimator", "both"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("/ mme:") == 7 and out.count("/ mle:") == 7
    starred = [ln for ln in out.splitlines() if ln.rstrip().endswith("*")
               and "recommended" not in ln]
    assert len(starred) == 2
    assert all("/ mme" in ln for ln in starred)
    assert any("MP2" in ln for ln in starred) and any(" G " in ln for ln in starred)


def test_cmd_test_selects_tests_and_tuning(null_file, capsys):
    code = main(["test", str(null_file), "--seed", "1", "--b", "100",
                 "--tests", "mp2", "g", "--tuning-a", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "G(a=2)" in out and "MP2" in out
    assert "KS" not in out


@pytest.mark.parametrize("command", ["golf", "test", "critical-values", "power"])
def test_default_suites_honour_tuning_a(command, null_file, tmp_path, capsys):
    argv = {
        "golf": ["golf", "--tour", "liv", "--estimator", "mle", "--b", "50"],
        "test": ["test", str(null_file), "--b", "50"],
        "critical-values": ["critical-values", "--n", "10", "--reps", "1000",
                            "--alpha", "0.05"],
        "power": ["power", "--n", "10", "--alternatives", "pareto:2", "--estimator", "mme",
                  "--output-dir", str(tmp_path / "study")],
    }[command]
    assert main([*argv, "--tuning-a", "2", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    if command == "power":
        labels = json.loads((tmp_path / "study" / "manifest.json").read_text())
        assert "G(a=2)" in labels["config"]["tests"]
        assert "G" not in labels["config"]["tests"]
    else:
        assert "G(a=2)" in out
        assert not re.search(r"\bG ?[/|]", out)  # no untuned G row


def test_cmd_test_writes_report_file(null_file, tmp_path, capsys):
    report = tmp_path / "report.csv"
    code = main(["test", str(null_file), "--seed", "1", "--b", "100",
                 "--format", "csv", "--output", str(report)])
    assert code == 0
    assert report.exists()
    assert report.read_text().startswith("test,mme statistic,mme p-value")
    assert f"wrote {report}" in capsys.readouterr().out


def test_cmd_test_seed_is_generated_and_printed_when_omitted(null_file, capsys):
    code = main(["test", str(null_file), "--b", "50"])
    out = capsys.readouterr().out
    assert code == 0
    seed_line = next(ln for ln in out.splitlines() if ln.startswith("seed: "))
    assert int(seed_line.split()[1]) >= 0


# ---------------------------------------------------------------------------
# exit codes


def test_unparseable_line_exits_three(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("2.0\nnot-a-number\n")
    code = main(["test", str(f), "--seed", "1", "--b", "10"])
    err = capsys.readouterr().err
    assert code == 3
    assert "line 2" in err


def test_missing_file_exits_three(tmp_path, capsys):
    code = main(["test", str(tmp_path / "nope.txt"), "--seed", "1"])
    assert code == 3


def test_values_leaving_the_support_exit_four(tmp_path, capsys):
    f = tmp_path / "small.txt"
    f.write_text("2.0\n0.8\n3.0\n")
    code = main(["test", str(f), "--seed", "1", "--b", "10"])
    err = capsys.readouterr().err
    assert code == 4
    assert "0.8" in err


def test_nonpositive_scale_exits_four(null_file, capsys):
    code = main(["test", str(null_file), "--seed", "1", "--scale", "-2"])
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["test", "DATA", "--alpha", "2"], ["test", "DATA", "--alpha", "0"],
    ["critical-values", "--alpha", "0"], ["critical-values", "--alpha", "0.05", "1.5"],
], ids=["test-2", "test-0", "critical-values-0", "critical-values-1.5"])
def test_alpha_outside_the_unit_interval_is_a_usage_error(argv, null_file, capsys):
    # an option value outside its domain, like --tuning-a 0; not a data error
    with pytest.raises(SystemExit) as exc:
        main([str(null_file) if a == "DATA" else a for a in argv] + ["--seed", "1"])
    assert exc.value.code == 2
    assert "alpha must lie in (0, 1]" in capsys.readouterr().err


def test_exponentiality_tests_on_the_moment_route_exit_four(null_file, capsys):
    code = main(["test", str(null_file), "--seed", "1", "--b", "10",
                 "--tests", "exp-ks"])  # default estimator is mme
    err = capsys.readouterr().err
    assert code == 4
    assert "bootstrap" in err or "route" in err or "MME" in err.upper()


def test_unknown_test_token_is_a_usage_error(null_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["test", str(null_file), "--tests", "kolmogorov"])
    assert exc.value.code == 2
    assert ("unknown test 'kolmogorov'; choose from ad, cv, exp-ad, exp-cv, exp-ks, "
            "exp-za, g, ks, mp1, mp2, za, pareto, exp, all") in capsys.readouterr().err


# every accepted --tests token, each kind's with the label of the kind it parses to
_KIND_TOKENS = {"ks": "KS", "cv": "CV", "ad": "AD", "za": "ZA", "g": "G",
                "mp1": "MP1", "mp2": "MP2", "exp-ks": "ExpKS", "exp-cv": "ExpCV",
                "exp-ad": "ExpAD", "exp-za": "ExpZA"}


@pytest.mark.parametrize("token", sorted(_KIND_TOKENS))
def test_each_kind_token_parses_to_the_kind_with_its_label(token):
    (kind,) = _parse_tests([token.upper()], 1.0)
    assert kind.label == _KIND_TOKENS[token]
    assert kind in ALL_KINDS


def test_suite_tokens_parse_to_their_suites():
    assert _parse_tests(["pareto"], 1.0) == list(PARETO_KINDS)
    assert _parse_tests(["exp"], 1.0) == list(EXP_KINDS)
    assert _parse_tests(["all"], 1.0) == list(ALL_KINDS)
    assert _parse_tests(list(_KIND_TOKENS), 1.0) == list(ALL_KINDS)


def test_unknown_estimator_is_a_usage_error(null_file):
    with pytest.raises(SystemExit) as exc:
        main(["test", str(null_file), "--estimator", "map"])
    assert exc.value.code == 2


def test_missing_input_path_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["test"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, seed", [
    (["test", "DATA", "--b", "10"], -1),
    (["power", "--n", "10", "--estimator", "mme", "--alternatives", "pareto:2",
      "--tests", "ks"], 2**64),
], ids=["test", "power"])
def test_seed_outside_64_bits_is_a_usage_error(argv, seed, null_file, capsys):
    # the parser refuses it with RandomStream's key range, before the seed line
    with pytest.raises(SystemExit) as exc:
        main([str(null_file) if a == "DATA" else a for a in argv] + ["--seed", str(seed)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"paretogof {argv[0]}: error: argument --seed: " in err
    assert f"seed={seed}" in err


@pytest.mark.parametrize("argv, message, option", [
    (["power", "--alternatives", "gamma:-1"], "theta must be positive", "--alternatives"),
    (["power", "--alternatives", "expmix:2"], "mixing proportion must lie in [0, 1]",
     "--alternatives"),
    (["power", "--alternatives", "gamma:x"], "has a non-numeric parameter",
     "--alternatives"),
    (["test", "data.txt", "--tests", "g", "--tuning-a", "0"],
     "tuning constant must be positive", "--tuning-a"),
    (["power", "--alpha", "2"], "alpha must lie in (0, 1]", "--alpha"),
    (["critical-values", "--seed", "-1"], "must lie in [0, 2**64)", "--seed"),
    (["golf", "--seed", str(2**64)], "must lie in [0, 2**64)", "--seed"),
    (["test", "data.txt", "--seed", "x"], "invalid literal for int()", "--seed"),
    (["critical-values", "--n", "20", "0"], "expected a positive integer, got '0'", "--n"),
    (["power", "--n", "-3"], "expected a positive integer, got '-3'", "--n"),
], ids=["gamma", "expmix", "gamma-x", "tuning-a", "power-alpha", "cv-seed", "golf-seed",
        "test-seed-x", "cv-n", "power-n"])
def test_option_values_outside_their_domain_are_usage_errors(argv, message, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    # the subcommand's parser reports it, naming the option and the token
    assert f"paretogof {argv[0]}: error: argument {option}" in err
    assert argv[-1] in err


@pytest.mark.parametrize("argv", [
    ["test", "DATA", "--b", "0"], ["golf", "--tour", "pga", "--b", "0"],
], ids=["test", "golf"])
def test_a_bootstrap_count_below_one_is_refused_before_any_output(argv, null_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(null_file) if a == "DATA" else a for a in argv] + ["--seed", "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""  # no seed line and, for golf, no earnings table
    assert (f"paretogof {argv[0]}: error: argument --b: expected a positive integer, "
            "got '0'") in err


def test_a_power_level_of_one_is_accepted_from_the_option_and_the_config(tmp_path, capsys):
    # alpha = 1 lies in (0, 1], the range of --alpha, of every route and of StudyConfig
    grid = ["--n", "10", "--tests", "ks", "--alternatives", "pareto:2", "--seed", "1"]
    conf = tmp_path / "study.json"
    conf.write_text(json.dumps({"alpha": 1}))
    tables = []
    for i, source in enumerate((["--alpha", "1"], ["--config", str(conf)])):
        out_dir = tmp_path / str(i)
        assert main(["power", *source, *grid, "--output-dir", str(out_dir)]) == 0
        assert json.loads((out_dir / "manifest.json").read_text())["config"]["alpha"] == 1.0
        tables.append((out_dir / "power_n10.csv").read_text())
    assert tables[0] == tables[1]
    capsys.readouterr()


@pytest.mark.parametrize("alternative, message", [
    ("gamma:-1", "theta must be positive"),
    ("expmix:2", "mixing proportion must lie in [0, 1]"),
], ids=["gamma", "expmix"])
def test_config_values_outside_their_domain_exit_three(alternative, message, tmp_path,
                                                       capsys):
    conf = tmp_path / "study.json"
    conf.write_text(json.dumps({"tests": ["ks"], "alternatives": [alternative],
                                "sample_sizes": [10], "desk_scale": 0.1}))
    assert main(["power", "--config", str(conf), "--seed", "1"]) == 3
    assert message in capsys.readouterr().err


def test_config_values_go_through_the_option_parsers(tmp_path, capsys):
    conf, out_dir = tmp_path / "study.json", tmp_path / "out"
    # "both" is what --estimator accepts; a bare token stands for a one-token list
    conf.write_text(json.dumps({"estimators": ["both"], "tests": "ks", "sample_sizes": 10,
                                "alternatives": ["pareto:2"], "alpha": 0.1,
                                "desk_scale": 0.1}))
    assert main(["power", "--config", str(conf), "--seed", "1",
                 "--output-dir", str(out_dir)]) == 0
    man = json.loads((out_dir / "manifest.json").read_text())["config"]
    assert man["estimators"] == ["mme", "mle"] and man["tests"] == ["KS"]
    assert man["sample_sizes"] == [10] and man["alpha"] == 0.1
    capsys.readouterr()


# a key that no option reads, such as a budget or a misspelt field, is refused
# too, rather than dropped
@pytest.mark.parametrize("key, value", [
    ("sample_sizes", "x"), ("sample_sizes", [10.5]), ("sample_sizes", [10, 0]),
    ("estimators", ["map"]),
    ("alpha", "high"), ("alpha", [0.05]), ("alpha", 2), ("desk_scale", None),
    ("critical_reps", 200_000), ("power_reps", 20_000), ("warp_reps", 30_000),
    ("master_seed", 7), ("bogus", 1),
], ids=["sample_sizes-x", "sample_sizes-10.5", "sample_sizes-0", "estimators-map", "alpha-high", "alpha-list", "alpha-2",
        "desk_scale-null", "critical_reps", "power_reps", "warp_reps", "master_seed",
        "bogus"])
def test_config_values_their_option_rejects_exit_three(key, value, tmp_path, capsys):
    conf = tmp_path / "study.json"
    conf.write_text(json.dumps({"tests": ["ks"], "alternatives": ["pareto:2"],
                                "sample_sizes": [10], "desk_scale": 0.1, key: value}))
    assert main(["power", "--config", str(conf), "--seed", "1"]) == 3
    assert f"{conf}: {key}: " in capsys.readouterr().err


def test_config_help_names_every_key_a_file_may_set(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["power", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for key in ("tests", "alternatives", "estimators", "sample_sizes", "alpha", "desk_scale"):
        assert key in out


@pytest.mark.parametrize("key, message", [
    ("alternatives", "tests, estimators and alternatives must be non-empty"),
    ("sample_sizes", "sample sizes must be non-empty"),
], ids=["alternatives", "sample_sizes"])
def test_config_empty_lists_are_usage_errors(key, message, tmp_path, capsys):
    conf = tmp_path / "study.json"
    conf.write_text(json.dumps({"tests": ["ks"], "alternatives": ["pareto:2"],
                                "sample_sizes": [10], "desk_scale": 0.1, key: []}))
    assert main(["power", "--config", str(conf), "--seed", "1"]) == 2
    assert message in capsys.readouterr().err


def test_config_without_alternatives_runs_the_full_grid(tmp_path, monkeypatch, capsys):
    class Stop(Exception):
        pass

    seen = []

    def record(config, n, jobs):
        seen.append(config.alternatives)
        raise Stop

    monkeypatch.setattr(paretogof.cli, "run_power_table", record)
    conf = tmp_path / "study.json"
    conf.write_text(json.dumps({"tests": ["ks"], "sample_sizes": [10]}))
    with pytest.raises(Stop):
        main(["power", "--config", str(conf), "--seed", "1"])
    assert seen == [paretogof.study.FIXED_ALTERNATIVES]
    capsys.readouterr()


def test_power_refuses_a_repeated_sample_size(tmp_path, capsys):
    # each size has its own streams; a repeat would print and write its table twice
    assert main(["power", "--n", "10", "10", "--alternatives", "gamma:1.2",
                 "--estimator", "mle", "--tests", "ks", "--seed", "1"]) == 2
    assert "sample size 10 is given more than once" in capsys.readouterr().err
    conf = tmp_path / "study.json"
    conf.write_text(json.dumps({"tests": ["ks"], "alternatives": ["gamma:1.2"],
                                "sample_sizes": [10, 10], "desk_scale": 0.1}))
    assert main(["power", "--config", str(conf), "--seed", "1"]) == 2
    assert "sample size 10 is given more than once" in capsys.readouterr().err


def test_invalid_study_grid_is_a_usage_error(capsys):
    # each option is in its domain, but the grid they make is not
    code = main(["power", "--n", "10",
                 "--alternatives", "pareto:2", "--tests", "ks",
                 "--scale-factor", "0.001", "--seed", "1"])
    assert code == 2
    assert "replications fall below 1000 after desk scaling" in capsys.readouterr().err


def test_a_grid_whose_cells_reach_the_pools_is_a_usage_error(capsys):
    # 513 sizes x 1024 alternatives x 2 estimators: cell 2**20 is the first pool's
    code = main(["power", "--n", *map(str, range(1, 514)),
                 "--alternatives", *["pareto:2"] * 1024, "--estimator", "both",
                 "--tests", "ks", "--seed", "1"])
    assert code == 2
    assert "1050624 cells overrun the substream layout" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# critical-values subcommand


def test_cmd_critical_values_saves_a_loadable_table(tmp_path, capsys):
    out_file = tmp_path / "cv.csv"
    code = main(["critical-values", "--n", "10", "12", "--reps", "1000",
                 "--tests", "ks", "--alpha", "0.05", "0.10",
                 "--seed", "11", "--output", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "alpha=0.05" in out and "n=12" in out
    table = CriticalValueTable.load(out_file)
    assert len(table) == 4  # two sizes x two levels
    assert table.seed == 11


def test_cmd_critical_values_refuses_a_repeated_size(capsys):
    # each size has its own stream; a repeat would be simulated again and its
    # later value printed for both
    assert main(["critical-values", "--n", "5", "7", "5", "--reps", "1000",
                 "--tests", "ks", "--seed", "1"]) == 2
    assert "size 5 is given more than once" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# power subcommand


def _power_args(*extra):
    return ["power", "--n", "10", "--alternatives", "pareto:2",
            "--tests", "ks", "mp2", "--estimator", "mme",
            "--scale-factor", "0.1", "--seed", "4", *extra]


def test_cmd_power_prints_progress_and_table(capsys):
    code = main(_power_args())
    out = capsys.readouterr().out
    assert code == 0
    assert "n=10:" in out
    assert "total wall clock" in out
    assert "| alternative |" in out and "Pareto(2)" in out


def test_cmd_power_output_dir_and_manifest(tmp_path, capsys):
    out_dir = tmp_path / "study"
    code = main(_power_args("--output-dir", str(out_dir)))
    assert code == 0
    assert (out_dir / "power_n10.md").exists()
    assert (out_dir / "power_n10.csv").exists()
    man = json.loads((out_dir / "manifest.json").read_text())
    assert man["config"]["master_seed"] == 4
    assert man["config"]["tests"] == ["KS", "MP2"]


def test_cmd_power_reruns_are_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(_power_args("--output-dir", str(d1))) == 0
    assert main(_power_args("--output-dir", str(d2))) == 0
    capsys.readouterr()
    assert (d1 / "power_n10.csv").read_bytes() == (d2 / "power_n10.csv").read_bytes()
    assert (d1 / "power_n10.md").read_bytes() == (d2 / "power_n10.md").read_bytes()


def test_cmd_power_parallel_jobs_do_not_change_results(tmp_path, capsys):
    # two alternatives, so that at --jobs 2 the parent and one worker share two cells
    csv = []
    for jobs in (["--jobs", "1"], ["--jobs", "2"], []):
        d = tmp_path / f"jobs{len(csv)}"
        args = _power_args("--alternatives", "pareto:2", "gamma:1.2", "--output-dir", str(d))
        assert main([*args, *jobs]) == 0
        csv.append((d / "power_n10.csv").read_bytes())
    capsys.readouterr()
    assert csv[1] == csv[0] and csv[2] == csv[0]


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_cmd_power_defaults_to_one_worker(cpus, monkeypatch, capsys):
    class Stop(Exception):
        pass

    seen = []

    def record(config, n, jobs):
        seen.append(jobs)
        raise Stop

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    monkeypatch.setattr(paretogof.cli, "run_power_table", record)
    with pytest.raises(Stop):
        main(_power_args())
    assert seen == [1]
    with pytest.raises(Stop):
        main(_power_args("--jobs", "3"))
    assert seen == [1, 3]
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cmd_power_jobs_must_be_positive(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_power_args("--jobs", jobs))
    assert exc.value.code == 2
    assert f"argument --jobs: expected a positive integer, got '{jobs}'" in (
        capsys.readouterr().err)


def test_cmd_power_full_excludes_scale_factor(capsys):
    with pytest.raises(SystemExit) as exc:
        main(_power_args("--full"))  # _power_args gives --scale-factor 0.1
    assert exc.value.code == 2
    assert "argument --full: not allowed with argument --scale-factor" in (
        capsys.readouterr().err)


def test_cmd_power_config_file_with_flag_precedence(tmp_path, capsys):
    conf = tmp_path / "study.json"
    conf.write_text(json.dumps({
        "tests": ["ks"],
        "sample_sizes": [10],
        "alpha": 0.10,
        "alternatives": ["pareto:2"],
        "desk_scale": 0.1,
    }))
    out_dir = tmp_path / "out"
    code = main(["power", "--config", str(conf), "--tests", "mp2",
                 "--seed", "4", "--output-dir", str(out_dir)])
    assert code == 0
    man = json.loads((out_dir / "manifest.json").read_text())
    assert man["config"]["tests"] == ["MP2"]  # flag beat the file
    assert man["config"]["alpha"] == 0.10  # file value survived
    capsys.readouterr()


def test_cmd_power_bad_config_file_exits_three(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["power", "--config", str(missing), "--seed", "1"]) == 3
    assert f"cannot read {missing}" in capsys.readouterr().err
    conf = tmp_path / "broken.json"
    conf.write_text("{not json")
    assert main(["power", "--config", str(conf), "--seed", "1"]) == 3
    for tests, alternatives in ((["bogus"], ["pareto:2"]), ([1], ["pareto:2"]),
                                (["ks"], [2.0])):
        conf.write_text(json.dumps({"tests": tests, "alternatives": alternatives,
                                    "sample_sizes": [10], "desk_scale": 0.1}))
        assert main(["power", "--config", str(conf), "--seed", "1"]) == 3
    for content in ([1, 2], 3, "tests"):  # JSON, but not an object of fields
        conf.write_text(json.dumps(content))
        capsys.readouterr()
        assert main(["power", "--config", str(conf), "--seed", "1"]) == 3
        assert f"{conf}: " in capsys.readouterr().err


def test_cmd_power_bad_alternative_token_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["power", "--alternatives", "gamma"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["power", "--alternatives", "cosmic:1.0"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# golf subcommand


def test_cmd_golf_prints_datasets_and_tables(capsys):
    code = main(["golf", "--b", "150", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PGA season earnings, 28 players above 3 500 000" in out
    assert "LIV season earnings, 28 players above 3 500 000" in out
    assert "average earnings 6 098 395 per player" in out
    assert "average earnings 7 989 306 per player" in out
    assert out.count("| test |") == 2


def test_cmd_golf_single_tour(capsys):
    code = main(["golf", "--tour", "liv", "--b", "100", "--seed", "2",
                 "--estimator", "mle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "LIV season earnings" in out
    assert "PGA season earnings" not in out
    assert "mle" in out.lower()


# p = (1 + exceedances) / (B + 1) of every (tour, test), MME then MLE, for
# ``golf --b 200 --seed 5``; they move if any tour or estimator moves its streams
_GOLF_SEED_5_EXCEEDANCES_PLUS_ONE = {
    "PGA": {"KS": (4, 8), "CV": (5, 16), "AD": (9, 30), "ZA": (20, 31),
            "G": (4, 16), "MP1": (5, 16), "MP2": (6, 21)},
    "LIV": {"KS": (112, 123), "CV": (111, 155), "AD": (134, 171), "ZA": (155, 183),
            "G": (86, 130), "MP1": (108, 154), "MP2": (103, 153)},
}


def test_cmd_golf_p_values_are_pinned(capsys):
    assert main(["golf", "--b", "200", "--seed", "5", "--format", "csv"]) == 0
    tables = capsys.readouterr().out.split("test,mme statistic,mme p-value,")[1:]
    assert len(tables) == 2
    for tour, table in zip(("PGA", "LIV"), tables):
        rows = [line.split(",") for line in table.splitlines()[1:8]]
        assert {row[0]: (float(row[2]), float(row[4])) for row in rows} == {
            kind: (mme / 201, mle / 201)
            for kind, (mme, mle) in _GOLF_SEED_5_EXCEEDANCES_PLUS_ONE[tour].items()
        }


def test_cmd_golf_is_deterministic(capsys):
    assert main(["golf", "--b", "100", "--seed", "8"]) == 0
    first = capsys.readouterr().out
    assert main(["golf", "--b", "100", "--seed", "8"]) == 0
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# installed entry point


def test_cli_import_leaves_scipy_unloaded():
    # only the alternative CDFs use scipy, and no command calls them
    proc = subprocess.run(
        [sys.executable, "-c", "import paretogof.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script_help_runs():
    proc = subprocess.run([sys.executable, "-m", "paretogof.cli", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    # argparse --help exits zero and prints the subcommand list
    assert proc.returncode == 0
    assert "critical-values" in proc.stdout


def test_a_closed_output_pipe_exits_one_without_a_traceback():
    # 400 levels print about 200 KB, more than a pipe holds, so the command is
    # still writing when the reader leaves after two lines, buffered or not
    alphas = [f"{a / 1000:g}" for a in range(1, 401)]
    argv = [sys.executable, "-m", "paretogof.cli", "critical-values", "--n", "20",
            "--reps", "2000", "--seed", "3", "--alpha", *alphas]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": str(SRC)})
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert lines == [b"seed: 3\n", b"reps = 2000\n"]
    assert err == b""


_AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def _cpu_features():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


@pytest.mark.skipif(not all(_cpu_features().get(f) for f in _AVX512),
                    reason="the host lacks the AVX-512 features to switch off")
def test_critical_values_print_the_same_bytes_without_avx512_dispatch():
    # numpy's AVX-512 exp, log and pow differ from libm's in the last bit on a
    # few percent of elements; the printed table must not see it
    argv = [sys.executable, "-m", "paretogof.cli", "critical-values", "--n", "20",
            "--reps", "2000", "--tests", "ad", "za", "g", "--seed", "5"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=120, env=e)
            for e in (env, {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(_AVX512)})]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[1].stdout == runs[0].stdout
