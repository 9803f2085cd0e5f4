import json
import shlex
from pathlib import Path

import pytest

from rsl.cli import main, read_config


def run(args, tmp_path, run_id):
    return main(["--output", str(tmp_path), "--run-id", run_id, *args])


def test_thresholds_and_artifacts(tmp_path):
    code = run(["thresholds", "--n", "3"], tmp_path, "th")
    assert code == 0
    report = json.loads((tmp_path / "th" / "report.json").read_text())
    assert report["results"]["s0"] == pytest.approx(0.1070305513999088, abs=1e-12)
    assert report["verdict"] == "INFO"


def test_admissible_verdicts(tmp_path):
    assert run(["admissible", "--family", "schrodinger", "--n", "2",
                "--q", "10/3", "--r", "10/3"], tmp_path, "a1") == 0
    rep = json.loads((tmp_path / "a1" / "report.json").read_text())
    assert rep["results"]["boundary"] is True
    # open-segment query returns the UNKNOWN verdict (exit 0, distinct verdict)
    assert run(["admissible", "--family", "schrodinger", "--n", "2",
                "--q", "2", "--r", "6"], tmp_path, "a2") == 0
    rep = json.loads((tmp_path / "a2" / "report.json").read_text())
    assert rep["verdict"] == "UNKNOWN"
    # inadmissible pair: FAIL verdict, exit 1
    assert run(["admissible", "--family", "schrodinger", "--n", "2",
                "--q", "2", "--r", "2"], tmp_path, "a3") == 1


def test_validate_only_and_config_errors(tmp_path):
    code = main(["--validate-only", "solve-fnls", "--sigma", "2.5"])
    assert code == 2
    code = main(["--validate-only", "solve-fnls", "--sigma", "1.5", "--p", "1.5"])
    assert code == 0
    # invalid exponent anywhere -> exit 2 without running
    code = main(["--output", str(tmp_path), "fit-k", "--q", "1.5"])
    assert code == 2


def test_constants_and_pairs(tmp_path):
    assert run(["constants", "--equation", "klein_gordon", "--n", "2",
                "--q", "6", "--k", "1"], tmp_path, "c1") == 0
    rep = json.loads((tmp_path / "c1" / "report.json").read_text())
    assert rep["results"]["log2_rate_per_k"] == "1/2"
    assert run(["pairs", "--equation", "nls", "--n", "2", "--s=-1/10"],
               tmp_path, "p1") == 0
    rep = json.loads((tmp_path / "p1" / "report.json").read_text())
    assert rep["results"]["q"] == "40/11"


def test_counter_schrodinger_run(tmp_path):
    code = run(["counter-schrodinger", "--n", "2", "--q", "3", "--j", "4..7"],
               tmp_path, "cs")
    assert code == 0
    assert (tmp_path / "cs" / "plot.dat").exists()
    rows = (tmp_path / "cs" / "data.csv").read_text().splitlines()
    assert rows[0] == "j,log2_norm"
    assert len(rows) == 5


@pytest.mark.parametrize("args", [
    ["smoothing", "--symbol", "schrodinger", "--k", "0", "--q", "4", "--trials", "4"],
    ["fit-k", "--k=-1..0", "--T0", "8"],
    ["retarded", "--trials", "1"],
    ["conjecture-probe", "--R", "8,16", "--T", "16"],
    ["solve-fnls", "--seeds", "0", "--T", "4"],
], ids=["smoothing", "fit-k", "retarded", "conjecture-probe", "solve-fnls"])
def test_determinism_byte_identical(tmp_path, args):
    run([*args], tmp_path, "d1")
    run([*args], tmp_path, "d2")
    a = (tmp_path / "d1" / "data.csv").read_bytes()
    b = (tmp_path / "d2" / "data.csv").read_bytes()
    assert a == b


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nn = 3\np = 4\n")
    parsed = read_config(cfg)
    assert parsed == {"n": "3", "p": "4"}
    code = main(["--config", str(cfg), "--output", str(tmp_path),
                 "--run-id", "cfg", "thresholds"])
    assert code == 0
    rep = json.loads((tmp_path / "cfg" / "report.json").read_text())
    assert rep["config"]["n"] == 3
    assert rep["config"]["p"] == "4"


def test_flag_equals_form_beats_config(tmp_path):
    # `--k=-1` is the form negative values need; it must win over `k = 2`
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 2\nq = 4\n")
    code = main(["--config", str(cfg), "--output", str(tmp_path), "--run-id", "neg",
                 "constants", "--equation", "klein_gordon", "--n", "2", "--k=-1"])
    assert code == 0
    rep = json.loads((tmp_path / "neg" / "report.json").read_text())
    assert rep["config"]["k"] == -1
    assert rep["config"]["q"] == "4"


def test_config_validate_only_false_runs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("validate_only = False\n")
    code = main(["--config", str(cfg), "--output", str(tmp_path), "--run-id", "vo",
                 "thresholds", "--n", "3"])
    assert code == 0
    assert (tmp_path / "vo" / "report.json").exists()
    cfg.write_text("validate_only = maybe\n")
    assert main(["--config", str(cfg), "thresholds"]) == 2


def test_config_malformed_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n 3\n")
    assert main(["--config", str(cfg), "thresholds"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_config_missing_file_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.cfg"), "thresholds"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_config_unknown_key_exits_2(tmp_path, capsys):
    # a misspelled key must not silently fall back to the flag's default
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nn = 5\n")
    assert main(["--config", str(cfg), "--output", str(tmp_path), "thresholds"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "nn" in err["detail"]
    # a flag of another subcommand is unknown here too
    cfg.write_text("q = 4\n")
    assert main(["--config", str(cfg), "--output", str(tmp_path), "thresholds"]) == 2


@pytest.mark.parametrize("argv", [
    ["solve-nls", "--s=abc"],
    ["fit-k", "--k=1..x"],
    ["solve-nlw", "--seeds", "0..a"],
    ["conjecture-probe", "--R", "8,x"],
    ["hypotheses", "--symbol", "nosuch"],
    ["thresholds", "--p", "abc"],
])
def test_malformed_value_exits_2(argv, tmp_path, capsys):
    assert main(["--output", str(tmp_path), *argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid config"
    assert any(v.startswith("cannot parse") for v in err["violations"])


@pytest.mark.parametrize("argv", [
    ["admissible", "--family", "x"],
    ["pairs", "--equation", "nosuch"],
    ["constants", "--equation", "nosuch"],
    ["fit-j", "--regime", "nosuch", "--j", "3..4"],
])
def test_bad_choice_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--output", str(out), *argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid config"
    assert any("must be one of" in v for v in err["violations"])
    # the same value from a config file is checked too
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{argv[1][2:]} = {argv[2]}\n")
    assert main(["--config", str(cfg), "--output", str(out), argv[0], *argv[3:]]) == 2
    assert "must be one of" in capsys.readouterr().err
    assert not out.exists()


README_EXAMPLES = [line for line in
                   (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
                   if line.startswith("rsl ")]


@pytest.mark.parametrize("line", README_EXAMPLES)
def test_readme_examples_validate(line):
    assert main(["--validate-only", *shlex.split(line)[1:]]) == 0


@pytest.mark.parametrize("line", [
    # numbers are finite; n >= 2
    "solve-fnls --p nan", "conjecture-probe --a nan", "maximal --a inf",
    "fit-k --n 1", "propagate --n 1", "thresholds --n 1", "admissible --n 1",
    "conjecture-probe --n 1",
    # windows and amplitudes > 0, trial and refinement counts
    "fit-k --T0 0", "fit-k --T0=-4", "solve-nls --T 0", "solve-nls --delta 0",
    "smoothing --trials 0", "retarded --trials 0", "hls --refinements 1",
    "hls --refinements 8",
    # empty ranges
    "hypotheses --k 5..1", "solve-nls --seeds 3..1",
    # a slope needs two or more strictly monotone values; radii are positive
    "fit-k --k 0", "l6 --k 0", "fit-j --j 3", "counter-schrodinger --j 4",
    "counter-wave --R 16", "knapp --deltas 0.125", "maximal --k 2",
    "conjecture-probe --R 8", "conjecture-probe --R 16,8", "counter-wave --R 0,16",
    "propagate --t 2,1", "propagate --t 1,inf",
    # rules the library states as typed errors
    "knapp --sigma 3", "maximal --a=-1", "norm-sweep --q inf --T0 4",
    "fit-j --q inf --j 3..4", "smoothing --q inf", "counter-wave --q inf",
    "knapp --q inf", "knapp --r inf", "counter-schrodinger --q inf",
    # validation applies the solver's own range rule: s0(2) + 5e-13
    "--validate-only solve-nlw --s 0.21922359359608484",
    # argparse's own errors, from a flag or a config line
    "thresholds --n x", "--config {cfg} thresholds",
])
def test_bad_input_exits_2(line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = abc\n")
    argv = shlex.split(line.format(cfg=cfg))
    assert main(["--output", str(tmp_path / "out"), *argv]) == 2
    out, err = capsys.readouterr()
    # --validate-only reports its violations on stdout
    report = out if argv[0] == "--validate-only" else err
    assert "Traceback" not in out + err
    assert isinstance(json.loads(report), dict)
    assert not (tmp_path / "out").exists()
