import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rsl
from rsl.cli import main, read_config
from rsl.dispersion import get_symbol
from rsl.grids import TIME_PANEL_PHASE_COMPLEX, TIME_PANEL_PHASE_REAL, PhysicalGrid
from rsl.propagator import evolve
from rsl.transform import canonical_band_profile


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


DETERMINISM_CASES = {
    "smoothing": ["smoothing", "--symbol", "schrodinger", "--k", "0", "--q", "4", "--trials", "4"],
    "fit-k": ["fit-k", "--k=-1..0", "--T0", "8"],
    "retarded": ["retarded", "--trials", "1"],
    "conjecture-probe": ["conjecture-probe", "--R", "8,16", "--T", "16"],
    "solve-fnls": ["solve-fnls", "--seeds", "0", "--T", "4"],
    "norm-sweep": ["norm-sweep", "--T0", "8"],
    "fit-j": ["fit-j", "--j", "3..4"],
    "propagate": ["propagate"],
    "knapp": ["knapp", "--deltas", "0.125,0.0625"],
    "l6": ["l6", "--k=-1..0"],
}


@pytest.mark.parametrize("args", DETERMINISM_CASES.values(), ids=DETERMINISM_CASES.keys())
def test_determinism_byte_identical(tmp_path, args):
    run([*args], tmp_path, "d1")
    run([*args], tmp_path, "d2")
    a = (tmp_path / "d1" / "data.csv").read_bytes()
    b = (tmp_path / "d2" / "data.csv").read_bytes()
    assert a == b


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
FREE = "import sys; from rsl.cli import main; sys.exit(main(sys.argv[1:]))"


def _child_env():
    src = str(Path(rsl.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("args", DETERMINISM_CASES.values(), ids=DETERMINISM_CASES.keys())
def test_data_csv_independent_of_core_count(tmp_path, args):
    # one child on every core this process may use and one pinned to a
    # single core (so one kernel worker) write the same bytes.  BLAS runs one
    # thread in both: its own thread count moves the last digits of the
    # GEMM-based commands (propagate, solve-fnls) whatever the kernel does
    env = {**_child_env(), **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    pin = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
           "from rsl.cli import main; sys.exit(main(sys.argv[1:]))")
    codes = [
        subprocess.run([sys.executable, "-c", code, "--output", str(tmp_path), "--run-id",
                        run_id, *args], env=env, capture_output=True).returncode
        for code, run_id in [(FREE, "free"), (pin, "pinned")]
    ]
    assert codes[0] == codes[1] and codes[0] in (0, 1)
    a = (tmp_path / "free" / "data.csv").read_bytes()
    b = (tmp_path / "pinned" / "data.csv").read_bytes()
    assert a == b


def test_report_records_blas(tmp_path):
    # data.csv repeats byte for byte only at one BLAS thread count, so the
    # report names the BLAS, the thread count it ran with and the usable cores
    env = {**_child_env(), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", FREE, "--output", str(tmp_path), "--run-id",
                           "blas", "thresholds", "--n", "3"], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads((tmp_path / "blas" / "report.json").read_text())["environment"]
    assert set(facts) == {"blas", "blas_version", "blas_threads", "cores"}
    assert facts["cores"] >= 1
    if "openblas" not in str(facts["blas"]):
        pytest.skip(f"numpy is built with {facts['blas']}, not OpenBLAS")
    assert facts["blas_threads"] == 1


@pytest.mark.parametrize("args, status", [
    (["thresholds", "--n", "3"], 0),
    (["admissible", "--family", "schrodinger", "--n", "2", "--q", "2", "--r", "2"], 1),
], ids=["pass", "fail"])
def test_closed_stdout_exits_quietly(tmp_path, args, status):
    # a reader that closes the pipe early (`rsl ... | head`): no traceback,
    # and the run's own exit status
    proc = subprocess.Popen([sys.executable, "-m", "rsl.cli", "--output", str(tmp_path), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == status
    assert err == b""


def test_fit_j_cells_are_numbers(tmp_path):
    # data.csv and plot.dat hold plain numbers, not numpy reprs
    assert run(["fit-j", "--j", "3..4"], tmp_path, "fj") == 0
    rows = (tmp_path / "fj" / "data.csv").read_text().splitlines()
    assert rows[0] == "j,log2_norm"
    cells = [c for row in rows[1:] for c in row.split(",")]
    cells += (tmp_path / "fj" / "plot.dat").read_text().split()
    assert len(cells) == 8
    assert all(math.isfinite(float(c)) for c in cells)


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


def _readme_cli_block() -> list:
    """The lines of the fenced code block under the README's `## CLI` heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return block.splitlines()


README_EXAMPLES = _readme_cli_block()


def test_readme_cli_block_holds_commands():
    # an empty or misread block would leave the examples test with no cases
    assert len(README_EXAMPLES) >= 21
    assert all(line.startswith("rsl ") for line in README_EXAMPLES)


@pytest.mark.parametrize("line", README_EXAMPLES)
def test_readme_examples_validate(line, capsys):
    # a stale flag (such as a removed one) or value is a violation
    assert main(["--validate-only", *shlex.split(line)[1:]]) == 0
    assert json.loads(capsys.readouterr().out) == {"violations": []}


@pytest.mark.parametrize("line", [
    # numbers are finite; n >= 2
    "solve-fnls --p nan", "conjecture-probe --a nan", "maximal --a inf",
    "fit-k --n 1", "propagate --n 1", "thresholds --n 1", "admissible --n 1",
    "conjecture-probe --n 1",
    # windows and amplitudes > 0, trial and refinement counts
    "fit-k --T0 0", "fit-k --T0=-4", "solve-nls --T 0", "solve-nls --delta 0",
    "smoothing --trials 0", "retarded --trials 0", "hls --refinements 1",
    "hls --refinements 8", "maximal --samples -3 --k 2..3", "maximal --samples 0",
    # band and annulus indices lie in -64..64, as single values and in ranges
    "propagate --k 2000", "smoothing --k 5000", "split --j 3000",
    "norm-sweep --symbol klein-gordon --k=-600", "norm-sweep --symbol beam --k 600 --T0 1",
    "smoothing --k 600", "norm-sweep --k 600 --T0 1", "split --k=-65", "fit-j --k 65",
    "constants --k 65", "fit-k --k 64..65", "fit-j --j=-65..-64", "l6 --k 63..65",
    "hypotheses --k=-65..0", "maximal --k 64..65", "counter-schrodinger --j 64..65",
    # empty ranges
    "hypotheses --k 5..1", "solve-nls --seeds 3..1",
    # a slope needs two or more strictly monotone values; radii are positive
    "fit-k --k 0", "l6 --k 0", "fit-j --j 3", "counter-schrodinger --j 4",
    "counter-wave --R 16", "knapp --deltas 0.125", "maximal --k 2",
    "conjecture-probe --R 8", "conjecture-probe --R 16,8", "counter-wave --R 0,16",
    "propagate --t 2,1", "propagate --t 1,inf",
    # both sharpness probes integrate from r = 2, so every R exceeds 2
    "counter-wave --R 1,1.5", "conjecture-probe --R 0.5,1 --T 8",
    "conjecture-probe --R 1,2 --T 8",
    # propagate samples on the norm engine's radius grid; it has no --rmax
    "propagate --rmax 40",
    # rules the library states as typed errors
    "knapp --sigma 3", "maximal --a=-1", "norm-sweep --q inf --T0 4",
    # sizes that overflow a float lie past the node limit
    "maximal --a 1000 --k 2..3",
    "fit-j --q inf --j 3..4", "smoothing --q inf", "counter-wave --q inf",
    "knapp --q inf", "knapp --r inf", "counter-schrodinger --q inf",
    # norm-sweep measures L^q_{t,x}; it has no separate --r
    "norm-sweep --r 6",
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


@pytest.mark.parametrize("line, status", [
    ("norm-sweep --k=64", 0), ("norm-sweep --symbol wave --k=-64", 0),
    ("constants --k=-64", 0), ("hypotheses --k=-64..64", 0), ("l6 --k=-64..-63", 0),
    ("fit-j --j=-64..-63 --regime inner", 0), ("smoothing --k=64 --trials 1", 0),
    ("fit-k --symbol beam --k=-64..-63", 0),
    ("propagate --k=64", 2), ("split --j=64", 2), ("split --k=-64", 2),
    ("fit-j --k=64 --j 3..4", 2), ("l6 --k 63..64", 2),
    ("maximal --k 63..64", 2), ("maximal --k 19..20", 2), ("counter-schrodinger --j 63..64", 2),
])
def test_index_extremes_finish(line, status, tmp_path, capsys):
    # at the ends of -64..64 a run finishes or ends in a typed error
    assert main(["--output", str(tmp_path), *shlex.split(line)]) == status
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if status == 2:
        assert set(json.loads(err)) == {"error", "detail"}


@pytest.mark.parametrize("k", [-3, -5, -64, 0, 3, 5])
def test_propagate_low_bands_pass(k, tmp_path):
    # the norm engine's radius grid covers the packet's transport and
    # resolves the band, so unitarity holds in every band it can size
    assert run(["propagate", f"--k={k}"], tmp_path, "p") == 0
    results = json.loads((tmp_path / "p" / "report.json").read_text())["results"]
    assert results["unitarity_deviation"] <= 1e-6
    last = (tmp_path / "p" / "field.csv").read_text().splitlines()[-1]
    assert results["rmax"] == float(last.split(",")[1])


@pytest.mark.parametrize("symbol, n, k", [("schrodinger", 2, 0), ("klein-gordon", 4, 2)])
def test_propagate_field_matches_evolve(symbol, n, k, tmp_path):
    # field.csv against dense quadrature of the same datum, P_k of the
    # canonical band profile, at about 60 of the sampled radii
    assert run(["propagate", "--symbol", symbol, "--n", str(n), f"--k={k}"], tmp_path, "p") == 0
    assert json.loads((tmp_path / "p" / "field.json").read_text())["source"] == "fastfield"
    rows = np.loadtxt(tmp_path / "p" / "field.csv", delimiter=",", skiprows=1)
    t = np.unique(rows[:, 0])
    r = rows[: len(rows) // t.size, 1]
    field = (rows[:, 2] + 1j * rows[:, 3]).reshape(t.size, r.size)
    sel = slice(0, None, max(r.size // 60, 1))
    assert r[sel].size >= 40
    ref = evolve(get_symbol(symbol), canonical_band_profile(n, k), k, PhysicalGrid(r[sel], t))
    assert np.max(np.abs(field[:, sel] - ref.values)) <= 1e-7


def test_propagate_has_no_rmax(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rmax = 40\n")
    assert main(["--config", str(cfg), "--output", str(tmp_path), "propagate"]) == 2
    assert "rmax" in json.loads(capsys.readouterr().err)["detail"]


@pytest.mark.parametrize("line", ["propagate --k 9", "norm-sweep --T0 1e6"])
def test_grid_past_node_limit_exits_2(line, tmp_path, capsys):
    # band 9 at t <= 2 and band 0 at T = 1e6 need inner frequency grids of
    # 4.5M and 8.5M nodes; each run stops before it builds one
    assert main(["--output", str(tmp_path), *shlex.split(line)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "QuadratureUnderresolved"


def test_node_limit_detail_stays_short(tmp_path, capsys):
    # a = 300 asks for about 8^299 frequency nodes in band 2; the detail
    # names the grid and the limit and gives the count to three digits
    assert main(["--output", str(tmp_path), "maximal", "--a", "300", "--k", "2..3"]) == 2
    detail = json.loads(capsys.readouterr().err)["detail"]
    assert "maximal band 2 frequency grid" in detail and "4,000,000" in detail
    assert len(detail) < 120


SOLVE_COLUMNS = {
    "solve-nls": "seed,mu,converged,contraction,mass_drift,solution_norm,bound_constant,"
                 "final_deviation,max_tail_deviation,tail_decreasing",
    "solve-nlw": "seed,mu,converged,contraction,solution_norm,final_deviation,tail_decreasing",
    "solve-fnls": "seed,converged,contraction,mass_drift,energy_drift,energy_positive,"
                  "solution_norm,final_deviation",
}
# the phase one time panel spans at most: NLW's field is real
SOLVE_PANEL_PHASE = {"solve-nls": TIME_PANEL_PHASE_COMPLEX, "solve-nlw": TIME_PANEL_PHASE_REAL,
                     "solve-fnls": TIME_PANEL_PHASE_COMPLEX}


@pytest.mark.parametrize("command", SOLVE_COLUMNS)
def test_solve_data_csv_columns(command, tmp_path):
    # each experiment's run dict keys, in order, are its data.csv columns;
    # the solver grid's shape (n_t, n_s, n_r), r_max and time panels (count,
    # Lobatto nodes per panel, phase per panel) go to report.json
    assert run([command, "--seeds", "0..1", "--T", "2"], tmp_path, "cols") in (0, 1)
    rows = (tmp_path / "cols" / "data.csv").read_text().splitlines()
    assert rows[0] == SOLVE_COLUMNS[command]
    assert len(rows) == 3
    results = json.loads((tmp_path / "cols" / "report.json").read_text())["results"]
    n_t, n_s, n_r = results["grid_shape"]
    panels = results["time_panels"]
    assert n_t == 7 * panels + 1 and n_s % 10 == 0 and n_r % 10 == 0
    assert results["time_panel_order"] == 8
    assert 0 < results["time_panel_phase"] <= SOLVE_PANEL_PHASE[command]
    assert 0 < results["r_max"] < 1.15 * 2.0 * 4.0 + 40.0
