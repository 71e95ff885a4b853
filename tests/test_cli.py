"""Subprocess tests of the command-line interface.

Determinism matters most here: identical invocations must produce identical
bytes, stdout or files.
"""

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from abrikosov import lattice, obstacle, torus
from abrikosov.cli import build_parser, main


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "abrikosov",
         *args],
        capture_output=True, text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli failed ({proc.returncode}): {proc.stderr}\n{proc.stdout}"
        )
    return proc


def test_version_flag():
    proc = run_cli("--version", check=True)
    assert proc.stdout.strip() == "0.1.0"


def test_lattice_eta_json_shape():
    proc = run_cli("lattice", "--tau", "0.5", "0.8660254037844386", check=True)
    doc = json.loads(proc.stdout)
    assert doc["version"] == "0.1.0"
    assert doc["run_config"]["command"] == "lattice"
    assert doc["report"]["route"] == "eta"
    assert abs(doc["report"]["value"] - (-0.201089447611682)) < 1e-9


def test_lattice_basis_input():
    # unit-covolume square lattice: density 2 pi, w = 2 pi (w1 - log(2 pi)/4)
    proc = run_cli("lattice", "--basis", "1", "0", "0", "1", check=True)
    doc = json.loads(proc.stdout)
    assert abs(doc["report"]["value"] - (-4.117160612331945)) < 1e-7
    # at the normalized covolume the default density is 1
    side = "2.5066282746310002"  # sqrt(2 pi)
    proc = run_cli("lattice", "--basis", side, "0", "0", side, check=True)
    doc = json.loads(proc.stdout)
    assert abs(doc["report"]["value"] - (-0.195797196353418)) < 1e-9


def test_lattice_routes_agree():
    eta = json.loads(run_cli("lattice", "--tau", "0", "1", check=True).stdout)
    fourier = json.loads(run_cli("lattice", "--tau", "0", "1",
                                 "--route", "fourier", check=True).stdout)
    assert abs(eta["report"]["value"] - fourier["report"]["value"]) < 1e-5
    assert "probes" not in fourier["run_config"]
    diff = json.loads(run_cli("lattice", "--tau", "0", "1", "--route",
                              "zetadiff-vs", check=True).stdout)
    assert abs(diff["report"]["value"] - 0.00529225125826413) < 1e-6
    # only the zetadiff-vs route reads the reference shape, rho by default
    assert eta["run_config"]["ref_tau"] is None
    assert fourier["run_config"]["ref_tau"] is None
    assert diff["run_config"]["ref_tau"] == [0.5, 0.866025403784]


def test_exit_code_2_on_bad_modulus():
    proc = run_cli("lattice", "--tau", "0", "-1")
    assert proc.returncode == 2
    assert "input error" in proc.stderr
    assert "NonPositiveImaginaryPart" in proc.stderr


def test_exit_code_2_on_usage_error():
    proc = run_cli("lattice")          # neither --tau nor --basis
    assert proc.returncode == 2
    proc = run_cli("lattice", "--tau", "0", "1", "--basis", "1", "0", "0", "1")
    assert proc.returncode == 2
    # the fourier route has no probe radii to set
    proc = run_cli("lattice", "--tau", "0", "1", "--route", "fourier",
                   "--probes", "0.01")
    assert proc.returncode == 2


def test_exit_code_3_on_a_modulus_past_the_ewald_window():
    # at b = 1e306 the dual sum's covering-radius bound rho is half the long
    # dual vector's length c b, c = sqrt(2 pi / b), and its radius
    # 2 rho + t0 adds a gap t0 of order 1 that is lost in rounding: the
    # radius is c b, and the window spans ceil(b) + 1 steps of the short
    # dual vector and 2 of the long one each way.  The message gives that
    # count in three digits and names the route that takes such a modulus
    b = 1e306
    points = (2 * (math.ceil(b) + 1) + 1) * (2 * 2 + 1)
    proc = run_cli("lattice", "--tau", "0", repr(b), "--route", "fourier")
    assert proc.returncode == 3
    assert "PrecisionUnreachable" in proc.stderr
    assert f"window of {points:.3g} lattice points" in proc.stderr
    assert "--route eta" in proc.stderr
    assert len(proc.stderr) < 200
    assert run_cli("lattice", "--tau", "0", "1e306").returncode == 0


@pytest.mark.parametrize("flag", [("--truncation-order", "2"),
                                  ("--max-terms", "600")])
@pytest.mark.parametrize("command", [("lattice", "--tau", "0", "1"),
                                     ("moduli-scan", "--resolution", "4"),
                                     ("fekete", "--n", "2")])
def test_removed_series_flags_are_rejected(command, flag, capsys):
    # abs_tol is the one truncation setting
    with pytest.raises(SystemExit) as exc:
        main([*command, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_removed_cycle_cap_flag_is_rejected(capsys):
    # the V-cycle cap is the module constant every run uses
    with pytest.raises(SystemExit) as exc:
        main(["obstacle", "--disk", "--m", "0.9", "--max-cycles", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("obstacle", "--disk", "--h", "0.0625", "--suite", "propA1",
     "--field-csv"),
    ("fekete", "--elkies", "--n-max", "3", "--trace-csv"),
    ("fekete", "--conjecture1", "--trace-csv"),
])
def test_an_output_file_the_run_cannot_write_is_an_input_error(
        args, tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert main([*args, str(target)]) == 2
    assert "InputError" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("args", [
    ("lattice", "--tau", "0", "1", "--output"),
    ("moduli-scan", "--resolution", "4", "--csv"),
    ("fekete", "--n", "2", "--trace-csv"),
    ("obstacle", "--disk", "--m", "0.9", "--field-csv"),
], ids=lambda a: a[-1])
def test_an_output_path_in_a_missing_directory_is_an_input_error(
        args, tmp_path):
    # refused before the run computes anything, and nothing is created
    target = tmp_path / "missing" / "out"
    proc = run_cli(*args, str(target))
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error [InputError]: cannot write")
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not target.parent.exists()


def test_an_output_file_that_fails_to_open_is_an_input_error(tmp_path,
                                                              capsys):
    # the directory exists, but the path names a directory, not a file
    assert main(["lattice", "--tau", "0", "1", "--output",
                 str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("input error [IsADirectoryError]") and out == ""


@pytest.mark.parametrize("args", [
    ("fekete", "--elkies", "--conjecture1"),
    ("fekete", "--elkies", "--n", "3"),
    ("fekete", "--conjecture1", "--n", "3"),
    ("obstacle", "--disk", "--suite", "propA1", "--m", "0.7"),
    ("obstacle", "--disk", "--suite", "scale-law", "--m", "0.9"),
    ("obstacle", "--disk", "--suite", "propA1", "--m-grid", "0.8", "0.9"),
    ("obstacle", "--disk", "--suite", "ellipse", "--m-grid", "0.9"),
    ("obstacle", "--disk", "--m", "0.8", "--m-grid", "0.8", "0.9"),
    ("obstacle", "--disk", "--m", "0.8", "--offsets", "0.01"),
    ("obstacle", "--disk", "--m-grid", "0.8", "--offsets", "0.01"),
    ("obstacle", "--disk", "--suite", "propA1", "--offsets", "0.01"),
    ("obstacle", "--disk", "--suite", "gradient-bound", "--offsets", "0.01"),
    ("fekete", "--n", "2", "--aspect", "2.0"),
    ("fekete", "--n", "2", "--n-max", "5"),
    ("fekete", "--n", "2", "--n-list", "3", "4"),
    ("fekete", "--conjecture1", "--torus", "hex"),
    ("lattice", "--tau", "0", "1", "--ref-tau", "0.1", "1.2"),
    ("obstacle", "--disk", "--suite", "ellipse", "--offsets", "0.01", "0.02"),
], ids=" ".join)
def test_an_input_the_run_would_ignore_is_an_input_error(
        args, capsys, monkeypatch):
    # rejected before any solve or search starts
    def no_work(*_, **__):
        raise AssertionError("solver ran before the input was checked")

    # each subcommand imports the library's functions when it runs
    for module, names in ((obstacle, ("solve_h0", "solve_obstacle")),
                          (torus, ("elkies_experiment", "conjecture1_probe",
                                   "minimize_config")),
                          (lattice, ("w_eta", "w_fourier", "w_zeta_diff"))):
        for name in names:
            monkeypatch.setattr(module, name, no_work)
    assert main(list(args)) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("obstacle", "--disk", "--h", "0.0625", "--suite", "gradient-bound"),
    ("obstacle", "--disk", "--h", "0.015625", "--suite", "scale-law"),
    ("obstacle", "--disk", "--h", "0.0625", "--suite", "ellipse"),
], ids=" ".join)
def test_run_config_echoes_suite_defaults(args, capsys):
    assert main(list(args)) == 0
    config = json.loads(capsys.readouterr().out)["run_config"]
    assert (config["m_grid"], config["offsets"]) == {
        "gradient-bound": ([0.9, 0.95, 0.99], None),
        "scale-law": (None, [0.005, 0.01]),
        "ellipse": (None, [0.03]),
    }[args[-1]]


def test_every_fekete_mode_echoes_the_same_keys(capsys):
    configs = {}
    for mode in (("--n", "2"), ("--elkies", "--n-max", "2"),
                 ("--conjecture1", "--n-list", "2")):
        assert main(["fekete", *mode, "--restarts", "0",
                     "--max-iters", "5"]) == 0
        configs[mode[0]] = json.loads(capsys.readouterr().out)["run_config"]
    keys = {"command", "mode", "n", "n_max", "n_list", "torus", "aspect",
            "seed", "restarts", "max_iters", "grad_tol", "abs_tol"}
    assert all(set(c) == keys for c in configs.values())
    assert configs["--n"]["n_max"] is None and configs["--n"]["n"] == 2
    assert configs["--elkies"]["n_max"] == 2
    assert configs["--conjecture1"]["n_list"] == [2]
    assert configs["--conjecture1"]["torus"] is None


def test_fekete_n1_lists_every_start(capsys):
    # one point has no pairs: every start is converged at the lattice energy
    assert main(["fekete", "--n", "1", "--restarts", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["index"] for row in doc["restart_table"]] == [0, 1, 2]
    assert all(row["iters"] == 0 and row["grad_norm"] == 0.0
               for row in doc["restart_table"])
    assert doc["exit_reason"] == "converged" and doc["iterations"] == 0
    assert doc["energy"]["value"] == -0.195797196353


def test_gradient_bound_suite_takes_its_levels(capsys):
    assert main(["obstacle", "--disk", "--h", "0.0625", "--suite",
                 "gradient-bound", "--m-grid", "0.9", "0.95"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["run_config"]["m_grid"] == [0.9, 0.95]
    assert doc["run_config"]["m"] is None


def test_zetadiff_reaches_a_tol_below_rounding():
    # the route's lattice sums meet any tol with a few more points: a tol
    # below rounding gives the same value as a reachable one, promptly
    args = ("lattice", "--tau", "0", "1", "--route", "zetadiff-vs")
    for tol in ("5e-324", "1e-16", "1e-14"):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "abrikosov",
             *args, "--abs-tol", tol],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["report"]["value"] == 0.00529225125826


def _readme_cli_flags():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command-line interface", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))


def _cli_flags():
    root = build_parser()
    sub = next(a for a in root._actions
               if isinstance(a, argparse._SubParsersAction))
    return {flag for parser in (root, *sub.choices.values())
            for action in parser._actions for flag in action.option_strings
            if flag.startswith("--")}


def test_readme_names_exactly_the_cli_flags():
    documented, accepted = _readme_cli_flags(), _cli_flags()
    assert documented - accepted == set(), "README names unknown flags"
    assert accepted - documented == set(), "flags missing from README"


def test_lattice_rerun_byte_identical(tmp_path):
    args = ("lattice", "--tau", "0.21", "1.33", "--m", "2.5")
    a = run_cli(*args, check=True).stdout
    b = run_cli(*args, check=True).stdout
    assert a == b
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(*args, "--output", str(out1), check=True)
    run_cli(*args, "--output", str(out2), check=True)
    assert out1.read_bytes() == out2.read_bytes()


def test_moduli_scan_outputs(tmp_path):
    csv_path = tmp_path / "grid.csv"
    args = ("moduli-scan", "--resolution", "16", "--csv", str(csv_path))
    proc = run_cli(*args, check=True)
    doc = json.loads(proc.stdout)
    assert doc["run_config"]["resolution"] == 16
    assert abs(doc["scan"]["argmin"]["a"] - 0.5) < 0.1
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "a,b,W"
    assert len(lines) == 1 + doc["scan"]["n_points"]
    csv2 = tmp_path / "grid2.csv"
    run_cli("moduli-scan", "--resolution", "16", "--csv", str(csv2),
            check=True)
    assert csv_path.read_bytes() == csv2.read_bytes()


def test_fekete_small_run(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    args = ("fekete", "--n", "2", "--restarts", "1", "--max-iters", "400",
            "--trace-csv", str(trace))
    proc = run_cli(*args, check=True)
    doc = json.loads(proc.stdout)
    assert doc["run_config"]["n"] == 2
    assert doc["run_config"]["torus"] == "square"
    assert doc["run_config"]["aspect"] is None  # read only by --torus rect
    assert doc["final_grad_norm"] < 1e-6
    assert abs(doc["energy"]["value"] - (-0.738167991734824)) < 1e-6
    assert len(doc["config"]["points"]) == 2
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "iter,energy,grad_norm"
    assert len(lines) >= 2
    rerun = run_cli(*args, check=True)
    assert rerun.stdout == proc.stdout
    # the rect torus reads --aspect, and echoes its sqrt(3) default
    assert main(["fekete", "--n", "2", "--torus", "rect", "--restarts", "0",
                 "--max-iters", "5"]) == 0
    config = json.loads(capsys.readouterr().out)["run_config"]
    assert config["torus"] == "rect" and config["aspect"] == 1.73205080757


def test_fekete_reports_convergence():
    doc = json.loads(run_cli("fekete", "--n", "3", "--restarts", "1",
                             check=True).stdout)
    assert doc["converged"] is True and doc["exit_reason"] == "converged"
    assert doc["final_grad_norm"] < doc["run_config"]["grad_tol"]
    doc = json.loads(run_cli("fekete", "--n", "7", "--restarts", "1",
                             "--max-iters", "3", check=True).stdout)
    assert doc["converged"] is False and doc["exit_reason"] == "max_iters"


def test_fekete_elkies_tiny():
    proc = run_cli("fekete", "--elkies", "--n-max", "2", "--restarts", "2",
                   "--max-iters", "400", check=True)
    doc = json.loads(proc.stdout)
    assert doc["run_config"]["n_max"] == 2
    rows = doc["elkies"]["rows"]
    assert [r["n"] for r in rows] == [2]
    assert abs(rows[0]["e_min"] - (-0.693147180559945)) < 1e-5
    assert rows[0]["converged"] is True
    assert doc["elkies"]["band_ok"] is True


@pytest.mark.parametrize("args,message", [
    (("--elkies", "--n-max", "1"), "at least one n"),
    (("--conjecture1", "--n-list", "0"), "n must be >= 1"),
])
def test_fekete_experiment_without_a_valid_n_is_an_input_error(
        args, message, capsys):
    assert main(["fekete", *args]) == 2
    err = capsys.readouterr().err
    assert "NonPositiveParameter" in err and message in err
    assert "density" not in err


def test_obstacle_basic_and_field_csv(tmp_path):
    field = tmp_path / "field.csv"
    args = ("obstacle", "--disk", "--h", "0.125", "--m", "0.9",
            "--tol", "1e-8", "--field-csv", str(field))
    proc = run_cli(*args, check=True)
    doc = json.loads(proc.stdout)
    assert doc["run_config"]["m"] == 0.9
    assert doc["grid"]["h"] == 0.125
    levels = doc["fields"]
    assert len(levels) == 1 and levels[0]["m"] == 0.9
    assert levels[0]["residual"] <= 1e-8
    assert 0.0 <= levels[0]["value_error"] < 1e-4
    lines = field.read_text().strip().split("\n")
    assert lines[0] == "x,y,H,active"
    rerun = run_cli(*args, "--output", str(tmp_path / "o.json"), check=True)
    assert json.loads((tmp_path / "o.json").read_text()) == doc


def test_obstacle_cycle_cap_is_a_numerical_failure(capsys, monkeypatch):
    monkeypatch.setattr(obstacle, "MAX_CYCLES", 1)
    assert main(["obstacle", "--disk", "--h", "0.0625", "--m", "0.9",
                 "--tol", "1e-12"]) == 3
    assert "NoConvergence" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["--m=nan", "--m=inf", "--m=1.5",
                                   "--m-grid=0.9 1.5", "--tol=0 --m=0.5",
                                   "--tol=inf --m=0.5"])
def test_obstacle_bad_level_is_rejected_before_the_grid(
        level, capsys, monkeypatch):
    def no_grid(*_, **__):
        raise AssertionError("the grid was built before the level was checked")

    monkeypatch.setattr(obstacle, "DomainGrid", no_grid)
    flag, _, values = level.partition("=")
    assert main(["obstacle", "--disk", "--h", "0.002", flag,
                 *values.split()]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["nan", "-inf"])
def test_obstacle_non_finite_level_is_an_input_error(level, capsys):
    assert main(["obstacle", "--disk", "--h", "0.125", f"--m={level}"]) == 2
    err = capsys.readouterr().err
    assert "m must be finite" in err and "InfeasibleObstacle" not in err


@pytest.mark.parametrize("suite", ["ellipse", "scale-law"])
def test_an_offset_above_the_boundary_value_names_the_offsets(
        suite, capsys, monkeypatch):
    # the triangle's h0 minimum is about 0.971: the default ellipse offset
    # 0.03 passes 1 with no --m given, and the error names the flag, the
    # minimum and the largest offset that fits before any constrained solve
    def no_solve(*_, **__):
        raise AssertionError("a constrained solve ran")

    monkeypatch.setattr(obstacle, "solve_obstacle", no_solve)
    assert main(["obstacle", "--polygon", "0", "0", "1", "0", "0", "1",
                 "--suite", suite, "--h", "0.05", "--offsets", "0.03"]) == 2
    err = capsys.readouterr().err
    base = obstacle.solve_h0(obstacle.DomainGrid(
        obstacle.ConvexPolygon([[0, 0], [1, 0], [0, 1]]), 0.05)).min_value
    assert "InfeasibleObstacle" in err and "--offsets 0.03" in err
    assert f"h0 minimum is {base}" in err
    assert f"at most {1.0 - base}" in err


@pytest.mark.parametrize("argv", [
    "lattice --tau nan 1",
    "lattice --tau inf 1",
    "lattice --tau 0 inf",
    "lattice --tau 0 1 --m inf",
    "lattice --basis 1 0 0 inf",
    "lattice --tau 0 1 --route zetadiff-vs --ref-tau nan 1",
    "lattice --tau 0 1 --m 1e308",
    "lattice --tau 0 100 --route zetadiff-vs --m 1e308",
    "moduli-scan --m inf",
    "moduli-scan --m 1e308 --resolution 4",
    "moduli-scan --b-max inf",
    "lattice --tau 0 1e308",
    "moduli-scan --b-max 1e308",
    "obstacle --ellipse inf 1 --m 0.5",
    "obstacle --polygon 0 0 1 0 nan 1 --m 0.5",
    "fekete --n 3 --grad-tol inf",
    "obstacle --disk --h 0.125 --m 0.8 --tol inf",
    "obstacle --disk --h inf --m 0.5",
])
def test_non_finite_input_is_an_input_error(argv, capsys):
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert "input error" in err and out == ""


@pytest.mark.parametrize("argv", ["fekete --n 2 --seed -1",
                                  "fekete --elkies --n-max 3 --seed -5"])
def test_negative_seed_is_an_input_error(argv, capsys):
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert "rng_seed must be >= 0" in err and out == ""


@pytest.mark.parametrize("basis", ["1e200 0 0 1e-200", "1e160 0 0 1e-160",
                                   "1e-200 0 0 1e200"])
def test_shape_modulus_out_of_float_range_is_an_input_error(basis, capsys):
    # covolume 1, but v/u underflows, reduces to inf, or overflows
    assert main(["lattice", "--basis", *basis.split()]) == 2
    out, err = capsys.readouterr()
    assert "shape modulus v/u of LatticeBasis" in err and out == ""


@pytest.mark.parametrize("argv", [
    "lattice --tau 0 1e308",
    "lattice --tau 0 1e308 --route fourier",
    "lattice --tau 0 1e308 --route zetadiff-vs",
    "lattice --tau 0 1 --route zetadiff-vs --ref-tau 0 1e308",
])
def test_every_route_checks_the_modulus_range(argv, capsys):
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert "tau = 1e+308j reduces to Im tau above 1e+307" in err and out == ""


def test_a_basis_beyond_the_modulus_range_is_named(capsys):
    # covolume 1, and v/u = 1e308j is a normal float that no route takes
    assert main(["lattice", "--basis", "1e-154", "0", "0", "1e154"]) == 2
    out, err = capsys.readouterr()
    assert ("the shape modulus v/u of LatticeBasis(u=[1e-154, 0.0], "
            "v=[0.0, 1e+154]) reduces to Im tau above 1e+307") in err
    assert out == ""


@pytest.mark.parametrize("argv,same_as", [
    ("lattice --tau 0 2800", None),
    ("lattice --tau 0 1e-5", "lattice --tau 0 1e5"),
    ("lattice --tau 1e300 1", "lattice --tau 0 1"),
    ("lattice --tau 0 1e-300", "lattice --tau 0 1e300"),
    ("lattice --basis 1e150 0 0 1e150", None),
    ("lattice --basis 1e-150 0 0 1e-150", None),
])
def test_extreme_moduli_give_finite_energies(argv, same_as, capsys):
    # far up the eta route is its closed form; a shape is its reduced one
    def report(args):
        assert main(args.split()) == 0
        return json.loads(capsys.readouterr().out)["report"]

    rep = report(argv)
    assert math.isfinite(rep["value"])
    if same_as is not None:
        assert rep == report(same_as)


@pytest.mark.parametrize("side,covolume", [("1e300", "1.00e+600"),
                                           ("1e-200", "1.00e-400")])
def test_basis_covolume_out_of_float_range_is_an_input_error(side, covolume,
                                                             capsys):
    # a square basis, not collinear, whose covolume no float holds
    assert main(["lattice", "--basis", side, "0", "0", side]) == 2
    out, err = capsys.readouterr()
    assert f"basis covolume {covolume} lies outside" in err and out == ""


@pytest.mark.parametrize("argv", [
    "fekete --n 2 --torus rect --aspect 115",
    "fekete --n 2 --torus rect --aspect 120",
    "fekete --n 2 --torus rect --aspect 300",
    "fekete --n 2 --torus rect --aspect 0.001",
    "fekete --elkies --n-max 3 --torus rect --aspect 150",
])
def test_long_torus_is_an_input_error(argv, capsys):
    # the Green kernels' terms overflow above Im tau = torus.MAX_GREEN_B
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert "above the 112.965 the Green kernels take" in err and out == ""


def test_longest_torus_the_kernels_take_runs(capsys):
    assert main("fekete --n 2 --torus rect --aspect 112".split()) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"]
    # every start converges, none stalled: the pivot floor of the exact
    # Newton step keeps rounding-level pivots off this long torus
    rows = doc["restart_table"]
    assert len(rows) == 17
    assert all(not row["stalled"] for row in rows)
    assert all(row["grad_norm"] < doc["run_config"]["grad_tol"] for row in rows)


def test_moduli_scan_far_up_writes_finite_rows(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    assert main(["moduli-scan", "--b-min", "1400", "--b-max", "1500",
                 "--resolution", "3", "--csv", str(path)]) == 0
    scan = json.loads(capsys.readouterr().out)["scan"]
    w = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2]
    assert w.size == 9 and np.all(np.isfinite(w))
    closed_form = math.pi * 1400 / 12.0 - 0.25 * math.log(2 * math.pi * 1400)
    assert scan["min_grid"] == float(f"{closed_form:.12g}")


def test_empty_moduli_window_is_an_input_error(capsys):
    # a one-point grid whose only point lies below |tau| = 1
    assert main(["moduli-scan", "--a-min", "0", "--a-max", "0.5",
                 "--b-min", "0.875", "--b-max", "0.875",
                 "--resolution", "1"]) == 2
    out, err = capsys.readouterr()
    assert "no grid point" in err and out == ""


def test_obstacle_field_csv_needs_single_level():
    proc = run_cli("obstacle", "--disk", "--h", "0.125",
                   "--m-grid", "0.85", "0.9", "--field-csv", "x.csv")
    assert proc.returncode == 2


def test_obstacle_propa1_suite():
    proc = run_cli("obstacle", "--disk", "--h", "0.0625", "--tol", "1e-9",
                   "--suite", "propA1", check=True)
    doc = json.loads(proc.stdout)
    suite = doc["suite"]
    assert suite["all_pass"] is True
    assert suite["empty_below_threshold"] is True
    assert suite["full_at_top"] is True
    assert suite["monotone_in_m"] is True
    assert suite["mass_spans_domain"] is True


def test_obstacle_scale_law_default_offsets():
    # the defaults lie inside the law's range, 2 pi offset/base <= 1/(4e)
    proc = run_cli("obstacle", "--disk", "--h", "0.015625",
                   "--suite", "scale-law", check=True)
    rows = json.loads(proc.stdout)["suite"]["rows"]
    assert [row["offset"] for row in rows] == [0.005, 0.01]


def test_obstacle_polygon_domain():
    proc = run_cli("obstacle", "--polygon", "-1", "-1", "1", "-1", "1", "1",
                   "-1", "1", "--h", "0.125", "--m", "0.95", "--tol", "1e-8",
                   check=True)
    doc = json.loads(proc.stdout)
    assert doc["fields"][0]["active_cells"] >= 0
    bad = run_cli("obstacle", "--polygon", "-1", "-1", "1", "1", "1", "-1",
                  "--h", "0.125", "--m", "0.9")
    assert bad.returncode == 2
    assert "NonConvexDomain" in bad.stderr
