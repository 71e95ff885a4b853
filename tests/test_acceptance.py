"""End-to-end acceptance checks, one test per numbered criterion.

Each test measures its quantities, appends a one-line verdict to
``acceptance_report.txt`` in the repository root (echoed in the pytest
terminal summary), and asserts the criterion.  Runtime limits are enforced
on the numpy kernels, run once beforehand on tiny inputs.

Criterion 11 checks the small-excess scale law, which holds to leading
order in 1/|log L|.  Since L^2 |log L| never exceeds 1/(2e), the band
[0.5, 2] is only fully attainable while 2 pi offset/base <= 1/(4e); the
test asserts that its offsets satisfy this before judging the ratios.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from bessel_series import bessel_i0
from conftest import REPORT_PATH

SQRT3 = math.sqrt(3.0)
TRI_TAU = complex(0.5, 0.5 * SQRT3)


H0_BAR = 1.0 / bessel_i0(1.0)


@pytest.fixture(scope="module", autouse=True)
def _fresh_report(warm_backend):
    REPORT_PATH.write_text("")
    yield


def record(num: int, ok: bool, detail: str) -> bool:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}"
    with open(REPORT_PATH, "a") as fh:
        fh.write(line + "\n")
    print(line)
    return ok


def test_criterion_01_square_lattice_energy():
    from abrikosov.lattice import w_eta

    t0 = time.perf_counter()
    val = w_eta(1j, m=1.0).value
    dt = time.perf_counter() - t0
    ok = abs(val - (-0.1958)) < 1e-3 and dt < 0.1
    assert record(1, ok, f"w_eta(i) = {val:.6f} (target -0.1958 +- 1e-3), "
                         f"{dt * 1e3:.1f} ms")


def test_criterion_02_triangular_lattice_energy():
    from abrikosov.lattice import w_eta

    t0 = time.perf_counter()
    val = w_eta(TRI_TAU, m=1.0).value
    dt = time.perf_counter() - t0
    ok = abs(val - (-0.2011)) < 1e-3 and dt < 0.1
    assert record(2, ok, f"w_eta(hex) = {val:.6f} (target -0.2011 +- 1e-3), "
                         f"{dt * 1e3:.1f} ms")


def test_criterion_03_route_agreement():
    from abrikosov.lattice import w_eta, w_fourier, w_zeta_diff

    t0 = time.perf_counter()
    gaps = [abs(w_eta(tau).value - w_fourier(tau).value)
            for tau in (1j, TRI_TAU)]
    diff = w_zeta_diff(1j, TRI_TAU)
    dt = time.perf_counter() - t0
    ok = (max(gaps) < 1e-4 and abs(diff - 0.0053) < 5e-4 and dt < 5.0)
    assert record(3, ok, f"eta-fourier gaps {gaps[0]:.2e}/{gaps[1]:.2e} "
                         f"(< 1e-4), zeta diff {diff:.6f} "
                         f"(target 0.0053 +- 5e-4), {dt:.2f} s")


def test_criterion_04_moduli_scan_minimum():
    from abrikosov.lattice import ModuliGrid, moduli_scan

    t0 = time.perf_counter()
    coarse = moduli_scan(ModuliGrid(resolution=200))
    dt = time.perf_counter() - t0
    fine = moduli_scan(ModuliGrid(resolution=400))
    a, b = coarse.argmin
    pos_ok = abs(a - 0.5) < 0.02 and abs(b - 0.5 * SQRT3) < 0.02
    min_ok = abs(coarse.min_value - (-0.2011)) < 1e-3
    cell_a = 1.0 / 199.0
    cell_b = 0.8 / 199.0
    move_a = abs(fine.argmin[0] - a)
    move_b = abs(fine.argmin[1] - b)
    refine_ok = move_a < cell_a and move_b < cell_b
    ok = pos_ok and min_ok and refine_ok and dt < 60.0
    assert record(4, ok, f"argmin ({a:.4f}, {b:.4f}) vs (0.5, {0.5 * SQRT3:.4f}), "
                         f"min {coarse.min_value:.6f}, refinement moved "
                         f"({move_a:.2e}, {move_b:.2e}) < cell "
                         f"({cell_a:.2e}, {cell_b:.2e}), {dt:.2f} s")


def test_criterion_05_theta_minimality_probe():
    from abrikosov.lattice import theta_minimality_probe

    t0 = time.perf_counter()
    rep = theta_minimality_probe([0.5, 1.0, 2.0, 5.0], samples=50, seed=0)
    dt = time.perf_counter() - t0
    n_viol = len(rep.violations)
    ok = n_viol == 0 and rep.comparisons == 200 and dt < 10.0
    assert record(5, ok, f"{rep.comparisons} comparisons, "
                         f"{n_viol} violations, min margin "
                         f"{rep.min_margin:.3e}, {dt:.2f} s")


def test_criterion_06_green_eta_consistency():
    # The eta product is the Green q-series at z -> 0, so the Ewald sums of
    # w_fourier, which use no q-series, are the independent reference
    from abrikosov.lattice import w_eta, w_fourier
    from abrikosov.torus import GreenEvaluator, TorusSpec

    t0 = time.perf_counter()
    eta_gaps, fourier_gaps = [], []
    for tau, spec in ((1j, TorusSpec.square()), (TRI_TAU, TorusSpec.hexagonal())):
        ev = GreenEvaluator(spec)
        vals = []
        for r in (1e-3, 5e-4):
            vals.append(0.5 * (ev.value(np.array([r, 0.0])) + math.log(r)))
        extrapolated = (4.0 * vals[1] - vals[0]) / 3.0
        eta_gaps.append(abs(extrapolated - w_eta(tau).value))
        fourier_gaps.append(abs(extrapolated - w_fourier(tau).value))
    dt = time.perf_counter() - t0
    ok = max(eta_gaps + fourier_gaps) < 1e-5 and dt < 1.0
    assert record(6, ok, f"extrapolated Green limits off by "
                         f"{eta_gaps[0]:.2e} (square) / {eta_gaps[1]:.2e} (hex) "
                         f"from eta, {fourier_gaps[0]:.2e} / "
                         f"{fourier_gaps[1]:.2e} from fourier, "
                         f"< 1e-5, {dt:.2f} s")


def _central_differences(energy, pts, inv, eps=1e-6):
    """Cartesian central differences of energy(fractional points), (n, 2)."""
    fd = np.empty_like(pts)
    for i in range(len(pts)):
        for k in range(2):
            dx = np.zeros(2)
            dx[k] = eps
            dfrac = inv @ dx
            up, dn = pts.copy(), pts.copy()
            up[i] += dfrac
            dn[i] -= dfrac
            fd[i, k] = (energy(up) - energy(dn)) / (2 * eps)
    return fd


def test_criterion_07_gradient_correctness():
    # Central differences of two energies: the program's q-series energy and
    # the test-side Ewald pair sum, which shares no formula with config_grad
    from abrikosov.torus import TorusConfig, TorusSpec, config_energy, config_grad
    from test_torus import _ewald_green

    t0 = time.perf_counter()
    spec = TorusSpec.square()
    inv = np.linalg.inv(spec.basis.matrix)
    rng = np.random.default_rng(0)
    worst_rel = 0.0
    worst_sum = 0.0
    checked = []
    for n in (2, 3, 5):
        done = 0
        while done < 10:
            pts = rng.random((n, 2))
            cfg = TorusConfig(spec, pts)
            d = cfg.points[:, None, :] - cfg.points[None, :, :]
            d -= np.rint(d)
            seps = np.sqrt((d ** 2).sum(-1))[np.triu_indices(n, 1)]
            if seps.min() < 0.08:
                continue
            done += 1
            g = config_grad(cfg)
            worst_sum = max(worst_sum, float(np.max(np.abs(g.sum(axis=0)))))
            fd = _central_differences(
                lambda p: config_energy(TorusConfig(spec, p)), pts, inv)
            rel = float(np.max(np.abs(fd - g)) / max(np.max(np.abs(g)), 1e-12))
            worst_rel = max(worst_rel, rel)
            checked.append((pts, g))
    dt = time.perf_counter() - t0

    def ewald_energy(p):
        i, j = np.triu_indices(len(p), 1)
        sep = p[i] - p[j]
        sep -= np.rint(sep)
        return sum(_ewald_green(spec.basis, spec.basis.matrix @ s) for s in sep)

    worst_ewald = 0.0
    for pts, g in checked:
        fd = _central_differences(ewald_energy, pts, inv)
        rel = float(np.max(np.abs(fd - g)) / max(np.max(np.abs(g)), 1e-12))
        worst_ewald = max(worst_ewald, rel)
    ok = (max(worst_rel, worst_ewald) < 1e-5 and worst_sum < 1e-12
          and dt < 5.0)
    assert record(7, ok, f"worst FD relative error {worst_rel:.2e} (q-series "
                         f"energy) / {worst_ewald:.2e} (Ewald energy) < 1e-5, "
                         f"worst translation sum {worst_sum:.2e} < 1e-12, "
                         f"{dt:.2f} s")


def test_criterion_08_two_point_optimum():
    from abrikosov.lattice import w_eta
    from abrikosov.torus import (MinimizeControl, TorusConfig, TorusSpec,
                                 config_grad, minimize_config)

    t0 = time.perf_counter()
    ctl = MinimizeControl(max_iters=4000, grad_tol=1e-9, restarts=4, rng_seed=0)
    start = TorusConfig(TorusSpec.square(), [[0.13, 0.41], [0.77, 0.19]])
    out = minimize_config(start, ctl)
    grad_sup = float(np.max(np.abs(config_grad(out.config))))
    target = w_eta(1j, m=2.0).value
    gap = abs(out.report.value - target)
    dt = time.perf_counter() - t0
    ok = grad_sup < 1e-8 and gap < 1e-8 and dt < 5.0
    assert record(8, ok, f"grad sup {grad_sup:.2e} < 1e-8, energy gap "
                         f"{gap:.2e} < 1e-8 vs centered-square value, "
                         f"{dt:.2f} s")


def test_criterion_09_elkies_band():
    from abrikosov.torus import elkies_experiment

    t0 = time.perf_counter()
    rep = elkies_experiment(range(2, 9))
    dt = time.perf_counter() - t0
    excesses = [f"{x:+.3f}" for _, _, x in rep.rows]
    ok = rep.band_ok and rep.band_width < 5.0 and dt < 120.0
    assert record(9, ok, f"excesses {' '.join(excesses)}, band width "
                         f"{rep.band_width:.3f} < 5, {dt:.1f} s")


def test_criterion_10_obstacle_baseline():
    from abrikosov.obstacle import (DomainGrid, UnitDisk, solve_h0,
                                    solve_obstacle)

    t0 = time.perf_counter()
    tol = 1e-10
    grid = DomainGrid(UnitDisk(), 1.0 / 128.0)
    h0 = solve_h0(grid, tol=tol)
    thresh_gap = abs(h0.min_value - H0_BAR)
    empty = solve_obstacle(grid, 0.5, tol=tol)
    full = solve_obstacle(grid, 1.0, tol=tol)
    fields = [solve_obstacle(grid, m, tol=tol)
              for m in (0.80, 0.85, 0.90, 0.95)]
    mono = True
    for lo, hi in zip(fields, fields[1:]):
        gap = hi.m - lo.m
        pad = lo.value_error + hi.value_error
        mono &= bool(np.all(lo.values <= hi.values + pad))
        mono &= bool(np.all(hi.values <= lo.values + gap + pad))
    dt = time.perf_counter() - t0
    ok = (thresh_gap < 5e-3 and not empty.active.any() and full.active.all()
          and mono and dt < 60.0)
    assert record(10, ok, f"threshold gap {thresh_gap:.2e} < 5e-3 "
                          f"(value error {h0.value_error:.1e}), "
                          f"empty at 0.5: {not empty.active.any()}, "
                          f"full at 1.0: {full.active.all()}, monotone: {mono}, "
                          f"{dt:.1f} s")


def test_criterion_11_scale_law_band():
    from abrikosov.obstacle import (DomainGrid, UnitDisk, solve_h0,
                                    solve_obstacle, verify_scale_law)

    t0 = time.perf_counter()
    tol = 1e-10
    offsets = (0.005, 0.01)
    grid = DomainGrid(UnitDisk(), 1.0 / 256.0)
    base = solve_h0(grid, tol=tol).min_value
    # L^2 |log L| <= 1/(2e), so a ratio of 2 needs 2 pi offset/base <= 1/(4e)
    regime_ok = all(2.0 * math.pi * off / base <= 0.25 / math.e
                    for off in offsets)
    fields = [solve_obstacle(grid, base + off, tol=tol) for off in offsets]
    rep = verify_scale_law(fields, base_level=base)
    dt = time.perf_counter() - t0
    rows = sorted(rep.rows, key=lambda r: r["offset"])
    labels = ", ".join(f"{row['ratio']:.4f} @ +{row['offset']:g}"
                       for row in rows)
    round_ok = all(row["axis_ratio"] <= 1.2 for row in rows)
    ok = (regime_ok and rep.all_in_band and rep.trend_toward_one and round_ok
          and dt < 300.0)
    assert record(
        11, ok,
        f"ratios {labels} (band [0.5, 2.0]), offsets within "
        f"2 pi offset/base <= 1/(4e): {regime_ok}, trend toward 1: "
        f"{rep.trend_toward_one}, axis ratios <= 1.2: {round_ok}, {dt:.1f} s")


def _cli(*args):
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-m", "abrikosov", *args], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_12_cli_reproducibility(tmp_path):
    battery = [
        ("lattice", "--tau", "0.21", "1.33", "--m", "2.0"),
        ("lattice", "--tau", "0", "1", "--route", "fourier"),
        ("lattice", "--tau", "0", "1", "--route", "zetadiff-vs"),
        ("moduli-scan", "--resolution", "24"),
        ("fekete", "--n", "2", "--restarts", "1", "--max-iters", "400"),
        ("obstacle", "--disk", "--h", "0.0625", "--m", "0.9", "--tol", "1e-9"),
    ]
    all_same = True
    for args in battery:
        if _cli(*args) != _cli(*args):
            all_same = False
    # file outputs byte-identical too
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    _cli("obstacle", "--disk", "--h", "0.125", "--m", "0.9", "--tol", "1e-9",
         "--field-csv", str(f1))
    _cli("obstacle", "--disk", "--h", "0.125", "--m", "0.9", "--tol", "1e-9",
         "--field-csv", str(f2))
    files_same = f1.read_bytes() == f2.read_bytes()
    ok = all_same and files_same
    assert record(12, ok, f"{len(battery)} stdout reruns byte-identical: "
                          f"{all_same}, field CSV rerun byte-identical: "
                          f"{files_same}")
