"""Tests of the lattice-shape energy layer: reduction, routes, scan, probe.

Frozen reference values were produced by independent summations (direct
lattice sums, the pentagonal eta series) in a separate scratch session and
are asserted as literals here; closed-form identities are used where exact.
"""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abrikosov import backend, csvfile, lattice, modular
from abrikosov.errors import InputError, NonPositiveImaginaryPart, NonPositiveParameter
from abrikosov.lattice import (
    EnergyReport,
    ModuliGrid,
    ScanReport,
    lattice_to_tau,
    moduli_scan,
    reduce_fundamental,
    shape_basis,
    theta_minimality_probe,
    w_eta,
    w_fourier,
    w_zeta_diff,
)
from abrikosov.modular import LatticeBasis, SeriesControl, _exp1

from references import SQRT3, TRI_TAU

W_SQUARE = -0.19579719635341825   # frozen: w at tau = i, unit density
W_TRI = -0.20108944761168238      # frozen: w at the hexagonal point
W_DIFF = 0.00529225125826413      # frozen: W_SQUARE - W_TRI


# ---------------------------------------------------------------------------
# Fundamental-domain reduction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "tau,expected",
    [
        (complex(1.5, 0.5), 1j),
        (complex(1.7, 0.4), complex(0.2, 1.6)),
        (complex(-2.3, 0.11), complex(-0.06170421155729544, 1.0773751224289922)),
        (complex(0.49, 3.0), complex(0.49, 3.0)),   # already reduced
        (TRI_TAU, TRI_TAU),
    ],
)
def test_reduce_fundamental_examples(tau, expected):
    got = reduce_fundamental(tau)
    assert abs(got - expected) < 1e-12


def test_reduce_fundamental_boundary_canonicalization():
    # the two half-lines a = -1/2 and a = +1/2 carry the same shapes: the
    # right representative is canonical
    got = reduce_fundamental(complex(-0.5, 1.2))
    assert abs(got - complex(0.5, 1.2)) < 1e-12
    # the left unit-circle arc maps to the right arc under tau -> -1/tau
    left = complex(-0.3, math.sqrt(1.0 - 0.09))
    got = reduce_fundamental(left)
    assert abs(got - complex(0.3, math.sqrt(1.0 - 0.09))) < 1e-12


def test_reduce_fundamental_invariance_of_energy():
    # reduction is exact on the energy, not just approximate
    for tau in (complex(3.7, 0.21), complex(-1.45, 0.33)):
        red = reduce_fundamental(tau)
        assert abs(red.real) <= 0.5 + 1e-12 and abs(red) >= 1.0 - 1e-12
        assert abs(w_eta(tau).value - w_eta(red).value) < 1e-12


# generic moduli, translates of the unit arc and of the line Re = -1/2, where
# the boundary canonicalization acts
_MODULI = st.one_of(
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(0.1, 4.0)),
    st.builds(lambda k, t: k + complex(math.cos(t), math.sin(t)),
              st.integers(-3, 3), st.floats(math.pi / 3, 2 * math.pi / 3)),
    st.builds(lambda k, b: complex(k - 0.5, b),
              st.integers(-3, 3), st.floats(0.87, 4.0)),
)


@settings(max_examples=300, deadline=None)
@given(tau=_MODULI)
def test_reduce_with_matrix_property(tau):
    red, mat = modular._reduce_with_matrix(tau)
    norm = red.real * red.real + red.imag * red.imag
    assert -0.5 < red.real <= 0.5 and norm >= (1.0 - 1e-14) ** 2
    if abs(norm - 1.0) < 1e-14:                    # on the unit arc
        assert red.real >= -1e-14
    (alpha, beta), (gamma, delta) = mat
    assert alpha * delta - beta * gamma == 1
    assert abs((alpha * tau + beta) / (gamma * tau + delta) - red) < 1e-12
    assert abs(modular._reduce_with_matrix(red)[0] - red) < 1e-15


def test_reduce_rejects_lower_half_plane():
    with pytest.raises(NonPositiveImaginaryPart):
        reduce_fundamental(complex(0.3, -1.0))
    with pytest.raises(NonPositiveImaginaryPart):
        reduce_fundamental(complex(0.3, 0.0))


def test_reduce_takes_extreme_moduli():
    # the group word stays in Python ints past int64; a |tau|^2 that
    # underflows to 0 is inverted as -1/tau
    red, mat = modular._reduce_with_matrix(complex(1e300, 1.0))
    assert red == 1j and mat == ((1, -int(1e300)), (0, 1))
    red, mat = modular._reduce_with_matrix(complex(0.0, 1e-300))
    assert red.real == 0.0 and math.isclose(red.imag, 1e300, rel_tol=1e-15)
    assert mat == ((0, -1), (1, 0))


def test_lattice_to_tau_round_trip():
    for tau in (1j, TRI_TAU, complex(0.21, 1.44)):
        basis = shape_basis(tau)
        assert abs(basis.covolume - 2.0 * math.pi) < 1e-12
        back, scale = lattice_to_tau(basis)
        assert abs(back - tau) < 1e-12
        assert abs(scale - 1.0) < 1e-12
    # rotation and scaling leave the shape invariant
    basis = shape_basis(TRI_TAU)
    ang = 0.7
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    turned = LatticeBasis(3.0 * rot @ basis.u, 3.0 * rot @ basis.v)
    back, scale = lattice_to_tau(turned)
    assert abs(back - TRI_TAU) < 1e-12
    assert abs(scale - 3.0) < 1e-12


# ---------------------------------------------------------------------------
# The three energy routes
# ---------------------------------------------------------------------------


def test_w_eta_frozen_values():
    assert abs(w_eta(1j).value - W_SQUARE) < 1e-14
    assert abs(w_eta(TRI_TAU).value - W_TRI) < 1e-14
    assert w_eta(1j).route == "eta"
    assert w_eta(1j).value > w_eta(TRI_TAU).value  # hexagonal is lower


def test_w_eta_density_scaling_identity():
    # w(tau, m) = m (w(tau, 1) - (1/4) log m)
    for tau in (1j, TRI_TAU, complex(0.3, 1.2)):
        base = w_eta(tau).value
        for m in (0.5, 2.0, 7.3):
            expected = m * (base - 0.25 * math.log(m))
            assert abs(w_eta(tau, m).value - expected) < 1e-12


def test_w_eta_rejects_bad_inputs():
    with pytest.raises(NonPositiveImaginaryPart):
        w_eta(complex(0.5, -1.0))
    with pytest.raises(NonPositiveParameter):
        w_eta(1j, m=0.0)


def test_w_fourier_agrees_with_eta():
    for tau in (1j, TRI_TAU, complex(0.2, 1.1)):
        eta_val = w_eta(tau).value
        rep = w_fourier(tau)
        assert rep.route == "fourier"
        assert abs(rep.value - eta_val) < 1e-6
        assert abs(rep.value - eta_val) < 10.0 * max(rep.error_estimate, 1e-9)
    # the Ewald sums and the eta product are independent formulas for W;
    # unreduced images of each shape exercise the reduction as well
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(200):
        a = rng.uniform(-0.5, 0.5)
        tau = complex(a, rng.uniform(math.sqrt(1.0 - a * a), 6.0))
        image = -1.0 / (tau + int(rng.integers(-3, 4)))
        worst = max(worst, abs(w_fourier(image).value - w_eta(tau).value))
    assert worst <= 1e-13


@pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-6, 1e-8])
def test_w_fourier_error_estimate_bounds_its_error(tol):
    # w_eta is within about 1e-15 of W here, far below every bound checked
    for tau in (1j, TRI_TAU, complex(0.3, 1.2), complex(0.1, 3.0),
                complex(-0.4, 0.95)):
        rep = w_fourier(tau, ctl=SeriesControl(abs_tol=tol))
        assert abs(rep.value - w_eta(tau).value) <= rep.error_estimate


@pytest.mark.parametrize("b", [1380.0, 1400.0, 1420.0, 2800.0, 1e5, 1e300])
def test_w_eta_is_its_closed_form_far_up(b):
    # from b ~ 1,380 the product is 1 to double precision, so W is
    # pi b / 12 - 1/4 log(2 pi b), while |eta| underflows from b ~ 2,840
    rep = w_eta(complex(0.0, b))
    want = math.pi * b / 12.0 - 0.25 * math.log(2.0 * math.pi * b)
    assert abs(rep.value - want) <= 1e-12 * want
    assert rep.error_estimate == 0.0


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-0.5, 0.5),
       log_b=st.floats(math.log(SQRT3 / 2.0), math.log(1e4)))
def test_w_eta_matches_w_fourier_up_to_b_1e4(a, log_b):
    # the routes share no series.  Rounding allowance: each route adds up
    # to four rounded terms no larger than about max(1, |W|) (eta: pi b / 12,
    # 1/4 log(2 pi b), log|prod|; fourier: half the dual sum, the lattice
    # sum, the constants), so each is within about 4 eps max(1, |W|) of its
    # exact truncation, and their difference within 8 eps max(1, |W|)
    tau = complex(a, math.exp(log_b))
    eta, fourier = w_eta(tau), w_fourier(tau)
    rounding = 8.0 * np.finfo(float).eps * max(1.0, abs(eta.value))
    assert abs(eta.value - fourier.value) <= (
        eta.error_estimate + fourier.error_estimate + rounding)


def test_w_fourier_density_scaling():
    rep = w_fourier(TRI_TAU, m=3.0)
    expected = 3.0 * (w_eta(TRI_TAU).value - 0.25 * math.log(3.0))
    assert abs(rep.value - expected) < 1e-5


def test_w_fourier_chowla_selberg_values():
    # |eta(i)| = Gamma(1/4) / (2 pi^(3/4)) and
    # |eta(rho)| = 3^(1/8) Gamma(1/3)^(3/2) / (2 pi): W from Gamma values only
    eta_i = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
    eta_rho = 3.0 ** 0.125 * math.gamma(1.0 / 3.0) ** 1.5 / (2.0 * math.pi)
    for tau, eta_abs in ((1j, eta_i), (TRI_TAU, eta_rho)):
        closed = -0.5 * math.log(math.sqrt(2.0 * math.pi * tau.imag) * eta_abs ** 2)
        assert abs(w_fourier(tau).value - closed) < 1e-14


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-0.5, 0.5), b=st.floats(0.87, 4.0))
def test_w_fourier_is_independent_of_the_ewald_split(a, b):
    tau = complex(a, b)
    base = w_fourier(tau).value
    for eps in (0.25, 1.0):
        with mock.patch.object(lattice, "EWALD_SPLIT", eps):
            assert abs(w_fourier(tau).value - base) <= 1e-13


def test_w_fourier_evaluates_no_q_series():
    def forbidden(*args, **kwargs):
        raise AssertionError("w_fourier reached a q-series")

    with mock.patch.object(backend, "green_values", forbidden), \
            mock.patch.object(lattice, "_eta_product", forbidden), \
            mock.patch.object(modular, "_eta_product", forbidden):
        rep = w_fourier(complex(0.3, 1.2), m=2.0)
    assert rep.route == "fourier"
    assert math.isfinite(rep.value)


# Abramowitz & Stegun, Table 5.1
@pytest.mark.parametrize("z,expected", [
    (0.5, 0.5597735947761608),
    (1.0, 0.2193839343955205),
    (2.0, 0.048900510708061125),
    (5.0, 0.0011482955912753257),
    (10.0, 4.156968929685325e-06),
])
def test_exp1_table_values(z, expected):
    assert abs(float(_exp1(z)) / expected - 1.0) < 1e-14


def test_exp1_continuous_across_crossover():
    x = modular._EXP1_CROSSOVER
    below, above = _exp1([x, np.nextafter(x, np.inf)])
    assert abs(above / below - 1.0) < 1e-14


def test_exp1_solves_its_ode():
    # E1'(z) = -exp(-z) / z, by central differences on both branches
    z = np.array([0.05, 0.3, 0.9, 0.99, 1.01, 1.5, 3.0, 8.0, 20.0])
    h = 1e-5 * z
    deriv = (_exp1(z + h) - _exp1(z - h)) / (2.0 * h)
    exact = -np.exp(-z) / z
    assert np.max(np.abs(deriv / exact - 1.0)) < 1e-8


def test_w_zeta_diff_square_vs_triangular():
    got = w_zeta_diff(1j, TRI_TAU)
    assert abs(got - W_DIFF) < 1e-10
    assert abs(w_zeta_diff(TRI_TAU, 1j) + got) < 1e-10
    # density factor multiplies through the difference
    scaled = w_zeta_diff(1j, TRI_TAU, m=2.0)
    assert abs(scaled - 2.0 * got) < 1e-9


# ---------------------------------------------------------------------------
# Moduli grid and scan
# ---------------------------------------------------------------------------


def test_moduli_grid_validation():
    with pytest.raises(InputError):
        ModuliGrid(a_range=(-0.7, 0.5))            # outside |a| <= 1/2
    with pytest.raises(InputError):
        ModuliGrid(resolution=0)
    with pytest.raises(InputError):
        ModuliGrid(a_range=(0.4, 0.2))             # unordered
    with pytest.raises(NonPositiveImaginaryPart):
        ModuliGrid(b_range=(-0.1, 1.5))
    with pytest.raises(InputError):
        ModuliGrid(a_range=(0.0, 0.2), b_range=(0.3, 0.5))  # below the arc
    ModuliGrid(resolution=1)                        # minimal grid is legal


def test_moduli_grid_points_respect_domain():
    grid = ModuliGrid(resolution=40)
    a, b = grid.points()
    assert a.size == b.size and a.size > 0
    assert np.all(a * a + b * b >= 1.0 - 1e-9)
    assert np.all(np.abs(a) <= 0.5 + 1e-12)
    # arc ordinates are included exactly where they fall in the window
    on_arc = np.abs(a * a + b * b - 1.0) < 1e-9
    assert np.any(on_arc)


def test_moduli_grid_far_up_keeps_every_point_without_overflow():
    # every b >= 1 is kept whatever a is; b^2 would overflow from ~1.34e154
    grid = ModuliGrid(b_range=(1e300, 2e300), resolution=5)
    assert grid.size == 25 and grid.min_b == 1e300


def _whole_grid_points(grid):
    """The scanned points as one whole-grid pass builds them: every column's
    kept suffix in order of a, then the arc points."""
    n = grid.resolution
    a_vals = np.linspace(*grid.a_range, n)
    b_vals = np.linspace(*grid.b_range, n)
    kept = [np.count_nonzero(x * x + b_vals * b_vals >= 1.0 - 1e-12)
            for x in a_vals]
    arc = np.sqrt(np.maximum(1.0 - a_vals * a_vals, 0.0))
    on = (arc >= grid.b_range[0] - 1e-12) & (arc <= grid.b_range[1] + 1e-12)
    return (np.concatenate([np.repeat(a_vals, kept), a_vals[on]]),
            np.concatenate([b_vals[n - k:] for k in kept] + [arc[on]]))


_unit = st.floats(0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(a=st.tuples(_unit, _unit), b_min=st.floats(0.3, 1.5),
       b_span=st.floats(0.0, 1.5), resolution=st.integers(1, 60),
       block=st.integers(1, 200))
@example(a=(0.0, 1.0), b_min=0.8, b_span=0.8, resolution=60, block=100)
@example(a=(0.1, 0.9), b_min=1.05, b_span=0.5, resolution=37, block=7)
def test_grid_blocks_join_to_the_whole_grid_points(a, b_min, b_span,
                                                   resolution, block):
    # the examples are a window with arc points and one above the arc
    try:
        grid = ModuliGrid(a_range=tuple(sorted(x - 0.5 for x in a)),
                          b_range=(b_min, b_min + b_span),
                          resolution=resolution)
    except InputError:
        assume(False)
    with mock.patch.object(lattice, "SCAN_BLOCK", block):
        blocks = list(grid.blocks())
    want_a, want_b = _whole_grid_points(grid)
    got_a, got_b = grid.points()
    for got, want in ((got_a, want_a), (got_b, want_b),
                      (np.concatenate([x for x, _ in blocks]), want_a),
                      (np.concatenate([y for _, y in blocks]), want_b)):
        assert got.tobytes() == want.tobytes()
    assert grid.size == want_a.size
    assert grid.min_b == want_b.min()
    # whole columns: a block holds at most `block` points or one column
    for x, _ in blocks[:-1]:
        assert x.size <= block or np.all(x == x[0])


def test_moduli_scan_finds_hexagonal_point():
    grid = ModuliGrid(resolution=60)
    rep = moduli_scan(grid)
    assert isinstance(rep, ScanReport)
    a_star, b_star = rep.argmin
    assert abs(a_star - 0.5) < 0.05
    assert abs(b_star - 0.5 * SQRT3) < 0.05
    assert abs(rep.min_value - W_TRI) < 1e-4
    assert rep.min_value <= rep.min_grid + 1e-15


@pytest.mark.parametrize("m", [1.0, 1.7])
@pytest.mark.parametrize("resolution", [1, 2, 16, 24, 60, 200])
def test_moduli_scan_keeps_rho_when_the_grid_holds_it(resolution, m):
    # the arc point of the a = 1/2 column is rho to the last bit; no compass
    # point around it is lower, so the polish stays there (at resolution 1,
    # a step of one whole cell reaches below Im tau = 0)
    rep = moduli_scan(ModuliGrid(resolution=resolution), m=m)
    rho = (0.5, math.sqrt(0.75))
    assert rep.argmin_grid == rep.argmin == rho
    assert rep.min_value == rep.min_grid == w_eta(complex(*rho), m).value


# Where the polish may end.  Its last round, at a step s with POLISH_STEP <=
# s < 2 POLISH_STEP, finds no compass point lower.  Near rho,
# w = w(rho) + |d|^2 / 12 for d = tau - rho (Hess w = I/6), so the axis
# point toward rho lowers w by (2 s |d_x| - s^2) / 12; with each w value
# within E = 4 eps max(1, |w|) of exact (as in the route property above)
# that drop is at most 2 E, so |d_x| <= s/2 + 12 E / s < POLISH_STEP +
# 12 E / POLISH_STEP, and the same for d_y.  The end point's own rounding
# (1e-16) is negligible beside it.
_POLISH_E = 4.0 * np.finfo(float).eps
_POLISH_REACH = math.sqrt(2.0) * (lattice.POLISH_STEP
                                  + 12.0 * _POLISH_E / lattice.POLISH_STEP)


@settings(max_examples=60, deadline=None)
@given(a=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
       b=st.tuples(*[st.floats(math.log(0.5), math.log(1e4)).map(math.exp)] * 2),
       resolution=st.integers(2, 40), m=st.floats(0.25, 4.0))
@example(a=(0.0, 0.4), b=(0.9, 1.5), resolution=50, m=1.0)
@example(a=(-0.5, 0.5), b=(1.2, 1.6), resolution=200, m=1.0)
@example(a=(-0.5, 0.5), b=(3.0, 6.0), resolution=40, m=1.0)
def test_moduli_scan_polish_ends_at_rho_from_any_window(a, b, resolution, m):
    # W is modular-invariant, so windows that exclude rho reach it too.
    # min_value is at most m |d|^2 / 12 above m w(rho), plus the rounding
    # of two values of w_m: 4 eps max(1, |w_1|) times m, and at most four
    # more rounded terms of the scaling, each within eps max(m, |w_m|)
    try:
        grid = ModuliGrid(a_range=tuple(sorted(a)), b_range=tuple(sorted(b)),
                          resolution=resolution)
    except InputError:
        assume(False)
    rep = moduli_scan(grid, m=m)
    tau = complex(*rep.argmin)
    assert min(abs(tau - TRI_TAU), abs(tau - (TRI_TAU - 1.0))) <= _POLISH_REACH
    want = w_eta(TRI_TAU, m).value
    rounding = 8.0 * np.finfo(float).eps * max(m, abs(want))
    assert abs(rep.min_value - want) <= (m * _POLISH_REACH ** 2 / 12.0
                                         + 2.0 * rounding)


def test_moduli_scan_csv_shape(tmp_path):
    grid = ModuliGrid(resolution=8)
    rep = moduli_scan(grid)
    rep.to_csv(tmp_path / "scan.csv")
    lines = (tmp_path / "scan.csv").read_text().strip().split("\n")
    assert lines[0] == "a,b,W"
    assert len(lines) == 1 + rep.a.size == 1 + rep.w.size
    assert rep.to_json_dict()["n_points"] == rep.w.size
    first = lines[1].split(",")
    assert len(first) == 3
    float(first[0]), float(first[1]), float(first[2])


def test_moduli_scan_csv_matches_row_loop(tmp_path, monkeypatch):
    # runs of 7 rows, so the last run of a grid block is short; grid blocks
    # of one column and of the whole grid
    monkeypatch.setattr(csvfile, "BLOCK_ROWS", 7)
    rep = moduli_scan(ModuliGrid(resolution=8))
    assert rep.a.size % 7 != 0
    want = "a,b,W\n" + "".join(f"{ai:.9g},{bi:.9g},{wi:.9g}\n"
                                for ai, bi, wi in zip(*rep.grid.points(), rep.w))
    for scan_block in (5, 1 << 14):
        monkeypatch.setattr(lattice, "SCAN_BLOCK", scan_block)
        rep.to_csv(tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_text() == want


_CSV_SPECIALS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                 1e300, -1e300, 1e-300, -1e-300, -1.23456789e-100, 0.5]
_csv_value = st.one_of(st.sampled_from(_CSV_SPECIALS), st.floats())


@settings(max_examples=80, deadline=None)
@given(block=st.integers(1, 6),
       row_format=st.sampled_from(["%.9g,%.9g,%d", "%.17g,%-12.3e,%d",
                                   # the formats of the package's CSV files
                                   "%.9g,%.9g,%.9g", "%.9g,%.9g,%.9g,%d",
                                   "%d,%.9g,%.9g"]),
       data=st.data())
def test_write_csv_matches_row_format(tmp_path_factory, block, row_format,
                                      data):
    # rows just under, at and over one block, and over two, handed over in
    # up to four pieces (empty ones too) cut anywhere; %d columns hold
    # integers
    n = data.draw(st.sampled_from([block - 1, block, block + 1, 2 * block + 1]))
    cols = [data.draw(st.lists(st.integers(-2**53, 2**53) if spec == "%d"
                               else _csv_value, min_size=n, max_size=n))
            for spec in row_format.split(",")]
    cuts = [0] + sorted(data.draw(st.lists(st.integers(0, n), max_size=3))) + [n]
    pieces = [tuple(c[lo:hi] for c in cols) for lo, hi in zip(cuts, cuts[1:])]
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    with mock.patch.object(csvfile, "BLOCK_ROWS", block):
        csvfile.write_csv(path, "p,q,k", row_format, pieces)
    rows = np.column_stack([np.asarray(c, dtype=float) for c in cols])
    want = "p,q,k\n" + "".join(row_format % tuple(r) + "\n"
                               for r in rows.tolist())
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("row_format", ["%.9g,%.9g", "%.9g,%.9g,%.9g,%d"])
def test_write_csv_needs_one_conversion_per_column(tmp_path, row_format):
    with pytest.raises(ValueError, match="formats .* columns, not 3"):
        csvfile.write_csv(tmp_path / "rows.csv", "p,q,k", row_format,
                          [([1.0], [2.0], [3.0])])


def test_moduli_scan_blocks_keep_the_whole_array_bits():
    grid = ModuliGrid(b_range=(0.8, 3.0), resolution=300)
    m = 1.7
    rep = moduli_scan(grid, m=m)
    a, b = _whole_grid_points(grid)
    assert a.size > 3 * lattice.SCAN_BLOCK
    n = modular._nterms_for(b.min(), SeriesControl())
    want = lattice._density_scale(lattice._w_unit(a + 1j * b, n), m)
    assert rep.w.tobytes() == want.tobytes()
    best = np.lexsort((b, a, want))[0]
    assert rep.min_grid == want[best]
    tau0 = reduce_fundamental(complex(a[best], b[best]))
    assert rep.argmin_grid == (tau0.real, tau0.imag)


def test_moduli_scan_argmin_breaks_an_exact_tie_by_a_then_b(monkeypatch):
    # an eta that depends on b alone makes every column tie at its lowest b;
    # 5 points a column, so blocks of 5 and 12 split the ties between blocks
    def eta_of_b(tau, n):
        return np.exp(-np.imag(tau)) + 0j

    monkeypatch.setattr(lattice, "_eta_product", eta_of_b)
    grid = ModuliGrid(a_range=(0.1, 0.4), b_range=(1.1, 1.5), resolution=5)
    for scan_block in (5, 12, 1 << 14):
        monkeypatch.setattr(lattice, "SCAN_BLOCK", scan_block)
        rep = moduli_scan(grid)
        a, b = rep.grid.points()
        best = np.lexsort((b, a, rep.w))[0]
        assert np.count_nonzero(rep.w == rep.w[best]) == 5
        assert rep.argmin_grid == (a[best], b[best]) == (0.1, 1.1)


@pytest.mark.parametrize("scan_block", [5, 1 << 14])
def test_moduli_scan_argmin_tie_can_be_won_blocks_later(monkeypatch,
                                                        scan_block):
    # eta = inf pins w = -inf at the top of the a = 0.4 column and at the arc
    # point of a = 0.1; the arc block comes last, and its smaller a wins
    a_vals = np.linspace(0.1, 0.4, 5)
    pinned = [complex(a_vals[4], 1.5), complex(a_vals[0], math.sqrt(0.99))]

    def eta_pinned(tau, n):
        return np.where(np.isin(tau, pinned), np.inf, np.exp(-np.imag(tau))) + 0j

    monkeypatch.setattr(lattice, "_eta_product", eta_pinned)
    monkeypatch.setattr(lattice, "SCAN_BLOCK", scan_block)
    grid = ModuliGrid(a_range=(0.1, 0.4), b_range=(0.9, 1.5), resolution=5)
    rep = moduli_scan(grid)
    a, b = rep.grid.points()
    ties = np.flatnonzero(rep.w == -np.inf)
    assert ties.size == 2 and ties[1] == a.size - 5   # first of 5 arc points
    best = np.lexsort((b, a, rep.w))[0]
    assert best == ties[1]
    assert rep.argmin_grid == (a[best], b[best]) == (0.1, math.sqrt(0.99))


def test_moduli_scan_memory_per_point():
    # w is 8 bytes a point; the grid's blocks and their eta temporaries add
    # a bounded amount, 2 bytes a point at this resolution
    grid = ModuliGrid(resolution=1000)
    tracemalloc.start()
    try:
        rep = moduli_scan(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * rep.w.size, peak / rep.w.size


def _csv_peak(path, resolution):
    rep = moduli_scan(ModuliGrid(resolution=resolution))
    tracemalloc.start()
    try:
        rep.to_csv(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_csv_memory_does_not_grow_with_the_points(tmp_path):
    # rows are written a grid block at a time, so at 201,470 and 805,040
    # points to_csv needs the same few MB over the report
    small, large = (_csv_peak(tmp_path / "scan.csv", r) for r in (500, 1000))
    assert large < 4e6 and abs(large - small) < 0.5e6, (small, large)


def test_moduli_scan_deterministic():
    grid = ModuliGrid(resolution=24)
    r1 = moduli_scan(grid)
    r2 = moduli_scan(grid)
    assert r1.argmin == r2.argmin
    assert r1.min_value == r2.min_value
    assert np.array_equal(r1.w, r2.w)


# ---------------------------------------------------------------------------
# Theta minimality probe
# ---------------------------------------------------------------------------


def test_theta_probe_no_violations_small():
    rep = theta_minimality_probe([0.5, 2.0], samples=12, seed=3)
    assert len(rep.violations) == 0
    assert rep.comparisons == 2 * 12
    assert rep.min_margin > 0.0


def test_theta_probe_deterministic():
    r1 = theta_minimality_probe([1.0], samples=6, seed=11)
    r2 = theta_minimality_probe([1.0], samples=6, seed=11)
    assert r1 == r2
    r3 = theta_minimality_probe([1.0], samples=6, seed=12)
    assert r3.min_margin != r1.min_margin


def test_theta_probe_flags_the_hexagonal_point_itself(monkeypatch):
    # a draw that lands on the minimizer, a = 1/2 on the unit arc, gives a
    # zero margin, counted as inconclusive (below the noise floor) rather
    # than a violation
    class OnTheArc:
        def uniform(self, lo, hi):
            return 0.5

        def random(self):
            return 0.0

    monkeypatch.setattr(np.random, "default_rng", lambda seed: OnTheArc())
    assert complex(0.5, lattice._arc_b(0.5)) == TRI_TAU
    rep = theta_minimality_probe([1.0], samples=2, seed=0)
    assert len(rep.violations) == 0
    assert rep.inconclusive == rep.comparisons == 2


@pytest.mark.parametrize("samples", [2.5, -1, "3"])
def test_theta_probe_sample_count_is_a_whole_number(samples):
    # a fractional count is refused, not truncated to 2 samples
    with pytest.raises(NonPositiveParameter, match="samples"):
        theta_minimality_probe([1.0], samples=samples)


def test_energy_report_round_trip():
    rep = w_eta(1j, m=2.0, ctl=SeriesControl(abs_tol=1e-10))
    d = dataclasses.asdict(rep)
    assert d["route"] == "eta"
    assert d["truncation"]["abs_tol"] == 1e-10
    with pytest.raises(NonPositiveParameter):
        EnergyReport(value=0.0, route="eta", truncation=SeriesControl(),
                     error_estimate=-1.0)
