"""Tests of the constrained membrane solver and its verification helpers.

The threshold constant on the unit disk has an exact special-function value,
reimplemented as a power series in ``references.py`` so the solver is
checked against an independent oracle rather than against itself.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abrikosov import backend, obstacle
from abrikosov.errors import (
    InfeasibleObstacle,
    InputError,
    NoConvergence,
    NonConvexDomain,
    NonPositiveParameter,
    UnderResolved,
)
from abrikosov.obstacle import (
    ConvexPolygon,
    DomainGrid,
    Ellipse,
    UnitDisk,
    coincidence_metrics,
    solve_h0,
    solve_obstacle,
    sup_gradient,
    verify_ellipse_limit,
    verify_gradient_bound,
    verify_scale_law,
)

from references import H0_BAR, bessel_i0

LAMBDA_DISK = 1.0 / (2.0 * (1.0 - H0_BAR))


def test_bessel_oracle_self_consistency():
    assert abs(H0_BAR - 0.7898483148251121) < 1e-15
    assert abs(LAMBDA_DISK - 2.3792338357120513) < 1e-12


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


def test_shape_validation():
    with pytest.raises(NonPositiveParameter):
        Ellipse(0.0, 1.0)
    with pytest.raises(NonPositiveParameter):
        Ellipse(1.0, -2.0)
    with pytest.raises(NonConvexDomain):
        ConvexPolygon([[0, 0], [1, 0]])                      # too few
    with pytest.raises(NonConvexDomain):
        ConvexPolygon([[0, 0], [0, 1], [1, 0]])              # clockwise
    with pytest.raises(NonConvexDomain):
        ConvexPolygon([[0, 0], [2, 0], [1, 0.1], [2, 2], [0, 2]])  # reflex
    with pytest.raises(NonConvexDomain):
        ConvexPolygon([[0, 0], [0, 0], [1, 0], [1, 1]])      # repeated
    ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])          # unit square


def test_disk_exit_fraction_exact():
    disk = UnitDisk()
    h = 0.25
    # from (1 - h, 0) stepping east by h the boundary is met exactly at 1
    theta = disk.exit_fraction(1.0 - h, 0.0, h, 0.0)
    assert abs(theta - 1.0) < 1e-14
    theta = disk.exit_fraction(0.9, 0.0, 0.25, 0.0)
    assert abs(theta - (0.1 / 0.25)) < 1e-14
    # diagonal step from the origin exits at radius 1
    theta = disk.exit_fraction(0.0, 0.0, 2.0, 0.0)
    assert abs(theta - 0.5) < 1e-14


def test_ellipse_exit_fraction_exact():
    ell = Ellipse(2.0, 1.0)
    theta = ell.exit_fraction(1.5, 0.0, 1.0, 0.0)
    assert abs(theta - 0.5) < 1e-14
    theta = ell.exit_fraction(0.0, 0.5, 0.0, 1.0)
    assert abs(theta - 0.5) < 1e-14


def test_polygon_exit_fraction_exact():
    square = ConvexPolygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    theta = square.exit_fraction(0.5, 0.0, 1.0, 0.0)
    assert abs(theta - 0.5) < 1e-12
    theta = square.exit_fraction(0.0, -0.25, 0.0, -1.5)
    assert abs(theta - 0.5) < 1e-12


def test_polygon_contains():
    tri = ConvexPolygon([[0, 0], [2, 0], [0, 2]])
    assert tri.contains(0.5, 0.5)
    assert not tri.contains(1.5, 1.5)
    assert not tri.contains(0.0, 0.0)   # boundary is excluded (open domain)


@pytest.mark.parametrize("shape", [
    Ellipse(1.3, 0.7),
    ConvexPolygon([[-1.0, -0.8], [1.1, -0.6], [0.9, 0.7], [-0.4, 1.0]])],
    ids=repr)
def test_contains_takes_broadcast_arguments(shape):
    # the grid build evaluates a column of x against a row of y; that gives
    # the meshgrid evaluation's values, shape and bits
    xs = np.arange(-45, 46) / 37.0
    ys = np.arange(-30, 41) / 37.0
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    want = shape.contains(gx, gy)
    got = shape.contains(xs[:, None], ys[None, :])
    assert got.shape == want.shape == (91, 71)
    assert np.array_equal(got, want) and want.any() and not want.all()


# ---------------------------------------------------------------------------
# Grid construction
# ---------------------------------------------------------------------------


def test_grid_validation_and_geometry():
    with pytest.raises(NonPositiveParameter):
        DomainGrid(UnitDisk(), 0.0)
    grid = DomainGrid(UnitDisk(), 1.0 / 16.0)
    assert grid.n > 0
    # cell-counting area converges to pi
    assert abs(grid.area - math.pi) < 0.05
    fine = DomainGrid(UnitDisk(), 1.0 / 64.0)
    assert abs(fine.area - math.pi) < 0.01
    # mask: interior cells are exactly the centers the shape contains
    inter = grid.mask == 1
    assert inter.sum() == grid.n


def test_operator_on_constant_one():
    # with boundary data 1, (-Delta + 1) applied to the constant 1 is 1
    grid = DomainGrid(UnitDisk(), 1.0 / 24.0)
    ones = np.ones(grid.n)
    op = grid.operator_values(ones)
    assert np.allclose(op, 1.0, atol=1e-11)
    # leg gradients of the constant vanish
    legs = grid.leg_gradients(ones)
    assert np.max(np.abs(legs)) < 1e-12


def test_unit_disk_is_the_unit_ellipse():
    disk = UnitDisk()
    assert isinstance(disk, Ellipse) and repr(disk) == "UnitDisk()"
    g1 = DomainGrid(disk, 1.0 / 32.0)
    g2 = DomainGrid(Ellipse(1.0, 1.0), 1.0 / 32.0)
    assert np.array_equal(g1.mask, g2.mask)
    assert np.array_equal(g1.diag, g2.diag)
    for solve in (lambda g: solve_h0(g), lambda g: solve_obstacle(g, 0.8)):
        f1, f2 = solve(g1), solve(g2)
        assert np.array_equal(f1.values, f2.values)
        assert f1.iters == f2.iters


# ---------------------------------------------------------------------------
# Unconstrained solve and the threshold constant
# ---------------------------------------------------------------------------


def test_h0_matches_bessel_oracle():
    grid = DomainGrid(UnitDisk(), 1.0 / 64.0)
    sol = solve_h0(grid, tol=1e-10)
    assert abs(sol.min_value - H0_BAR) < 1e-4
    assert 0.0 < sol.min_value < 1.0
    # the minimum sits at the center of the disk
    assert np.hypot(*sol.argmin_xy) < 2.0 / 64.0
    assert abs(sol.critical_field - LAMBDA_DISK) < 0.06
    assert abs(sol.critical_field - 1.0 / (2.0 * (1.0 - sol.min_value))) < 1e-12


def test_h0_radial_profile_matches_bessel():
    # h0(r) = I0(r)/I0(1) on the disk; check a mid-radius sample row
    grid = DomainGrid(UnitDisk(), 1.0 / 64.0)
    sol = solve_h0(grid, tol=1e-10)
    xs = grid.xy[:, 0]
    ys = grid.xy[:, 1]
    pick = (np.abs(ys) < 1e-12) & (np.abs(xs - 0.5) < 1e-12)
    assert pick.sum() == 1
    val = float(sol.values[pick][0])
    assert abs(val - bessel_i0(0.5) / bessel_i0(1.0)) < 1e-4


def test_h0_second_order_convergence():
    errs = []
    for k in (32, 64, 128):
        grid = DomainGrid(UnitDisk(), 1.0 / k)
        sol = solve_h0(grid, tol=1e-11)
        errs.append(abs(sol.min_value - H0_BAR))
    ratio1 = errs[0] / errs[1]
    ratio2 = errs[1] / errs[2]
    assert 2.5 < ratio1 < 6.0
    assert 2.5 < ratio2 < 6.0


def test_h0_solver_determinism():
    grid = DomainGrid(UnitDisk(), 1.0 / 32.0)
    a = solve_h0(grid, tol=1e-10)
    b = solve_h0(grid, tol=1e-10)
    assert np.array_equal(a.values, b.values)
    assert a.iters == b.iters


def test_no_convergence_raises(monkeypatch):
    grid = DomainGrid(UnitDisk(), 1.0 / 32.0)
    monkeypatch.setattr(obstacle, "MAX_CYCLES", 2)
    with pytest.raises(NoConvergence):
        solve_h0(grid, tol=1e-12)


# ---------------------------------------------------------------------------
# Obstacle solves
# ---------------------------------------------------------------------------


def test_obstacle_requires_feasible_level():
    grid = DomainGrid(UnitDisk(), 1.0 / 16.0)
    with pytest.raises(InfeasibleObstacle):
        solve_obstacle(grid, 1.0 + 1e-9)
    # a non-finite level is not a level at all, rather than one too high
    for m in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="must be finite") as exc:
            solve_obstacle(grid, m)
        assert not isinstance(exc.value, InfeasibleObstacle)


def test_obstacle_below_threshold_is_untouched():
    grid = DomainGrid(UnitDisk(), 1.0 / 32.0)
    h0 = solve_h0(grid, tol=1e-10)
    field = solve_obstacle(grid, 0.5, tol=1e-10)
    assert not field.active.any()
    assert np.max(np.abs(field.values - h0.values)) < 1e-8


def test_obstacle_at_top_is_identically_one():
    grid = DomainGrid(UnitDisk(), 1.0 / 32.0)
    field = solve_obstacle(grid, 1.0, tol=1e-10)
    assert field.active.all()
    assert np.max(np.abs(field.values - 1.0)) < 1e-10


def test_obstacle_monotone_in_level():
    grid = DomainGrid(UnitDisk(), 1.0 / 32.0)
    tol = 1e-10
    lo = solve_obstacle(grid, 0.85, tol=tol)
    hi = solve_obstacle(grid, 0.90, tol=tol)
    pad = lo.value_error + hi.value_error
    assert np.all(lo.values <= hi.values + pad)
    assert np.all(hi.values <= lo.values + 0.05 + pad)


def test_obstacle_complementarity_invariant():
    grid = DomainGrid(UnitDisk(), 1.0 / 32.0)
    for m in (0.85, 0.95):
        field = solve_obstacle(grid, m, tol=1e-10)
        res = grid.scaled_residual(field.values)
        comp = np.abs(np.minimum(field.values - m, res))
        assert float(np.max(comp)) < 1e-9
        # solution stays within [m, 1] and the operator is nonnegative
        assert np.min(field.values) >= m - 1e-12
        assert np.max(field.values) <= 1.0 + 1e-12
        assert np.min(res) > -1e-9


def test_obstacle_solver_determinism():
    grid = DomainGrid(UnitDisk(), 1.0 / 32.0)
    a = solve_obstacle(grid, 0.9, tol=1e-10)
    b = solve_obstacle(grid, 0.9, tol=1e-10)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.active, b.active)
    assert a.iters == b.iters


def test_field_csv_layout(tmp_path):
    grid = DomainGrid(UnitDisk(), 1.0 / 8.0)
    field = solve_obstacle(grid, 0.9, tol=1e-9)
    field.to_csv(tmp_path / "field.csv")
    text = (tmp_path / "field.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,H,active"
    assert len(lines) == 1 + int((grid.mask > 0).sum())
    cells = [ln.split(",") for ln in lines[1:]]
    assert all(len(c) == 4 for c in cells)
    flags = {c[3] for c in cells}
    assert flags <= {"0", "1"}
    # boundary-data cells report the Dirichlet value
    boundary_rows = [c for c in cells if float(c[2]) == 1.0 and c[3] == "0"]
    assert len(boundary_rows) >= 1
    # the same text as formatting the rectangle's cells one at a time
    value = {(i, j): (v, int(a)) for i, j, v, a in
             zip(grid.ii, grid.jj, field.values, field.active)}
    rows = ["x,y,H,active"]
    for (i, j), kind in np.ndenumerate(grid.mask):
        if kind:
            v, a = value.get((i, j), (1.0, 0))
            rows.append("%.9g,%.9g,%.9g,%d" % (grid.xs[i], grid.ys[j], v, a))
    assert text == "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Multigrid against independent solves, and its cost
# ---------------------------------------------------------------------------


SHAPES = {
    "disk": UnitDisk(),
    "ellipse": Ellipse(1.2, 0.7),
    "triangle": ConvexPolygon([[-1.0, -0.8], [1.1, -0.6], [-0.2, 1.0]]),
}


class WholeEllipse(Ellipse):
    """An ellipse that declares no mirror axes, so its grid solves on the
    whole grid."""

    mirror_axes = ()


def _assembled(grid):
    """Dense (-Delta_h + 1) and its right-hand side for boundary value 1."""
    zero = np.zeros(grid.n)
    b = -grid.operator_values(zero)
    a = np.column_stack([grid.operator_values(e) + b for e in np.eye(grid.n)])
    return a, b


def _projected_gauss_seidel(grid, m, tol=1e-14):
    """Cell-by-cell projected Gauss-Seidel from H = 1, in unknown order."""
    a, b = _assembled(grid)
    nbrs = [np.nonzero(row)[0] for row in a]
    x = np.ones(grid.n)
    while True:
        for k, nb in enumerate(nbrs):
            off = a[k, nb] @ x[nb] - a[k, k] * x[k]
            x[k] = max(m, (b[k] - off) / a[k, k])
        comp = np.minimum(x - m, (a @ x - b) / grid.diag)
        if np.max(np.abs(comp)) < tol:
            return x


def test_h0_matches_direct_solve():
    grid = DomainGrid(UnitDisk(), 1.0 / 16.0)
    sol = solve_h0(grid, tol=1e-10)
    a, b = _assembled(grid)
    exact = np.linalg.solve(a, b)
    assert np.max(np.abs(sol.values - exact)) <= sol.value_error
    assert sol.value_error < 1e-6


@pytest.mark.parametrize("name", ["disk", "ellipse"])
def test_contact_set_matches_projected_gauss_seidel(name):
    grid = DomainGrid(SHAPES[name], 1.0 / 16.0)
    m = 0.5 * (1.0 + solve_h0(grid).min_value)
    field = solve_obstacle(grid, m, tol=1e-12)
    ref = _projected_gauss_seidel(grid, m)
    assert 0 < field.active.sum() < grid.n
    assert np.array_equal(field.active, ref - m < 10.0 * 1e-12)
    assert np.max(np.abs(field.values - ref)) <= field.value_error + 1e-13


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_value_error_bounds_distance_to_tight_solve(name):
    grid = DomainGrid(SHAPES[name], 1.0 / 32.0)
    for solve in (lambda tol: solve_h0(grid, tol=tol),
                  lambda tol: solve_obstacle(grid, 0.9, tol=tol)):
        loose, tight = solve(1e-5), solve(1e-13)
        dist = float(np.max(np.abs(loose.values - tight.values)))
        assert dist <= loose.value_error + tight.value_error
        assert tight.value_error < 1e-8


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_cycle_count_independent_of_h(name):
    for k in (32, 64, 128):
        grid = DomainGrid(SHAPES[name], 1.0 / k)
        h0 = solve_h0(grid)
        assert h0.iters <= 12
        field = solve_obstacle(grid, 0.5 * (1.0 + h0.min_value))
        assert field.iters <= 60
        assert 0 < field.active.sum() < grid.n


def test_disk_fields_are_symmetric():
    # a solve on the disk's octant unfolds into a field with x -> -x,
    # y -> -y and x <-> y by construction.  The whole-grid solve, of a disk
    # that declares no mirror axes, must find all three.
    mirrors = (lambda a: a[::-1, :], lambda a: a[:, ::-1], np.transpose)
    for shape in (UnitDisk(), WholeEllipse(1.0, 1.0)):
        grid = DomainGrid(shape, 1.0 / 64.0)
        inside = grid.mask == 1
        assert all(np.array_equal(inside, f(inside)) for f in mirrors)
        for values in (solve_h0(grid).values,
                       solve_obstacle(grid, 0.9).values):
            full = np.zeros(grid.mask.shape)
            full[grid.ii, grid.jj] = values
            for k, f in enumerate(mirrors):
                if shape.mirror_axes:
                    assert np.array_equal(full, f(full))
                else:
                    assert np.max(np.abs(full - f(full))) < 1e-13


def test_constrained_solves_take_few_cycles():
    # V(4,4) needs 12-13 cycles here; V(2,2) needed 19-21
    grid = DomainGrid(UnitDisk(), 1.0 / 128.0)
    for m in (0.8, 0.85, 0.9, 0.95):
        field = solve_obstacle(grid, m)
        assert field.iters <= 15
        assert 0 < field.active.sum() < grid.n


@pytest.mark.parametrize("shape", [
    UnitDisk(), ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])],
    ids=repr)
def test_each_level_starts_from_the_one_below_at_a_looser_tol(shape):
    # nested iteration: the coarsest level is cycled first, each finer one
    # at a tol START_TOL_FACTOR times smaller, and the fold last at tol
    grid = DomainGrid(shape, 1.0 / 64.0)
    calls = []
    cycles = obstacle._cycles

    def record(level, values, m, tol):
        calls.append((level, tol))
        return cycles(level, values, m, tol)
    with mock.patch.object(obstacle, "_cycles", record):
        solve_obstacle(grid, 0.9, tol=1e-9)
    chain = [grid._fold]
    while chain[-1]._coarse is not None:
        chain.append(chain[-1]._coarse)
    assert len(chain) >= 3
    tols = [1e-9]
    for _ in chain[1:]:
        tols.append(obstacle.START_TOL_FACTOR * tols[-1])
    assert [level for level, _ in calls] == chain[::-1]
    assert [tol for _, tol in calls] == tols[::-1]


def test_accelerated_constrained_solves_take_at_most_eight_cycles():
    # plain V(4,4) cycles need 12-13 here; Anderson mixing needs 6-7
    grid = DomainGrid(UnitDisk(), 1.0 / 128.0)
    for m in (0.8, 0.85, 0.9, 0.95):
        field = solve_obstacle(grid, m)
        assert field.iters <= 8
        assert field.residual < field.tol
        assert 0 < field.active.sum() < grid.n


# ---------------------------------------------------------------------------
# Multigrid pieces against plain two-dimensional indexing
# ---------------------------------------------------------------------------


TRANSFER_SHAPES = [
    UnitDisk(),
    Ellipse(1.3, 0.7),
    ConvexPolygon([[-1.0, -0.8], [1.1, -0.6], [0.9, 0.7], [-0.4, 1.0]]),
]


def _fine_part_ref(grid, frame):
    """The grid's rectangle within the frame of fine points around 2h's."""
    a = grid.origin[0] - 2 * grid._coarse.origin[0] + 1
    b = grid.origin[1] - 2 * grid._coarse.origin[1] + 1
    mx, my = grid.mask.shape
    return frame[a:a + mx, b:b + my]


def _frame_ref(grid, values, fill):
    nx, ny = grid._coarse.mask.shape
    frame = np.full((2 * nx + 1, 2 * ny + 1), fill)
    _fine_part_ref(grid, frame)[grid.ii, grid.jj] = values
    return frame


def _restrict_ref(grid, values):
    f = _frame_ref(grid, values, 0.0)
    lo, mid, hi = slice(0, -2, 2), slice(1, -1, 2), slice(2, None, 2)
    edges = (f[lo, mid] + f[hi, mid]) + (f[mid, lo] + f[mid, hi])
    corners = (f[lo, lo] + f[hi, hi]) + (f[hi, lo] + f[lo, hi])
    full = (4.0 * f[mid, mid] + 2.0 * edges + corners) / 16.0
    return full[grid._coarse.ii, grid._coarse.jj]


def _defect_bound_ref(grid, defect):
    f = _frame_ref(grid, defect, -np.inf)
    coarse = grid._coarse
    nx, ny = coarse.mask.shape
    full = np.full((nx, ny), -np.inf)
    for p in range(3):
        for q in range(3):
            np.maximum(full, f[p:p + 2 * nx:2, q:q + 2 * ny:2], out=full)
    return full[coarse.ii, coarse.jj]


def _prolong_ref(grid, values, fill):
    coarse = grid._coarse
    full = np.full(coarse.mask.shape, fill)
    full[coarse.ii, coarse.jj] = values
    nx, ny = full.shape
    f = np.zeros((2 * nx + 1, 2 * ny + 1))
    f[1::2, 1::2] = full
    f[2:-1:2, 1::2] = 0.5 * (full[:-1] + full[1:])
    f[1::2, 2:-1:2] = 0.5 * (full[:, :-1] + full[:, 1:])
    f[2:-1:2, 2:-1:2] = 0.25 * ((full[:-1, :-1] + full[1:, 1:])
                                + (full[1:, :-1] + full[:-1, 1:]))
    return _fine_part_ref(grid, f)[grid.ii, grid.jj]


@pytest.mark.parametrize("k", [16, 37, 64])
@pytest.mark.parametrize("shape", TRANSFER_SHAPES, ids=repr)
def test_transfers_equal_two_d_indexing(shape, k):
    # flat positions place and read the same cells as [ii, jj] on the
    # rectangles, bit for bit, on every level of the hierarchy; the polygon's
    # rectangles have odd and even sides (37 x 32 at h = 1/16, 138 x 119 at
    # 1/64)
    rng = np.random.default_rng(k)
    grid = DomainGrid(shape, 1.0 / k)
    while grid._coarse is not None:
        coarse = grid._coarse
        fine = rng.uniform(-1.0, 1.0, grid.n)
        assert np.array_equal(grid._restrict(fine), _restrict_ref(grid, fine))
        defect = -rng.uniform(0.0, 1.0, grid.n)
        assert np.array_equal(grid._defect_bound(defect),
                              _defect_bound_ref(grid, defect))
        corr = rng.uniform(-1.0, 1.0, coarse.n)
        for fill in (0.0, 1.0):
            assert np.array_equal(grid._prolong(corr, fill),
                                  _prolong_ref(grid, corr, fill))
        grid = coarse


def _stencil_ref(grid):
    """Neighbor indices, coefficients (both (4, n), legs E, W, N, S) and
    diagonal of every unknown, built from the leg lengths and whole-leg
    flags of ``_two_d_build``, which measures the cut legs with exit
    fraction calls of its own.

    A cut leg points at unknown 0 with coefficient 0, its datum being part
    of the right-hand side.
    """
    ref = _two_d_build(grid.shape, grid.h, grid._mirrors, grid._swap)
    assert np.array_equal(ref["ii"], grid.ii)
    assert np.array_equal(ref["jj"], grid.jj)
    legs, nbin = ref["leg_lengths"], ref["whole"]
    ids = np.full(grid.mask.shape, -1, dtype=np.int64)
    ids[grid.ii, grid.jj] = np.arange(grid.n)
    idx = np.empty((4, grid.n), dtype=np.int64)
    coef = np.empty((4, grid.n))
    e, w, n, s = legs
    across = [e + w, e + w, n + s, n + s]
    for k, (_, di, dj) in enumerate(obstacle._LEG_STEPS):
        assert np.array_equal(nbin[k],
                              grid.mask[grid.ii + di, grid.jj + dj] == 1)
        idx[k] = np.where(nbin[k], ids[grid.ii + di, grid.jj + dj], 0)
        coef[k] = np.where(nbin[k], 2.0 / (legs[k] * across[k]), 0.0)
    assert idx.min() >= 0
    diag = 2.0 / (e * w) + 2.0 / (n * s) + 1.0
    return idx, coef, diag


def _leg_sum_ref(values, idx, coef, cells):
    nbv = values[idx[:, cells]]
    c = coef[:, cells]
    return c[0] * nbv[0] + c[1] * nbv[1] + c[2] * nbv[2] + c[3] * nbv[3]


def _smooth_ref(grid, values, rhs, lower, sweeps):
    """Projected red-black Gauss-Seidel, one whole color at a time."""
    idx, coef, diag = _stencil_ref(grid)
    red = (grid.ii + grid.jj) % 2 == 0
    for _ in range(sweeps):
        for color in (red, ~red):
            cells = np.flatnonzero(color)
            bound = lower[cells] if isinstance(lower, np.ndarray) else lower
            gs = (_leg_sum_ref(values, idx, coef, cells)
                  + rhs[cells]) / diag[cells]
            values[cells] = np.maximum(gs, bound)


def _apply_ref(grid, values):
    idx, coef, diag = _stencil_ref(grid)
    cells = np.arange(grid.n)
    return diag * values - _leg_sum_ref(values, idx, coef, cells)


@pytest.mark.parametrize("k", [37, 64])
@pytest.mark.parametrize("shape", TRANSFER_SHAPES, ids=repr)
def test_smooth_and_apply_keep_the_bits_of_the_stencil(shape, k):
    # the stored blocks give bit for bit the sweep and operator of the
    # stencil built cell by cell from the leg lengths
    grid = DomainGrid(shape, 1.0 / k)
    rng = np.random.default_rng(5)
    rhs = grid._bc_unit.copy()
    lowers = (-np.inf, 0.8, rng.uniform(0.5, 0.9, grid.n))
    for lower in lowers:
        start = rng.uniform(0.0, 1.0, grid.n)
        got, want = start.copy(), start.copy()
        grid._smooth(got, rhs, lower, 3)
        _smooth_ref(grid, want, rhs, lower, 3)
        assert np.array_equal(got, want)
        assert np.array_equal(grid._apply(got), _apply_ref(grid, got))


@pytest.mark.parametrize("shape", TRANSFER_SHAPES, ids=repr)
def test_block_legs_are_in_range_int64_runs(shape):
    # take(mode="clip") would clamp an index out of range rather than fail,
    # so every grid of the chain, and of the fold's chain with its ghost
    # legs, must build its legs inside [0, n)
    whole = DomainGrid(shape, 1.0 / 64.0)
    grids = [whole, whole._fold]
    while grids:
        grid = grids.pop()
        stop = 0
        assert len(grid._blocks) == 2       # one block per color
        for (_, split, _), (sel, (legs, coef, diag, work)) in zip(
                grid._spans, grid._blocks):
            assert sel.start == stop < sel.stop
            stop = sel.stop
            size = sel.stop - sel.start
            assert legs.dtype == np.int64 and legs.flags.c_contiguous
            assert legs.shape == (4, size)
            assert 0 <= legs.min() and legs.max() < grid.n
            assert coef.dtype == np.float64 and coef.flags.c_contiguous
            assert coef.shape == (4, size) and not coef.flags.writeable
            assert work.shape == (4, size) and work.flags.c_contiguous
            assert work.base is grid._work
            # full-leg cells first, with the one full-leg coefficient on
            # every leg; the last k cells are the ones with a boundary datum
            k = sel.stop - split
            assert np.all(coef[:, :size - k] == grid._full_coef)
            assert np.all(grid._bc_unit[sel][:size - k] == 0.0)
            assert np.all(grid._bc_unit[sel][size - k:] > 0.0)
            assert diag.base is grid.diag and diag.shape == (size,)
            assert np.shares_memory(diag, grid.diag[sel])
        assert stop == grid.n
        if grid._coarse is not None:
            grids.append(grid._coarse)


@pytest.mark.parametrize("shape", TRANSFER_SHAPES, ids=repr)
def test_smooth_writes_each_block_in_place(shape, monkeypatch):
    whole = DomainGrid(shape, 1.0 / 37.0)

    # each sweep's second argument is a view of its block of the values,
    # sized by the cells it sweeps (the benchmark tracer counts len(out));
    # one call per color per sweep, each over every cell of its color
    swept = []
    sweep = backend.psor_sweep

    def record(values, out, *rest):
        assert out.base is values
        start = (out.ctypes.data - values.ctypes.data) // values.itemsize
        swept.append(np.arange(start, start + len(out)))
        return sweep(values, out, *rest)
    monkeypatch.setattr(backend, "psor_sweep", record)
    for grid in (whole, whole._fold):
        swept.clear()
        grid._smooth(np.ones(grid.n), grid._bc_unit.copy(), -np.inf, 2)
        assert len(swept) == 2 * 2
        assert sum(len(cells) for cells in swept) == 2 * grid.n
        for red, black in zip(swept[0::2], swept[1::2]):
            assert len(red) + len(black) == grid.n
            parity = [np.unique((grid.ii + grid.jj)[cells] % 2)
                      for cells in (red, black)]
            assert [len(p) for p in parity] == [1, 1]
            assert parity[0] != parity[1]


def test_smooth_calls_share_the_grid_scratch(monkeypatch):
    # the sweep's work buffer is the grid's own, allocated once: two smoothing
    # calls, and every sweep within them, hand psor_sweep each color's one
    # (4, m) view of it
    grid = DomainGrid(UnitDisk(), 1.0 / 37.0)._fold
    works = []
    sweep = backend.psor_sweep

    def record(*args):
        works.append(args[-1])
        return sweep(*args)
    monkeypatch.setattr(backend, "psor_sweep", record)
    values = np.ones(grid.n)
    for _ in range(2):
        grid._smooth(values, grid._bc_unit, -np.inf, 1)
    assert len(works) == 4
    assert works[0] is works[2] and works[1] is works[3]
    # so does the operator between them, through backend._leg_sum
    summed = []
    leg_sum = backend._leg_sum

    def record_sum(*args):
        summed.append(args[-1])
        return leg_sum(*args)
    monkeypatch.setattr(backend, "_leg_sum", record_sum)
    grid._apply(values)
    assert len(summed) == 2
    assert summed[0] is works[0] and summed[1] is works[1]
    assert all(work.base is grid._work for work in summed)


# ---------------------------------------------------------------------------
# Quadrant folds against the whole grid
# ---------------------------------------------------------------------------


FOLD_SHAPES = [UnitDisk(), Ellipse(1.3, 0.7), Ellipse(1.2, 0.8),
               Ellipse(0.8, 0.8)]


class HalfEllipse(Ellipse):
    """An ellipse that declares one of its two mirror axes."""

    def __init__(self, rx, ry, axis):
        super().__init__(rx, ry)
        self.mirror_axes = (axis,)

    def __repr__(self):
        return f"HalfEllipse({self.rx}, {self.ry}, {self.mirror_axes[0]})"


class OffCentreEllipse(Ellipse):
    """Ellipse(rx, ry) centered at (cx, cy).  It keeps the mirror axes of
    the centered ellipse, which it does not have."""

    def __init__(self, rx, ry, cx, cy):
        super().__init__(rx, ry)
        self.centre = (cx, cy)

    def bounds(self):
        (cx, cy), (xmin, xmax, ymin, ymax) = self.centre, super().bounds()
        return (xmin + cx, xmax + cx, ymin + cy, ymax + cy)

    def contains(self, x, y):
        return super().contains(x - self.centre[0], y - self.centre[1])

    def exit_fraction(self, px, py, dx, dy):
        return super().exit_fraction(px - self.centre[0], py - self.centre[1],
                                     dx, dy)


def _solves(grid):
    """h0, an empty-contact level, a mid level and m = 0.97 on ``grid``."""
    h0 = solve_h0(grid)
    levels = (h0.min_value - 0.05, 0.5 * (1.0 + h0.min_value), 0.97)
    return [h0] + [solve_obstacle(grid, m) for m in levels]


@pytest.mark.parametrize("k", [16, 37, 64])
@pytest.mark.parametrize("shape", FOLD_SHAPES, ids=repr)
def test_folded_solves_equal_whole_grid_solves(shape, k):
    # at h = 1/37 counting MIN_COARSE_CELLS on the quadrant rather than the
    # whole 2h grid drops the 21-cell coarsest level, and h0 takes 6 cycles
    folded = _solves(DomainGrid(shape, 1.0 / k))
    whole = _solves(DomainGrid(WholeEllipse(shape.rx, shape.ry), 1.0 / k))
    for f, w in zip(folded, whole):
        assert f.iters == w.iters
        dist = float(np.max(np.abs(f.values - w.values)))
        assert dist <= f.value_error + w.value_error
        assert f.residual < f.tol
    for f, w in zip(folded[1:], whole[1:]):
        assert np.array_equal(f.active, w.active)
    assert not folded[1].active.any() and folded[2].active.any()


def _two_d_build(shape, h, mirrors, swap):
    """A grid's unknowns, mask and stencil built with two-dimensional
    indexing: ``np.nonzero`` for the unknowns, [i, j] fancy indexing for
    every neighbor and a stable ``argsort`` for the order of the four
    blocks (red full-leg, red cut-leg, black full-leg, black cut-leg).
    With ``swap`` the rectangle is square and every cell above its
    diagonal takes its transposed cell's interior and unknown.

    Returns a dict with ``origin``, ``n``, ``whole_n``, ``ii``, ``jj``,
    ``mask``, ``diag``, ``bc_unit``, every unknown's (4, n) leg lengths
    ``leg_lengths`` and whole-leg flags ``whole``, the blocks' ``spans``
    and each block's ``legs`` (4, size) and ``coef``: one number for a
    full-leg block, a (4, size) array for a cut-leg block.
    """
    xmin, xmax, ymin, ymax = shape.bounds()
    imin = int(math.floor(xmin / h)) - 1
    imax = int(math.ceil(xmax / h)) + 1
    jmin = int(math.floor(ymin / h)) - 1
    jmax = int(math.ceil(ymax / h)) + 1
    lo, hi = [imin, jmin], [imax, jmax]
    for axis in mirrors:
        lo[axis], hi[axis] = -1, max(hi[axis], -lo[axis])
    if swap:
        hi = [max(hi)] * 2
    xs = np.arange(lo[0], hi[0] + 1, dtype=np.int64) * h
    ys = np.arange(lo[1], hi[1] + 1, dtype=np.int64) * h
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    interior = np.asarray(shape.contains(gx, gy), dtype=bool)
    # the square's rows and columns start at the same cell, -h, so the
    # transpose of the array is the swap x <-> y
    upper = np.triu(np.ones(interior.shape, dtype=bool), 1) if swap \
        else np.zeros(interior.shape, dtype=bool)
    for axis in (0, 1):
        np.swapaxes(interior, 0, axis)[-1] = False
    if swap:
        interior[upper] = interior.T[upper]
    for axis in (0, 1):
        lines = np.swapaxes(interior, 0, axis)
        lines[0] = lines[2] if axis in mirrors else False
    ghosts = [int(axis in mirrors) for axis in (0, 1)]
    ii, jj = np.nonzero((interior & ~upper)[ghosts[0]:, ghosts[1]:])
    ii += ghosts[0]
    jj += ghosts[1]
    n = len(ii)
    weight = np.ones(n, dtype=np.int64)
    for axis in mirrors:
        weight[(ii, jj)[axis] != 1] *= 2
    if swap:
        weight[ii != jj] *= 2
    whole = [interior[ii + di, jj + dj] for _, di, dj in obstacle._LEG_STEPS]
    cut = ~(whole[0] & whole[1] & whole[2] & whole[3])
    color = (ii + jj + lo[0] - imin + lo[1] - jmin) % 2
    block = 2 * color + cut
    order = np.argsort(block, kind="stable")
    ends = np.cumsum(np.bincount(block, minlength=4)).tolist()
    spans = list(zip([0] + ends[:3], ends))
    ii, jj = ii[order], jj[order]
    ids = np.full(interior.shape, -1, dtype=np.int64)
    ids[ii, jj] = np.arange(n, dtype=np.int64)
    if swap:
        ids[upper] = ids.T[upper]
    for axis in mirrors:
        lines = np.swapaxes(ids, 0, axis)
        lines[0] = lines[2]
    mask = np.where(interior, 1, 0).astype(np.int8)
    idx = np.empty((4, n), dtype=np.int64)
    for k, (_, di, dj) in enumerate(obstacle._LEG_STEPS):
        nb = interior[ii + di, jj + dj]
        mask[ii[~nb] + di, jj[~nb] + dj] = 2
        idx[k] = np.where(nb, ids[ii + di, jj + dj], 0)
    full_coef = 2.0 / (h * (h + h))
    diag = np.full(n, 2.0 / (h * h) + 2.0 / (h * h) + 1.0)
    bc_unit = np.zeros(n)
    leg_lengths = np.full((4, n), h)
    leg_whole = np.ones((4, n), dtype=bool)
    coefs = []
    for k, (start, stop) in enumerate(spans):
        if k % 2 == 0:
            coefs.append(full_coef)
            continue
        sel = slice(start, stop)
        legs, nbin = {}, {}
        for name, di, dj in obstacle._LEG_STEPS:
            nb = mask[ii[sel] + di, jj[sel] + dj] == 1
            leg = np.full(stop - start, h)
            if np.any(~nb):
                theta = shape.exit_fraction(xs[ii[sel][~nb]], ys[jj[sel][~nb]],
                                            di * h, dj * h)
                leg[~nb] = np.clip(theta, obstacle.MIN_CUT_FRACTION, 1.0) * h
            legs[name], nbin[name] = leg, nb
        leg_lengths[:, sel] = [legs[d] for d in "EWNS"]
        leg_whole[:, sel] = [nbin[d] for d in "EWNS"]
        e, w, nn, ss = (legs[d] for d in "EWNS")
        c = {"E": 2.0 / (e * (e + w)), "W": 2.0 / (w * (e + w)),
             "N": 2.0 / (nn * (nn + ss)), "S": 2.0 / (ss * (nn + ss))}
        diag[sel] = 2.0 / (e * w) + 2.0 / (nn * ss) + 1.0
        bc_unit[sel] = sum(np.where(~nbin[d], c[d], 0.0) for d in c)
        coefs.append(np.stack([np.where(nbin[d], c[d], 0.0) for d in "EWNS"]))
    return {"origin": (lo[0], lo[1]), "n": n, "whole_n": int(weight.sum()),
            "ii": ii, "jj": jj, "mask": mask, "diag": diag,
            "bc_unit": bc_unit, "leg_lengths": leg_lengths, "whole": leg_whole,
            "spans": spans,
            "legs": [idx[:, a:b] for a, b in spans], "coef": coefs}


@pytest.mark.parametrize("k", [16, 37, 64])
@pytest.mark.parametrize("shape", TRANSFER_SHAPES + [
    HalfEllipse(1.3, 0.7, 0), HalfEllipse(1.3, 0.7, 1)], ids=repr)
def test_grid_build_equals_two_d_indexing(shape, k):
    # the flat-index build gives the bits of the two-dimensional one on
    # every level of the whole grid's chain and of the fold's; each color's
    # block is that build's full-leg block followed by its cut-leg block
    whole = DomainGrid(shape, 1.0 / k)
    grids = [whole, whole._fold]
    while grids:
        grid = grids.pop()
        ref = _two_d_build(shape, grid.h, grid._mirrors, grid._swap)
        assert grid.origin == ref["origin"]
        assert (grid.n, grid._whole_n) == (ref["n"], ref["whole_n"])
        for got, want in ((grid.ii, ref["ii"]), (grid.jj, ref["jj"]),
                          (grid.mask, ref["mask"]), (grid.diag, ref["diag"]),
                          (grid._bc_unit, ref["bc_unit"]),
                          (grid._cut_legs,
                           ref["leg_lengths"][:, grid._cut_ids])):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        blocks = list(grid._blocks)
        for color in (0, 1):
            (start, split), (_, stop) = ref["spans"][2 * color:2 * color + 2]
            if start == stop:
                continue
            sel, (legs, coef, diag, _) = blocks.pop(0)
            assert sel == slice(start, stop)
            assert np.array_equal(legs, np.hstack(
                ref["legs"][2 * color:2 * color + 2]))
            full, cut = ref["coef"][2 * color:2 * color + 2]
            assert np.array_equal(coef, np.hstack(
                [np.full((4, split - start), full), cut]))
            assert np.array_equal(diag, ref["diag"][sel])
        assert not blocks
        if grid._coarse is not None:
            grids.append(grid._coarse)


@pytest.mark.parametrize("k", [37, 64])
@pytest.mark.parametrize("shape", TRANSFER_SHAPES, ids=repr)
def test_rectangle_evaluations_keep_the_bits_of_the_stencil(shape, k):
    # operator_values and leg_gradients read the unknowns from the rectangle
    # (odd and even sides at h = 1/37 and 1/64), and give bit for bit the
    # block evaluation and the stencil built cell by cell from the leg
    # lengths of the two-dimensional build
    grid = DomainGrid(shape, 1.0 / k)
    rng = np.random.default_rng(k)
    values = rng.uniform(-1.0, 1.0, grid.n)
    got = grid.operator_values(values)
    ref = _two_d_build(shape, grid.h, (), False)
    bc = obstacle.BOUNDARY_VALUE * ref["bc_unit"]
    assert np.array_equal(got, grid._apply(values)
                          - obstacle.BOUNDARY_VALUE * grid._bc_unit)
    assert np.array_equal(got, _apply_ref(grid, values) - bc)
    idx, _, _ = _stencil_ref(grid)
    want = (np.where(ref["whole"], values[idx], obstacle.BOUNDARY_VALUE)
            - values) / ref["leg_lengths"]
    assert np.array_equal(grid.leg_gradients(values), want)


@pytest.mark.parametrize("shape", [
    UnitDisk(), Ellipse(1.3, 0.7),
    ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.2, 0.8], [0.1, 1.0]])],
    ids=repr)
def test_leg_gradients_read_the_cut_legs_of_the_build(shape, monkeypatch):
    # the build measures its (4, k) cut legs with one exit fraction call and
    # keeps them, so the gradient quotients evaluate no exit fraction
    calls = []
    exit_fraction = type(shape).exit_fraction

    def count(*args):
        calls.append(args)
        return exit_fraction(*args)
    monkeypatch.setattr(type(shape), "exit_fraction", count)
    grid = DomainGrid(shape, 1.0 / 37.0)
    assert len(calls) == 1
    values = np.random.default_rng(5).uniform(0.0, 1.0, grid.n)
    want = grid.leg_gradients(values)

    def refuse(*_):
        raise AssertionError("exit_fraction evaluated after the build")
    monkeypatch.setattr(type(shape), "exit_fraction", refuse)
    assert np.array_equal(grid.leg_gradients(values), want)


SWEEP_STENCIL = {"_blocks", "diag", "_bc_unit", "_work"}


@pytest.mark.parametrize("shape", [UnitDisk(), Ellipse(1.3, 0.7)], ids=repr)
def test_a_folded_shapes_whole_grid_builds_no_sweep_stencil(shape, tmp_path):
    # the solves sweep the fold; the certificate, the metrics, the gradient
    # quotients and the CSV read the whole grid's geometry only
    grid = DomainGrid(shape, 1.0 / 64.0)

    def unswept():
        return not SWEEP_STENCIL & set(vars(grid))
    assert unswept()
    h0 = solve_h0(grid)
    assert unswept()
    fields = [solve_obstacle(grid, m)
              for m in (0.5 * (1.0 + h0.min_value), 0.97)]
    assert unswept()
    for step in (lambda: verify_scale_law(fields, h0.min_value),
                 lambda: verify_gradient_bound(fields),
                 lambda: fields[0].to_json_dict(),
                 lambda: fields[0].to_csv(tmp_path / "field.csv")):
        step()
        assert unswept()
    assert SWEEP_STENCIL <= set(vars(grid._fold))
    # a polygon solves on its whole grid, which builds the stencil to sweep
    polygon = DomainGrid(TRANSFER_SHAPES[2], 1.0 / 64.0)
    assert not SWEEP_STENCIL & set(vars(polygon))
    solve_obstacle(polygon, 0.9)
    assert SWEEP_STENCIL <= set(vars(polygon))


def _representatives(whole, fold):
    """Index maps between a whole grid and the fold at the same spacing,
    found by coordinates: each whole unknown's representative in the fold
    (the cell at |x|, |y| on the fold's mirror axes, sorted to (max, min)
    when the shape declares the diagonal with both axes), and the whole
    unknown at each fold unknown's own cell."""
    axes = fold.shape.mirror_axes
    swap = fold.shape.mirror_diagonal and sorted(axes) == [0, 1]
    at_fold = {(i, j): k for k, (i, j) in enumerate(zip(
        (fold.ii + fold.origin[0]).tolist(),
        (fold.jj + fold.origin[1]).tolist()))}
    cells = list(zip((whole.ii + whole.origin[0]).tolist(),
                     (whole.jj + whole.origin[1]).tolist()))
    at_whole = {c: k for k, c in enumerate(cells)}
    def rep(i, j):
        i, j = abs(i) if 0 in axes else i, abs(j) if 1 in axes else j
        return (max(i, j), min(i, j)) if swap else (i, j)
    unfold = [at_fold[rep(i, j)] for i, j in cells]
    own = [at_whole[c] for c in sorted(at_fold, key=at_fold.get)]
    return np.array(unfold), np.array(own)


@pytest.mark.parametrize("k", [16, 37, 64])
@pytest.mark.parametrize("shape", FOLD_SHAPES + [
    HalfEllipse(1.3, 0.7, 0), HalfEllipse(1.3, 0.7, 1)], ids=repr)
def test_quadrant_kernels_equal_the_whole_grid(shape, k):
    # each level of the fold's hierarchy against the whole grid at the same
    # spacing, on a field unfolded from the fold.  The transfers read the
    # same numbers in the same pairings on both, so they agree bit for bit.
    # The operator and the sweep do too at the fold's own cells, but a cell
    # below the x-axis sums its N and S legs in the other order, and on the
    # octant a cell above the diagonal its E, W and N, S pairs.  For the
    # operator d v - sum_k c_k v_k that changes the leg sum by at most
    # 2 gamma_3 sum |c_k v_k| and each side's final subtraction rounds by at
    # most u |result|: with sum_k c_k <= d - 1, at most 8 u (d |v| +
    # sum |c_k v_k|) <= 8 eps d max|v| (eps = 2u).  The sweep's values stay in
    # [0, 1] (rhs is the boundary datum's part of the operator, and
    # sum c_k + rhs <= d), so each color's five-term sum and division differ
    # by at most 2 gamma_4 + 2u = 10u, and the second color carries the
    # first's difference in with weights summing below 1: 20u = 10 eps.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(k)
    fold = DomainGrid(shape, 1.0 / k)._fold
    whole = DomainGrid(WholeEllipse(shape.rx, shape.ry), 1.0 / k)
    assert fold.shape is shape and fold._mirrors == shape.mirror_axes
    unfold, own = _representatives(whole, fold)
    while True:
        assert fold._whole_n == whole.n
        assert np.array_equal(DomainGrid(shape, fold.h)._unfold, unfold)
        u = rng.uniform(-1.0, 1.0, fold.n)
        got, want = fold._apply(u), whole._apply(u[unfold])
        assert np.array_equal(want[own], got)
        assert np.all(np.abs(want - got[unfold])
                      <= 8.0 * eps * whole.diag * np.max(np.abs(u)))
        for lower in (-np.inf, 0.8, rng.uniform(0.5, 0.9, fold.n)):
            start = rng.uniform(0.0, 1.0, fold.n)
            lo_fold, lo_whole = (lower, lower[unfold]) \
                if isinstance(lower, np.ndarray) else (lower, lower)
            got, want = start.copy(), start[unfold]
            fold._smooth(got, fold._bc_unit, lo_fold, 1)
            whole._smooth(want, whole._bc_unit, lo_whole, 1)
            assert np.all(np.abs(want - got[unfold]) <= 10.0 * eps)
        assert (fold._coarse is None) == (whole._coarse is None)
        if fold._coarse is None:
            break
        coarse_unfold, coarse_own = _representatives(whole._coarse,
                                                     fold._coarse)
        assert np.array_equal(whole._restrict(u[unfold]),
                              fold._restrict(u)[coarse_unfold])
        defect = -rng.uniform(0.0, 1.0, fold.n)
        assert np.array_equal(whole._defect_bound(defect[unfold]),
                              fold._defect_bound(defect)[coarse_unfold])
        corr = rng.uniform(-1.0, 1.0, fold._coarse.n)
        for fill in (0.0, 1.0):
            assert np.array_equal(whole._prolong(corr[coarse_unfold], fill),
                                  fold._prolong(corr, fill)[unfold])
        fold, whole = fold._coarse, whole._coarse
        unfold, own = coarse_unfold, coarse_own


class DiagonalEllipse(Ellipse):
    """Ellipse(rx, ry) that declares the diagonal x <-> y whatever its
    semi-axes."""

    mirror_diagonal = True


def _fails_loudly(shape):
    # the fold solves another problem, and the whole-grid certificate turns
    # its field into NoConvergence (exit code 3 on the command line)
    grid = DomainGrid(shape, 1.0 / 32.0)
    with pytest.raises(NoConvergence):
        solve_h0(grid)
    with pytest.raises(NoConvergence):
        solve_obstacle(grid, 0.9)
    # the same shape declaring no mirror axes solves
    shape.mirror_axes = ()
    field = solve_obstacle(DomainGrid(shape, 1.0 / 32.0), 0.9)
    assert field.residual < field.tol


@pytest.mark.parametrize("centre", [(0.15, 0.0), (0.0, 0.1), (0.15, 0.1)])
def test_a_wrongly_declared_mirror_axis_fails_loudly(centre):
    _fails_loudly(OffCentreEllipse(1.2, 0.8, *centre))


def test_a_wrongly_declared_diagonal_fails_loudly():
    # Ellipse(1.2, 0.8) folded onto its octant: the fold's rectangle is
    # square and mirrors the octant's cells above the diagonal
    shape = DiagonalEllipse(1.2, 0.8)
    fold = DomainGrid(shape, 1.0 / 32.0)._fold
    assert fold._swap and fold.mask.shape[0] == fold.mask.shape[1]
    _fails_loudly(shape)


# ---------------------------------------------------------------------------
# Anderson-accelerated cycles against plain V-cycles
# ---------------------------------------------------------------------------


def _plain_cycles(grid, values, m, tol):
    """V-cycles in place until the residual < tol, with no acceleration."""
    rhs = obstacle.BOUNDARY_VALUE * grid._bc_unit
    for it in range(1, obstacle.MAX_CYCLES + 1):
        obstacle._vcycle(grid, values, rhs, m)
        scaled = np.minimum(values - m, grid.scaled_residual(values))
        res = float(np.max(np.abs(scaled)))
        if res < tol:
            break
    return it, res


def _plain_solve(grid, m):
    """solve_obstacle with plain V-cycles on every level, the start's too."""
    with mock.patch.object(obstacle, "_cycles", _plain_cycles):
        return solve_obstacle(grid, m)


ACCEL_GRIDS = [DomainGrid(shape, 1.0 / 32.0) for shape in TRANSFER_SHAPES]


@pytest.mark.parametrize("k", range(len(ACCEL_GRIDS)),
                         ids=[repr(s) for s in TRANSFER_SHAPES])
@settings(max_examples=12, deadline=None)
@given(m=st.floats(0.7, 0.99))
def test_accelerated_solve_agrees_with_plain_cycles(k, m):
    grid = ACCEL_GRIDS[k]
    fast, plain = solve_obstacle(grid, m), _plain_solve(grid, m)
    assert fast.residual < fast.tol and plain.residual < plain.tol
    dist = float(np.max(np.abs(fast.values - plain.values)))
    assert dist <= fast.value_error + plain.value_error


@pytest.mark.parametrize("k", range(len(ACCEL_GRIDS)),
                         ids=[repr(s) for s in TRANSFER_SHAPES])
def test_empty_and_full_contact_solves_are_plain_cycles(k):
    # with no contact the mixing never engages, and at m = 1 the first cycle
    # converges: both solves are the plain loop's, bit for bit; so is the
    # unconstrained solve, the obstacle solve at m = -inf
    grid = ACCEL_GRIDS[k]
    h0 = solve_h0(grid)
    with mock.patch.object(obstacle, "_cycles", _plain_cycles):
        plain_h0 = solve_h0(grid)
    assert np.array_equal(h0.values, plain_h0.values)
    assert (h0.iters, h0.residual, h0.value_error) == \
        (plain_h0.iters, plain_h0.residual, plain_h0.value_error)
    below = h0.min_value - 0.05
    for m in (below, 1.0):
        fast, plain = solve_obstacle(grid, m), _plain_solve(grid, m)
        assert np.array_equal(fast.values, plain.values)
        assert (fast.iters, fast.residual, fast.value_error) == \
            (plain.iters, plain.residual, plain.value_error)
    assert not solve_obstacle(grid, below).active.any()


_MONO_GRID = DomainGrid(Ellipse(1.0, 0.8), 1.0 / 24.0)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.5, 1.0), st.floats(0.5, 1.0))
def test_obstacle_monotone_in_level_property(m1, m2):
    lo, hi = sorted((m1, m2))
    f_lo = solve_obstacle(_MONO_GRID, lo)
    f_hi = solve_obstacle(_MONO_GRID, hi)
    pad = f_lo.value_error + f_hi.value_error
    assert np.all(f_lo.values <= f_hi.values + pad)
    assert np.all(f_hi.values <= f_lo.values + (hi - lo) + pad)


# ---------------------------------------------------------------------------
# Coincidence metrics and gradient bound
# ---------------------------------------------------------------------------


def test_coincidence_metrics_disk():
    grid = DomainGrid(UnitDisk(), 1.0 / 32.0)
    full = coincidence_metrics(solve_obstacle(grid, 1.0, tol=1e-10))
    assert not full.empty
    assert abs(full.area - math.pi) < 0.05
    assert np.hypot(*full.centroid) < 2.0 * grid.h
    assert full.axis_ratio < 1.05
    empty = coincidence_metrics(solve_obstacle(grid, 0.5, tol=1e-10))
    assert empty.empty and empty.count == 0
    assert empty.area == 0.0 and empty.axis_ratio == 1.0
    lo = coincidence_metrics(solve_obstacle(grid, 0.85, tol=1e-10))
    hi = coincidence_metrics(solve_obstacle(grid, 0.90, tol=1e-10))
    assert lo.area <= hi.area <= full.area + 1e-12


def test_sup_gradient_vanishes_at_top():
    grid = DomainGrid(UnitDisk(), 1.0 / 32.0)
    field = solve_obstacle(grid, 1.0, tol=1e-10)
    assert sup_gradient(field) < 1e-7


def test_gradient_bound_report():
    grid = DomainGrid(UnitDisk(), 1.0 / 64.0)
    fields = [solve_obstacle(grid, m, tol=1e-10) for m in (0.90, 0.95, 0.99)]
    rep = verify_gradient_bound(fields)
    assert len(rep.rows) == 3
    assert rep.variation_ok and rep.ratio_variation < 0.5
    assert rep.deficit_bounded
    for row in rep.rows:
        assert row["sup_gradient"] > 0.0
        assert row["gradient_ratio"] > 0.0
    # adding the degenerate top level keeps the report well-defined
    rep2 = verify_gradient_bound(
        fields + [solve_obstacle(grid, 1.0, tol=1e-10)])
    top = rep2.rows[-1]
    assert top["m"] == 1.0 and top["gradient_ratio"] == 0.0


# ---------------------------------------------------------------------------
# Scale law and ellipse limit
# ---------------------------------------------------------------------------


def test_scale_law_report_structure():
    grid = DomainGrid(UnitDisk(), 1.0 / 64.0)
    base = solve_h0(grid, tol=1e-10).min_value
    fields = [solve_obstacle(grid, base + off, tol=1e-10)
              for off in (-0.05, 0.05, 0.10)]
    rep = verify_scale_law(fields, base_level=base)
    assert len(rep.excluded) == 1 and len(rep.rows) == 2
    assert rep.excluded[0]["empty"]
    for row in rep.rows:
        assert row["ratio"] > 0.0
        assert row["count"] >= 30
    # the smaller offset sits closer to the law than the larger one
    assert rep.trend_toward_one == (
        abs(rep.rows[0]["ratio"] - 1.0) <= abs(rep.rows[-1]["ratio"] - 1.0) + 1e-12)


def test_scale_law_under_resolved():
    grid = DomainGrid(UnitDisk(), 1.0 / 32.0)
    base = solve_h0(grid, tol=1e-10).min_value
    thin = solve_obstacle(grid, base + 0.004, tol=1e-10)
    assert 0 < int(thin.active.sum()) < 30
    with pytest.raises(UnderResolved):
        verify_scale_law([thin], base_level=base)


def test_ellipse_limit_round_on_disk():
    grid = DomainGrid(UnitDisk(), 1.0 / 64.0)
    base = solve_h0(grid, tol=1e-10).min_value
    field = solve_obstacle(grid, base + 0.03, tol=1e-10)
    rep = verify_ellipse_limit(field)
    assert rep.count >= 30
    assert rep.axis_ratio < 1.2
    assert rep.outer_defect < 0.25
    assert rep.inner_defect < 0.25
    assert abs(rep.limit_radius - 1.0 / math.sqrt(math.pi)) < 1e-12
    thin = solve_obstacle(grid, base + 0.001, tol=1e-10)
    with pytest.raises(UnderResolved):
        verify_ellipse_limit(thin)
