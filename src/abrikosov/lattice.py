"""Per-shape Coulomb energy of planar lattices and its minimization.

The energy of a unit-density lattice of shape ``tau = a + i b`` is

    w(tau) = -1/4 log(2 pi b) - log|eta(tau)|
           = pi b / 12 - 1/4 log(2 pi b) - log|prod_{n>=1} (1 - q^n)|,

extended to density ``m`` by ``w_m = m (w_1 - 1/4 log m)``.  ``_w_unit``
evaluates the second form, finite up to b = ``MAX_B``.  Three
evaluation routes are provided: the eta product, and two built on
``modular._ewald_sums`` (no q-series): ``w_fourier`` and the zeta
difference ``w_zeta_diff``.

``moduli_scan`` verifies that the minimum over shapes is the hexagonal
point ``tau = 1/2 + i sqrt(3)/2`` on a fundamental-domain grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .csvfile import write_csv
from .errors import InputError, NonPositiveImaginaryPart, NonPositiveParameter
from .modular import (
    LatticeBasis,
    SeriesControl,
    _eta_product,
    _ewald_sums,
    _nterms_for,
    _require_upper,
    eta_truncation,
    theta_lattice,
    zeta_difference_limit,
)

__all__ = [
    "EnergyReport",
    "ModuliGrid",
    "ScanReport",
    "ThetaProbeReport",
    "reduce_fundamental",
    "lattice_to_tau",
    "shape_basis",
    "w_eta",
    "w_fourier",
    "w_zeta_diff",
    "moduli_scan",
    "theta_minimality_probe",
]

TWO_PI = 2.0 * math.pi
TRIANGULAR_TAU = complex(0.5, math.sqrt(3.0) / 2.0)
EWALD_SPLIT = 0.5          # where w_fourier splits 1/|k|^2 between K and L
SCAN_BLOCK = 1 << 14       # most points in a ModuliGrid block, bar one long column
MAX_B = 1e307              # largest b that w_eta and the scan take: 2 pi b < inf
_DEFAULT_CTL = SeriesControl()


@dataclass(frozen=True)
class EnergyReport:
    """An energy value plus the route and truncation data that produced it."""

    value: float
    route: str  # "eta" or "fourier"
    truncation: SeriesControl
    error_estimate: float

    def __post_init__(self):
        if self.error_estimate < 0.0:
            raise NonPositiveParameter("error_estimate must be >= 0")


# ---------------------------------------------------------------------------
# Fundamental-domain reduction
# ---------------------------------------------------------------------------


def _reduce_with_matrix(tau: complex):
    """Reduce tau into {|Re| <= 1/2, |tau| >= 1} tracking the group word.

    Returns (tau', M) with M = ((alpha, beta), (gamma, delta)) in Python
    ints, det M = 1, and tau' = (alpha tau + beta) / (gamma tau + delta).
    A |tau|^2 that underflows to 0 is inverted as -1/tau.
    """
    tau = _require_upper(tau)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10_000):
        k = math.floor(tau.real + 0.5)
        if k != 0:
            tau = tau - k
            a, b = a - k * c, b - k * d
        norm = tau.real * tau.real + tau.imag * tau.imag
        if norm < 1.0 - 1e-15:
            tau = (complex(-tau.real / norm, tau.imag / norm) if norm
                   else -1.0 / tau)
            a, b, c, d = -c, -d, a, b
            continue
        break
    # canonical representative on the boundary identifications
    if abs(tau.real + 0.5) < 1e-14:
        tau = complex(0.5, tau.imag)
        a, b = a + c, b + d
    norm = tau.real * tau.real + tau.imag * tau.imag
    if abs(norm - 1.0) < 1e-14 and tau.real < -1e-14:
        tau = complex(-tau.real / norm, tau.imag / norm)
        a, b, c, d = -c, -d, a, b
    return tau, ((a, b), (c, d))


def reduce_fundamental(tau: complex) -> complex:
    """Canonical representative of tau in {|Re| <= 1/2, |tau| >= 1}.

    Boundary points are canonicalized toward nonnegative real part
    (Re = -1/2 maps to +1/2; the left unit-arc half maps to the right).
    """
    return _reduce_with_matrix(tau)[0]


def _shape_modulus(basis: LatticeBasis) -> complex:
    """Shape modulus v/u of a basis (not reduced)."""
    return complex(basis.v[0], basis.v[1]) / complex(basis.u[0], basis.u[1])


def lattice_to_tau(basis: LatticeBasis):
    """Shape modulus and scale factor of a lattice given by a basis.

    Returns (tau, scale): ``tau`` is the reduced modulus of the lattice's
    shape (which coincides with its dual's shape: in the plane the dual is
    the same lattice rotated by 90 degrees and rescaled), and ``scale`` is
    the linear factor relating the input to the covolume-2pi normalization,
    scale = sqrt(covolume / (2 pi)).  The unit-density modulus therefore has
    m = 1/scale^2.
    """
    tau = reduce_fundamental(_shape_modulus(basis))
    scale = math.sqrt(basis.covolume / TWO_PI)
    return tau, scale


def shape_basis(tau: complex, covolume: float = TWO_PI) -> LatticeBasis:
    """A concrete basis realizing shape tau at the requested covolume."""
    tau = _require_upper(tau)
    if not (covolume > 0.0):
        raise NonPositiveParameter("covolume must be > 0")
    c = math.sqrt(covolume / tau.imag)
    return LatticeBasis((c, 0.0), (c * tau.real, c * tau.imag))


# ---------------------------------------------------------------------------
# The three energy routes
# ---------------------------------------------------------------------------


def _w_unit(tau, n: int):
    """w_1 at tau (one or an array) in the module's log form, n factors."""
    b = np.imag(tau)
    return (np.pi * b / 12.0 - 0.25 * np.log(TWO_PI * b)
            - np.log(np.abs(_eta_product(tau, n))))


def _density_scale(value_unit, m: float):
    """w_m = m (w_1 - 1/4 log m), elementwise in w_1."""
    if not (0.0 < m < math.inf):
        raise NonPositiveParameter(f"density m must be finite and > 0, not {m}")
    with np.errstate(over="ignore"):
        return _in_range(m * (value_unit - 0.25 * math.log(m)), value_unit, m)


def _in_range(value, value_unit, m: float):
    """``value``, the density-m scaling of ``value_unit``; InputError where
    it takes a finite value out of the float range."""
    if np.any(np.isinf(value) & np.isfinite(value_unit)):
        raise InputError(f"density m = {m} scales the energy out of the "
                         "float range")
    return value


def w_eta(tau: complex, m: float = 1.0,
          ctl: SeriesControl = _DEFAULT_CTL) -> EnergyReport:
    """Energy of the shape-tau lattice at density m, eta-product route."""
    tau_r = reduce_fundamental(tau)
    if tau_r.imag > MAX_B:
        raise InputError(f"tau = {tau} reduces to Im tau above {MAX_B:g}")
    n, log_tail = eta_truncation(tau_r, ctl)
    value = _density_scale(float(_w_unit(tau_r, n)), m)
    return EnergyReport(value=value, route="eta", truncation=ctl,
                        error_estimate=m * log_tail)


def w_fourier(tau: complex, m: float = 1.0,
              ctl: SeriesControl = _DEFAULT_CTL) -> EnergyReport:
    """Energy from the ``modular._ewald_sums`` of the covolume-2pi
    realization of tau at split eps = EWALD_SPLIT, with no q-series:

        2 w = dual + lattice / 2 - eps + (log(4 eps) - gamma) / 2.

    ``error_estimate`` is the proven bound on the terms the sums drop.
    """
    eps = EWALD_SPLIT
    k_sum, k_tail, p_sum, p_tail = _ewald_sums(
        shape_basis(reduce_fundamental(tau)), eps, ctl)
    two_w = (k_sum + 0.5 * p_sum
             - eps + 0.5 * (math.log(4.0 * eps) - np.euler_gamma))
    return EnergyReport(value=_density_scale(0.5 * two_w, m), route="fourier",
                        truncation=ctl,
                        error_estimate=0.5 * m * (k_tail + 0.5 * p_tail))


def w_zeta_diff(tau1: complex, tau2: complex, m: float = 1.0,
                ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """w(tau1, m) - w(tau2, m) through the theta-integral difference route.

    Both shapes are realized at covolume 2 pi; the limit of the difference
    of their dual zeta functions equals the energy difference directly, and
    the density factor multiplies through (the -1/4 log m terms cancel).
    """
    if not (0.0 < m < math.inf):
        raise NonPositiveParameter(f"density m must be finite and > 0, not {m}")
    b1 = shape_basis(reduce_fundamental(tau1))
    b2 = shape_basis(reduce_fundamental(tau2))
    unit = float(zeta_difference_limit(b1, b2, ctl))
    return _in_range(m * unit, unit, m)


# ---------------------------------------------------------------------------
# Moduli scan (shape optimization over the fundamental domain)
# ---------------------------------------------------------------------------


def _arc_b(a: float) -> float:
    """Imaginary part of the unit-circle boundary of the fundamental domain."""
    return math.sqrt(max(1.0 - a * a, 0.0))


@dataclass(frozen=True)
class ModuliGrid:
    """Rectangular sample window, clipped to the fundamental-domain closure.

    The scanned points are the grid points of the a x b rectangle that
    satisfy a^2 + b^2 >= 1, augmented with the boundary-arc points
    (a, sqrt(1 - a^2)) of every column whose arc ordinate falls inside
    b_range, so minima on the arc are representable exactly.
    """

    a_range: tuple = (-0.5, 0.5)
    b_range: tuple = (0.8, 1.6)
    resolution: int = 200

    def __post_init__(self):
        a_min, a_max = self.a_range
        b_min, b_max = self.b_range
        if self.resolution < 1:
            raise InputError("resolution must be >= 1")
        if not all(map(math.isfinite, (a_min, a_max, b_min, b_max))):
            raise InputError("a_range and b_range must be finite")
        if not (a_min <= a_max) or not (b_min <= b_max):
            raise InputError("ranges must be ordered (min <= max)")
        if a_min < -0.5 - 1e-12 or a_max > 0.5 + 1e-12:
            raise InputError("a_range must lie inside [-1/2, 1/2]")
        if b_min <= 0.0:
            raise NonPositiveImaginaryPart("b_range must be positive")
        if b_max > MAX_B:
            raise InputError(f"b_range must lie below {MAX_B:g}")
        if b_max < _arc_b(max(abs(a_min), abs(a_max))) - 1e-12:
            raise InputError("grid rectangle lies entirely below |tau| = 1")
        if self.size == 0:
            raise InputError("the window holds no grid point with |tau| >= 1")

    def _columns(self):
        """(a_vals, b_vals, kept, on, arc): the grid's abscissae and ordinates,
        the length of the b_vals suffix each column keeps, and the columns
        whose arc ordinate ``arc`` falls inside b_range."""
        n = self.resolution
        a_vals = np.linspace(*self.a_range, n)
        b_vals = np.linspace(*self.b_range, n)
        b_sq = b_vals * b_vals
        # rounded a^2 + b^2 never falls as b grows: each column keeps a suffix
        kept = [np.count_nonzero(x * x + b_sq >= 1.0 - 1e-12) for x in a_vals]
        arc = np.sqrt(np.maximum(1.0 - a_vals * a_vals, 0.0))
        on = (arc >= self.b_range[0] - 1e-12) & (arc <= self.b_range[1] + 1e-12)
        return a_vals, b_vals, kept, on, arc

    @property
    def size(self) -> int:
        """Number of scanned points."""
        _, _, kept, on, _ = self._columns()
        return sum(kept) + np.count_nonzero(on)

    @property
    def min_b(self) -> float:
        """Smallest b of the scanned points, without building them.

        Every column keeps a suffix of the same b values, so the longest
        suffix holds the smallest column b.
        """
        _, b_vals, kept, on, arc = self._columns()
        return float(np.concatenate((b_vals[b_vals.size - max(kept):],
                                     arc[on])).min())

    def blocks(self):
        """Yield (a, b) arrays of the scanned points, deterministic order.

        The columns come in order of a, grouped into blocks of whole column
        suffixes of at most SCAN_BLOCK points (a longer column is one block),
        then one block of the arc points.
        """
        a_vals, b_vals, kept, on, arc = self._columns()
        n = self.resolution
        first = 0
        while first < n:
            last, size = first + 1, kept[first]
            while last < n and size + kept[last] <= SCAN_BLOCK:
                size += kept[last]
                last += 1
            yield (np.repeat(a_vals[first:last], kept[first:last]),
                   np.concatenate([b_vals[n - k:] for k in kept[first:last]]))
            first = last
        yield a_vals[on], arc[on]

    def points(self):
        """(a, b) arrays of all scanned sample points: the blocks, joined."""
        a, b = zip(*self.blocks())
        return np.concatenate(a), np.concatenate(b)


@dataclass
class ScanReport:
    """Result of a moduli scan: W over the grid plus the refined minimizer.

    Only ``w`` is stored per point.  ``a`` and ``b``, the points in the
    order of ``w``, are rebuilt from ``grid`` on each access.
    """

    m: float
    grid: ModuliGrid
    w: np.ndarray
    argmin_grid: tuple        # (a, b) of the best grid sample, canonicalized
    min_grid: float
    argmin: tuple             # after local descent refinement
    min_value: float
    refine_iters: int

    @property
    def resolution(self) -> int:
        return self.grid.resolution

    @property
    def a(self) -> np.ndarray:
        return self.grid.points()[0]

    @property
    def b(self) -> np.ndarray:
        return self.grid.points()[1]

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "resolution": self.resolution,
            "n_points": int(self.w.size),
            "argmin_grid": {"a": self.argmin_grid[0], "b": self.argmin_grid[1]},
            "min_grid": self.min_grid,
            "argmin": {"a": self.argmin[0], "b": self.argmin[1]},
            "min": self.min_value,
            "refine_iters": self.refine_iters,
        }

    def to_csv(self, path) -> None:
        """Write the scanned surface to ``path`` as a,b,W rows, one grid
        block at a time."""
        write_csv(path, "a,b,W", "%.9g,%.9g,%.9g",
                  ((a, b, self.w[at]) for at, a, b in _spans(self.grid)))


def _spans(grid: ModuliGrid):
    """(at, a, b) for each of the grid's blocks, ``at`` the slice of the
    point order that the block fills."""
    start = 0
    for a, b in grid.blocks():
        yield slice(start, start + a.size), a, b
        start += a.size


def _first_min(w: np.ndarray, spans):
    """(index, a, b) of the smallest w, ties broken by (a, b), then by index.

    ``spans`` yields the (at, a, b) blocks of ``_spans``, covering w.  The
    index is ``np.lexsort((b, a, w))[0]``, with (a, b) taken and sorted at
    the ties of the minimum only.  fmin skips nan, which lexsort sorts last.
    """
    low = np.fmin.reduce(w)
    ties = np.flatnonzero(w == low) if low == low else np.arange(w.size)
    tie_a, tie_b = [], []
    for at, a, b in spans:
        rows = ties[np.searchsorted(ties, at.start):
                    np.searchsorted(ties, at.stop)] - at.start
        tie_a.append(a[rows])
        tie_b.append(b[rows])
    tie_a, tie_b = np.concatenate(tie_a), np.concatenate(tie_b)
    pick = np.lexsort((tie_b, tie_a))[0]
    return int(ties[pick]), float(tie_a[pick]), float(tie_b[pick])


def moduli_scan(grid: ModuliGrid, m: float = 1.0,
                ctl: SeriesControl = _DEFAULT_CTL,
                refine_iters: int = 60) -> ScanReport:
    """Scan w over the grid and refine the best sample by local descent.

    The grid argmin (deterministic lexicographic tie-break on (a, b)) is
    canonicalized through the fundamental-domain reduction, then refined by
    a five-point-stencil gradient descent with backtracking; the energy is
    modular-invariant, so stencil legs may leave the domain freely and the
    final point is reduced back.
    """
    if refine_iters < 0:
        raise NonPositiveParameter("refine_iters must be >= 0")
    # every block takes the term count of the whole scan's smallest b, so
    # each w keeps the bits of one _w_unit call over the whole grid
    n_terms = _nterms_for(grid.min_b, ctl)
    w = np.empty(grid.size)
    for at, a, b in _spans(grid):
        w[at] = _density_scale(_w_unit(a + 1j * b, n_terms), m)
    best, a_best, b_best = _first_min(w, _spans(grid))
    tau0 = reduce_fundamental(complex(a_best, b_best))
    argmin_grid = (tau0.real, tau0.imag)
    min_grid = float(w[best])

    # local refinement (descent on the smooth modular-invariant energy)
    span_a = max(grid.a_range[1] - grid.a_range[0], 1e-3)
    cell = span_a / max(grid.resolution - 1, 1)
    delta = cell / 8.0

    def energy(a, b):
        return w_eta(complex(a, b), m, ctl).value

    p = np.array([tau0.real, tau0.imag])
    fval = energy(*p)
    iters_done = 0
    step = cell
    for _ in range(refine_iters):
        ga = (energy(p[0] + delta, p[1]) - energy(p[0] - delta, p[1])) \
            / (2.0 * delta)
        gb = (energy(p[0], p[1] + delta) - energy(p[0], p[1] - delta)) \
            / (2.0 * delta)
        g = np.array([ga, gb])
        gn = float(np.hypot(ga, gb))
        if gn < 1e-12:
            break
        s = step
        moved = False
        for _ in range(30):
            cand = p - s * g
            if cand[1] > 0.05:
                fc = energy(*cand)
                if fc < fval - 1e-4 * s * gn * gn:
                    p, fval, moved = cand, fc, True
                    step = min(s * 1.5, cell)
                    break
            s *= 0.5
        iters_done += 1
        if not moved:
            break
    tau_fin = reduce_fundamental(complex(*p))
    return ScanReport(m=m, grid=grid, w=w,
                      argmin_grid=argmin_grid, min_grid=min_grid,
                      argmin=(tau_fin.real, tau_fin.imag),
                      min_value=min(fval, min_grid),
                      refine_iters=iters_done)


# ---------------------------------------------------------------------------
# Theta minimality probe
# ---------------------------------------------------------------------------


@dataclass
class ThetaProbeReport:
    """Outcome of comparing hexagonal theta against random shapes."""

    alphas: list
    samples: int
    seed: int
    noise_floor: float
    violations: list = field(default_factory=list)   # (alpha, a, b, margin)
    inconclusive: int = 0
    comparisons: int = 0
    min_margin: float = math.inf  # min over conclusive samples of theta - theta_tri


def theta_minimality_probe(alphas, samples: int, seed: int = 0,
                           ctl: SeriesControl = _DEFAULT_CTL,
                           extra_taus=()) -> ThetaProbeReport:
    """Check hexagonal minimality of theta among equal-covolume shapes.

    For each alpha, theta of the hexagonal (triangular-lattice) shape is
    compared against `samples` random fundamental-domain shapes, all
    realized at covolume 1.  A sample beats the hexagonal value by more
    than the noise floor -> recorded violation; differences below the
    floor are counted inconclusive (ties included).
    """
    alphas = [float(x) for x in alphas]
    if any(x <= 0.0 for x in alphas):
        raise NonPositiveParameter("alphas must be > 0")
    report = ThetaProbeReport(alphas=alphas, samples=int(samples), seed=seed,
                              noise_floor=1e-11)
    rng = np.random.default_rng(seed)
    taus = []
    for _ in range(int(samples)):
        av = rng.uniform(-0.5, 0.5)
        bv = _arc_b(av) * (1.0 + 1.5 * rng.random() ** 2)
        taus.append(complex(av, bv))
    taus.extend(complex(t) for t in extra_taus)
    tri = shape_basis(TRIANGULAR_TAU, covolume=1.0)
    for alpha in alphas:
        theta_tri = theta_lattice(tri, alpha, ctl)
        floor = report.noise_floor * max(1.0, theta_tri)
        for t in taus:
            theta_s = theta_lattice(shape_basis(t, covolume=1.0), alpha, ctl)
            margin = theta_s - theta_tri
            report.comparisons += 1
            if abs(margin) < floor:
                report.inconclusive += 1
                continue
            report.min_margin = min(report.min_margin, margin)
            if margin < 0.0:
                report.violations.append((alpha, t.real, t.imag, margin))
    return report
