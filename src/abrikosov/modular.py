"""q-series special functions and lattice theta/zeta machinery.

Conventions used throughout:

* ``tau = a + i b`` with ``b > 0`` is a lattice shape modulus; ``q =
  exp(2 i pi tau)``.
* A planar lattice is ``{i*u + j*v}`` for basis vectors ``u, v`` with positive
  cross product; its covolume is ``|cross(u, v)|``.
* ``theta(basis, alpha) = sum_p exp(-pi alpha |p|^2)`` over all lattice
  points including the origin.
* ``zeta(basis, x) = sum_{p != 0} 1 / (8 pi^2 |p|^(2+x))`` for ``x > 0``; each
  zeta blows up at ``x = 0``, but for two lattices of equal covolume the
  difference has a limit there, which ``zeta_difference_limit`` computes
  from theta integrals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .errors import (
    CovolumeMismatch,
    DegenerateBasis,
    LatticePointSingularity,
    NonPositiveImaginaryPart,
    NonPositiveParameter,
    PrecisionUnreachable,
)

__all__ = [
    "SeriesControl",
    "LatticeBasis",
    "dedekind_eta",
    "eta_truncation",
    "kronecker_f",
    "theta_lattice",
    "theta_tail_bound",
    "zeta_difference_limit",
]

DEFAULT_CONTROL_TOL = 1e-12
MAX_SERIES_TERMS = 512
SINGULAR_TUBE = 1e-9


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the q-series and lattice sums.

    ``abs_tol`` is the one truncation setting: each q-series keeps the terms
    and each lattice sum the points that its own proven tail bound needs to
    stay below it.  A q-series that would need more than
    ``MAX_SERIES_TERMS`` terms raises :class:`PrecisionUnreachable`.
    """

    abs_tol: float = DEFAULT_CONTROL_TOL

    def __post_init__(self):
        if not (0.0 < self.abs_tol < math.inf):
            raise NonPositiveParameter("abs_tol must be finite and > 0")


_DEFAULT_CTL = SeriesControl()


class LatticeBasis:
    """Basis pair (u, v) of a planar lattice, orientation-normalized.

    The constructor flips the sign of ``v`` if needed so that
    ``cross(u, v) > 0`` (this does not change the lattice).
    """

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        u = np.asarray(u, dtype=float).reshape(2).copy()
        v = np.asarray(v, dtype=float).reshape(2).copy()
        cross = u[0] * v[1] - u[1] * v[0]
        scale = np.linalg.norm(u) * np.linalg.norm(v)
        if scale == 0.0 or abs(cross) < 1e-12 * scale:
            raise DegenerateBasis("basis vectors are collinear or zero")
        if cross < 0.0:
            v = -v
        self.u = u
        self.v = v

    @property
    def covolume(self) -> float:
        return self.u[0] * self.v[1] - self.u[1] * self.v[0]

    @property
    def matrix(self) -> np.ndarray:
        """Basis matrix with u, v as columns."""
        return np.column_stack([self.u, self.v])

    def dual(self) -> "LatticeBasis":
        """Basis of the dual lattice (inverse-transpose columns)."""
        d = np.linalg.inv(self.matrix).T
        return LatticeBasis(d[:, 0], d[:, 1])

    def __repr__(self):
        return f"LatticeBasis(u={self.u.tolist()}, v={self.v.tolist()})"


def _require_upper(tau: complex) -> complex:
    tau = complex(tau)
    if not (tau.imag > 0.0):
        raise NonPositiveImaginaryPart(f"tau must satisfy Im tau > 0, got {tau}")
    return tau


def _nterms_for(b: float, ctl: SeriesControl, extra: float = 0.0) -> int:
    """Smallest n with exp(-2 pi b n + extra) below ctl.abs_tol / 10, plus 2
    (at least 4); PrecisionUnreachable above MAX_SERIES_TERMS."""
    need = (-math.log(ctl.abs_tol / 10.0) + extra) / (2.0 * math.pi * b)
    n = max(int(math.ceil(need)) + 2, 4)
    if n > MAX_SERIES_TERMS:
        raise PrecisionUnreachable(
            f"need {n} series terms for abs_tol={ctl.abs_tol} at b={b}, "
            f"more than {MAX_SERIES_TERMS}"
        )
    return n


def _green_nterms(b: float, ctl: SeriesControl) -> int:
    """Green q-series length at Im tau = b: the wrapped |Im z| <= b/2 makes
    the worst extra factor exp(pi b)."""
    return _nterms_for(b, ctl, extra=math.pi * b)


def eta_truncation(tau: complex, ctl: SeriesControl = _DEFAULT_CTL):
    """(term count, a-posteriori bound) for dedekind_eta at this tau.

    The bound is on |log eta_truncated - log eta|: the dropped factors are
    prod_{k>n}(1 - q^k), so |delta log| <= sum_{k>n} |q|^k / (1 - |q|)
    <= |q|^(n+1) / (1 - |q|)^2.
    """
    tau = _require_upper(tau)
    n = _nterms_for(tau.imag, ctl)
    qa = math.exp(-2.0 * math.pi * tau.imag)
    bound = qa ** (n + 1) / (1.0 - qa) ** 2
    return n, bound


def dedekind_eta(tau, ctl: SeriesControl = _DEFAULT_CTL):
    """q^(1/24) * prod_{n>=1} (1 - q^n) with q = exp(2 i pi tau).

    ``tau`` is one modulus or an array of them.  An array takes the term
    count of its smallest Im tau and updates its running products in place.
    """
    if np.ndim(tau):
        tau = np.asarray(tau, dtype=complex)
        b = float(np.min(tau.imag))
        if not (b > 0.0):
            raise NonPositiveImaginaryPart("every tau must satisfy Im tau > 0")
    else:
        tau = _require_upper(tau)
        b = tau.imag
    n = _nterms_for(b, ctl)
    q = np.exp(2j * np.pi * tau)
    qn = q.copy()
    prod = 1.0 - qn
    for _ in range(n - 1):
        qn *= q
        prod *= 1.0 - qn
    del q, qn  # freed before the prefactor's temporaries are made
    return np.exp(2j * np.pi * tau / 24.0) * prod


def _frac_wrap(x: float) -> float:
    """Wrap to [-1/2, 1/2] (round-half-even at the boundary)."""
    return float(x - np.rint(x))


def _lattice_distance(s: float, t: float, tau: complex) -> float:
    """Distance from z = s + t tau to the lattice Z + tau Z in the z-plane."""
    return abs(_frac_wrap(s) + _frac_wrap(t) * tau)


def kronecker_f(z: complex, tau: complex, ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """Modulus of f(z, tau) = q^(1/12) (p^(1/2) - p^(-1/2)) prod (1-q^n p)(1-q^n/p).

    Only the absolute value is returned, as |f(s + t tau, tau)| =
    exp(pi b t^2 - G(s, t)) through the Green function G of the area-2pi
    torus, the mean-zero solution of -Delta G = 2 pi delta_0 - 1 (the
    quasi-periodicity of f is the pi b t^2 term).  G comes from one
    ``backend.green_values`` call with ``_green_nterms`` series terms at the
    fractional coordinates (s, t) of z = s + t tau.  It is exactly 0 on the
    lattice and raises LatticePointSingularity elsewhere within
    SINGULAR_TUBE of it.
    """
    tau = _require_upper(tau)
    z = complex(z)
    t = z.imag / tau.imag
    s = z.real - t * tau.real
    dist = _lattice_distance(s, t, tau)
    if dist == 0.0:
        return 0.0
    if dist < SINGULAR_TUBE:
        raise LatticePointSingularity(
            f"z = {s} + {t} tau is within {SINGULAR_TUBE} of the lattice")
    n = _green_nterms(tau.imag, ctl)
    g = backend.green_values(np.array([s]), np.array([t]),
                             tau.real, tau.imag, n)[0]
    return math.exp(math.pi * tau.imag * t * t - float(g))


# ---------------------------------------------------------------------------
# Lattice point enumeration and theta sums
# ---------------------------------------------------------------------------


def _enumerate_norms_sq(basis: LatticeBasis, radius: float) -> np.ndarray:
    """Squared norms of all nonzero lattice points with |p| <= radius."""
    u, v = basis.u, basis.v
    vol = basis.covolume
    ki = int(math.ceil(radius * np.linalg.norm(v) / vol)) + 1
    kj = int(math.ceil(radius * np.linalg.norm(u) / vol)) + 1
    if (2 * ki + 1) * (2 * kj + 1) > 64_000_000:
        raise PrecisionUnreachable(
            f"enumeration window {2*ki+1} x {2*kj+1} too large"
        )
    i = np.arange(-ki, ki + 1)
    j = np.arange(-kj, kj + 1)
    ii, jj = np.meshgrid(i, j, indexing="ij")
    x = ii * u[0] + jj * v[0]
    y = ii * u[1] + jj * v[1]
    nsq = (x * x + y * y).ravel()
    center = (2 * kj + 1) * ki + kj  # flat index of (0, 0)
    nsq = np.delete(nsq, center)
    return nsq[nsq <= radius * radius + 1e-12]


def _covering_radius_bound(basis: LatticeBasis) -> float:
    u, v = basis.u, basis.v
    return 0.5 * max(np.linalg.norm(u + v), np.linalg.norm(u - v))


def _theta_radius(basis: LatticeBasis, alpha: float, tol: float) -> float:
    """Radius R with a proven Gaussian-tail bound of at most tol.

    Every point with |p| >= R satisfies exp(-pi a |p|^2) <=
    exp(-pi a (|y| - rho)^2) for y in its Voronoi cell (rho = covering
    radius), so the tail is bounded by a radial integral in closed form.
    That bound decreases in R from infinity at 2 rho, so once a growing
    radius meets tol, bisection between it and the last one that missed
    (or 2 rho) brings it within 0.1% of the smallest radius that meets tol.
    """
    lo = 2.0 * _covering_radius_bound(basis)
    hi = max(lo, math.sqrt(2.0 / (math.pi * alpha)))
    for _ in range(200):
        if theta_tail_bound(basis, alpha, hi) <= tol:
            break
        lo, hi = hi, 1.25 * hi
    else:
        raise PrecisionUnreachable("theta tail bound did not close")
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if theta_tail_bound(basis, alpha, mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


def theta_tail_bound(basis: LatticeBasis, alpha: float, radius: float) -> float:
    """Closed-form bound on the theta terms dropped outside |p| <= radius.

    Voronoi-cell comparison with the radial Gaussian integral; valid when
    radius exceeds twice the covering-radius bound (returns inf otherwise).
    """
    rho = _covering_radius_bound(basis)
    t0 = radius - 2.0 * rho
    if t0 <= 0.0:
        return math.inf
    return (2.0 * math.pi / basis.covolume) \
        * math.exp(-math.pi * alpha * t0 * t0) \
        * (1.0 + rho / t0) / (2.0 * math.pi * alpha)


class _ThetaTable:
    """theta(a) - 1 evaluated from a frozen point enumeration, valid a >= a_min."""

    def __init__(self, basis: LatticeBasis, a_min: float, tol: float):
        radius = _theta_radius(basis, a_min, tol)
        self.nsq = _enumerate_norms_sq(basis, radius)
        self.lambda1 = float(np.min(self.nsq)) if self.nsq.size else math.inf

    def centered(self, a: float) -> float:
        return float(np.sum(np.exp(-np.pi * a * self.nsq)))


def theta_lattice(basis: LatticeBasis, alpha: float,
                  ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """theta(alpha) = sum over all lattice points of exp(-pi alpha |p|^2).

    The enumeration radius is the smallest (to 0.1%) whose proven Gaussian
    tail is below ctl.abs_tol, as for every lattice sum here.
    """
    if not (alpha > 0.0):
        raise NonPositiveParameter("alpha must be > 0")
    return 1.0 + _ThetaTable(basis, alpha, ctl.abs_tol).centered(alpha)


def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 28) -> float:
    """Adaptive Simpson integral of f over [a, b] to absolute error tol.

    Raises PrecisionUnreachable when a subinterval still misses its share
    of tol after ``max_depth`` halvings.  Halving an interval halves both
    its share of tol and the rounding noise of its Simpson estimates, so a
    tol below the integrand's rounding level is met at no depth: the first
    chain of halvings reaches max_depth and raises after about 2 max_depth
    evaluations, where returning a best effort would let the recursion run
    on toward 2^max_depth evaluations.
    """
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(x0, x2, f0, f1, f2, acc, share, depth):
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = (x1 - x0) / 6.0 * (f0 + 4.0 * flm + f1)
        right = (x2 - x1) / 6.0 * (f1 + 4.0 * frm + f2)
        if abs(left + right - acc) <= 15.0 * share:
            return left + right + (left + right - acc) / 15.0
        if depth <= 0:
            raise PrecisionUnreachable(
                f"adaptive Simpson: abs_tol {tol:g} not met within "
                f"{max_depth} halvings; it may be below the integrand's "
                "rounding level")
        return (rec(x0, x1, f0, flm, f1, left, 0.5 * share, depth - 1)
                + rec(x1, x2, f1, frm, f2, right, 0.5 * share, depth - 1))

    return rec(a, b, fa, fm, fb, whole, tol, max_depth)


def _integral_cutoff(table: _ThetaTable, tol: float) -> float:
    """Upper limit A with the theta tail past it, at most
    (theta(A) - 1) / (pi lambda1), below tol."""
    lam = math.pi * table.lambda1
    a_end = 4.0
    for _ in range(60):
        if table.centered(a_end) / lam < tol:
            return a_end
        a_end *= 1.5
    raise PrecisionUnreachable("integral cutoff search failed")


def zeta_difference_limit(lat1: LatticeBasis, lat2: LatticeBasis,
                          ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """lim_{x -> 0} [zeta_{L1*}(x) - zeta_{L2*}(x)] for equal-covolume L1, L2.

    The individual zetas blow up at x = 0; for lattices of the same covolume V
    the difference converges and equals

      (1/(8 pi)) [ int_1^inf (theta_{L1*} - theta_{L2*})(a) da
                   + V int_1^inf (theta_{L1} - theta_{L2})(a) da/a ].

    (For unimodular inputs this collapses to the single-integral
    ``(1/(8 pi)) int (theta_1* - theta_2*)(a) (1 + a) da / a`` form.)
    """
    v1, v2 = lat1.covolume, lat2.covolume
    if abs(v1 - v2) > 1e-9 * max(v1, v2):
        raise CovolumeMismatch(f"covolumes differ: {v1} vs {v2}")
    vol = 0.5 * (v1 + v2)
    tol = ctl.abs_tol
    d1, d2 = lat1.dual(), lat2.dual()
    td1 = _ThetaTable(d1, 1.0, tol)
    td2 = _ThetaTable(d2, 1.0, tol)
    tl1 = _ThetaTable(lat1, 1.0, tol)
    tl2 = _ThetaTable(lat2, 1.0, tol)

    a_end = max(_integral_cutoff(td1, tol), _integral_cutoff(td2, tol))
    i_dual = _adaptive_simpson(lambda a: td1.centered(a) - td2.centered(a),
                               1.0, a_end, tol)
    a_end2 = max(_integral_cutoff(tl1, tol / max(vol, 1.0)),
                 _integral_cutoff(tl2, tol / max(vol, 1.0)))
    i_lat = _adaptive_simpson(lambda a: (tl1.centered(a) - tl2.centered(a)) / a,
                              1.0, a_end2, tol / max(vol, 1.0))
    return float((i_dual + vol * i_lat) / (8.0 * math.pi))
