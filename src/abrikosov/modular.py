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
  from theta integrals done term by term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .errors import (
    CovolumeMismatch,
    DegenerateBasis,
    InputError,
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
_EXP1_CROSSOVER = 1.0      # _exp1 uses its series below, continued fraction above


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
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise InputError(f"basis vectors must be finite, not {u}, {v}")
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
    if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
        raise InputError(f"tau must be finite, not {tau}")
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
    return np.exp(2j * np.pi * tau / 24.0) * _eta_product(tau, n)


def _eta_product(tau, n: int):
    """prod_{k<=n} (1 - q^k), dedekind_eta without q^(1/24), elementwise."""
    q = np.exp(2j * np.pi * tau)
    qn = q.copy()
    prod = 1.0 - qn
    for _ in range(n - 1):
        qn *= q
        prod *= 1.0 - qn
    return prod


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
# Lattice point enumeration and Gaussian-weighted lattice sums
# ---------------------------------------------------------------------------


def _reduced_basis(basis: LatticeBasis):
    """(u, v), a Lagrange-Gauss reduced basis of the lattice of ``basis``.

    A step needs a clear gain (1e-9 relative), so a basis already reduced up
    to rounding comes back as given, in its own order.
    """
    u, v = basis.u, basis.v
    stepped = False
    while True:
        if v @ v < (1.0 - 1e-9) * (u @ u):
            u, v = v, u
        mu = (u @ v) / (u @ u)
        if abs(mu) <= 0.5 + 1e-9:
            return (u, v) if stepped else (basis.u, basis.v)
        v = v - round(mu) * u
        stepped = True


def _enumerate_norms_sq(basis: LatticeBasis, radius: float) -> np.ndarray:
    """Squared norms of all nonzero lattice points with |p| <= radius.

    The index window is that of the reduced basis, whose coefficients stay
    small for every basis of the lattice; a skewed basis's own would grow
    with the skew.
    """
    u, v = _reduced_basis(basis)
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
    """Half the longer diagonal of the lattice's Lagrange-Gauss reduced basis.

    Each point of a basis's cell lies within half the cell's longer
    diagonal of a corner, so every basis bounds the covering radius, a
    lattice invariant.  The reduced basis gives one small bound to all bases
    of a lattice, where a skewed basis's own diagonal can be many times
    longer.
    """
    u, v = _reduced_basis(basis)
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


def _gaussian_sum_support(basis: LatticeBasis, alpha: float,
                          ctl: SeriesControl):
    """Squared norms of the nonzero points that a sum over ``basis`` with
    Gaussian weight exp(-pi alpha |p|^2) keeps, and the dropped Gaussian
    tail divided by the squared radius.

    The radius is the smallest (to 0.1%) whose proven Gaussian tail is below
    ctl.abs_tol.  The returned tail bounds the dropped terms of a sum whose
    terms are at most exp(-pi alpha |p|^2) / |p|^2.
    """
    radius = _theta_radius(basis, alpha, ctl.abs_tol)
    tail = float(theta_tail_bound(basis, alpha, radius)) / (radius * radius)
    return _enumerate_norms_sq(basis, radius), tail


def _exp1(z) -> np.ndarray:
    """Exponential integral E1(z) = int_z^inf exp(-t) / t dt, elementwise, z > 0.

    Up to ``_EXP1_CROSSOVER`` it sums the power series
    E1(z) = -gamma - log z - sum_{k>=1} (-z)^k / (k k!)  (Abramowitz & Stegun
    5.1.11); above it, the continued fraction 5.1.22 in its even contraction
    E1(z) = exp(-z) / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - ...))), evaluated
    backward from a fixed depth.  Each branch is within about 2e-15 of E1
    relative on its side of the crossover.
    """
    z = np.asarray(z, dtype=float)
    lo = np.minimum(z, _EXP1_CROSSOVER)
    term = np.ones_like(lo)
    total = np.zeros_like(lo)
    for k in range(1, 21):
        term *= -lo / k
        total += term / k
    series = -np.euler_gamma - np.log(lo) - total
    hi = np.maximum(z, _EXP1_CROSSOVER)
    frac = hi + 201.0
    for n in range(100, 0, -1):
        frac = hi + (2 * n - 1) - n * n / frac
    return np.where(z <= _EXP1_CROSSOVER, series, np.exp(-hi) / frac)


def theta_lattice(basis: LatticeBasis, alpha: float,
                  ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """theta(alpha) = sum over all lattice points of exp(-pi alpha |p|^2)."""
    if not (alpha > 0.0):
        raise NonPositiveParameter("alpha must be > 0")
    nsq, _ = _gaussian_sum_support(basis, alpha, ctl)
    return 1.0 + float(np.sum(np.exp(-np.pi * alpha * nsq)))


def _ewald_sums(basis: LatticeBasis, eps: float, ctl: SeriesControl):
    """(dual, dual_tail, lattice, lattice_tail): the Ewald sums of the
    lattice L of ``basis`` at split eps, and bounds on the terms they drop.

    Splitting 1/|k|^2 = int_0^inf exp(-t |k|^2) dt at t = eps and applying
    Poisson summation to the t < eps part (Ewald, Ann. Phys. 369 (1921) 253)
    leaves closed forms and, over the dual K of L (k.p in 2 pi Z),

        dual    = sum_{k in K, k != 0} exp(-eps |k|^2) / |k|^2,
        lattice = sum_{p in L, p != 0} E1(|p|^2 / (4 eps)).

    Both routes to W are these sums: ``lattice.w_fourier`` adds the closed
    forms, and ``zeta_difference_limit`` takes a difference that cancels them.
    Each sum keeps the points of ``_gaussian_sum_support``; as E1(z) <=
    exp(-z)/z, the lattice tail is 4 eps times its Gaussian tail.
    """
    dual = LatticeBasis(*(2.0 * math.pi * basis.dual().matrix.T))
    k_nsq, k_tail = _gaussian_sum_support(dual, eps / math.pi, ctl)
    p_nsq, p_tail = _gaussian_sum_support(basis, 0.25 / (math.pi * eps), ctl)
    return (float(np.sum(np.exp(-eps * k_nsq) / k_nsq)), k_tail,
            float(np.sum(_exp1(p_nsq / (4.0 * eps)))), 4.0 * eps * p_tail)


def zeta_difference_limit(lat1: LatticeBasis, lat2: LatticeBasis,
                          ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """lim_{x -> 0} [zeta_{L1*}(x) - zeta_{L2*}(x)] for equal-covolume L1, L2.

    The individual zetas blow up at x = 0; for lattices of the same covolume V
    the difference converges and equals

      (1/(8 pi)) [ int_1^inf (theta_{L1*} - theta_{L2*})(a) da
                   + V int_1^inf (theta_{L1} - theta_{L2})(a) da/a ].

    Integrated term by term, these are the ``_ewald_sums`` at split
    eps = 1/(4 pi): with k_i and p_i the dual and lattice sums of L_i, the
    limit is (k_1 - k_2) / 2 + V (p_1 - p_2) / (8 pi).
    """
    v1, v2 = lat1.covolume, lat2.covolume
    if abs(v1 - v2) > 1e-9 * max(v1, v2):
        raise CovolumeMismatch(f"covolumes differ: {v1} vs {v2}")
    k1, _, p1, _ = _ewald_sums(lat1, 0.25 / math.pi, ctl)
    k2, _, p2, _ = _ewald_sums(lat2, 0.25 / math.pi, ctl)
    return 0.5 * (k1 - k2) + 0.5 * (v1 + v2) * (p1 - p2) / (8.0 * math.pi)
