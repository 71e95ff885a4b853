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
* A lattice sum runs over its basis reduced by the tau word, the SL2(Z)
  word of ``_reduce_with_matrix`` that takes the shape modulus v/u into
  the fundamental domain, and keeps the points within a radius in closed
  form from its proven tail bound.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from . import backend
from ._eta import (
    DEFAULT_CONTROL_TOL,
    MAX_SERIES_TERMS,
    _DEFAULT_CTL,
    SeriesControl,
    _eta_product,
    _nterms_for,
    _reduce_with_matrix,
    _require_upper,
    eta_truncation,
)
from .errors import (
    CovolumeMismatch,
    DegenerateBasis,
    InputError,
    LatticePointSingularity,
    PrecisionUnreachable,
    positive,
)

__all__ = [
    "SeriesControl",
    "LatticeBasis",
    "dedekind_eta",
    "eta_truncation",
    "kronecker_f",
    "theta_lattice",
    "zeta_difference_limit",
]

SINGULAR_TUBE = 1e-9
_EXP1_CROSSOVER = 1.0      # _exp1 uses its series below, continued fraction above


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
        (u0, u1), (v0, v1) = u.tolist(), v.tolist()
        # the collinearity test runs on u and v scaled by their largest
        # components, where the cross product neither overflows nor
        # underflows
        su, sv = max(abs(u0), abs(u1)) or 1.0, max(abs(v0), abs(v1)) or 1.0
        a0, a1, b0, b1 = u0 / su, u1 / su, v0 / sv, v1 / sv
        scale = math.hypot(a0, a1) * math.hypot(b0, b1)
        if scale == 0.0 or abs(a0 * b1 - a1 * b0) < 1e-12 * scale:
            raise DegenerateBasis("basis vectors are collinear or zero")
        cross = u0 * v1 - u1 * v0
        if not 0.0 < abs(cross) < math.inf:
            # exact past the float range; imported on this error path only
            from decimal import Decimal
            exact = Decimal(u0) * Decimal(v1) - Decimal(u1) * Decimal(v0)
            raise InputError(f"basis covolume {abs(exact):.3g} lies outside "
                             "the float range")
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

    def __repr__(self):
        return f"LatticeBasis(u={self.u.tolist()}, v={self.v.tolist()})"


def _shape_modulus(basis: LatticeBasis) -> complex:
    """Shape modulus v/u of a basis (not reduced).

    An oriented basis has Im v/u > 0; a quotient that overflows, or whose
    imaginary part underflows below the normal floats (it would reduce to
    an infinite modulus), is an InputError naming the basis.
    """
    tau = complex(basis.v[0], basis.v[1]) / complex(basis.u[0], basis.u[1])
    if not (math.isfinite(tau.real) and sys.float_info.min <= tau.imag
            < math.inf):
        raise InputError(f"the shape modulus v/u of {basis} lies outside "
                         "the float range")
    return tau


def _green_nterms(b: float, ctl: SeriesControl) -> int:
    """Green q-series length at Im tau = b: the wrapped |Im z| <= b/2 makes
    the worst extra factor exp(pi b)."""
    return _nterms_for(b, ctl, extra=math.pi * b)


def dedekind_eta(tau: complex, ctl: SeriesControl = _DEFAULT_CTL) -> complex:
    """q^(1/24) * prod_{n>=1} (1 - q^n) with q = exp(2 i pi tau)."""
    tau = _require_upper(tau)
    n = _nterms_for(tau.imag, ctl)
    return (np.exp(2j * np.pi * tau / 24.0)
            * _eta_product(np.exp(2j * np.pi * tau), n))


def _tube_sq(basis: LatticeBasis, ds, dt):
    """Squared Cartesian lengths, on ``basis``, of the fractional differences
    (ds, dt), each wrapped to [-1/2, 1/2] first.

    This is the one test of where the Green function G is defined: a
    difference whose squared length is below SINGULAR_TUBE ** 2 lies in the
    singular tube around the lattice, where G and every quantity built on
    it raise.
    """
    ds = ds - np.rint(ds)
    dt = dt - np.rint(dt)
    (u0, u1), (v0, v1) = basis.u.tolist(), basis.v.tolist()
    x, y = u0 * ds + v0 * dt, u1 * ds + v1 * dt
    return x * x + y * y


def kronecker_f(z: complex, tau: complex, ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """Modulus of f(z, tau) = q^(1/12) (p^(1/2) - p^(-1/2)) prod (1-q^n p)(1-q^n/p).

    Only the absolute value is returned, as |f(s + t tau, tau)| =
    exp(pi b t^2 - G(s, t)) through the Green function G of the area-2pi
    torus, the mean-zero solution of -Delta G = 2 pi delta_0 - 1 (the
    quasi-periodicity of f is the pi b t^2 term).  G comes from one
    ``backend.green_values`` call with ``_green_nterms`` series terms at the
    fractional coordinates (s, t) of z = s + t tau.  It is exactly 0 on the
    lattice and raises LatticePointSingularity elsewhere in the singular
    tube of ``_tube_sq``, in the Cartesian units of that torus: the z-plane
    distance times sqrt(2 pi / b).
    """
    tau = _require_upper(tau)
    z = complex(z)
    t = z.imag / tau.imag
    s = z.real - t * tau.real
    if s.is_integer() and t.is_integer():
        return 0.0
    c = math.sqrt(2.0 * math.pi / tau.imag)
    torus = LatticeBasis((c, 0.0), (c * tau.real, c * tau.imag))
    if _tube_sq(torus, s, t) < SINGULAR_TUBE ** 2:
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
    """(u, v), the basis of the lattice of ``basis`` reduced by the tau word.

    With ((alpha, beta), (gamma, delta)) the word of ``_reduce_with_matrix``
    that takes tau = v/u into the fundamental domain, u' = delta u + gamma v
    and v' = beta u + alpha v span the same lattice with v'/u' reduced, so
    |u'.v'| <= |u'|^2 / 2 and |u'| <= |v'|.  A shape modulus outside the
    float range is an InputError naming ``basis``.
    """
    (a, b), (c, d) = _reduce_with_matrix(_shape_modulus(basis))[1]
    return d * basis.u + c * basis.v, b * basis.u + a * basis.v


def _enumerate_norms_sq(u: np.ndarray, v: np.ndarray, vol: float,
                        radius: float) -> np.ndarray:
    """Squared norms of all nonzero lattice points with |p| <= radius.

    (u, v) is a basis reduced by ``_reduced_basis``, of covolume ``vol``:
    its index window's coefficients stay small for every basis of the
    lattice, where a skewed basis's own would grow with the skew.
    """
    ki = int(math.ceil(radius * np.linalg.norm(v) / vol)) + 1
    kj = int(math.ceil(radius * np.linalg.norm(u) / vol)) + 1
    points = (2.0 * ki + 1.0) * (2.0 * kj + 1.0)
    if points > 64_000_000:
        raise PrecisionUnreachable(
            f"enumeration window of {points:.3g} lattice points too large; "
            "the q-series route (--route eta) takes such a modulus"
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


def _covering_radius_bound(u: np.ndarray, v: np.ndarray) -> float:
    """Half the longer diagonal of a basis (u, v) reduced by
    ``_reduced_basis``.

    Each point of a basis's cell lies within half the cell's longer
    diagonal of a corner, so every basis bounds the covering radius, a
    lattice invariant.  The reduced basis gives one small bound to all bases
    of a lattice, where a skewed basis's own diagonal can be many times
    longer.
    """
    return 0.5 * max(np.linalg.norm(u + v), np.linalg.norm(u - v))


def _tail_bound(rho: float, vol: float, alpha: float, radius: float) -> float:
    """Closed-form bound on the theta terms exp(-pi alpha |p|^2) dropped
    outside |p| <= radius, for a lattice of covolume ``vol`` whose covering
    radius is at most ``rho``.

    Voronoi-cell comparison with the radial Gaussian integral; valid when
    radius exceeds 2 rho (returns inf otherwise).
    """
    t0 = radius - 2.0 * rho
    if t0 <= 0.0:
        return math.inf
    return (2.0 * math.pi / vol) \
        * math.exp(-math.pi * alpha * t0 * t0) \
        * (1.0 + rho / t0) / (2.0 * math.pi * alpha)


def _gaussian_sum_support(u: np.ndarray, v: np.ndarray, vol: float,
                          alpha: float, ctl: SeriesControl):
    """Squared norms of the nonzero points that a sum with Gaussian weight
    exp(-pi alpha |p|^2) keeps, over the lattice of the reduced basis
    (u, v) (from ``_reduced_basis``) of covolume ``vol``, and the dropped
    Gaussian tail divided by the squared radius.

    The radius is in closed form: R = 2 rho + t0 with rho the
    covering-radius bound, eps = ctl.abs_tol V alpha,
    pi alpha t^2 = max(log(1 / eps), log 2) and
    pi alpha t0^2 = pi alpha t^2 + log(1 + rho / t).  As t0 >= t, the factor
    1 + rho / t0 of ``_tail_bound`` is at most 1 + rho / t, and
    exp(-pi alpha t0^2) = exp(-pi alpha t^2) / (1 + rho / t) is at most
    eps / (1 + rho / t), so the tail is at most eps / (V alpha) =
    ctl.abs_tol.  log(1 / eps) is a sum of logs, so a tol as small as the
    least subnormal float keeps R finite.  The returned tail bounds the
    dropped terms of a sum whose terms are at most
    exp(-pi alpha |p|^2) / |p|^2.
    """
    rho = _covering_radius_bound(u, v)
    log_1_over_eps = (-math.log(ctl.abs_tol) - math.log(vol)
                      - math.log(alpha))
    t_sq = max(log_1_over_eps, math.log(2.0)) / (math.pi * alpha)
    radius = 2.0 * rho + math.sqrt(
        t_sq + math.log1p(rho / math.sqrt(t_sq)) / (math.pi * alpha))
    tail = _tail_bound(rho, vol, alpha, radius) / (radius * radius)
    return _enumerate_norms_sq(u, v, vol, radius), tail


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
    alpha = positive("alpha", alpha)
    nsq, _ = _gaussian_sum_support(*_reduced_basis(basis), basis.covolume,
                                   alpha, ctl)
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
    u, v = _reduced_basis(basis)
    # K is L turned by 90 degrees and scaled by 2 pi / V, so the turned
    # reduced basis of L is a reduced basis of K
    s = 2.0 * math.pi / basis.covolume
    dual = LatticeBasis((-s * u[1], s * u[0]), (-s * v[1], s * v[0]))
    k_nsq, k_tail = _gaussian_sum_support(dual.u, dual.v, dual.covolume,
                                          eps / math.pi, ctl)
    p_nsq, p_tail = _gaussian_sum_support(u, v, basis.covolume,
                                          0.25 / (math.pi * eps), ctl)
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
