"""Mathematics the benchmark checks the program's outputs against.

Nothing here imports ``abrikosov``.  Each reference uses a different formula
from the one the program evaluates, so agreement is evidence rather than one
computation repeated:

* the Dedekind eta function from Euler's pentagonal-number series (the
  program multiplies out the product ``prod (1 - q^n)``);
* the torus Green function from the Jacobi theta_1 series (the program sums
  logarithms of the triple product);
* W(i) and W(rho) from the Chowla-Selberg closed forms of |eta(i)| and
  |eta(rho)|, which involve only Gamma values;
* the unconstrained disk field from the modified Bessel function I_0 as a
  power series (the program relaxes a finite-difference system);
* the plain five-point residual of ``-Delta H + H`` on cells away from the
  boundary (the program uses Jacobi-scaled residuals with cut legs).

Conventions follow the program's documentation: a unit-density lattice of
shape tau has the per-point renormalized energy
``W(tau) = -1/2 log(sqrt(2 pi Im tau) |eta(tau)|^2)``, density m scales it to
``m (W(tau) - 1/4 log m)``, and the torus Green function lives on a flat
torus of area 2 pi with mean zero and ``-Delta G = 2 pi delta - 1``.
"""
from __future__ import annotations

import math

import numpy as np

RHO = complex(0.5, math.sqrt(3.0) / 2.0)

# |eta(i)| = Gamma(1/4) / (2 pi^(3/4))  and
# |eta(rho)| = 3^(1/8) Gamma(1/3)^(3/2) / (2 pi)   (Chowla-Selberg).
ETA_ABS_I = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
ETA_ABS_RHO = 3.0 ** 0.125 * math.gamma(1.0 / 3.0) ** 1.5 / (2.0 * math.pi)


def _w_from_eta_abs(eta_abs, b):
    return -0.5 * np.log(np.sqrt(2.0 * math.pi * b) * eta_abs * eta_abs)


W_I = float(_w_from_eta_abs(ETA_ABS_I, 1.0))
W_RHO = float(_w_from_eta_abs(ETA_ABS_RHO, RHO.imag))


def at_density(w_unit, m: float):
    """Per-point energy at density m from the unit-density value."""
    return m * (w_unit - 0.25 * math.log(m))


def eta_pentagonal(tau):
    """Dedekind eta by the pentagonal-number series, elementwise in tau.

    ``eta(tau) = q^(1/24) sum_k (-1)^k q^(k (3k - 1)/2)``, q = exp(2 pi i tau).
    Terms are dropped once ``|q|^(k (3k - 1)/2)`` is below 1e-19.
    """
    tau = np.asarray(tau, dtype=complex)
    b_min = float(np.min(tau.imag))
    if not b_min > 0.0:
        raise ValueError("eta needs Im tau > 0")
    kmax = int(math.ceil(math.sqrt(44.0 / (3.0 * math.pi * b_min)))) + 2
    k = np.arange(-kmax, kmax + 1, dtype=float)
    expo = k * (3.0 * k - 1.0) / 2.0
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    terms = sign * np.exp(2j * math.pi * np.multiply.outer(tau, expo))
    return np.exp(2j * math.pi * tau / 24.0) * terms.sum(axis=-1)


def w_lattice(tau, m: float = 1.0):
    """Per-point renormalized energy of the shape-tau lattice at density m.

    Modular invariant as written, so tau need not be reduced.
    """
    tau = np.asarray(tau, dtype=complex)
    w = _w_from_eta_abs(np.abs(eta_pentagonal(tau)), tau.imag)
    return at_density(w, m)


def theta1(z, tau: complex):
    """Jacobi theta_1 by its Fourier series, elementwise in z.

    ``theta_1(z|tau) = 2 sum_{n>=0} (-1)^n e^(i pi tau (n + 1/2)^2)
    sin((2n + 1) pi z)``.  With |Im z| <= Im(tau)/2 the n-th term is below
    ``exp(-pi b (n^2 - 1/4))``, so the sum stops once that is below 1e-19.
    """
    b = tau.imag
    nmax = int(math.ceil(math.sqrt(44.0 / (math.pi * b) + 0.25))) + 1
    n = np.arange(nmax + 1, dtype=float)
    sign = np.where(n % 2 == 0, 1.0, -1.0)
    coef = 2.0 * sign * np.exp(1j * math.pi * tau * (n + 0.5) ** 2)
    z = np.asarray(z, dtype=complex)
    return np.sum(coef * np.sin(np.multiply.outer(z, 2.0 * n + 1.0) * math.pi),
                  axis=-1)


def torus_green(ds, dt, tau: complex):
    """Green function of the area-2pi torus with periods (c, c tau).

    Arguments are fractional coordinates along the two periods; they are
    wrapped to [-1/2, 1/2] first.  ``G = -log|theta_1(z|tau)/eta(tau)|
    + pi Im(tau) t^2`` with ``z = s + t tau``.
    """
    s = np.asarray(ds, float) - np.rint(ds)
    t = np.asarray(dt, float) - np.rint(dt)
    z = s + t * tau
    log_eta = math.log(abs(complex(eta_pentagonal(tau))))
    return -np.log(np.abs(theta1(z, tau))) + log_eta + math.pi * tau.imag * t * t


def torus_tau(u, v) -> complex:
    """Shape tau = v/u of a torus whose first period lies on the x axis."""
    if abs(u[1]) > 1e-15 * abs(u[0]) or u[0] <= 0.0:
        raise ValueError("first period must point along +x")
    return complex(v[0], v[1]) / u[0]


def pair_sum(points, tau: complex) -> float:
    """Sum of G over unordered pairs of fractional points, shape (n, 2)."""
    pts = np.asarray(points, float)
    iu, ju = np.triu_indices(pts.shape[0], k=1)
    d = pts[iu] - pts[ju]
    return float(np.sum(torus_green(d[:, 0], d[:, 1], tau)))


def config_energy(points, tau: complex) -> float:
    """Total energy of n torus points: pair sum plus n W(tau)."""
    n = np.asarray(points).shape[0]
    return pair_sum(points, tau) + n * float(w_lattice(tau))


def config_grad_fd(points, basis, step: float = 1e-5) -> np.ndarray:
    """Cartesian energy gradient per point by central differences, (n, 2).

    ``basis`` has the periods as columns; a point's Cartesian position is
    ``basis @ (s, t)``, so the Cartesian gradient is the fractional one
    times the inverse basis.
    """
    pts = np.array(points, float)
    basis = np.asarray(basis, float)
    tau = torus_tau(basis[:, 0], basis[:, 1])
    gfrac = np.zeros_like(pts)
    for i in range(pts.shape[0]):
        for k in range(2):
            hi = pts.copy()
            lo = pts.copy()
            hi[i, k] += step
            lo[i, k] -= step
            gfrac[i, k] = (pair_sum(hi, tau) - pair_sum(lo, tau)) / (2.0 * step)
    return gfrac @ np.linalg.inv(basis)


def bessel_i0(x):
    """Modified Bessel function I_0 by its power series (|x| <= 2 here)."""
    x = np.asarray(x, float)
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 40):
        term = term * q / (k * k)
        total = total + term
    return total


def disk_field(r):
    """Solution of -Delta H + H = 0 on the unit disk with H = 1 on r = 1."""
    return bessel_i0(r) / bessel_i0(1.0)


def five_point_residual(full: np.ndarray, interior: np.ndarray, h: float):
    """``(4H - sum of neighbours)/h^2 + H`` on cells with four interior
    neighbours.

    ``full`` holds cell values on the whole rectangle, ``interior`` marks
    the unknowns.  Returns (residual, mask) as arrays over the rectangle,
    with the residual set to 0 outside the mask.
    """
    mask = np.zeros_like(interior)
    mask[1:-1, 1:-1] = (interior[1:-1, 1:-1]
                        & interior[2:, 1:-1] & interior[:-2, 1:-1]
                        & interior[1:-1, 2:] & interior[1:-1, :-2])
    res = np.zeros_like(full)
    lap = (4.0 * full[1:-1, 1:-1] - full[2:, 1:-1] - full[:-2, 1:-1]
           - full[1:-1, 2:] - full[1:-1, :-2]) / (h * h)
    res[1:-1, 1:-1] = lap + full[1:-1, 1:-1]
    res[~mask] = 0.0
    return res, mask
