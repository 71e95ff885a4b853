"""References the tests share: closed forms, lattice sums, per-term loops
and finite differences that share no code with the solver, and the constants
several test files use.  Of the package they take only ``modular._exp1``,
which ``test_lattice.py`` checks against table values.
"""

import math

import numpy as np

from abrikosov.modular import _exp1

SQRT3 = math.sqrt(3.0)
TRI_TAU = complex(0.5, 0.5 * SQRT3)
TWO_PI = 2.0 * math.pi


def bessel_i0(x: float) -> float:
    """Modified Bessel I0 by its power series: sum ((x/2)^2k) / (k!)^2."""
    term, total, k = 1.0, 1.0, 0
    z = 0.25 * x * x
    while term > 1e-18:
        k += 1
        term *= z / (k * k)
        total += term
    return total


H0_BAR = 1.0 / bessel_i0(1.0)          # radial closed form of the disk minimum


def ewald_green(basis, x, eps=0.5):
    """Ewald form of the area-2pi torus Green function at x != 0, from lattice
    sums alone:  H(x) = sum_{k != 0} exp(-eps |k|^2) cos(k.x) / |k|^2
    + 1/2 sum_p E1(|x - p|^2 / (4 eps)) - eps, over the dual K (k.p in 2 pi Z)
    and the lattice L of ``basis``.  The basis must be reduced and x near the
    origin, so a fixed index window holds every term above rounding."""
    n = np.stack(np.meshgrid(np.arange(-10, 11), np.arange(-10, 11))).reshape(2, -1)
    n = n[:, np.any(n != 0, axis=0)]
    k = (TWO_PI * np.linalg.inv(basis.matrix).T @ n).T
    ksq = np.sum(k * k, axis=1)
    d = x - np.vstack([(basis.matrix @ n).T, [0.0, 0.0]])
    return (np.sum(np.exp(-eps * ksq) * np.cos(k @ x) / ksq)
            + 0.5 * np.sum(_exp1(np.sum(d * d, axis=1) / (4.0 * eps))) - eps)


def green_setup(ds, dt, a, b):
    """tau, q, the wrapped t, w = exp(i pi z) and p = w^2."""
    tau = complex(a, b)
    q = np.exp(2j * np.pi * tau)
    s = ds - np.rint(ds)
    t = dt - np.rint(dt)
    z = s + t * tau
    w = np.exp(1j * np.pi * z)
    return tau, q, t, w, w * w


def loop_grads(ds, dt, a, b, nterms):
    """2 dG/dz and 4 d2G/dz2 from the unpaired terms of L and L', then L
    and L' themselves."""
    tau, q, t, w, p = green_setup(ds, dt, a, b)
    lsum = np.pi * 1j * (p + 1.0) / (p - 1.0)
    dl = p / (p - 1.0) ** 2
    qn = complex(1.0, 0.0)
    for _ in range(nterms):
        qn = qn * q
        u = qn / p
        v = qn * p
        lsum = lsum + 2j * np.pi * (u / (1.0 - u) - v / (1.0 - v))
        dl = dl + u / (1.0 - u) ** 2 + v / (1.0 - v) ** 2
    dl = 4.0 * np.pi * np.pi * dl
    return -(lsum + 2j * np.pi * t), -2.0 * (dl + np.pi / b), lsum, dl


def unpaired_gaps(ds, dt, a, b, nterms, lsum, dl):
    """Bounds on |L - L_loop| and |L' - L'_loop|, the paired kernels'
    series against the unpaired loop's ``lsum`` and ``dl``, from per-term
    rounding (derived in ``test_backend.py``)."""
    u = 2.0 ** -53
    _, q, _, _, p = green_setup(ds, dt, a, b)
    n = np.arange(1, nterms + 1)[:, None]
    mu = (abs(q) ** n * (np.abs(p) + 1.0 / np.abs(p))).sum(axis=0)
    mu2 = 4.0 * (mu + 4.0 * (abs(q) ** (2 * n)).sum(axis=0))
    per_term = (2 * nterms + 200) * u
    d_l = 2.0 * np.pi * per_term * mu + (nterms + 4) * u * np.abs(lsum)
    d_dl = 4.0 * np.pi ** 2 * per_term * mu2 + (2 * nterms + 4) * u * np.abs(dl)
    return d_l, d_dl


def central_differences(f, pts, inv, eps=1e-6):
    """Central differences of f(points) along each Cartesian axis k of each
    point i, shape (n, 2) + f's shape: the step eps e_k reaches the points'
    coordinates as ``inv @ (eps e_k)``."""
    diffs = []
    for i in range(len(pts)):
        for k in range(2):
            dx = np.zeros(2)
            dx[k] = eps
            dfrac = inv @ dx
            up, dn = pts.copy(), pts.copy()
            up[i] += dfrac
            dn[i] -= dfrac
            diffs.append((f(up) - f(dn)) / (2 * eps))
    return np.reshape(diffs, (len(pts), 2) + np.shape(diffs[0]))
