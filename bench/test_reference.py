"""Tests of the benchmark's independent references (no abrikosov import).

Run from the repository root:

    python3 -m pytest bench/test_reference.py -q
"""
import math

import numpy as np
import pytest

import reference as ref


def _eta_product(tau, terms=200):
    q = np.exp(2j * np.pi * tau)
    return np.exp(2j * np.pi * tau / 24.0) * np.prod(1.0 - q ** np.arange(1, terms))


@pytest.mark.parametrize("tau", [1j, ref.RHO, complex(0.3, 1.2),
                                 complex(-0.45, 0.9), complex(0.1, 3.0)])
def test_pentagonal_eta_equals_the_product(tau):
    assert abs(complex(ref.eta_pentagonal(tau)) - _eta_product(tau)) < 1e-15


def test_chowla_selberg_values_equal_the_series():
    assert abs(abs(complex(ref.eta_pentagonal(1j))) - ref.ETA_ABS_I) < 1e-15
    assert abs(abs(complex(ref.eta_pentagonal(ref.RHO))) - ref.ETA_ABS_RHO) < 1e-15
    assert ref.W_I == pytest.approx(float(ref.w_lattice(1j)), abs=1e-15)
    assert ref.W_RHO == pytest.approx(float(ref.w_lattice(ref.RHO)), abs=1e-15)
    # the square lattice lies above the triangular one by 0.0052922512583
    assert ref.W_I - ref.W_RHO == pytest.approx(0.0052922512583, abs=1e-13)


@pytest.mark.parametrize("tau", [complex(0.3, 1.2), complex(0.5, 0.9)])
def test_w_is_modular_invariant(tau):
    images = [tau, tau + 1.0, -1.0 / tau, -1.0 / (tau + 1.0), tau / (tau + 1.0)]
    w = ref.w_lattice(np.array(images))
    assert np.ptp(w) < 1e-13


def test_theta1_series_equals_the_triple_product():
    tau = complex(0.2, 1.1)
    q = np.exp(2j * np.pi * tau)
    n = np.arange(1, 80)
    for z in (0.13 + 0.07j, -0.4 + 0.3j, 0.25 - 0.5j):
        p = np.exp(2j * np.pi * z)
        prod = 2.0 * q ** 0.125 * np.sin(np.pi * z) * np.prod(
            (1 - q ** n) * (1 - q ** n * p) * (1 - q ** n / p))
        assert abs(complex(ref.theta1(z, tau)) - prod) < 1e-14


def _cart_green(x, y, tau):
    """G at Cartesian (x, y) on the area-2pi torus with periods (c, c tau)."""
    c = math.sqrt(2.0 * math.pi / tau.imag)
    t = y / (c * tau.imag)
    s = x / c - tau.real * t
    return ref.torus_green(s, t, tau)


@pytest.mark.parametrize("tau", [1j, ref.RHO, complex(0.0, math.sqrt(3.0))])
def test_green_is_periodic_even_and_harmonic_plus_one(tau):
    s, t = 0.31, -0.17
    g = ref.torus_green(s, t, tau)
    assert ref.torus_green(s + 1.0, t - 2.0, tau) == pytest.approx(g, abs=1e-13)
    assert ref.torus_green(-s, -t, tau) == pytest.approx(g, abs=1e-13)
    # -Delta G = 2 pi delta - 1, so Delta G = 1 away from the lattice
    x, y, h = 0.7, 0.4, 1e-3
    lap = (_cart_green(x + h, y, tau) + _cart_green(x - h, y, tau)
           + _cart_green(x, y + h, tau) + _cart_green(x, y - h, tau)
           - 4.0 * _cart_green(x, y, tau)) / (h * h)
    assert lap == pytest.approx(1.0, abs=1e-5)


def test_green_has_mean_zero():
    # midpoint rule at k and 2k points; the log singularity leaves an
    # O(k^-2) term that Richardson extrapolation removes
    tau = 1j

    def mean(k):
        mid = (np.arange(k) + 0.5) / k
        s, t = np.meshgrid(mid, mid)
        return float(np.mean(ref.torus_green(s.ravel(), t.ravel(), tau)))

    assert abs((4.0 * mean(256) - mean(128)) / 3.0) < 1e-5


def test_two_point_and_triangular_configurations_are_lattices():
    # {0, (1/2, 1/2)} on the square torus is the square lattice at density 2
    two = np.array([[0.0, 0.0], [0.5, 0.5]])
    assert ref.config_energy(two, 1j) == pytest.approx(
        ref.at_density(ref.W_I, 2.0), abs=1e-13)
    # 18 points in triangular order on the sqrt(3) torus: the triangular
    # lattice at density 18
    k = 3
    tri = np.array([(((i + 0.5 * j) / k) % 1.0, j / (2.0 * k))
                    for i in range(k) for j in range(2 * k)])
    tau = complex(0.0, math.sqrt(3.0))
    assert ref.config_energy(tri + 0.123, tau) == pytest.approx(
        ref.at_density(ref.W_RHO, 18.0), abs=1e-12)
    basis = np.diag([math.sqrt(2.0 * math.pi), math.sqrt(2.0 * math.pi)])
    assert np.max(np.abs(ref.config_grad_fd(two, basis))) < 1e-8


def test_fd_gradient_sums_to_zero_and_is_nonzero_off_minimum():
    rng = np.random.default_rng(5)
    pts = rng.random((6, 2))
    basis = np.diag([math.sqrt(2.0 * math.pi), math.sqrt(2.0 * math.pi)])
    g = ref.config_grad_fd(pts, basis)
    assert np.max(np.abs(g.sum(axis=0))) < 1e-8
    assert np.max(np.hypot(g[:, 0], g[:, 1])) > 1e-3


def test_disk_field_solves_the_radial_equation():
    assert ref.bessel_i0(1.0) == pytest.approx(float(np.i0(1.0)), rel=1e-15)
    assert float(ref.disk_field(1.0)) == 1.0
    r, h = np.linspace(0.1, 0.95, 9), 1e-4
    f = ref.disk_field
    rad = (f(r + h) - 2 * f(r) + f(r - h)) / h ** 2 \
        + (f(r + h) - f(r - h)) / (2 * h * r)
    assert np.max(np.abs(rad - f(r))) < 1e-6


def test_five_point_residual_of_a_quadratic():
    h = 0.1
    x = np.arange(-5, 6) * h
    xx, yy = np.meshgrid(x, x, indexing="ij")
    full = xx * xx + yy * yy
    interior = xx * xx + yy * yy < 0.3
    res, mask = ref.five_point_residual(full, interior, h)
    assert mask.any() and not np.any(mask & ~interior)
    # -Delta (x^2 + y^2) = -4 exactly on the five-point stencil
    assert np.max(np.abs(res[mask] - (full[mask] - 4.0))) < 1e-12
    assert np.all(res[~mask] == 0.0)
