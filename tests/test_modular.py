"""Oracle tests for the q-series / theta / zeta building blocks.

Every reference value here is either an exact closed form or an independent
brute-force summation implemented inline with a different algorithm than the
library's, with the previously computed value frozen as a literal.
"""

import cmath
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abrikosov import _eta, modular
from abrikosov.errors import (
    CovolumeMismatch,
    InputError,
    LatticePointSingularity,
    NonPositiveParameter,
    PrecisionUnreachable,
)
from abrikosov.modular import (
    LatticeBasis,
    SeriesControl,
    dedekind_eta,
    eta_truncation,
    kronecker_f,
    theta_lattice,
    zeta_difference_limit,
)
from abrikosov.lattice import shape_basis, w_eta
from abrikosov.modular import (
    _covering_radius_bound,
    _gaussian_sum_support,
    _reduced_basis,
    _tail_bound,
)
from abrikosov.torus import GreenEvaluator, TorusSpec

from references import TRI_TAU


# ---------------------------------------------------------------------------
# SeriesControl contract
# ---------------------------------------------------------------------------


def test_series_control_validation():
    for bad in (0.0, -1e-12, math.inf, math.nan):
        with pytest.raises(NonPositiveParameter):
            SeriesControl(abs_tol=bad)


def test_precision_unreachable_when_capped():
    # Im tau = 0.005 needs about 950 terms at the default abs_tol, past
    # MAX_SERIES_TERMS: it must raise, not silently truncate
    with pytest.raises(PrecisionUnreachable):
        dedekind_eta(complex(0.0, 0.005))
    assert np.isfinite(dedekind_eta(complex(0.0, 0.01)))


# ---------------------------------------------------------------------------
# Dedekind eta
# ---------------------------------------------------------------------------


def _eta_pentagonal(tau: complex, kmax: int = 80) -> complex:
    """Euler pentagonal-number series: a different algorithm than the product."""
    q = np.exp(2j * np.pi * tau)
    total = 0.0 + 0.0j
    for k in range(-kmax, kmax + 1):
        total += (-1) ** k * q ** (k * (3 * k - 1) // 2)
    return np.exp(2j * np.pi * tau / 24.0) * total


@pytest.mark.parametrize(
    "tau",
    [1j, TRI_TAU, complex(0.3, 0.9), complex(-0.44, 2.0), complex(0.05, 0.31)],
)
def test_eta_matches_pentagonal_series(tau):
    lib = dedekind_eta(tau)
    ref = _eta_pentagonal(tau)
    assert abs(lib - ref) < 1e-13


def _eta_loop(tau: complex, n: int) -> complex:
    """prod_{k=1..n} (1 - q^k), one modulus at a time."""
    q = cmath.exp(2j * math.pi * tau)
    qk, prod = q, 1.0 - q
    for _ in range(n - 1):
        qk *= q
        prod *= 1.0 - qk
    return prod


def test_eta_on_an_array_matches_the_scalar_loop():
    # the array route that runs: the scan's _w_unit takes the eta product over
    # a grid of moduli at the term count its smallest Im tau needs
    taus = [1j, TRI_TAU, complex(0.3, 0.9), complex(-0.44, 2.0),
            complex(0.05, 0.31)]
    n, _ = eta_truncation(complex(0.05, 0.31), SeriesControl(abs_tol=1e-13))
    q = np.exp(2j * np.pi * np.array(taus))
    lib = _eta._eta_product(q, n)
    ref = np.array([_eta_loop(t, n) for t in taus])
    assert lib.shape == (5,)
    # same recurrence; array and scalar complex arithmetic may round apart
    assert np.all(np.abs(lib - ref) <= 64 * np.finfo(float).eps * np.abs(ref))
    # on one complex it is the loop itself, and leaves an array q as it was
    assert [_eta._eta_product(cmath.exp(2j * math.pi * t), n)
            for t in taus] == ref.tolist()
    assert q.tolist() == np.exp(2j * np.pi * np.array(taus)).tolist()


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-0.5, 0.5), b=st.floats(1e-3, 1e307))
def test_cexp_has_the_bits_of_cmath_exp(a, b):
    z = 2j * math.pi * complex(a, b)
    assert _eta._cexp(z) == cmath.exp(z)


def test_eta_special_value_at_i():
    # eta(i) = Gamma(1/4) / (2 pi^(3/4)), an exact classical closed form
    ref = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
    val = dedekind_eta(1j)
    assert abs(val.imag) < 1e-15
    assert abs(val.real - ref) < 1e-13


def test_eta_truncation_reports_a_true_bound():
    tau = complex(0.1, 0.6)
    coarse = SeriesControl(abs_tol=1e-6)
    n, bound = eta_truncation(tau, coarse)
    assert n >= 1 and bound <= 1e-6
    drift = abs(dedekind_eta(tau, coarse) - dedekind_eta(tau, SeriesControl(abs_tol=1e-15)))
    assert drift <= bound + 1e-15


# ---------------------------------------------------------------------------
# Kronecker's f
# ---------------------------------------------------------------------------


def _abs_f_product(z: complex, tau: complex, nterms: int = 200) -> float:
    """Raw product |q^(1/12) (w^(1/2) - w^(-1/2)) prod (1-q^n w)(1-q^n/w)|."""
    q = np.exp(2j * np.pi * tau)
    w = np.exp(2j * np.pi * z)
    val = np.exp(2j * np.pi * tau / 12.0) * (np.exp(1j * np.pi * z) - np.exp(-1j * np.pi * z))
    for n in range(1, nterms + 1):
        val *= (1.0 - q ** n * w) * (1.0 - q ** n / w)
    return abs(val)


@pytest.mark.parametrize(
    "z,tau,frozen",
    [
        (0.5 + 0.0j, 1j, 1.1892071150027212),        # equals 2**0.25 exactly
        (0.3 + 0.2j, 1j, 1.2476449177578908),
        (0.25 + 0.1j, TRI_TAU, None),
        (-0.35 + 0.45j, complex(0.2, 1.3), None),
    ],
)
def test_kronecker_f_matches_raw_product(z, tau, frozen):
    lib = kronecker_f(z, tau)
    ref = _abs_f_product(z, tau)
    assert abs(lib - ref) < 1e-12
    if frozen is not None:
        assert abs(lib - frozen) < 1e-12


def test_kronecker_f_half_period_closed_form():
    assert abs(kronecker_f(0.5 + 0.0j, 1j) - 2.0 ** 0.25) < 1e-13


def test_kronecker_f_lattice_point_handling():
    assert kronecker_f(0.0j, 1j) == 0.0
    assert kronecker_f(complex(2.0, 1.0), complex(0.0, 1.0)) == 0.0  # z = 2 + tau
    with pytest.raises(LatticePointSingularity):
        kronecker_f(complex(1e-12, 0.0), 1j)


def test_kronecker_f_and_the_evaluator_share_one_singular_tube():
    # on the square torus z maps to the Cartesian x = sqrt(2 pi) z, so
    # z = 5e-10 lies 1.25e-9 from the lattice, outside the 1e-9 tube: both
    # routes give G there, and both raise at 1e-12
    ev = GreenEvaluator(TorusSpec.square())
    side = math.sqrt(2.0 * math.pi)
    g = ev.value([5e-10 * side, 0.0])
    assert abs(g - 20.10588) < 1e-5
    assert kronecker_f(5e-10, 1j) == pytest.approx(math.exp(-g), rel=1e-14)
    assert kronecker_f(2e-9, 1j) == math.exp(-ev.value([2e-9 * side, 0.0]))
    assert abs(kronecker_f(2e-9, 1j) - 7.4162987092054806e-09) < 1e-21
    with pytest.raises(LatticePointSingularity):
        kronecker_f(1e-12, 1j)
    with pytest.raises(LatticePointSingularity):
        ev.value([1e-12 * side, 0.0])


# ---------------------------------------------------------------------------
# Theta sums
# ---------------------------------------------------------------------------


def _theta_z2_direct(alpha: float, extent: int = 40) -> float:
    rng = np.arange(-extent, extent + 1)
    one_d = np.exp(-np.pi * alpha * rng * rng)
    total = float(np.sum(one_d)) ** 2
    return total


def test_theta_square_direct_values():
    basis = LatticeBasis([1.0, 0.0], [0.0, 1.0])
    assert abs(theta_lattice(basis, 1.0) - 1.1803405990160967) < 1e-13
    assert abs(theta_lattice(basis, 0.7) - 1.4935408686208191) < 1e-13
    for alpha in (0.45, 1.0, 1.7):
        assert abs(theta_lattice(basis, alpha) - _theta_z2_direct(alpha)) < 1e-12


def test_theta_poisson_duality_square():
    # Z^2 is self-dual: theta(alpha) = theta(1/alpha) / alpha
    basis = LatticeBasis([1.0, 0.0], [0.0, 1.0])
    for alpha in (0.7, 1.3):
        lhs = theta_lattice(basis, alpha)
        rhs = theta_lattice(basis, 1.0 / alpha) / alpha
        assert abs(lhs - rhs) < 1e-12


def _dual(basis):
    """Basis of the dual lattice: the inverse-transpose columns."""
    d = np.linalg.inv(basis.matrix).T
    return LatticeBasis(d[:, 0], d[:, 1])


def test_theta_poisson_duality_general():
    # theta_L(alpha) = (1 / (V alpha)) theta_{L*}(1 / alpha)
    basis = LatticeBasis([1.3, 0.1], [0.25, 0.9])
    dual = _dual(basis)
    vol = basis.covolume
    for alpha in (0.8, 1.5):
        lhs = theta_lattice(basis, alpha)
        rhs = theta_lattice(dual, 1.0 / alpha) / (vol * alpha)
        assert abs(lhs - rhs) < 1e-11


def test_theta_tail_bound_is_a_bound():
    basis = LatticeBasis([1.0, 0.2], [0.0, 1.1])
    alpha = 0.9
    val = theta_lattice(basis, alpha, SeriesControl(abs_tol=1e-10))
    ref = theta_lattice(basis, alpha, SeriesControl(abs_tol=1e-15))
    assert abs(val - ref) <= 1e-10 + 1e-15


def test_theta_rejects_nonpositive_alpha():
    basis = LatticeBasis([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(NonPositiveParameter):
        theta_lattice(basis, 0.0)
    with pytest.raises(NonPositiveParameter):
        theta_lattice(basis, -1.0)


def _support(basis, alpha, ctl):
    """The points a Gaussian sum over ``basis`` keeps, through the basis
    reduction every lattice sum makes."""
    return _gaussian_sum_support(*_reduced_basis(basis), basis.covolume,
                                 alpha, ctl)


def _theta_tail_bound(basis, alpha, radius):
    """The tail bound of the theta terms of ``basis`` outside ``radius``,
    at the covering-radius bound of its reduced basis, as every lattice sum
    takes it."""
    rho = _covering_radius_bound(*_reduced_basis(basis))
    return _tail_bound(rho, basis.covolume, alpha, radius)


def test_theta_tail_bound_shrinks_with_radius():
    basis = LatticeBasis([1.0, 0.0], [0.0, 1.0])
    b1 = _theta_tail_bound(basis, 1.0, 3.0)
    b2 = _theta_tail_bound(basis, 1.0, 5.0)
    assert 0.0 < b2 < b1


@pytest.mark.parametrize("tau", [1j, TRI_TAU, complex(0.1, 6.0),
                                 complex(-0.3, 1.4)])
@pytest.mark.parametrize("alpha", [1.0 / (2.0 * math.pi), 0.5, 4.0])
@pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-15])
def test_theta_radius_is_tight(tau, alpha, tol):
    # the radius R meets tol, and 1% less would not, nor would 1% less of
    # its gap R - 2 rho past twice the covering-radius bound: the closed
    # form gives up only log((1 + rho / t) / (1 + rho / t*)) in
    # pi alpha t0^2 against the smallest gap t* (a radius of 3 rho, taken
    # where rho exceeds the Gaussian width, fails them)
    basis = shape_basis(tau)
    with mock.patch.object(modular, "_enumerate_norms_sq",
                           wraps=modular._enumerate_norms_sq) as enumerate_:
        _support(basis, alpha, SeriesControl(abs_tol=tol))
    radius = enumerate_.call_args.args[3]
    rho = _covering_radius_bound(*_reduced_basis(basis))
    assert _theta_tail_bound(basis, alpha, radius) <= tol
    assert _theta_tail_bound(basis, alpha, 0.99 * radius) > tol
    gap = radius - 2.0 * rho
    assert _theta_tail_bound(basis, alpha, 2.0 * rho + 0.99 * gap) > tol


def test_basis_whose_shape_modulus_overflows_is_an_input_error():
    # covolume 1, but v/u = 1e400 i lies past the float range: each lattice
    # sum names the basis it was given
    bad = LatticeBasis((1e-200, 0.0), (0.0, 1e200))
    square = LatticeBasis((1.0, 0.0), (0.0, 1.0))
    calls = (lambda: theta_lattice(bad, 1.0),
             lambda: _theta_tail_bound(bad, 1.0, 5.0),
             lambda: zeta_difference_limit(square, bad),
             lambda: zeta_difference_limit(bad, square))
    for call in calls:
        with pytest.raises(InputError, match=re.escape(repr(bad))):
            call()


# ---------------------------------------------------------------------------
# The x -> 0 zeta difference limit
# ---------------------------------------------------------------------------


def test_zeta_difference_limit_square_vs_triangular():
    sq = shape_basis(1j)
    tri = shape_basis(TRI_TAU)
    got = zeta_difference_limit(sq, tri, SeriesControl(abs_tol=1e-12))
    assert abs(got - 0.005292251258250735) < 1e-12   # frozen
    # antisymmetry and the zero difference of a lattice with itself
    rev = zeta_difference_limit(tri, sq, SeriesControl(abs_tol=1e-12))
    assert abs(got + rev) < 1e-12
    same = zeta_difference_limit(sq, sq, SeriesControl(abs_tol=1e-12))
    assert abs(same) < 1e-13


_fundamental_tau = st.builds(
    lambda a, lift: complex(a, math.sqrt(1.0 - a * a) + lift),
    st.floats(-0.5, 0.5), st.floats(0.0, 2.0))


@settings(max_examples=40, deadline=None)
@given(tau1=_fundamental_tau, tau2=_fundamental_tau)
def test_zeta_difference_limit_is_the_eta_gap(tau1, tau2):
    got = zeta_difference_limit(shape_basis(tau1), shape_basis(tau2))
    assert abs(got - (w_eta(tau1).value - w_eta(tau2).value)) < 1e-13
    rev = zeta_difference_limit(shape_basis(tau2), shape_basis(tau1))
    assert abs(got + rev) < 1e-13


@settings(max_examples=40, deadline=None)
@given(tau=_fundamental_tau, k=st.integers(-3, 3))
def test_zeta_difference_limit_vanishes_on_unreduced_bases(tau, k):
    # tau + k and -1/tau are skewed bases of the same lattice
    base = shape_basis(tau)
    for image in (tau + k, -1.0 / tau):
        assert abs(zeta_difference_limit(base, shape_basis(image))) < 1e-13


@st.composite
def _sl2z_words(draw):
    """(a, b, c, d), integers of at most 50 in size with a d - b c = 1."""
    c, d = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    assume(math.gcd(c, d) == 1)
    if c == 0:
        return d, draw(st.integers(-50, 50)), c, d
    a = pow(d, -1, abs(c))              # a d = 1 mod c, 0 <= a < |c|
    return a, (a * d - 1) // c, c, d


# The image's basis vectors carry the rounding of sums with coefficients up
# to 50, which the reducing word, with entries up to 50 again, multiplies:
# a relative error of a few 50^2 ulp in each reduced vector.
_WORD_ROUNDING = 16 * 50 * 50 * 2.0 ** -52


@settings(max_examples=50, deadline=None)
@given(tau=_fundamental_tau, word=_sl2z_words())
def test_lattice_sums_are_invariant_under_a_change_of_basis(tau, word):
    a, b, c, d = word
    base = shape_basis(tau)
    image = LatticeBasis(d * base.u + c * base.v, b * base.u + a * base.v)
    u, v = _reduced_basis(image)
    # Lagrange-reduced, and an integer basis of the image's lattice
    assert abs(u @ v) <= (0.5 + _WORD_ROUNDING) * (u @ u)
    assert u @ u <= (1.0 + _WORD_ROUNDING) * (v @ v)
    coeffs = np.linalg.solve(image.matrix, np.column_stack([u, v]))
    whole = np.rint(coeffs)
    assert np.abs(coeffs - whole).max() < 1e-8
    assert round(np.linalg.det(whole)) == 1
    assert math.isclose(u[0] * v[1] - u[1] * v[0], base.covolume,
                        rel_tol=_WORD_ROUNDING)
    # each truncated sum is within tol of the lattice's own value
    tol = SeriesControl().abs_tol
    for alpha in (0.5 / math.pi, 1.0):
        want = theta_lattice(base, alpha)
        assert abs(theta_lattice(image, alpha) - want) \
            <= 2.0 * tol + _WORD_ROUNDING * want
    tri = shape_basis(TRI_TAU)
    assert abs(zeta_difference_limit(image, tri)
               - zeta_difference_limit(base, tri)) <= 2.0 * tol + _WORD_ROUNDING


def test_skewed_basis_keeps_the_reduced_support():
    # the covering-radius bound is the reduced basis's, so tau = i + 10 keeps
    # the points of tau = i (it kept 480 against 20 with its own diagonal)
    square, skewed = shape_basis(1j), shape_basis(1j + 10)
    for alpha in (1.0, 0.5 / math.pi):
        kept = [_support(lat, alpha, SeriesControl())[0].size
                for lat in (square, skewed)]
        assert kept[0] == kept[1]
        assert abs(theta_lattice(square, alpha)
                   - theta_lattice(skewed, alpha)) < 1e-15
    tri = shape_basis(TRI_TAU)
    assert abs(zeta_difference_limit(square, tri)
               - zeta_difference_limit(skewed, tri)) < 1e-15


@pytest.mark.parametrize("skew", [10, 100, -100])
def test_skewed_basis_enumerates_the_reduced_window(skew):
    # the index window is the reduced basis's: the 81 pairs that tau = i
    # scans, where tau = i + 100's own basis took 4,653
    norms, windows = [], []
    for lat in (shape_basis(1j), shape_basis(1j + skew)):
        with mock.patch.object(np, "meshgrid", wraps=np.meshgrid) as grid:
            norms.append(np.sort(_support(lat, 1.0, SeriesControl())[0]))
        windows.append(grid.call_args.args[0].size
                       * grid.call_args.args[1].size)
    assert norms[0].size == 20
    assert norms[0].tobytes() == norms[1].tobytes()
    assert windows[0] == windows[1] == 81


def test_zeta_difference_rejects_covolume_mismatch():
    sq = shape_basis(1j)
    small = shape_basis(1j, 1.0)
    with pytest.raises(CovolumeMismatch):
        zeta_difference_limit(sq, small)


def test_lattice_basis_contract():
    from abrikosov.errors import DegenerateBasis

    with pytest.raises(DegenerateBasis):
        LatticeBasis([1.0, 0.0], [2.0, 0.0])
    with pytest.raises(DegenerateBasis):
        LatticeBasis([0.0, 0.0], [1.0, 0.0])
    flipped = LatticeBasis([1.0, 0.0], [0.0, -1.0])  # orientation normalized
    assert flipped.covolume > 0
    basis = LatticeBasis([2.0, 0.0], [0.5, 1.5])
    dual = _dual(basis)
    assert abs(basis.covolume * dual.covolume - 1.0) < 1e-14
    prod = basis.matrix.T @ dual.matrix
    assert np.allclose(prod, np.eye(2), atol=1e-14)
