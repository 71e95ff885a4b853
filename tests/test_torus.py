"""Tests of the torus layer: Green function, configuration energy, search.

Exact anchors: the half-period Green value on the square torus is
-(1/2) log 2; an n-point fine-lattice configuration reproduces the
closed-form shape energy at density n; gradients vanish at those critical
points and always sum to zero by translation invariance.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abrikosov import backend, torus

from abrikosov.errors import (
    CoincidentPoints,
    InputError,
    LatticePointSingularity,
    NonPositiveParameter,
    VolumeNotNormalized,
)
from abrikosov.lattice import shape_basis, w_eta
from abrikosov.modular import LatticeBasis, SeriesControl, _exp1
from abrikosov.torus import (
    GreenEvaluator,
    MinimizeControl,
    TorusConfig,
    TorusSpec,
    config_energy,
    config_grad,
    conjecture1_probe,
    elkies_experiment,
    minimize_config,
    triangular_embedding,
)
from test_backend import _loop_grads, _unpaired_gaps

SQRT3 = math.sqrt(3.0)
TRI_TAU = complex(0.5, 0.5 * SQRT3)
TWO_PI = 2.0 * math.pi


def _green_grad(ev, x):
    """Cartesian gradient of G at x: the first point's energy gradient of
    the two-point configuration at x and 0."""
    frac = np.linalg.solve(ev.torus.basis.matrix, x)
    return config_grad(TorusConfig(ev.torus, [frac, [0.0, 0.0]]), ev)[0]


def _shape_torus(a, b):
    """The area-2pi torus with basis (c, 0), (c a, c b), where c^2 b = 2 pi."""
    c = math.sqrt(TWO_PI / b)
    return TorusSpec(LatticeBasis([c, 0.0], [c * a, c * b]))


# ---------------------------------------------------------------------------
# Torus and configuration containers
# ---------------------------------------------------------------------------


def test_torus_factories_are_normalized():
    for spec in (TorusSpec.square(), TorusSpec.hexagonal(),
                 TorusSpec.rectangular(SQRT3)):
        assert abs(spec.volume - TWO_PI) < 1e-12
        assert spec.is_normalized
    small = TorusSpec(shape_basis(1j, 1.0))
    assert abs(small.volume - 1.0) < 1e-12
    assert not small.is_normalized


def test_torus_factories_use_shape_basis():
    c = math.sqrt(TWO_PI / SQRT3)
    h = math.sqrt(TWO_PI / TRI_TAU.imag)
    cases = [
        (TorusSpec.square(), 1j,
         ([math.sqrt(TWO_PI), 0.0], [0.0, math.sqrt(TWO_PI)])),
        (TorusSpec.hexagonal(), TRI_TAU,
         ([h, 0.0], [0.5 * h, TRI_TAU.imag * h])),
        (TorusSpec.rectangular(SQRT3), complex(0.0, SQRT3),
         ([c, 0.0], [0.0, c * SQRT3])),
    ]
    for spec, tau, (u, v) in cases:
        basis = shape_basis(tau)
        assert np.array_equal(spec.basis.u, basis.u)
        assert np.array_equal(spec.basis.v, basis.v)
        # the closed forms the factories were once written out as
        assert np.array_equal(spec.basis.u, u)
        assert np.array_equal(spec.basis.v, v)


def test_config_wraps_fractional_coordinates():
    cfg = TorusConfig(TorusSpec.square(), [[1.2, -0.3], [0.5, 0.5]])
    assert np.allclose(cfg.points[0], [0.2, 0.7])
    assert cfg.n == 2


def test_config_rejects_coincident_points():
    with pytest.raises(CoincidentPoints):
        TorusConfig(TorusSpec.square(), [[0.1, 0.2], [0.1, 0.2]])
    with pytest.raises(CoincidentPoints):
        # coincident after wrapping
        TorusConfig(TorusSpec.square(), [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(NonPositiveParameter):
        TorusConfig(TorusSpec.square(), np.empty((0, 2)))


def test_config_rejects_points_in_the_singular_tube():
    # covolume 2 pi, shape tau = 2 pi i after reduction, but a fractional
    # step of 1e-7, above SEPARATION_EPS, along the basis's smallest
    # singular direction moves 6.3e-10, inside the 1e-9 tube: the config
    # must refuse the pair, as config_energy would
    spec = TorusSpec(LatticeBasis((1.0, 0.0), (1000.0, TWO_PI)))
    assert spec.is_normalized
    assert GreenEvaluator(spec).tau == pytest.approx(TWO_PI * 1j)
    _, sigma, vt = np.linalg.svd(spec.basis.matrix)
    step = 1e-7 * vt[-1]
    assert np.linalg.norm(step) > torus.SEPARATION_EPS
    assert 6e-10 < np.linalg.norm(spec.basis.matrix @ step) < 1e-9
    with pytest.raises(CoincidentPoints, match="singular tube"):
        TorusConfig(spec, [[0.3, 0.4], [0.3 + step[0], 0.4 + step[1]]])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), a=st.floats(-3.0, 3.0), b=st.floats(0.3, 1.5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_config_energy_is_translation_and_permutation_invariant(n, a, b, seed):
    spec = _shape_torus(a, b)
    rng = np.random.default_rng(seed)
    pts = torus._random_start(n, rng)
    ev = GreenEvaluator(spec)
    energy = config_energy(TorusConfig(spec, pts), ev)
    shift = rng.random(2)
    shifted = config_energy(TorusConfig(spec, pts + shift), ev)
    permuted = config_energy(TorusConfig(spec, pts[rng.permutation(n)]), ev)
    # pairs sit at least 1e-4 apart, where rounding the shifted
    # differences moves G by about 1e-12
    assert abs(shifted - energy) < 1e-9
    assert abs(permuted - energy) < 1e-9


# ---------------------------------------------------------------------------
# Green function values
# ---------------------------------------------------------------------------


def test_green_half_period_closed_form():
    ev = GreenEvaluator(TorusSpec.square())
    side = math.sqrt(TWO_PI)
    val = ev.value([0.5 * side, 0.5 * side])
    assert abs(val - (-0.5 * math.log(2.0))) < 1e-12


def test_green_symmetry_and_values_frac():
    ev = GreenEvaluator(TorusSpec.hexagonal())
    xs = np.array([[0.4, 0.7], [-1.1, 0.35], [2.0, -0.6]])
    frac = np.linalg.solve(ev.torus.basis.matrix, xs.T)
    vals = ev._values_frac(frac[0], frac[1])
    for x, v in zip(xs, vals):
        assert abs(ev.value(x) - v) < 1e-14
        assert abs(ev.value(-x) - v) < 1e-12   # even kernel


def test_green_periodicity():
    spec = TorusSpec.rectangular(SQRT3)
    ev = GreenEvaluator(spec)
    x = np.array([0.31, 0.17])
    for shift in (spec.basis.u, spec.basis.v, spec.basis.u + 2 * spec.basis.v):
        assert abs(ev.value(x + shift) - ev.value(x)) < 1e-11


def test_green_near_origin_log_singularity():
    # G(x) + log|x| stays bounded and tends to twice the shape energy
    ev = GreenEvaluator(TorusSpec.square())
    r = 1e-4
    val = ev.value(np.array([r, 0.0])) + math.log(r)
    assert abs(0.5 * val - w_eta(1j).value) < 1e-7


def test_green_rejects_lattice_points():
    ev = GreenEvaluator(TorusSpec.square())
    with pytest.raises(LatticePointSingularity):
        ev.value(np.zeros(2))
    side = math.sqrt(TWO_PI)
    with pytest.raises(LatticePointSingularity):
        ev.value(np.array([side, 2.0 * side]))


def test_green_same_lattice_different_basis():
    # an unreduced basis of the same torus must give the same Green function
    side = math.sqrt(TWO_PI)
    plain = TorusSpec.square()
    sheared = TorusSpec(LatticeBasis([side, 0.0], [side, side]))
    ev1 = GreenEvaluator(plain)
    ev2 = GreenEvaluator(sheared)
    for x in ([0.4, 0.9], [-0.8, 0.33], [1.9, 1.9]):
        x = np.asarray(x, dtype=float)
        assert abs(ev1.value(x) - ev2.value(x)) < 1e-11
        assert np.allclose(_green_grad(ev1, x), _green_grad(ev2, x),
                           atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-3.0, 3.0), b=st.floats(0.3, 1.5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_green_is_modular_invariant(a, b, seed):
    # the evaluator reduces the modulus and maps fractional coordinates by
    # an integer matrix; the kernel summed directly at the unreduced modulus,
    # to 200 terms, must be the same function
    spec = _shape_torus(a, b)
    frac = np.random.default_rng(seed).random((16, 2))
    direct = backend.green_values(frac[:, 0], frac[:, 1], a, b, 200)
    got = GreenEvaluator(spec)._values_frac(frac[:, 0], frac[:, 1])
    assert np.max(np.abs(got - direct)) < 1e-12


def _ewald_green(basis, x, eps=0.5):
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


def test_green_matches_ewald_on_unreduced_bases():
    # GreenEvaluator reduces the shape and maps fractional coordinates through
    # coord_map before the q-series; the Ewald sums see only the lattice
    rng = np.random.default_rng(7)
    gens = (np.array([[1, 1], [0, 1]]), np.array([[1, -1], [0, 1]]),
            np.array([[0, -1], [1, 0]]))
    worst = 0.0
    for _ in range(200):
        a = rng.uniform(-0.5, 0.5)
        tau = complex(a, rng.uniform(math.sqrt(1.0 - a * a), 2.5))
        turn = rng.uniform(0.0, TWO_PI)
        rot = np.array([[math.cos(turn), -math.sin(turn)],
                        [math.sin(turn), math.cos(turn)]])
        reduced = rot @ shape_basis(tau).matrix
        word = np.eye(2, dtype=int)
        for g in rng.integers(0, 3, rng.integers(2, 7)):
            word = word @ gens[g]
        b = reduced @ word
        ev = GreenEvaluator(TorusSpec(LatticeBasis(b[:, 0], b[:, 1])))
        x = b @ (rng.random(2) + rng.integers(-2, 3, 2))
        frac = np.linalg.solve(reduced, x)
        x0 = reduced @ (frac - np.rint(frac))
        if np.hypot(*x0) < 1e-3:
            continue
        ref = _ewald_green(LatticeBasis(reduced[:, 0], reduced[:, 1]), x0)
        worst = max(worst, abs(ev.value(x) - ref))
    assert worst < 1e-12


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-3.0, 3.0), b=st.floats(0.3, 1.5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(a=2.3, b=0.8, seed=0)
def test_green_is_even(a, b, seed):
    # most of these moduli reduce through a non-identity coord_map
    spec = _shape_torus(a, b)
    s, t = np.random.default_rng(seed).uniform(0.01, 0.99, (16, 2)).T
    ev = GreenEvaluator(spec)
    assert np.max(np.abs(ev._values_frac(s, t) - ev._values_frac(-s, -t))) \
        < 1e-11


@pytest.mark.parametrize("spec", [
    TorusSpec.square(), TorusSpec.hexagonal(), _shape_torus(2.3, 0.8),
], ids=["square", "hex", "sheared"])
def test_green_has_mean_zero(spec):
    # the midpoint rule carries an O(k^-2) term from the log singularity;
    # Richardson between k = 64 and 128 removes it, a constant offset stays
    ev = GreenEvaluator(spec)

    def mean(k):
        mids = (np.arange(k) + 0.5) / k
        ss, tt = np.meshgrid(mids, mids, indexing="ij")
        return float(np.mean(ev._values_frac(ss, tt)))

    assert abs(4.0 * mean(128) - mean(64)) / 3.0 < 1e-8


def test_green_series_length_follows_series_control():
    # counts at abs_tol 1e-12 and 1e-6: the smallest n with
    # exp(-2 pi b n + pi b) below abs_tol / 10, plus 2
    for spec, counts in ((TorusSpec.square(), (8, 6)),
                         (TorusSpec.hexagonal(), (9, 6)),
                         (TorusSpec.rectangular(SQRT3), (6, 4)),
                         (_shape_torus(2.3, 0.8), (7, 5))):
        assert GreenEvaluator(spec).nterms == counts[0]
        assert GreenEvaluator(spec, SeriesControl(abs_tol=1e-6)).nterms \
            == counts[1]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), a=st.floats(-3.0, 3.0), b=st.floats(0.3, 1.5),
       seed=st.integers(0, 2 ** 32 - 1),
       tol=st.sampled_from([SeriesControl().abs_tol, 1e-6, 1e-3]))
def test_series_error_estimates_bound_truncation(n, a, b, seed, tol):
    # the error estimate minimize_config reports (abs_tol per pair plus the
    # eta tail per point) must cover what 16 more q-series terms change.
    # At the default abs_tol the two energies agree to the bit; the looser
    # tolerances leave gaps of up to about 1e-12 to measure
    spec = _shape_torus(a, b)
    pts = torus._random_start(n, np.random.default_rng(seed))
    cfg = TorusConfig(spec, pts)
    ctl = SeriesControl(abs_tol=tol)
    ev = GreenEvaluator(spec, ctl)
    finer = GreenEvaluator(spec, ctl)
    finer.nterms += 16
    gap = abs(config_energy(cfg, ev) - config_energy(cfg, finer))
    estimate = (n * (n - 1) / 2 * ctl.abs_tol
                + n * w_eta(ev.tau, 1.0, ctl).error_estimate)
    assert gap <= estimate


def test_config_energy_adds_the_self_term_at_the_evaluators_control():
    # an evaluator built at a coarse control sums the pairs and the lattice
    # self-term at that control, not the self-term at the default one
    spec = TorusSpec.hexagonal()
    cfg = TorusConfig(spec, [[0.1, 0.2], [0.6, 0.5], [0.3, 0.8]])
    coarse = SeriesControl(abs_tol=1e-3)
    ev = GreenEvaluator(spec, coarse)
    self_term = w_eta(ev.tau, 1.0, coarse).value
    assert self_term != w_eta(ev.tau).value
    pairs = float(torus._pair_energy(ev, cfg.points[None])[0])
    assert config_energy(cfg, ev) == pairs + cfg.n * self_term


def test_green_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    for spec in (TorusSpec.square(), TorusSpec.hexagonal()):
        ev = GreenEvaluator(spec)
        for _ in range(3):
            x = rng.uniform(0.3, 1.2, size=2)
            g = _green_grad(ev, x)
            eps = 1e-6
            for k in range(2):
                dx = np.zeros(2)
                dx[k] = eps
                fd = (ev.value(x + dx) - ev.value(x - dx)) / (2.0 * eps)
                assert abs(g[k] - fd) < 1e-7


# ---------------------------------------------------------------------------
# Configuration energy: exact fine-lattice embeddings
# ---------------------------------------------------------------------------


def test_two_point_centered_square_matches_closed_form():
    cfg = TorusConfig(TorusSpec.square(), [[0.0, 0.0], [0.5, 0.5]])
    expected = w_eta(1j, m=2.0).value
    assert abs(config_energy(cfg) - expected) < 1e-12
    g = config_grad(cfg)
    assert np.max(np.abs(g)) < 1e-12  # critical point


def test_hexagonal_embedding_matches_closed_form():
    kind, torus, pts = triangular_embedding(4)
    assert kind == "triangular-hex"
    assert abs(torus.basis.covolume - TWO_PI) < 1e-12
    cfg = TorusConfig(torus, pts)
    expected = w_eta(TRI_TAU, m=4.0).value
    assert abs(config_energy(cfg) - expected) < 1e-11
    assert np.max(np.abs(config_grad(cfg))) < 1e-11


def test_rectangular_embedding_matches_closed_form():
    kind, torus, pts = triangular_embedding(2)
    assert kind == "triangular-rect"
    cfg = TorusConfig(torus, pts)
    expected = w_eta(TRI_TAU, m=2.0).value
    assert abs(config_energy(cfg) - expected) < 1e-11
    _, torus8, pts8 = triangular_embedding(8)
    cfg8 = TorusConfig(torus8, pts8)
    expected8 = w_eta(TRI_TAU, m=8.0).value
    assert abs(config_energy(cfg8) - expected8) < 1e-10


def test_triangular_embedding_families():
    assert triangular_embedding(3) is None
    assert triangular_embedding(5) is None
    assert triangular_embedding(6) is None
    for n in (1, 4, 9, 16, 36):
        kind, torus, pts = triangular_embedding(n)
        assert kind == "triangular-hex" and pts.shape == (n, 2)
    for n in (2, 8, 18, 32):
        kind, torus, pts = triangular_embedding(n)
        assert kind == "triangular-rect" and pts.shape == (n, 2)
    with pytest.raises(NonPositiveParameter):
        triangular_embedding(0)


def test_config_energy_requires_normalized_volume():
    spec = TorusSpec(shape_basis(1j, 1.0))
    cfg = TorusConfig(spec, [[0.0, 0.0], [0.5, 0.5]])
    with pytest.raises(VolumeNotNormalized):
        config_energy(cfg)


def test_config_grad_sums_to_zero():
    rng = np.random.default_rng(5)
    for n in (2, 4, 7):
        cfg = TorusConfig(TorusSpec.hexagonal(), rng.random((n, 2)))
        g = config_grad(cfg)
        assert g.shape == (n, 2)
        assert np.max(np.abs(g.sum(axis=0))) < 1e-12


def test_gradient_scatter_equals_pair_loop():
    # each coordinate sums its pair terms in order: first the pairs where
    # its point is i, then those where it is j
    ev = GreenEvaluator(_sheared_square())
    rng = np.random.default_rng(7)
    for n in (2, 4, 7):
        stack = rng.random((3, n, 2))
        g, _ = ev._derivs_frac(*torus._pair_seps(stack))
        g = np.stack([g.real, -g.imag], axis=-1)     # (G_x, G_y) per pair
        iu, ju = np.triu_indices(n, k=1)
        grad = torus._pair_derivs(ev, stack)[0]
        for c in range(3):
            ref = np.zeros((n, 2))
            for p, i in enumerate(iu):
                ref[i] += g[c, p]
            for p, j in enumerate(ju):
                ref[j] -= g[c, p]
            assert np.array_equal(grad[c], ref)


def test_config_grad_matches_energy_differences():
    rng = np.random.default_rng(9)
    spec = TorusSpec.square()
    pts = rng.random((3, 2))
    cfg = TorusConfig(spec, pts)
    g = config_grad(cfg)
    inv = np.linalg.inv(spec.basis.matrix)
    eps = 1e-6
    for i in range(3):
        for k in range(2):
            dx = np.zeros(2)
            dx[k] = eps
            dfrac = inv @ dx
            up = pts.copy()
            up[i] += dfrac
            dn = pts.copy()
            dn[i] -= dfrac
            fd = (config_energy(TorusConfig(spec, up))
                  - config_energy(TorusConfig(spec, dn))) / (2.0 * eps)
            assert abs(g[i, k] - fd) < 2e-6


# ---------------------------------------------------------------------------
# Configuration Hessian
# ---------------------------------------------------------------------------


def _sheared_square():
    side = math.sqrt(TWO_PI)
    return TorusSpec(LatticeBasis([side, 0.0], [side, side]))


@pytest.mark.parametrize("spec, reduced", [
    (TorusSpec.square(), False), (TorusSpec.hexagonal(), False),
    (TorusSpec.rectangular(SQRT3), False), (_sheared_square(), True),
], ids=["square", "hex", "rect-sqrt3", "sheared"])
def test_hessian_matches_gradient_differences(spec, reduced):
    ev = GreenEvaluator(spec)
    # the sheared basis reaches the kernel through a non-identity coord_map
    assert reduced == (not np.array_equal(ev.coord_map, np.eye(2)))
    rng = np.random.default_rng(11)
    pts = rng.random((4, 2))
    hess = torus._pair_hessian(torus._pair_derivs(ev, pts)[1], 4)
    inv = np.linalg.inv(spec.basis.matrix)
    eps = 1e-6
    for col in range(8):
        i, k = divmod(col, 2)
        dfrac = inv[:, k] * eps
        up, dn = pts.copy(), pts.copy()
        up[i] += dfrac
        dn[i] -= dfrac
        fd = (config_grad(TorusConfig(spec, up), ev)
              - config_grad(TorusConfig(spec, dn), ev)).ravel() / (2.0 * eps)
        assert np.max(np.abs(hess[:, col] - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), a=st.floats(-0.5, 0.5), b=st.floats(0.7, 2.5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hessian_symmetric_and_translation_free(n, a, b, seed):
    spec = _shape_torus(a, b)
    pts = np.random.default_rng(seed).random((n, 2))
    kappa = torus._pair_derivs(GreenEvaluator(spec), pts)[1]
    hess = torus._pair_hessian(kappa, n)
    scale = np.max(np.abs(hess))
    assert np.max(np.abs(hess - hess.T)) <= 1e-12 * scale
    shift = np.zeros((2 * n, 2))
    shift[0::2, 0] = shift[1::2, 1] = 1.0
    assert np.max(np.abs(hess @ shift)) <= 1e-12 * n * scale
    # Delta G = 1 off the lattice, and each of the n(n - 1)/2 pairs puts
    # its Laplacian into the diagonal blocks of both its points
    assert abs(np.trace(hess) - n * (n - 1)) <= 1e-12 * n * scale


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), a=st.floats(-3.0, 3.0), b=st.floats(0.3, 1.5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hessian_quarter_turn_sum_is_the_laplacian(n, a, b, seed):
    # Every pair block is I/2 + T(kappa)/2, trace 1 by construction, so H =
    # (n/2) I - (1 1^T (x) I_2)/2 - T(C)/2 with C symmetric, kappa_ij off
    # the diagonal and zero row sums.  The test reads C back from H's
    # quarters (Re C = H_yy - H_xx, Im C = -(H_xy + H_yx)).  The quarter
    # turn R gives R T(c) R^T = -T(c), so with J = I_n (x) R and P the
    # translation projector, J H J^T + H = n (I - P): the spectrum on the
    # zero-mean moves pairs lambda with n - lambda.  That checks the
    # layout: which quarter holds which part, and with which sign.
    spec = _shape_torus(a, b)
    pts = torus._random_start(n, np.random.default_rng(seed))
    kappa = torus._pair_derivs(GreenEvaluator(spec), pts)[1]
    hess = torus._pair_hessian(kappa, n)
    c = (hess[1::2, 1::2] - hess[0::2, 0::2]) - 1j * (hess[0::2, 1::2]
                                                      + hess[1::2, 0::2])
    # each H entry rounds once from C/2 and its base, a diagonal entry
    # after a sum of n - 1 kappa; reading C back rounds twice more
    scale = max(1.0, np.max(np.abs(hess)))
    eps = np.finfo(float).eps
    assert np.array_equal(c, c.T)
    assert np.max(np.abs(c.sum(axis=1))) <= 4 * n * eps * scale
    iu, ju = np.triu_indices(n, k=1)
    assert np.max(np.abs(c[iu, ju] - kappa)) <= 4 * eps * scale
    j = np.kron(np.eye(n), [[0.0, -1.0], [1.0, 0.0]])
    proj = np.kron(np.full((n, n), 1.0 / n), np.eye(2))
    gap = j @ hess @ j.T + hess - n * (np.eye(2 * n) - proj)
    # the two terms of the identity and the sum round each entry a few
    # times; a diagonal block sums n - 1 pair blocks
    assert np.max(np.abs(gap)) <= 8 * n * eps * scale


@settings(max_examples=30, deadline=None)
@given(n=st.integers(7, 32), a=st.floats(-3.0, 3.0), b=st.floats(0.3, 1.5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hessian_spectrum_is_half_n_plus_minus_the_singular_values(n, a, b,
                                                                    seed):
    # With A = -C (A_ij = -kappa_ij, A_ii = sum_j kappa_ij), H acts on the
    # zero-mean moves zeta = x + i y as zeta -> (n zeta + A conj(zeta)) / 2.
    # For a complex symmetric A = V S V^T (Takagi), zeta -> A conj(zeta)
    # has the eigenvalues +-sigma_k, so H has (n +- sigma_k(A)) / 2.  The
    # translations take A's zero singular value (A 1 = 0), which leaves
    # n - 1 of them for the 2n - 2 zero-mean moves.  A is built here from
    # kappa alone, so the match pins H's scale 1/2, its constant part, its
    # diagonal sums and equal xy and yx quarters.  It cannot see A turned
    # into e^(i theta) A or conj(A), a rotated or reflected frame with the
    # same singular values; the finite-difference and quarter-turn tests
    # pin those signs.
    spec = _shape_torus(a, b)
    pts = torus._random_start(n, np.random.default_rng(seed))
    kappa = torus._pair_derivs(GreenEvaluator(spec), pts)[1]
    iu, ju = np.triu_indices(n, k=1)
    big_a = np.zeros((n, n), complex)
    big_a[iu, ju] = big_a[ju, iu] = -kappa
    big_a[np.diag_indices(n)] = -big_a.sum(axis=1)
    sigma = np.linalg.svd(big_a, compute_uv=False)[::-1][1:]
    want = np.sort(np.concatenate([n - sigma, n + sigma]) / 2.0)
    got = _reduced_eigenvalues(torus._pair_hessian(kappa, n))
    # both spectra are backward stable: a few n u of the matrices' norms
    tol = 16 * n * np.finfo(float).eps * (n + sigma[-1])
    assert np.max(np.abs(got - want)) <= tol


def _reduced_frame(ev):
    """J, the map from Cartesian displacements to the reduced frame's
    (s, t): the inverse of the reduced basis B C^-1, with B the torus basis
    and C the evaluator's integer coord_map.  It is C B^-1, computed
    exactly and rounded once."""
    b = [[Fraction(x) for x in row] for row in ev.torus.basis.matrix.tolist()]
    det = b[0][0] * b[1][1] - b[0][1] * b[1][0]
    inv_b = [[b[1][1] / det, -b[0][1] / det], [-b[1][0] / det, b[0][0] / det]]
    c = [[Fraction(int(x)) for x in row] for row in ev.coord_map.tolist()]
    return np.array([[float(sum(c[i][k] * inv_b[k][j] for k in range(2)))
                      for j in range(2)] for i in range(2)])


def _frame_map(j, g, h):
    """J^T g (2, M) and J^T H J (2, 2, M) of a stack of (s, t)-frame
    gradients (2, M) and Hessians (2, 2, M)."""
    return (np.einsum("ai,aM->iM", j, g),
            np.einsum("ai,abM,bj->ijM", j, h, j))


@pytest.mark.parametrize("spec", [TorusSpec.hexagonal(), _sheared_square(),
                                  _shape_torus(0.31, 1.7),
                                  _shape_torus(2.3, 0.4),
                                  _shape_torus(-0.7, 0.2)],
                         ids=["hex", "sheared", "general", "tau=2.3+0.4i",
                              "tau=-0.7+0.2i"])
def test_pair_hessian_blocks_match_the_matrix_product(spec):
    # The frame map, test-side.  The unpaired per-term loop gives L and L'
    # at the reduced-frame differences, hence the (s, t)-gradient g and
    # Hessian H of the backend formula block, with the background 2 pi b
    # of H_tt:
    #   g = (-Re L, -Re(tau L) + 2 pi b t),
    #   H = [[-Re L', -Re(tau L')], [-Re(tau L'), -Re(tau^2 L') + 2 pi b]].
    # Mapped to Cartesian, J^T g must be the evaluator's G_x - i G_y read
    # as (Re, -Im), and J^T H J its I/2 + T(kappa)/2.
    #
    # The bound, with u = 2^-53.  The kernels' paired L and L' differ from
    # the loop's by at most d_l and d_dl (tests/test_backend.py), which the
    # frame map carries as |J|^T (d_l, |tau| d_l) and
    # |J|^T [[1, |tau|], [|tau|, |tau|^2]] |J| d_dl.  Rounding is measured
    # against the sizes: the same maps of the terms' absolute values
    # (|L|, |tau| |L| + 2 pi b |t|) and [[|L'|, |tau| |L'|], [.,
    # |tau|^2 |L'| + 2 pi b]], which bound every intermediate of either
    # side.  The test side rounds tau L', tau^2 L' and the background
    # (9u), J once (u/2) and J^T H J's products and sums (5u): at most 16u.
    # The evaluator rounds L + 2 pi i t or L' + pi/b (u), 1/U and 1/U^2
    # (6u), the product (4u) and I/2 + T(kappa)/2 (u): at most 16u, plus the
    # rounding of U = delta u + gamma v itself, (r + 1) u with r =
    # (|delta| |u| + |gamma| |v|) / |U|, doubled in 1/U^2.
    ev = GreenEvaluator(spec)
    rng = np.random.default_rng(13)
    stack = rng.random((3, 6, 2))
    ds, dt = torus._pair_seps(stack)
    g, kappa = ev._derivs_frac(ds, dt)
    s2, t2, a, b, nterms = ev._reduced(ds, dt)
    _, _, lsum, dl = _loop_grads(s2, t2, a, b, nterms)
    d_l, d_dl = _unpaired_gaps(s2, t2, a, b, nterms, lsum, dl)
    t, tau, drift = t2 - np.rint(t2), complex(a, b), 2.0 * np.pi * b
    j = _reduced_frame(ev)
    ref_g, ref_h = _frame_map(j, np.stack([-lsum.real, -(tau * lsum).real
                                           + drift * t]),
                              np.array([[-dl.real, -(tau * dl).real],
                                        [-(tau * dl).real,
                                         -(tau * tau * dl).real + drift]]))
    at, al, adl = abs(tau), np.abs(lsum), np.abs(dl)
    size_g, size_h = _frame_map(np.abs(j),
                                np.stack([al, at * al + drift * np.abs(t)]),
                                np.array([[adl, at * adl],
                                          [at * adl, at * at * adl + drift]]))
    gap_g, gap_h = _frame_map(np.abs(j), np.stack([d_l, at * d_l]),
                              np.array([[d_dl, at * d_dl],
                                        [at * d_dl, at * at * d_dl]]))
    (u0, v0), (u1, v1) = spec.basis.matrix.tolist()
    gamma, delta = -ev.coord_map[1, 0], ev.coord_map[1, 1]
    r = ((abs(delta) * math.hypot(u0, u1) + abs(gamma) * math.hypot(v0, v1))
         / abs(complex(delta * u0 + gamma * v0, delta * u1 + gamma * v1)))
    factor, u = 32.0 + 2.0 * (r + 1.0), 2.0 ** -53
    got_g = np.stack([g.real, -g.imag]).reshape(2, -1)
    kr, ki = kappa.real.ravel(), kappa.imag.ravel()
    got_h = 0.5 * np.array([[1.0 + kr, ki], [ki, 1.0 - kr]])
    assert np.all(np.abs(got_g - ref_g) <= gap_g + factor * u * size_g)
    assert np.all(np.abs(got_h - ref_h) <= gap_h + factor * u * size_h)
    # a configuration's derivatives do not depend on the stack it is
    # evaluated in
    for c in range(3):
        alone = ev._derivs_frac(ds[c:c + 1], dt[c:c + 1])
        assert np.array_equal(alone[0][0], g[c])
        assert np.array_equal(alone[1][0], kappa[c])


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------


def test_minimize_two_points_reaches_centered_square():
    ctl = MinimizeControl(max_iters=1500, grad_tol=1e-9, restarts=2, rng_seed=0)
    start = TorusConfig(TorusSpec.square(), [[0.13, 0.41], [0.77, 0.19]])
    out = minimize_config(start, ctl)
    expected = w_eta(1j, m=2.0).value
    assert abs(out.report.value - expected) < 1e-7
    cfg = out.config
    assert cfg.n == 2 and len(out.trace) >= 1
    assert len(out.restart_table) == 3  # the given start plus two restarts
    # the relative offset is the half-period diagonal up to symmetry
    d = (cfg.points[0] - cfg.points[1]) % 1.0
    d = np.minimum(d, 1.0 - d)
    assert np.allclose(d, [0.5, 0.5], atol=1e-4)


def test_minimize_is_deterministic():
    ctl = MinimizeControl(max_iters=400, grad_tol=1e-9, restarts=2, rng_seed=4)
    start = TorusConfig(TorusSpec.square(), [[0.2, 0.3], [0.6, 0.8], [0.1, 0.7]])
    out1 = minimize_config(start, ctl)
    out2 = minimize_config(start, ctl)
    assert out1.report.value == out2.report.value
    assert np.array_equal(out1.config.points, out2.config.points)
    assert out1.restart_table == out2.restart_table


def test_minimize_seed_changes_restarts():
    ctl_a = MinimizeControl(max_iters=200, restarts=1, rng_seed=1)
    ctl_b = MinimizeControl(max_iters=200, restarts=1, rng_seed=2)
    start = TorusConfig(TorusSpec.square(), [[0.2, 0.3], [0.6, 0.8]])
    out_a = minimize_config(start, ctl_a)
    out_b = minimize_config(start, ctl_b)
    # different restart seeds explore different starts (recorded in table)
    assert out_a.restart_table != out_b.restart_table


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_torus_points_are_input_errors(bad):
    torus_sq = TorusSpec.square()
    with pytest.raises(InputError, match="torus points must be finite"):
        TorusConfig(torus_sq, [[bad, 0.1], [0.5, 0.5]])
    ev = GreenEvaluator(torus_sq)
    with pytest.raises(InputError, match="must be finite"):
        ev.value([bad, 0.0])


@pytest.mark.parametrize("u,v", [((1e200, 0.0), (0.0, 1e-200)),
                                 ((1e160, 0.0), (0.0, 1e-160)),
                                 ((1e-200, 0.0), (0.0, 1e200))])
def test_shape_modulus_out_of_float_range_names_the_basis(u, v):
    # v/u underflows to 0, to a subnormal that reduces to inf, or overflows
    with pytest.raises(InputError, match=r"shape modulus v/u of LatticeBasis"):
        GreenEvaluator(TorusSpec(LatticeBasis(u, v)))


def test_minimize_control_validation():
    with pytest.raises(NonPositiveParameter):
        MinimizeControl(max_iters=-1)
    with pytest.raises(NonPositiveParameter):
        MinimizeControl(grad_tol=0.0)
    with pytest.raises(NonPositiveParameter):
        MinimizeControl(restarts=-1)
    with pytest.raises(NonPositiveParameter, match="rng_seed"):
        MinimizeControl(rng_seed=-1)
    MinimizeControl(restarts=0)   # no restarts is legal
    MinimizeControl(max_iters=0)  # evaluate-the-starts-only is legal


def test_every_start_converges_below_energy_roundoff():
    # Near the minimum the Armijo decrease falls below the energy's rounding
    # error; the descent must still reach grad_tol, not spin to max_iters.
    ctl = MinimizeControl(max_iters=4000, grad_tol=1e-9, restarts=4, rng_seed=0)
    start = TorusConfig(TorusSpec.square(), [[0.13, 0.41], [0.77, 0.19]])
    out = minimize_config(start, ctl)
    assert len(out.restart_table) == 5
    for idx, _, iters, grad_norm, stalled in out.restart_table:
        assert grad_norm < ctl.grad_tol, idx
        assert iters < ctl.max_iters, idx
        assert not stalled, idx


def test_null_step_is_a_stall_not_a_move():
    # At an exact critical point no trial step can change the points or
    # lower the gradient, so the descent stops at once and says so.
    ctl = MinimizeControl(max_iters=4000, grad_tol=1e-20, restarts=0)
    start = TorusConfig(TorusSpec.square(), [[0.0, 0.0], [0.5, 0.5]])
    out = minimize_config(start, ctl)
    (_, _, iters, grad_norm, stalled), = out.restart_table
    assert grad_norm >= ctl.grad_tol
    assert stalled and out.stalled
    assert iters == 1


def test_every_start_converges_to_a_minimum_at_n7():
    # n = 7 on the square torus has a soft mode (smallest non-translation
    # Hessian eigenvalue about 0.017) that a first-order descent never
    # resolved within max_iters
    ctl = MinimizeControl()
    n = 7
    start = TorusConfig(TorusSpec.square(), torus._input_start(n, ctl.rng_seed))
    out = minimize_config(start, ctl)
    assert len(out.restart_table) == ctl.restarts + 1
    for idx, _, iters, grad_norm, stalled in out.restart_table:
        assert grad_norm < ctl.grad_tol and iters < ctl.max_iters, idx
        assert not stalled, idx
    assert out.converged and out.exit_reason == "converged"
    assert out.trace[-1][2] < ctl.grad_tol
    ev = GreenEvaluator(out.config.torus)
    blocks = torus._pair_derivs(ev, out.config.points)[1]
    hess = torus._pair_hessian(blocks, n)
    lam = np.linalg.eigvalsh(hess)
    # the two uniform translations are the only flat directions, and every
    # other one curves upward: a minimum, not a saddle
    assert np.count_nonzero(np.abs(lam) < 1e-8) == 2
    assert lam[2] > 1e-3


def test_one_derivative_pass_per_energy_evaluation(monkeypatch):
    # every derivative pass (gradient and Hessian) follows an energy
    # evaluation at the same point, so a descent makes no more derivative
    # kernel calls than value kernel calls
    calls = {}

    def counted(name):
        kernel = getattr(backend, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args)
        return wrapper

    for name in ("green_values", "green_grads"):
        monkeypatch.setattr(backend, name, counted(name))
    start = TorusConfig(TorusSpec.square(), torus._input_start(6, 0))
    minimize_config(start, MinimizeControl(restarts=2))
    assert calls["green_values"] > 0 and calls["green_grads"] > 0
    assert calls["green_grads"] <= calls["green_values"]


def test_descent_takes_no_eigendecomposition(monkeypatch):
    # the Newton steps come from Hessian-vector products alone
    def refuse(*args, **kwargs):
        raise AssertionError("the descent called an eigen-routine")

    for name in ("eigh", "eigvalsh", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    start = TorusConfig(TorusSpec.square(), torus._input_start(6, 0))
    out = minimize_config(start, MinimizeControl(restarts=2))
    assert len(out.restart_table) == 3 and out.converged


def _reduced_eigenvalues(hess):
    """Eigenvalues of a (2n, 2n) pair Hessian on the zero-mean
    displacements, from an orthonormal basis of them."""
    n = hess.shape[0] // 2
    shift = np.zeros((2 * n, 2))
    shift[0::2, 0] = shift[1::2, 1] = 1.0
    q, _ = np.linalg.qr(np.hstack([shift, np.eye(2 * n)]))
    q = q[:, 2:]
    return np.linalg.eigvalsh(q.T @ hess @ q)


def test_newton_step_on_a_mixed_stack():
    # one stack holds a start near a minimum (positive-definite reduced
    # Hessian) and a random start whose reduced Hessian is indefinite;
    # each step is zero-mean, downhill and capped, and the positive-
    # definite one solves H s = -g to the forcing bound
    n = 6
    spec = TorusSpec.square()
    ev = GreenEvaluator(spec)
    rng = np.random.default_rng(5)
    out = minimize_config(TorusConfig(spec, torus._input_start(n, 0)),
                          MinimizeControl(restarts=0))
    near = out.config.points + 1e-3 * rng.standard_normal((n, 2))
    stack = np.stack([near, rng.random((n, 2))])
    grad, blocks = torus._pair_derivs(ev, stack)
    hess = torus._pair_hessian(blocks, n)
    lam = [_reduced_eigenvalues(h) for h in hess]
    assert lam[0][0] > 0.0 and lam[1][0] < 0.0 < lam[1][-1]
    step = torus._newton_step(blocks, grad)
    g = (grad - grad.mean(axis=1, keepdims=True)).reshape(2, 2 * n)
    s = step.reshape(2, 2 * n)
    for c in range(2):
        assert np.max(np.abs(step[c].mean(axis=0))) <= 1e-15 * np.max(np.abs(s[c]))
        assert g[c] @ s[c] < 0.0, c
        assert torus._sup_norm(step[c]) <= torus.MAX_STEP * (1 + 1e-15)
    gnorm = np.linalg.norm(g[0])
    assert torus._sup_norm(step[0]) < torus.MAX_STEP
    residual = np.linalg.norm(hess[0] @ s[0] + g[0])
    assert residual <= min(torus.FORCING_CAP, gnorm) * gnorm


def test_newton_step_is_exact_where_the_hessian_is_positive_definite(
        monkeypatch):
    # a near-minimum start (positive-definite reduced Hessian) takes the
    # exact Newton step; a gated start near a saddle and an ungated random
    # start take their conjugate-gradient steps, bit for bit the steps they
    # take with the factorization refused, which is the CG path alone
    n = 6
    spec = TorusSpec.square()
    ev = GreenEvaluator(spec)
    rng = np.random.default_rng(5)
    out = minimize_config(TorusConfig(spec, torus._input_start(n, 0)),
                          MinimizeControl(restarts=0))
    saddle = np.array([(i / 3, j / 2) for i in range(3) for j in range(2)])
    stack = np.stack([out.config.points, saddle, rng.random((n, 2))])
    stack = (stack + 1e-3 * rng.standard_normal(stack.shape)) % 1.0
    grad, blocks = torus._pair_derivs(ev, stack)
    hess = torus._pair_hessian(blocks, n)
    g = (grad - grad.mean(axis=1, keepdims=True)).reshape(3, 2 * n)
    gnorm = np.linalg.norm(g, axis=1)
    lam = [_reduced_eigenvalues(h) for h in hess]
    assert lam[0][0] > 0.0 and lam[1][0] < 0.0 < lam[1][-1]
    assert gnorm[0] < torus.FORCING_CAP and gnorm[1] < torus.FORCING_CAP
    assert gnorm[2] > torus.FORCING_CAP
    step = torus._newton_step(blocks, grad)
    s = step.reshape(3, 2 * n)
    assert np.max(np.abs(step[0].mean(axis=0))) <= 1e-15 * np.max(np.abs(s[0]))
    assert torus._sup_norm(step[0]) < torus.MAX_STEP
    # LU's backward error: a few rounding errors per entry of a 2n solve
    rounding = 8 * 2 * n * np.finfo(float).eps * (
        np.linalg.norm(hess[0]) * np.linalg.norm(s[0]) + gnorm[0])
    assert np.linalg.norm(hess[0] @ s[0] + g[0]) <= rounding
    for c in range(3):
        alone = torus._newton_step(blocks[c:c + 1], grad[c:c + 1])
        assert np.array_equal(alone[0], step[c]), c
    monkeypatch.setattr(torus, "_has_cholesky",
                        lambda mats: np.zeros(len(mats), bool))
    cg = torus._newton_step(blocks, grad)
    assert np.array_equal(cg[1:], step[1:])
    assert not np.array_equal(cg[0], step[0])


def test_factorization_is_tried_only_below_the_forcing_cap(monkeypatch):
    # a start tries the Cholesky test only where the forcing asks for a
    # residual of |g|^2, 0 < |g| < FORCING_CAP: one stacked test of exactly
    # those starts per Newton step, and none in a step without them
    calls, seen = [], []
    has_cholesky, newton_step = torus._has_cholesky, torus._newton_step

    def counted(mats):
        calls.append(len(mats))
        return has_cholesky(mats)

    def step(blocks, grad):
        g = grad - grad.mean(axis=1, keepdims=True)
        norm = np.sqrt(np.sum(g * g, axis=(1, 2)))
        gated = int(np.count_nonzero((norm > 0.0)
                                     & (norm < torus.FORCING_CAP)))
        del calls[:]
        out = newton_step(blocks, grad)
        assert calls == ([gated] if gated else [])
        seen.append((gated, len(grad)))
        return out

    monkeypatch.setattr(torus, "_has_cholesky", counted)
    monkeypatch.setattr(torus, "_newton_step", step)
    start = TorusConfig(TorusSpec.square(), torus._input_start(6, 0))
    out = minimize_config(start, MinimizeControl(restarts=4))
    assert out.converged
    # both sides of the gate were taken
    assert any(gated for gated, _ in seen)
    assert any(gated < k for gated, k in seen)


def _long_torus_shifted_hessian():
    """H + P of the two points (0, 0) and (1/2, 1/2) on the aspect-112
    torus, P the projector onto the translations: positive definite, with a
    smallest Cholesky pivot of rounding size, as the curvature across the
    torus is lost beside the 1/2 of I/2 + T(kappa)/2."""
    ev = GreenEvaluator(TorusSpec.rectangular(112.0))
    _, kappa = torus._pair_derivs(ev, np.array([[[0.0, 0.0], [0.5, 0.5]]]))
    hess = torus._pair_hessian(kappa, 2)[0]
    hess[0::2, 0::2] += 0.5
    hess[1::2, 1::2] += 0.5
    return hess


def _gate_matrix(kind, m, rng):
    """One symmetric m x m matrix (m >= 4) of the given kind."""
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    lam = rng.uniform(0.1, 2.0, m)
    j = rng.integers(m)
    if kind == "indefinite":
        lam[j] = -lam[j]
    elif kind == "tiny":
        # positive definite, its pivot j at most 1e-17 and below the floor
        lam[j] = rng.uniform(0.0, 1e-17)
        return np.diag(lam)
    elif kind == "long":
        mat = np.eye(m)
        mat[:4, :4] = _long_torus_shifted_hessian()
        return mat
    mat = (q * lam) @ q.T
    mat = 0.5 * (mat + mat.T)
    if kind == "singular":
        mat[j] = mat[:, j] = 0.0
    return mat


def _gate_reference(mat):
    """The gate through numpy's public route, one matrix at a time."""
    try:
        factor = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    floor = len(mat) * np.finfo(float).eps * np.max(np.diag(mat))
    return bool(np.min(np.diag(factor)) ** 2 > floor)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(m=st.integers(4, 8),
       kinds=st.lists(st.sampled_from(["definite", "indefinite", "singular",
                                       "tiny", "long"]),
                      min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
@example(m=4, kinds=["indefinite", "long", "definite", "tiny", "singular"],
         seed=0)
def test_cholesky_gate_answers_for_each_matrix_of_a_stack(m, kinds, seed):
    # one stacked call must give every matrix the verdict that numpy's
    # public factorization gives it alone, whatever else the stack holds
    rng = np.random.default_rng(seed)
    stack = np.stack([_gate_matrix(kind, m, rng) for kind in kinds])
    got = torus._has_cholesky(stack)
    assert got.dtype == bool and got.shape == (len(kinds),)
    assert got.tolist() == [_gate_reference(mat) for mat in stack]


def test_cholesky_gate_refuses_rounding_level_pivots():
    # the long-torus H + P and diag(1, 1e-17) have a factor, but a pivot
    # below the floor; the definite and indefinite cases bracket them
    long = _long_torus_shifted_hessian()
    np.linalg.cholesky(long)
    assert torus._has_cholesky(long[None]).tolist() == [False]
    pairs = np.array([np.diag([1.0, 1e-17]), np.eye(2), np.diag([1.0, -1.0])])
    np.linalg.cholesky(pairs[0])
    assert torus._has_cholesky(pairs).tolist() == [False, True, False]


def _stack_size(arr, ndim):
    """Configurations in a stack whose single member has ``ndim`` axes."""
    return arr.shape[0] if arr.ndim > ndim else 1


def test_descent_builds_only_what_it_uses(monkeypatch):
    # counted per start: every pair-difference set built in a descent feeds
    # one kernel call (the separation test shares the energy's), and a
    # Hessian is scattered once per Newton step, never for the point a start
    # ends on
    n = 6
    pairs = n * (n - 1) // 2
    events = []
    scatters = []
    inside = []

    def descent(*args, _descent=torus._descent):
        inside.append(True)
        try:
            return _descent(*args)
        finally:
            inside.pop()

    def diffs(points, _diffs=torus._pair_seps):
        if inside:
            events.append(("diffs", _stack_size(points, 2)))
        return _diffs(points)

    def hessian(kappa, m, _hessian=torus._pair_hessian):
        if inside:
            scatters.append(_stack_size(kappa, 1))
        return _hessian(kappa, m)

    def kernel(fn):
        def wrapper(*args):
            if inside:
                assert len(args[0]) % pairs == 0
                events.append(("kernel", len(args[0]) // pairs))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(torus, "_descent", descent)
    monkeypatch.setattr(torus, "_pair_seps", diffs)
    monkeypatch.setattr(torus, "_pair_hessian", hessian)
    for name in ("green_values", "green_grads"):
        monkeypatch.setattr(backend, name, kernel(getattr(backend, name)))
    start = TorusConfig(TorusSpec.square(), torus._input_start(n, 0))
    out = minimize_config(start, MinimizeControl(restarts=2))
    assert events and len(events) % 2 == 0
    # each set of differences is followed by the one kernel call it feeds,
    # for the same starts
    for (built, k_built), (used, k_used) in zip(events[0::2], events[1::2]):
        assert (built, used) == ("diffs", "kernel") and k_built == k_used
    assert sum(scatters) == sum(row[2] for row in out.restart_table)


def _starts_of(ctl, n, monkeypatch):
    """The start stack one ``minimize_config`` call hands its descent."""
    stacks = []
    descent = torus._descent

    def record(ev, starts, dctl):
        stacks.append(np.reshape(starts, (-1, n, 2)))
        return descent(ev, starts, dctl)

    monkeypatch.setattr(torus, "_descent", record)
    spec = TorusSpec.square()
    out = minimize_config(TorusConfig(spec, torus._input_start(n, 0)), ctl)
    monkeypatch.setattr(torus, "_descent", descent)
    return spec, np.concatenate(stacks), out


def test_start_does_not_depend_on_its_batch(monkeypatch):
    # the lockstep descent gives each start the arithmetic it would do alone
    ctl = MinimizeControl(restarts=16)
    spec, stack, out = _starts_of(ctl, 6, monkeypatch)
    assert len(stack) == 17 == len(out.restart_table)
    alone = MinimizeControl(restarts=0)
    for row, start in zip(out.restart_table, stack):
        run = minimize_config(TorusConfig(spec, start), alone)
        (solo,) = run.restart_table
        assert row[1:] == solo[1:], row[0]


def test_lockstep_rounds_share_kernel_calls(monkeypatch):
    # one green_values call per round serves every live start, so a batch
    # makes about as many calls as its slowest start makes evaluations
    calls = []
    values = backend.green_values

    def counted(*args):
        calls.append(len(args[0]))
        return values(*args)

    monkeypatch.setattr(backend, "green_values", counted)
    spec, stack, _ = _starts_of(MinimizeControl(restarts=16), 6, monkeypatch)
    batched = len(calls)
    evaluations = []
    for start in stack:
        calls.clear()
        minimize_config(TorusConfig(spec, start), MinimizeControl(restarts=0))
        evaluations.append(len(calls))
    assert batched <= 1 + max(evaluations)
    assert sum(evaluations) > 2 * batched


def test_unconverged_start_says_so():
    ctl = MinimizeControl(max_iters=3, restarts=2)
    start = TorusConfig(TorusSpec.square(), torus._input_start(7, 0))
    out = minimize_config(start, ctl)
    assert not out.converged and not out.stalled
    assert out.exit_reason == "max_iters"
    assert all(row[2] == 3 and row[3] >= ctl.grad_tol
               for row in out.restart_table)
    assert len(out.trace) == 4 and out.trace[-1][2] >= ctl.grad_tol


def test_energy_decreases_along_trace():
    ctl = MinimizeControl(max_iters=300, restarts=0, rng_seed=0)
    start = TorusConfig(TorusSpec.square(), [[0.05, 0.12], [0.4, 0.77]])
    out = minimize_config(start, ctl)
    energies = [row[1] for row in out.trace]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def test_elkies_rows_small():
    ctl = MinimizeControl(max_iters=600, restarts=2, rng_seed=0)
    rep = elkies_experiment([1, 2], ctl=ctl)
    assert rep.rows[0] == (1, 0.0, 0.0)
    n2, e2, x2 = rep.rows[1]
    assert n2 == 2
    assert abs(e2 - (-math.log(2.0))) < 1e-6   # two-point pair sum is -log 2
    assert abs(x2 - (e2 + 0.5 * math.log(2.0)) / 2.0) < 1e-12
    assert rep.band_ok and rep.band_width < 5.0
    d = rep.to_json_dict()
    assert [r["n"] for r in d["rows"]] == [1, 2]


@pytest.mark.parametrize("probe", [elkies_experiment, conjecture1_probe])
def test_experiments_check_their_point_counts(probe, monkeypatch):
    # rejected before any energy is evaluated, with the input's own name
    def no_work(*_, **__):
        raise AssertionError("an energy was evaluated before n was checked")

    monkeypatch.setattr(torus, "w_eta", no_work)
    with pytest.raises(NonPositiveParameter, match="n must be >= 1"):
        probe([2, 0])
    if probe is elkies_experiment:
        # an empty band is no band: it does not pass vacuously
        with pytest.raises(NonPositiveParameter, match="at least one n"):
            probe(range(2, 2))


def test_elkies_starts_are_distinct(monkeypatch):
    stacks = []
    descent = torus._descent

    def record(ev, starts, ctl):
        stacks.append(np.array(starts))
        return descent(ev, starts, ctl)

    monkeypatch.setattr(torus, "_descent", record)
    ctl = MinimizeControl(max_iters=2, restarts=4, rng_seed=3)
    rep = elkies_experiment([2, 3, 5], ctl=ctl)
    # one descent call per n, carrying all of that n's starts
    assert [s.shape for s in stacks] == [(ctl.restarts + 1, n, 2)
                                          for n in (2, 3, 5)]
    assert len(rep.converged) == 3
    for k, group in enumerate(stacks):
        for i in range(len(group)):
            for j in range(i):
                assert not np.array_equal(group[i], group[j]), (k, i, j)


def test_conjecture1_probe_rows():
    ctl = MinimizeControl(max_iters=600, restarts=1, rng_seed=0)
    rep = conjecture1_probe([2], ctl=ctl)
    kinds = [r["kind"] for r in rep.rows]
    assert kinds == ["square", "triangular-rect"]
    for row in rep.rows:
        assert row["n"] == 2
        assert row["best"] >= row["reference"] - 1e-6
        assert not row["below_reference"]
        assert row["converged"] is True
    # the exact embedding start lands on the closed-form triangular value
    tri_row = rep.rows[1]
    assert abs(tri_row["best"] - w_eta(TRI_TAU, 2.0).value) < 1e-8


def test_conjecture1_rows_name_the_torus_of_the_embedding():
    # an even square such as 4 embeds on the hexagonal torus, 2 k^2 such as
    # 8 on the sqrt(3) rectangle: the row is labelled by its torus, not by
    # the parity of n
    ctl = MinimizeControl(max_iters=1, restarts=0, rng_seed=0)
    rep = conjecture1_probe([4, 8], ctl=ctl)
    assert [(r["n"], r["kind"]) for r in rep.rows] == [
        (4, "square"), (4, "triangular-hex"),
        (8, "square"), (8, "triangular-rect")]


def test_conjecture1_reference_takes_the_series_control():
    # a coarse abs_tol truncates the reference's eta product too
    series = SeriesControl(1e-3)
    rep = conjecture1_probe([2], MinimizeControl(restarts=0), series)
    want = w_eta(TRI_TAU, 2.0, series).value
    assert want != w_eta(TRI_TAU, 2.0).value
    assert all(row["reference"] == want for row in rep.rows)


@pytest.mark.parametrize("torus_spec,n", [(TorusSpec.hexagonal(), 5),
                                          (TorusSpec.rectangular(2.5), 3)])
def test_winning_start_does_not_follow_the_self_term_rounding(
        torus_spec, n, monkeypatch):
    # the self-term n W is the same for every start, so the winner is the
    # start with the lowest pair energy, whatever the last bits of W; a
    # winner picked by total energy moves within 16 ulps of W on both tori
    ctl = MinimizeControl()
    start = TorusConfig(torus_spec, torus._input_start(n, ctl.rng_seed))
    want = minimize_config(start, ctl).config.points
    w_eta_exact = torus.w_eta

    for ulps in range(-16, 17):
        def nudged(*args, ulps=ulps):
            rep = w_eta_exact(*args)
            return dataclasses.replace(
                rep, value=rep.value + ulps * math.ulp(rep.value))

        monkeypatch.setattr(torus, "w_eta", nudged)
        got = minimize_config(start, ctl).config.points
        assert got.tobytes() == want.tobytes(), ulps
