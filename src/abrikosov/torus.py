"""Torus Green function, n-point configuration energies, and local search.

The Green function here is the mean-zero solution of

    -Delta G = 2 pi delta_0 - 1

on a flat torus of area 2 pi.  Its values come from a geometrically
convergent q-series closed form (never from the slowly decaying Fourier
sum), after mapping the torus shape to a reduced modulus: Jacobi's triple
product with its factors taken in pairs, so that a value costs one
logarithm and each series term of the derivatives one reciprocal
(``backend``).  Configuration energies are pairwise Green sums plus a
per-point lattice self-energy term; their gradients and Hessians come
together from one pass over the derivatives of the same closed form
(``_pair_derivs``): as Delta G = 1 off the lattice, a pair's gradient is
G_x - i G_y and its Hessian I/2 + T(kappa)/2, with kappa = G_xx - G_yy +
2 i G_xy and T(c) = [[Re c, Im c], [Im c, -Re c]].

``minimize_config`` runs a seeded multi-start search over point positions (a
weighted-Fekete search).  Each start descends by line-search Newton-CG
steps (Nocedal & Wright, *Numerical Optimization*, Alg. 7.1): conjugate
gradients on the pair-energy Hessian, stopped by a forcing rule or at the
first direction of negative curvature, so that every step points
downhill, at saddles too, with no eigendecomposition.  Near a minimum,
where the forcing rule asks CG for a residual of |g|^2 and CG runs
longest, a Cholesky factorization first tests whether the Hessian is
positive definite (Alg. 3.3's test); if it is, the start takes the exact
Newton step from one dense solve instead.  Each step is
re-centred so that it moves no point on average, which removes the two
uniform translations along which the energy is constant.  A backtracking
line search accepts a step only if the energy rises by no more than its
rounding error, and every start reports whether it reached the gradient
tolerance.  The trial a line search accepts brings its per-pair kappa
along, so the next Newton step needs no further kernel call; the kappa
become the full Hessian only when a step uses them.

All starts of one search descend in lockstep as one (k, n, 2) stack
(``_descent``), which the pair helpers (``_pair_seps``, ``_pair_energy``,
``_pair_derivs``, ``_pair_hessian``) take whole.  Every start does the
arithmetic it would do alone, so its outcome does not depend on the others.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from . import backend
from .errors import (
    CoincidentPoints,
    InputError,
    LatticePointSingularity,
    NonPositiveParameter,
    VolumeNotNormalized,
    count,
    positive,
)
from .lattice import (
    EnergyReport,
    TRIANGULAR_TAU,
    TWO_PI,
    shape_basis,
    w_eta,
)
from .modular import (
    SINGULAR_TUBE,
    LatticeBasis,
    SeriesControl,
    _green_nterms,
    _reduce_with_matrix,
    _shape_modulus,
    _tube_sq,
)

__all__ = [
    "TorusSpec",
    "TorusConfig",
    "GreenEvaluator",
    "MinimizeControl",
    "MinimizeOutcome",
    "config_energy",
    "config_grad",
    "minimize_config",
    "elkies_experiment",
    "conjecture1_probe",
    "triangular_embedding",
    "ElkiesReport",
    "Conjecture1Report",
]

VOLUME_RTOL = 1e-12
SEPARATION_EPS = 1e-8      # fractional coordinates
ENERGY_SLACK = 1e-12       # energy changes the line search treats as rounding
FORCING_CAP = 0.5          # largest relative residual at which a Newton-CG solve stops
MAX_STEP = 0.25            # largest per-point displacement of one Newton step
ELKIES_BAND = 5.0          # the Elkies excesses must span less than this
# Largest reduced Im tau the Green kernels take.  The wrapped t reaches
# +-1/2, so |p| = |exp(2 i pi z)| and |1/p| reach exp(pi b), and so do
# |c| = |p + 1/p| and |d| = |p - 1/p|; q^n c, the paired factors F_n and
# their reciprocals stay near 1.  The first term to overflow is
# green_grads's (p - 1)^2: exp(2 pi b) stays finite while
# 2 pi b < log(DBL_MAX).
MAX_GREEN_B = math.log(sys.float_info.max) / (2.0 * math.pi)   # ~112.97
_DEFAULT_CTL = SeriesControl()


class TorusSpec:
    """A flat torus given by its periodicity basis."""

    __slots__ = ("basis",)

    def __init__(self, basis: LatticeBasis):
        self.basis = basis

    @property
    def volume(self) -> float:
        return self.basis.covolume

    @property
    def is_normalized(self) -> bool:
        return abs(self.volume - TWO_PI) <= VOLUME_RTOL * TWO_PI

    @staticmethod
    def square() -> "TorusSpec":
        return TorusSpec(shape_basis(1j))

    @staticmethod
    def hexagonal() -> "TorusSpec":
        return TorusSpec(shape_basis(TRIANGULAR_TAU))

    @staticmethod
    def rectangular(aspect: float) -> "TorusSpec":
        return TorusSpec(shape_basis(complex(0.0, positive("aspect", aspect))))

    def __repr__(self):
        return f"TorusSpec(basis={self.basis!r})"


def _finite(points, what: str) -> np.ndarray:
    """``points`` as a float array; InputError if any coordinate is not
    finite."""
    points = np.asarray(points, float)
    if not np.all(np.isfinite(points)):
        raise InputError(f"{what} must be finite")
    return points


def _wrap01(points: np.ndarray) -> np.ndarray:
    wrapped = points - np.floor(points)
    # guard against -0.0 and 1.0-eps rounding artifacts
    wrapped[wrapped >= 1.0] -= 1.0
    return wrapped


class TorusConfig:
    """n marked points on a torus, in fractional coordinates in [0, 1)^2.

    No two points lie within ``SEPARATION_EPS`` of each other in fractional
    coordinates, nor in the singular tube of ``modular._tube_sq`` on the
    torus's basis, so every configuration has an energy.
    """

    __slots__ = ("torus", "points")

    def __init__(self, torus: TorusSpec, points):
        pts = np.atleast_2d(_finite(points, "torus points"))
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise NonPositiveParameter("points must be an (n, 2) array with n >= 1")
        self.torus = torus
        self.points = _wrap01(pts.copy())
        if self.n < 2:
            return
        s, t = _pair_seps(self.points)
        if math.sqrt(np.min(s * s + t * t)) < SEPARATION_EPS:
            raise CoincidentPoints(
                f"minimum pair separation below {SEPARATION_EPS}"
            )
        if np.any(_tube_sq(torus.basis, s, t) < SINGULAR_TUBE ** 2):
            raise CoincidentPoints("points collide within the singular tube")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "basis": {
                "u": self.torus.basis.u.tolist(),
                "v": self.torus.basis.v.tolist(),
            },
            "n": self.n,
            "points": [[float(s), float(t)] for s, t in self.points],
        }


class _PairLayout(NamedTuple):
    """Index data shared by every n-point configuration."""

    iu: np.ndarray          # pair (i, j), i < j: first point
    ju: np.ndarray          # second point
    grad_index: np.ndarray  # (2m, 2) flat 2n positions of the pair gradients
    pair_map: np.ndarray    # (n^2,) pair of each (i, j), m on the diagonal
    base: np.ndarray        # (n, n) matrix (n/2) I - 1/2


@functools.lru_cache(maxsize=None)
def _pair_layout(n: int) -> _PairLayout:
    """Pair indices, the gradient scatter positions and the data of
    ``_pair_hessian``, read-only: every caller shares them.

    Gradients run over (x_0, y_0, x_1, y_1, ...).  Row p of the gradient
    positions is the two coordinates of pair p's first point for p < m, and
    of pair p - m's second point after.
    """
    iu, ju = np.triu_indices(n, k=1)
    grad_index = 2 * np.concatenate([iu, ju])[:, None] + np.arange(2)
    pair_map = np.full((n, n), len(iu))
    pair_map[iu, ju] = pair_map[ju, iu] = np.arange(len(iu))
    base = np.full((n, n), -0.5)
    base.flat[::n + 1] += 0.5 * n
    layout = _PairLayout(iu, ju, grad_index, pair_map.ravel(), base)
    for arr in layout:
        arr.flags.writeable = False
    return layout


def _pair_seps(points: np.ndarray) -> np.ndarray:
    """Wrapped coordinate differences x_i - x_j of the upper-triangle pairs
    i < j, as one array (2, ..., m) whose rows are the s and t differences.

    ``points`` is one configuration (n, 2) or a stack (k, n, 2), with m =
    n(n-1)/2 pairs.  Each difference is wrapped into [-1/2, 1/2] once; for
    coordinates in [0, 1), as every configuration keeps them, the wrap is
    exact.
    """
    layout = _pair_layout(points.shape[-2])
    xy = points.transpose(-1, *range(points.ndim - 1))
    d = xy.take(layout.iu, axis=-1) - xy.take(layout.ju, axis=-1)
    d -= np.rint(d)
    return d


def _min_separation(points: np.ndarray) -> float:
    """Smallest wrapped pair distance of one configuration (inf for none)."""
    if points.shape[0] < 2:
        return math.inf
    s, t = _pair_seps(points)
    return math.sqrt(np.min(s * s + t * t))


class GreenEvaluator:
    """Precomputed data for the torus Green function and its derivatives.

    Construction reduces the torus shape to a fundamental-domain modulus,
    stores the integer change of fractional coordinates and sizes the
    q-series by ``modular._green_nterms``: the term count whose tail
    bound, with the wrapped argument's worst factor exp(pi Im tau), meets
    ``ctl.abs_tol`` at the reduced modulus.  It keeps ``ctl``, at which
    ``config_energy`` adds the lattice self-term.

    ``value`` gives G at one point; the derivatives serve the pair helpers,
    and ``config_grad`` of a two-point configuration gives +-grad G.  G is
    undefined in the singular tube of ``modular._tube_sq``.
    """

    def __init__(self, torus: TorusSpec, ctl: SeriesControl = _DEFAULT_CTL):
        self.torus = torus
        self.ctl = ctl
        tau_r, m = _reduce_with_matrix(_shape_modulus(torus.basis))
        if tau_r.imag > MAX_GREEN_B:
            raise InputError(f"the torus shape reduces to Im tau = "
                             f"{tau_r.imag:.6g}, above the {MAX_GREEN_B:.6g} "
                             "the Green kernels take")
        self.tau = tau_r
        (alpha, beta), (gamma, delta) = m
        self.coord_map = np.array([[alpha, -beta], [-gamma, delta]], float)
        b0 = torus.basis.matrix
        self._inv_basis = np.linalg.inv(b0)
        # U, the reduced basis's first vector delta u + gamma v as a complex
        # number: a Cartesian displacement x + i y is U z in the reduced frame
        (u0, v0), (u1, v1) = b0.tolist()
        self._inv_u = 1.0 / complex(delta * u0 + gamma * v0,
                                    delta * u1 + gamma * v1)
        self._kappa_map = (self._inv_u * self._inv_u).conjugate()
        self.nterms = _green_nterms(tau_r.imag, ctl)

    # -- internals ---------------------------------------------------------

    def _reduced(self, ds: np.ndarray, dt: np.ndarray):
        """Kernel arguments: fractional differences in the reduced frame,
        flattened to one row."""
        c = self.coord_map
        s2 = c[0, 0] * ds + c[0, 1] * dt
        t2 = c[1, 0] * ds + c[1, 1] * dt
        return (s2.ravel(), t2.ravel(),
                self.tau.real, self.tau.imag, self.nterms)

    def _values_frac(self, ds: np.ndarray, dt: np.ndarray) -> np.ndarray:
        """G at fractional-coordinate differences in the torus basis."""
        return backend.green_values(*self._reduced(ds, dt)).reshape(ds.shape)

    def _derivs_frac(self, ds: np.ndarray, dt: np.ndarray):
        """G_x - i G_y and kappa = G_xx - G_yy + 2 i G_xy at fractional-
        coordinate differences (..., m), two complex arrays of that shape,
        from one kernel call: with x + i y = U z, they are the kernel's
        2 dG/dz / U and conj(4 d2G/dz2 / U^2), each pair's from its own.
        """
        dz, dzz = backend.green_grads(*self._reduced(ds, dt))
        dz *= self._inv_u
        np.conjugate(dzz, out=dzz)
        dzz *= self._kappa_map
        return dz.reshape(ds.shape), dzz.reshape(ds.shape)

    # -- public API --------------------------------------------------------

    def value(self, x) -> float:
        """G(x) for a Cartesian 2-vector x."""
        x = _finite(x, "x").reshape(2)
        s, t = self._inv_basis @ x
        if _tube_sq(self.torus.basis, s, t) < SINGULAR_TUBE ** 2:
            raise LatticePointSingularity(
                "argument within the singular tube of the periodicity lattice"
            )
        return float(self._values_frac(np.array([s]), np.array([t]))[0])


# ---------------------------------------------------------------------------
# Configuration energy and gradient
# ---------------------------------------------------------------------------


def _require_normalized(cfg: TorusConfig):
    if not cfg.torus.is_normalized:
        raise VolumeNotNormalized(
            f"torus volume {cfg.torus.volume} != 2*pi"
        )


def _pair_energy(ev: GreenEvaluator, points: np.ndarray,
                 min_sep: float = 0.0) -> np.ndarray:
    """Pairwise Green sums of a stack of configurations (k, n, 2), shape (k,).

    A configuration with two points closer than ``min_sep`` gets NaN and no
    kernel work; ``min_sep`` bounds the wrapped fractional distance, as
    ``_min_separation`` measures it.  One set of pair differences serves
    that test, the singular-tube check and the one kernel call for the rest.
    """
    if points.shape[1] < 2:
        return np.zeros(points.shape[0])
    s, t = _pair_seps(points)
    far = np.sqrt(np.minimum.reduce(s * s + t * t, axis=-1)) >= min_sep
    energy = np.full(points.shape[0], np.nan)
    if not far.any():
        return energy
    s, t = s[far], t[far]
    if (_tube_sq(ev.torus.basis, s, t) < SINGULAR_TUBE ** 2).any():
        raise CoincidentPoints("points collide within the singular tube")
    energy[far] = np.add.reduce(ev._values_frac(s, t), axis=-1)
    return energy


def _pair_derivs(ev: GreenEvaluator, points: np.ndarray):
    """Cartesian gradient (..., n, 2) and pair Hessian parts kappa (..., m)
    of the pairwise Green sum of one configuration (n, 2) or a stack.

    One set of pair differences feeds one kernel call.  The gradient G_ij of
    G at x_i - x_j adds to point i and subtracts from point j, and one
    ``bincount`` over ``_PairLayout.grad_index`` scatters every pair of
    every configuration: each coordinate sums its pairs in order, first
    those where its point is i, then those where it is j.  The complex
    kappa_ij stay per pair until ``_pair_hessian`` builds H from them, so a
    point that takes no Newton step never pays for the build.
    """
    n = points.shape[-2]
    if n < 2:
        return (np.zeros(points.shape),
                np.zeros(points.shape[:-2] + (0,), complex))
    g, kappa = ev._derivs_frac(*_pair_seps(points))
    count = math.prod(points.shape[:-2])
    # conj(G_x - i G_y) read as two floats is the pair (G_x, G_y)
    weights = np.concatenate([g, -g], axis=-1).conj().view(float)
    index = _pair_layout(n).grad_index + 2 * n * np.arange(count)[:, None, None]
    grad = np.bincount(index.ravel(), weights.ravel(), minlength=count * 2 * n)
    return grad.reshape(points.shape), kappa


def _pair_hessian(kappa: np.ndarray, n: int) -> np.ndarray:
    """The (..., 2n, 2n) Hessians of the pairwise Green sum from the pair
    kappa (..., m) of one configuration or a stack.

    Rows and columns run over (x_0, y_0, x_1, y_1, ...).  Pair (i, j) adds
    I/2 + T(kappa_ij)/2 to the (i, i) and (j, j) blocks and subtracts it
    from the (i, j) and (j, i) blocks: with C_ij = kappa_ij and C_ii =
    -sum_j kappa_ij, H = (n/2) I - (1 1^T (x) I_2)/2 - T(C)/2.  H's xx and
    yy quarters are ``base`` -+ Re C/2, its xy and yx quarters -Im C/2.
    """
    layout = _pair_layout(n)
    lead = kappa.shape[:-1]
    pairs = np.zeros(lead + (kappa.shape[-1] + 1,), complex)
    np.multiply(kappa, -0.5, out=pairs[..., :-1])
    flat = pairs.take(layout.pair_map, axis=-1)
    half = flat.reshape(lead + (n, n))                # -C/2
    np.negative(half.sum(axis=-1), out=flat[..., ::n + 1])
    hess = np.empty(lead + (n, 2, n, 2))
    np.add(layout.base, half.real, out=hess[..., 0, :, 0])
    np.subtract(layout.base, half.real, out=hess[..., 1, :, 1])
    hess[..., 0, :, 1] = hess[..., 1, :, 0] = half.imag
    return hess.reshape(lead + (2 * n, 2 * n))


def _sup_norm(grad: np.ndarray) -> np.ndarray:
    """Largest per-point Euclidean gradient norm of each configuration."""
    return np.maximum.reduce(np.sqrt(_dot(grad, grad)), axis=-1)


def config_energy(cfg: TorusConfig, ev: GreenEvaluator = None) -> float:
    """Total energy: pairwise Green sum plus n times the lattice self-term,
    both at the series control of ``ev`` (by default a new evaluator)."""
    _require_normalized(cfg)
    ev = ev or GreenEvaluator(cfg.torus)
    w_lat = w_eta(ev.tau, 1.0, ev.ctl).value
    return float(_pair_energy(ev, cfg.points[None])[0]) + cfg.n * w_lat


def config_grad(cfg: TorusConfig, ev: GreenEvaluator = None) -> np.ndarray:
    """Cartesian energy gradient per point, shape (n, 2).

    The lattice self-term does not depend on the points, so the gradient is
    the scatter-added pairwise Green gradient; it sums to zero exactly up to
    rounding (translation invariance).
    """
    _require_normalized(cfg)
    ev = ev or GreenEvaluator(cfg.torus)
    return _pair_derivs(ev, cfg.points)[0]


# ---------------------------------------------------------------------------
# Local minimization (weighted-Fekete search)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimizeControl:
    """Knobs of the multi-start Newton-CG descent.

    The step itself has none.  A start whose gradient is below
    ``FORCING_CAP`` and whose Hessian passes a Cholesky test takes the
    exact Newton step; every other start's CG solve stops by the forcing
    rule (``FORCING_CAP``) or at negative curvature, after at most 2n
    iterations (see ``_newton_step``).
    """

    max_iters: int = 2000
    grad_tol: float = 1e-9
    restarts: int = 16
    rng_seed: int = 0

    def __post_init__(self):
        positive("grad_tol", self.grad_tol)
        for name in ("max_iters", "restarts", "rng_seed"):
            count(name, getattr(self, name))


@dataclass
class MinimizeOutcome:
    """Best configuration found plus the descent diagnostics.

    `trace` holds the winning start's descent rows and `restart_table` one
    summary row per start.  The last three fields describe the winning
    start: `exit_reason` is ``"converged"`` (its gradient norm fell below
    ``grad_tol``), ``"max_iters"`` (it ran out of iterations first) or
    ``"stalled"`` (no trial step was accepted); `converged` and `stalled`
    repeat the first and the last of these as flags.
    """

    config: TorusConfig
    report: EnergyReport
    trace: list                 # rows (iter, energy, grad_norm) of best run
    restart_table: list         # rows (index, energy, iters, grad_norm, stalled)
    stalled: bool
    converged: bool
    exit_reason: str


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products along the last axis of two equal-shape arrays."""
    return np.add.reduce(a * b, axis=-1)


def _has_cholesky(mats: np.ndarray) -> np.ndarray:
    """Whether each symmetric matrix of a stack (k, m, m) has a Cholesky
    factor with no pivot below m * eps times its largest diagonal entry,
    shape (k,): positive definite and not singular to rounding.  On a long
    torus the curvature across it is lost beside the 1/2 of I/2 +
    T(kappa)/2, and a pivot of rounding error would give a step of any
    length.  The LAPACK gufunc behind ``np.linalg.cholesky`` factors each
    matrix on its own, in one call; its public wrapper raises for the whole
    stack if one has no factor, where the gufunc fills that one with NaN,
    which fails the pivot test.
    """
    with np.errstate(invalid="ignore"):
        factor = _umath_linalg.cholesky_lo(mats)
    diag = mats.diagonal(0, -2, -1)
    floor = mats.shape[-1] * np.finfo(float).eps * diag.max(axis=-1)
    pivots = factor.diagonal(0, -2, -1).min(axis=-1) ** 2
    return pivots > floor


def _newton_step(kappa: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton-CG steps in Cartesian coordinates, shape (k, n, 2).

    ``kappa`` (k, m) (the pair Hessian parts of ``_pair_derivs``) and
    ``grad`` (k, n, 2) are the pair-energy derivatives at the current points
    of k configurations.  Each step is the line-search Newton-CG step of
    Nocedal & Wright, *Numerical Optimization*, Alg. 7.1: at most 2n
    conjugate-gradient iterations on H s = -g from s = 0, with g the
    gradient less its mean, each one stacked Hessian-vector product.  H
    annihilates the two uniform translations (they leave the energy
    unchanged) and maps the zero-mean displacements to themselves, so the
    iterates stay zero-mean up to rounding; the step is re-centred at the
    end.

    - Forcing: CG stops once |r| <= min(FORCING_CAP, |g|) |g|.
    - Negative curvature: a direction d with d^T H d <= 1e-12 |d|^2 ends
      CG; the step is the current iterate plus d, turned downhill and
      scaled to length |g| (at the first iteration, -g).
    - Exact step: where 0 < |g| < FORCING_CAP the forcing bound is |g|^2,
      and CG runs longest, on the positive-definite systems near a
      minimum.  There a Cholesky factorization of H + P, with P the
      projector onto the translations, first tests whether H is positive
      definite on the zero-mean displacements (Nocedal & Wright, Alg.
      3.3); if it is, one dense solve of (H + P) s = -g gives the exact
      Newton step, zero-mean as g is, and the start skips CG.  A start
      whose factorization fails runs CG as above.

    A stopped start is frozen by a mask, not dropped from the stack, and
    the stacked factorization and solve treat each matrix on its own, so
    each start does the arithmetic it would do alone.  A step whose largest
    per-point length exceeds ``MAX_STEP`` is scaled down to it.
    """
    k, n = grad.shape[:2]
    hess = _pair_hessian(kappa, n)
    g = (grad - np.add.reduce(grad, 1, keepdims=True) / n).reshape(k, 2 * n)
    gg = _dot(g, g)
    tol = np.minimum(FORCING_CAP ** 2, gg) * gg   # squared forcing bound
    s, r, d, rr = np.zeros_like(g), g.copy(), -g, gg
    d_col = d[..., None]                          # d changes in place
    live = rr > tol                               # only g = 0 starts done
    near = np.flatnonzero(live & (gg < FORCING_CAP ** 2))
    if near.size:
        # H + P, with P the projector onto the two translations: 1/n in
        # every (x, x) and every (y, y) entry
        a = hess[near]
        a[:, 0::2, 0::2] += 1.0 / n
        a[:, 1::2, 1::2] += 1.0 / n
        pd = _has_cholesky(a)
        exact = near[pd]
        if exact.size:
            s[exact] = np.linalg.solve(a[pd], -g[exact, :, None])[..., 0]
            live[exact] = False
    for _ in range(2 * n):
        if not live.any():
            break
        hd = (hess @ d_col)[..., 0]
        dd, dhd = _dot(d, d), _dot(d, hd)
        bent = live & (dhd <= 1e-12 * dd)
        if bent.any():
            turn = np.where(_dot(d, g) > 0.0, -1.0, 1.0)
            scale = turn * np.sqrt(gg / np.where(bent, dd, 1.0))
            s = np.where(bent[:, None], s + scale[:, None] * d, s)
            live &= ~bent
        # a stopped start takes alpha = beta = 0: s and r stay, d stays finite
        alpha = (rr / np.where(live, dhd, np.inf))[:, None]
        s += alpha * d
        r += alpha * hd
        rr_new = _dot(r, r)
        live &= rr_new > tol
        d *= (rr_new / np.where(live, rr, np.inf))[:, None]
        d -= r
        rr = rr_new
    step = s.reshape(k, n, 2)
    step -= np.add.reduce(step, axis=1, keepdims=True) / n
    longest = _sup_norm(step)
    cut = longest > MAX_STEP
    step[cut] *= (MAX_STEP / longest[cut])[:, None, None]
    return step


def _descent(ev: GreenEvaluator, starts: np.ndarray, ctl: MinimizeControl):
    """Newton-CG descent with a backtracking line search, run on a
    stack of starts (k, n, 2) in lockstep.

    Each iteration of a start takes the step of ``_newton_step`` (capped at
    ``MAX_STEP`` per point), halves it up to 40 times, and accepts the
    first trial whose energy is at most ``ENERGY_SLACK`` above the current
    one and which either lowers the energy by more than ``ENERGY_SLACK`` or
    lowers the largest per-point gradient norm.  Below ``ENERGY_SLACK`` a
    genuine decrease can no longer be told from the energy's rounding error,
    so near a minimum the falling gradient decides.  A trial that leaves the
    points bit-for-bit unchanged is never accepted, so a null step is never
    counted as a move.

    A start ends when its gradient norm drops below ``ctl.grad_tol``
    (``"converged"``), after ``ctl.max_iters`` iterations (``"max_iters"``),
    or when no trial is accepted (``"stalled"``).  Its trace has one row per
    iteration plus the final state (the stalled iteration adds none).

    The starts advance in rounds, each live start by one trial a round.  A
    round builds one set of pair differences and makes one energy kernel
    call for all the trials, one derivative kernel call for the trials that
    pass the energy test, and one Hessian build, then the stacked
    Cholesky test and solve and one stacked Hessian-vector product per CG
    iteration, for the next Newton steps of the starts that accepted.
    Every start does the same arithmetic as it would alone, so its result
    does not depend on the other starts.

    Returns one (points, energy, trace, exit_reason, iters) per start.
    Energies exclude the constant lattice self-term (added back by the
    caller).
    """
    inv_t = ev._inv_basis.T
    k = starts.shape[0]
    pts = _wrap01(starts.copy())
    energy = _pair_energy(ev, pts)
    grad, kappa = _pair_derivs(ev, pts)
    gnorm = _sup_norm(grad)
    traces = [[] for _ in range(k)]
    iters = [0] * k
    reasons = [None] * k
    direction = np.empty_like(pts)
    frac = np.ones(k)            # step fraction of each start's next trial
    left = np.zeros(k, int)      # trials left in each start's line search
    running = np.ones(k, bool)   # starts with no exit reason yet
    fresh = range(k)             # starts at a new point: record, test, step
    while True:
        stepping = []
        e_now, g_now = energy.tolist(), gnorm.tolist()
        for i in fresh:
            traces[i].append((iters[i], e_now[i], g_now[i]))
            if g_now[i] < ctl.grad_tol:
                reasons[i] = "converged"
            elif iters[i] == ctl.max_iters:
                reasons[i] = "max_iters"
            else:
                iters[i] += 1
                stepping.append(i)
                continue
            running[i] = False
        if stepping:
            direction[stepping] = _newton_step(kappa[stepping],
                                               grad[stepping]) @ inv_t
            frac[stepping] = 1.0
            left[stepping] = 40
        live = np.flatnonzero(running)
        here = pts[live]
        cand = _wrap01(here + frac[live, None, None] * direction[live])
        # a spent line search or a null step (every shorter trial is one
        # too) ends the start without a move
        over = (left[live] == 0) | (cand == here).all(axis=(1, 2))
        for i in live[over]:
            reasons[i] = "stalled"
            running[i] = False
        live, cand = live[~over], cand[~over]
        if not live.size:
            break
        left[live] -= 1
        e_new = _pair_energy(ev, cand, SEPARATION_EPS)
        # NaN (two points too close) fails this test too
        ok = e_new <= energy[live] + ENERGY_SLACK
        fresh = live[ok]
        if fresh.size:
            cand, e_new = cand[ok], e_new[ok]
            g_new, k_new = _pair_derivs(ev, cand)
            g_new_norm = _sup_norm(g_new)
            move = ((e_new < energy[fresh] - ENERGY_SLACK)
                    | (g_new_norm < gnorm[fresh]))
            fresh = fresh[move]
            pts[fresh], energy[fresh] = cand[move], e_new[move]
            grad[fresh], kappa[fresh] = g_new[move], k_new[move]
            gnorm[fresh] = g_new_norm[move]
        # a start that moved resets its fraction with its next step
        frac[live] *= 0.5
    return [(pts[i], float(energy[i]), traces[i], reasons[i], iters[i])
            for i in range(k)]


def _random_start(n: int, rng: np.random.Generator) -> np.ndarray:
    for _ in range(100):
        pts = rng.random((n, 2))
        if _min_separation(pts) > 1e-4:
            return pts
    return pts  # pragma: no cover - accept last draw at absurd densities


def _input_start(n: int, seed: int) -> np.ndarray:
    """Seeded random n-point start that callers pass as the input configuration.

    It draws from ``SeedSequence(seed, spawn_key=(n,))``, a stream apart from
    the ``(seed, r, n)`` streams of ``minimize_config``'s restarts, so it never
    repeats one of them.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(n,))
    return _random_start(n, np.random.default_rng(seq))


def minimize_config(cfg: TorusConfig, ctl: MinimizeControl = MinimizeControl(),
                    series: SeriesControl = _DEFAULT_CTL) -> MinimizeOutcome:
    """Multi-start descent over point positions; deterministic given seeds.

    The input configuration is always one of the starts; `ctl.restarts`
    seeded random starts follow.  The lowest final pair energy, the one the
    descent minimized, wins, ties broken by start order; the self-term
    n W is added to the winner once.
    """
    _require_normalized(cfg)
    ev = GreenEvaluator(cfg.torus, series)
    lat = w_eta(ev.tau, 1.0, series)
    n = cfg.n
    starts = [cfg.points]
    for r in range(ctl.restarts):
        rng = np.random.default_rng((ctl.rng_seed, r, n))
        starts.append(_random_start(n, rng))

    best = None
    table = []
    runs = _descent(ev, np.stack(starts), ctl)
    for idx, (pts, e_pair, trace, reason, iters) in enumerate(runs):
        table.append((idx, e_pair + n * lat.value, iters, trace[-1][2],
                      reason == "stalled"))
        if best is None or e_pair < best[1]:
            best = (idx, e_pair, pts, trace, reason)
    idx, e_pair, pts, trace, reason = best
    out_cfg = TorusConfig(cfg.torus, pts)
    pair_count = n * (n - 1) / 2.0
    report = EnergyReport(
        value=e_pair + n * lat.value, route="eta", truncation=series,
        error_estimate=pair_count * series.abs_tol + n * lat.error_estimate,
    )
    # shift traces to report total energy rather than the pairwise part
    trace = [(i, e + n * lat.value, g) for i, e, g in trace]
    return MinimizeOutcome(config=out_cfg, report=report, trace=trace,
                           restart_table=table, stalled=reason == "stalled",
                           converged=reason == "converged", exit_reason=reason)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass
class ElkiesReport:
    """Minimized pairwise Green sums and their normalized excesses."""

    rows: list          # (n, e_min_pairwise, excess)
    converged: list     # per row: did the winning start reach grad_tol
    band_width: float
    band_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "rows": [{"n": n, "e_min": e, "excess": x, "converged": c}
                     for (n, e, x), c in zip(self.rows, self.converged)],
            "band_width": self.band_width,
            "band_limit": ELKIES_BAND,
            "band_ok": self.band_ok,
        }


def _point_counts(n_list) -> list:
    """``n_list`` as ints, each checked before any run starts."""
    return [count("n", n, 1) for n in n_list]


def elkies_experiment(n_list, torus: TorusSpec = None,
                      ctl: MinimizeControl = MinimizeControl(),
                      series: SeriesControl = _DEFAULT_CTL) -> ElkiesReport:
    """Minimize the pairwise Green sum for each n and normalize the excess.

    For each n the quantity reported is E(n) = min sum_{i != j} G, and the
    excess (E(n) + (n/4) log n)/n.  The verdict checks the excesses stay in
    a band of width below ``ELKIES_BAND``.
    """
    n_list = _point_counts(n_list)
    if not n_list:
        raise NonPositiveParameter("the Elkies band needs at least one n")
    torus = torus or TorusSpec.square()
    w_lat = w_eta(_shape_modulus(torus.basis), 1.0, series).value
    rows = []
    converged = []
    for n in n_list:
        start = TorusConfig(torus, _input_start(n, ctl.rng_seed))
        out = minimize_config(start, ctl, series)
        e_pair = 2.0 * (out.report.value - n * w_lat)
        excess = (e_pair + 0.25 * n * math.log(n)) / n
        rows.append((n, e_pair, excess))
        converged.append(out.converged)
    excesses = [x for _, _, x in rows]
    width = max(excesses) - min(excesses)
    return ElkiesReport(rows=rows, converged=converged, band_width=width,
                        band_ok=width < ELKIES_BAND)


def triangular_embedding(n: int):
    """(family, torus, points) carrying an exact triangular n-point
    configuration.

    Supported families: ``triangular-rect``, n = 2 k^2 on the aspect-sqrt(3)
    rectangular torus, and ``triangular-hex``, n = k^2 on the hexagonal
    torus; no n is in both, and an even square such as 4 is hexagonal.
    Returns None for other n.
    """
    n = count("n", n, 1)
    k2 = n // 2
    k = int(round(math.sqrt(k2)))
    if n % 2 == 0 and k * k == k2 and k >= 1:
        torus = TorusSpec.rectangular(math.sqrt(3.0))
        pts = [(((i + 0.5 * j) / k) % 1.0, j / (2.0 * k))
               for i in range(k) for j in range(2 * k)]
        return "triangular-rect", torus, np.array(pts)
    k = int(round(math.sqrt(n)))
    if k * k == n:
        torus = TorusSpec.hexagonal()
        pts = [(i / k, j / k) for i in range(k) for j in range(k)]
        return "triangular-hex", torus, np.array(pts)
    return None


@dataclass
class Conjecture1Report:
    """Observed best energies against the triangular reference, per n."""

    rows: list  # dicts: n, kind, best, per_point, reference, below_reference,
    #             converged


def conjecture1_probe(n_list, ctl: MinimizeControl = MinimizeControl(),
                      series: SeriesControl = _DEFAULT_CTL) -> Conjecture1Report:
    """Compare minimizer energies against the triangular lattice value.

    For every n a generic (square-torus) search runs from random starts;
    when an exact triangular embedding exists, the adapted torus runs too,
    with the embedding itself as one start.  Rows flagged below_reference
    (best energy under the triangular value by more than 1e-6) would be
    counterexample candidates; the probe records, never asserts.
    """
    rows = []
    for n in _point_counts(n_list):
        reference = w_eta(TRIANGULAR_TAU, float(n), series).value
        variants = [("square", TorusSpec.square(), None)]
        emb = triangular_embedding(n)
        if emb is not None:
            variants.append(emb)
        for kind, torus, start in variants:
            if start is None:
                start = _input_start(n, ctl.rng_seed)
            out = minimize_config(TorusConfig(torus, start), ctl, series)
            best = out.report.value
            rows.append({
                "n": n,
                "kind": kind,
                "best": best,
                "per_point": best / n,
                "reference": reference,
                "reference_per_point": reference / n,
                "below_reference": bool(best < reference - 1e-6),
                "converged": out.converged,
            })
    return Conjecture1Report(rows=rows)
