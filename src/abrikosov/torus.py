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
(``_pair_derivs``).

``minimize_config`` runs a seeded multi-start search over point positions (a
weighted-Fekete search).  Each start descends by line-search Newton-CG
steps (Nocedal & Wright, *Numerical Optimization*, Alg. 7.1): conjugate
gradients on the pair-energy Hessian, stopped by a forcing rule or at the
first direction of negative curvature, so that every step points
downhill, at saddles too, with no eigendecomposition.  Each step is
re-centred so that it moves no point on average, which removes the two
uniform translations along which the energy is constant.  A backtracking
line search accepts a step only if the energy rises by no more than its
rounding error, and every start reports whether it reached the gradient
tolerance.  The trial a line search accepts brings its per-pair Hessian
blocks along, so the next Newton step needs no further kernel call; the
blocks become the full Hessian only when a step uses them.

All starts of one search descend in lockstep as one (k, n, 2) stack: a
round evaluates one trial of every live start with one value kernel call,
the derivatives of the trials that pass the energy test with one gradient
kernel call, and the next Newton steps with one stacked Hessian-vector
product per CG iteration.
The pair helpers (``_pair_seps``, ``_pair_energy``, ``_pair_derivs``,
``_pair_hessian``) take such stacks.  ``_pair_seps`` builds the wrapped s
and t differences of every pair as two arrays, which serve the separation
tests and the kernel call alike.  Every start does the arithmetic it would
do alone, so its outcome does not depend on the other starts.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    _reduce_with_matrix,
    _shape_modulus,
    shape_basis,
    w_eta,
)
from .modular import SINGULAR_TUBE, LatticeBasis, SeriesControl, _green_nterms

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
    def square(volume: float = TWO_PI) -> "TorusSpec":
        return TorusSpec(shape_basis(1j, volume))

    @staticmethod
    def hexagonal(volume: float = TWO_PI) -> "TorusSpec":
        return TorusSpec(shape_basis(TRIANGULAR_TAU, volume))

    @staticmethod
    def rectangular(aspect: float, volume: float = TWO_PI) -> "TorusSpec":
        return TorusSpec(shape_basis(complex(0.0, positive("aspect", aspect)),
                                     volume))

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
    """n marked points on a torus, in fractional coordinates in [0, 1)^2."""

    __slots__ = ("torus", "points")

    def __init__(self, torus: TorusSpec, points):
        pts = np.atleast_2d(_finite(points, "torus points"))
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise NonPositiveParameter("points must be an (n, 2) array with n >= 1")
        self.torus = torus
        self.points = _wrap01(pts.copy())
        if self.n > 1 and _min_separation(self.points) < SEPARATION_EPS:
            raise CoincidentPoints(
                f"minimum pair separation below {SEPARATION_EPS}"
            )

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
    grad_index: np.ndarray  # (2, 2m) flat 2n positions of the pair gradients
    hess_index: np.ndarray  # flat (2n)^2 positions of the pair Hessian blocks


@functools.lru_cache(maxsize=None)
def _pair_layout(n: int) -> _PairLayout:
    """Pair indices and the scatter positions of the pair derivatives.

    Gradients and Hessian rows and columns run over (x_0, y_0, x_1, y_1,
    ...).  Row c of the gradient positions is coordinate c of every pair's
    first point, then of every pair's second point.  The Hessian positions
    list, per pair and in this order, the (i, i), (j, j), (i, j) and (j, i)
    2x2 blocks.  The arrays are read-only: every caller shares them.
    """
    iu, ju = np.triu_indices(n, k=1)
    k = np.arange(2)
    grad_index = 2 * np.concatenate([iu, ju]) + k[:, None]

    def blocks(a, b):
        rows = 2 * a[:, None, None] + k[None, :, None]
        cols = 2 * b[:, None, None] + k[None, None, :]
        return rows * (2 * n) + cols

    hess_index = np.concatenate([blocks(iu, iu), blocks(ju, ju),
                                 blocks(iu, ju), blocks(ju, iu)]).ravel()
    layout = _PairLayout(iu, ju, grad_index, hess_index)
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
    xy = np.moveaxis(points, -1, 0)
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
        self._grad_map = self._inv_basis.T @ self.coord_map.T
        (a, b), (c, d) = self._grad_map.tolist()
        # rows of J^T H J for a symmetric H, as coefficients of (hss, hst, htt)
        self._hess_map = ((a * a, 2.0 * a * b, b * b),
                          (a * c, a * d + b * c, b * d),
                          (c * c, 2.0 * c * d, d * d))
        self.nterms = _green_nterms(tau_r.imag, ctl)

    # -- internals ---------------------------------------------------------

    def _reduced(self, ds: np.ndarray, dt: np.ndarray):
        """Kernel arguments: fractional differences in the reduced frame,
        flattened to one row."""
        c = self.coord_map
        s2 = c[0, 0] * ds + c[0, 1] * dt
        t2 = c[1, 0] * ds + c[1, 1] * dt
        return (np.ravel(s2), np.ravel(t2),
                self.tau.real, self.tau.imag, self.nterms)

    def _values_frac(self, ds: np.ndarray, dt: np.ndarray) -> np.ndarray:
        """G at fractional-coordinate differences in the torus basis."""
        return backend.green_values(*self._reduced(ds, dt)).reshape(ds.shape)

    def _derivs_frac(self, ds: np.ndarray, dt: np.ndarray):
        """Cartesian gradients (..., 2, m) and Hessians (..., m, 2, 2) of G
        at fractional-coordinate differences of shape (..., m), from one
        kernel call.

        With J the map from Cartesian displacements to the reduced frame's
        (s, t), ``_grad_map`` is J^T: the gradient is J^T g, the Hessian
        J^T H J.  Each configuration of a stack gets its own (2, 2) x (2, m)
        gradient product, never one product over the whole stack: numpy
        takes a matrix-vector path for m = 1 that rounds differently, and a
        configuration's gradients must not depend on the others.  The
        Hessian entries are elementwise sums of three terms in hss, hst and
        htt (``_hess_map``), so each pair's block depends on that pair
        alone and is exactly symmetric.
        """
        (gs, gt), (hss, hst, htt) = backend.green_grads(*self._reduced(ds, dt))
        g = self._grad_map @ np.stack([gs.reshape(ds.shape),
                                       gt.reshape(ds.shape)], axis=-2)
        hxx, hxy, hyy = (a * hss + b * hst + c * htt
                         for a, b, c in self._hess_map)
        h = np.stack([hxx, hxy, hxy, hyy], axis=-1)
        return g, h.reshape(ds.shape + (2, 2))

    def _check_singular(self, frac: np.ndarray):
        d = frac - np.rint(frac)
        cart = d @ self.torus.basis.matrix.T
        dist = np.sqrt(np.sum(cart * cart, axis=-1))
        if np.any(dist < SINGULAR_TUBE):
            raise LatticePointSingularity(
                "argument within the singular tube of the periodicity lattice"
            )

    # -- public API --------------------------------------------------------

    def value(self, x) -> float:
        """G(x) for a Cartesian 2-vector x."""
        x = _finite(x, "x").reshape(2)
        frac = self._inv_basis @ x
        self._check_singular(frac)
        return float(self._values_frac(np.array([frac[0]]),
                                       np.array([frac[1]]))[0])

    def grad(self, x) -> np.ndarray:
        """Cartesian gradient of G at a Cartesian 2-vector x."""
        x = _finite(x, "x").reshape(2)
        frac = self._inv_basis @ x
        self._check_singular(frac)
        g, _ = self._derivs_frac(np.array([frac[0]]), np.array([frac[1]]))
        return g[:, 0]


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
    far = np.sqrt(np.min(s * s + t * t, axis=-1)) >= min_sep
    energy = np.full(points.shape[0], np.nan)
    if not far.any():
        return energy
    s, t = s[far], t[far]
    (b00, b01), (b10, b11) = ev.torus.basis.matrix.tolist()
    x, y = b00 * s + b01 * t, b10 * s + b11 * t
    if np.any(x * x + y * y < SINGULAR_TUBE ** 2):
        raise CoincidentPoints("points collide within the singular tube")
    energy[far] = np.sum(ev._values_frac(s, t), axis=-1)
    return energy


def _pair_derivs(ev: GreenEvaluator, points: np.ndarray):
    """Cartesian gradient (..., n, 2) and pair Hessian blocks (..., m, 2, 2)
    of the pairwise Green sum of one configuration (n, 2) or a stack.

    One set of pair differences feeds one kernel call.  The gradient G_ij of
    G at x_i - x_j adds to point i and subtracts from point j, and one
    ``bincount`` over ``_PairLayout.grad_index`` scatters every pair of
    every configuration: each coordinate sums its pairs in order, first
    those where its point is i, then those where it is j.  The blocks H_ij
    stay per pair until ``_pair_hessian`` scatters them, so a point that
    takes no Newton step never pays for the scatter.
    """
    n = points.shape[-2]
    if n < 2:
        return np.zeros(points.shape), np.zeros(points.shape[:-2] + (0, 2, 2))
    g, h = ev._derivs_frac(*_pair_seps(points))
    count = math.prod(points.shape[:-2])
    weights = np.concatenate([g, -g], axis=-1)
    index = _pair_layout(n).grad_index + 2 * n * np.arange(count)[:, None, None]
    grad = np.bincount(index.ravel(), weights.ravel(), minlength=count * 2 * n)
    return grad.reshape(points.shape), h


def _pair_hessian(blocks: np.ndarray, n: int) -> np.ndarray:
    """The (..., 2n, 2n) Hessians of the pairwise Green sum from the pair
    blocks (..., m, 2, 2) of one configuration or a stack.

    Rows and columns run over (x_0, y_0, x_1, y_1, ...); H_ij adds to the
    (i, i) and (j, j) blocks and subtracts from the (i, j) and (j, i)
    blocks, and one ``bincount`` scatters every pair of every configuration.
    """
    lead = blocks.shape[:-3]
    count = math.prod(lead)
    size = 4 * n * n
    weights = np.concatenate([blocks, blocks, -blocks, -blocks], axis=-3)
    index = _pair_layout(n).hess_index + size * np.arange(count)[:, None]
    return np.bincount(index.ravel(), weights.ravel(),
                       minlength=count * size).reshape(lead + (2 * n, 2 * n))


def _sup_norm(grad: np.ndarray) -> np.ndarray:
    """Largest per-point Euclidean gradient norm of each configuration."""
    return np.max(np.sqrt(np.sum(grad * grad, axis=-1)), axis=-1)


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

    The step itself has none: its CG solve stops by the forcing rule
    (``FORCING_CAP``) or at negative curvature, after at most 2n
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
    """Inner products of the rows of two (k, 2n) stacks, shape (k,)."""
    return (a * b).sum(axis=-1)


def _newton_step(blocks: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton-CG steps in Cartesian coordinates, shape (k, n, 2).

    ``blocks`` (k, m, 2, 2) (the pair Hessian blocks of ``_pair_derivs``) and
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

    A stopped start is frozen by a mask, not dropped from the stack, so
    each start does the arithmetic it would do alone.  A step whose
    largest per-point length exceeds ``MAX_STEP`` is scaled down to it.
    """
    k, n = grad.shape[:2]
    hess = _pair_hessian(blocks, n)
    g = (grad - grad.mean(axis=1, keepdims=True)).reshape(k, 2 * n)
    gg = _dot(g, g)
    tol = np.minimum(FORCING_CAP ** 2, gg) * gg   # squared forcing bound
    s, r, d, rr = np.zeros_like(g), g.copy(), -g, gg
    live = rr > tol                               # only g = 0 starts done
    for _ in range(2 * n):
        if not live.any():
            break
        hd = (hess @ d[..., None])[..., 0]
        dd, dhd = _dot(d, d), _dot(d, hd)
        bent = live & (dhd <= 1e-12 * dd)
        if bent.any():
            turn = np.where(_dot(d, g) > 0.0, -1.0, 1.0)
            scale = turn * np.sqrt(gg / np.where(bent, dd, 1.0))
            s = np.where(bent[:, None], s + scale[:, None] * d, s)
            live &= ~bent
        # a stopped start takes alpha = beta = 0: s and r stay, d stays finite
        alpha = rr / np.where(live, dhd, np.inf)
        s += alpha[:, None] * d
        r += alpha[:, None] * hd
        rr_new = _dot(r, r)
        live &= rr_new > tol
        d = (rr_new / np.where(live, rr, np.inf))[:, None] * d - r
        rr = rr_new
    step = s.reshape(k, n, 2)
    step -= step.mean(axis=1, keepdims=True)
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
    pass the energy test, and one Hessian scatter, then one stacked
    Hessian-vector product per CG iteration, for the next Newton steps of
    the starts that accepted.  Every start does the same arithmetic as it
    would alone, so its result does not depend on the other starts.

    Returns one (points, energy, trace, exit_reason, iters) per start.
    Energies exclude the constant lattice self-term (added back by the
    caller).
    """
    inv_t = ev._inv_basis.T
    k = starts.shape[0]
    pts = _wrap01(starts.copy())
    energy = _pair_energy(ev, pts)
    grad, blocks = _pair_derivs(ev, pts)
    gnorm = _sup_norm(grad)
    traces = [[] for _ in range(k)]
    iters = [0] * k
    reasons = [None] * k
    direction = np.empty_like(pts)
    frac = np.ones(k)            # step fraction of each start's next trial
    left = np.zeros(k, int)      # trials left in each start's line search
    fresh = range(k)             # starts at a new point: record, test, step
    while True:
        stepping = []
        for i in fresh:
            traces[i].append((iters[i], float(energy[i]), float(gnorm[i])))
            if gnorm[i] < ctl.grad_tol:
                reasons[i] = "converged"
            elif iters[i] == ctl.max_iters:
                reasons[i] = "max_iters"
            else:
                iters[i] += 1
                stepping.append(i)
        if stepping:
            direction[stepping] = _newton_step(blocks[stepping],
                                               grad[stepping]) @ inv_t
            frac[stepping] = 1.0
            left[stepping] = 40
        live = np.array([i for i in range(k) if reasons[i] is None], int)
        cand = _wrap01(pts[live] + frac[live, None, None] * direction[live])
        # a spent line search or a null step (every shorter trial is one
        # too) ends the start without a move
        over = (left[live] == 0) | np.all(cand == pts[live], axis=(1, 2))
        for i in live[over]:
            reasons[i] = "stalled"
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
            g_new, b_new = _pair_derivs(ev, cand)
            g_new_norm = _sup_norm(g_new)
            move = ((e_new < energy[fresh] - ENERGY_SLACK)
                    | (g_new_norm < gnorm[fresh]))
            fresh = fresh[move]
            pts[fresh], energy[fresh] = cand[move], e_new[move]
            grad[fresh], blocks[fresh] = g_new[move], b_new[move]
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
