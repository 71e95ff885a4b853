"""Vectorized numpy kernels: torus Green-function batches and one sweep.

These are the hot loops of the package: the Green function's q-series over
arrays of point differences (``green_values``), its first and second
derivatives from the same terms (``green_grads``), and one projected
Gauss-Seidel sweep (``psor_sweep``), the smoother of the obstacle
multigrid.  Each Green kernel evaluates all series terms of a block of
``PAIR_BLOCK`` points in one broadcast pass and sums them in series order,
so a call costs a fixed number of numpy operations per block whatever the
term count, and its (terms x points) temporaries stay the same size however
many points a call brings.  They are single-threaded and deterministic.
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# Points per broadcast pass of a Green kernel.  A (terms x points) pass over
# a few thousand points no longer fits in cache, and its freed temporaries
# go back to the system and fault in again on the next call.
PAIR_BLOCK = 512

# ---------------------------------------------------------------------------
# Green-function kernels.
#
# Inputs are fractional coordinates (s, t) in the frame of a modulus
# tau = a + i b (any b > 0; callers pass the reduced one).  With z = s + t*tau,
# q = exp(2 i pi tau), w = exp(i pi z), p = w^2, the torus Green function of
# the cell (volume-2pi normalization) is
#
#   G(s, t) = pi b/6 - log|w - 1/w| - sum_{n>=1} log|1-q^n p| + log|1-q^n/p|
#             + pi b t^2
#
# and its (s, t)-gradient follows from the log-derivative
#
#   L(z) = pi i (p+1)/(p-1)
#          + 2 pi i sum_{n>=1} [ (q^n/p)/(1-q^n/p) - q^n p/(1-q^n p) ],
#   dG/ds = -Re L,   dG/dt = -Re(tau L) + 2 pi b t.
#
# Its z-derivative, with u = q^n/p and v = q^n p,
#
#   L'(z) = 4 pi^2 p/(p-1)^2 + 4 pi^2 sum_{n>=1} [ u/(1-u)^2 + v/(1-v)^2 ],
#
# gives the second derivatives
#
#   d2G/ds2 = -Re L',  d2G/dsdt = -Re(tau L'),  d2G/dt2 = -Re(tau^2 L') + 2 pi b.
#
# Every kernel wraps (s, t) into [-1/2, 1/2) first, which keeps the
# series terms bounded by |q|^(n-1/2).
#
# A column of q^1 .. q^N against a block of points gives every term at
# once, one row per term and part.  The rows are then summed one after
# another in series order, never pairwise, so that a point's value has the
# same bits whether it is evaluated alone or among many, in any block
# (tests/test_backend.py holds the per-term loops these must equal).  The
# kernels take 1-D arrays of fractional differences.
# ---------------------------------------------------------------------------


def _powers(q, nterms):
    """q^1 .. q^nterms as a column that broadcasts over a block of points.

    Each power is the previous one times q, the order the series defines.
    """
    col = np.empty((nterms, 1), complex)
    qn = complex(1.0, 0.0)
    for k in range(nterms):
        qn = qn * q
        col[k] = qn
    return col


def _blocks(size):
    """Consecutive slices of at most PAIR_BLOCK points covering ``size``."""
    return [slice(lo, lo + PAIR_BLOCK) for lo in range(0, size, PAIR_BLOCK)]


def _setup(ds, dt, a, b):
    """tau, q, the wrapped t, w = exp(i pi z) and p = w^2 of every point."""
    tau = complex(a, b)
    q = np.exp(2j * np.pi * tau)
    s = ds - np.rint(ds)
    t = dt - np.rint(dt)
    z = s + t * tau
    w = np.exp(1j * np.pi * z)
    return tau, q, t, w, w * w


def green_values(ds, dt, a, b, nterms):
    tau, q, t, w, p = _setup(ds, dt, a, b)
    qn = _powers(q, nterms)
    out = (np.pi * b / 6.0 - np.log(np.abs(w - 1.0 / w))
           + np.pi * b * t * t)
    for blk in _blocks(len(p)):
        pb = p[blk]
        # rows: the n = 0 part, then log|1 - q^n p| and log|1 - q^n/p| per
        # term, subtracted in turn; subtract has no pairwise reduction, so
        # this holds for one column too
        terms = np.empty((2 * nterms + 1, len(pb)))
        terms[0] = out[blk]
        x = qn * pb
        np.subtract(1.0, x, out=x)
        np.abs(x, out=terms[1::2])
        np.divide(qn, pb, out=x)
        np.subtract(1.0, x, out=x)
        np.abs(x, out=terms[2::2])
        np.log(terms[1:], out=terms[1:])
        np.subtract.reduce(terms, axis=0, out=out[blk])
    return out


def green_grads(ds, dt, a, b, nterms):
    """First and second (s, t)-derivatives of G, from L(z) and L'(z).

    Returns ((G_s, G_t), (H_ss, H_st, H_tt)); both series come from the same
    u = q^n/p and v = q^n p, evaluated for every term of a block at once.
    """
    tau, q, t, _, p = _setup(ds, dt, a, b)
    qn = _powers(q, nterms)
    lsum = np.pi * 1j * (p + 1.0) / (p - 1.0)
    dl = p / (p - 1.0) ** 2
    for blk in _blocks(len(p)):
        pb = p[blk]
        # L's rows: minus its n = 0 part, then 2 pi i (u/(1-u) - v/(1-v)) per
        # term; L''s rows: minus its n = 0 part, then u/(1-u)^2 and v/(1-v)^2
        # per term.  As in green_values, the rows are subtracted in turn:
        # (-a) - b - ... is -(a + b + ...) summed in series order, to the
        # bit but for the sign of an exactly cancelling zero
        lterms = np.empty((nterms + 1, len(pb)), complex)
        dterms = np.empty((2 * nterms + 1, len(pb)), complex)
        np.negative(lsum[blk], out=lterms[0])
        np.negative(dl[blk], out=dterms[0])
        # x holds u, then v; om holds 1 - x.  Squares are taken out of place:
        # numpy rounds an in-place square of a lone complex element
        # differently
        x = qn / pb
        om = 1.0 - x
        np.divide(x, om, out=lterms[1:])
        np.divide(x, om ** 2, out=dterms[1::2])
        np.multiply(qn, pb, out=x)
        np.subtract(1.0, x, out=om)
        # v/(1-v) waits in the rows that v/(1-v)^2 fills next
        np.divide(x, om, out=dterms[2::2])
        np.subtract(lterms[1:], dterms[2::2], out=lterms[1:])
        np.multiply(2j * np.pi, lterms[1:], out=lterms[1:])
        np.divide(x, om ** 2, out=dterms[2::2])
        np.subtract.reduce(lterms, axis=0, out=lsum[blk])
        np.subtract.reduce(dterms, axis=0, out=dl[blk])
    # lsum now holds -L and dl -L' / (4 pi^2)
    dl *= 4.0 * np.pi * np.pi
    grad = (lsum.real, (tau * lsum).real + 2.0 * np.pi * b * t)
    hess = (dl.real, (tau * dl).real, (tau * tau * dl).real + 2.0 * np.pi * b)
    return grad, hess


# ---------------------------------------------------------------------------
# Projected Gauss-Seidel sweep over cells of one red-black color of an
# irregular (masked) grid.
#
# Flat-array representation: ``out`` is the block of ``values`` swept, a
# view (``values[start:stop]``) that the sweep writes in place, so its length
# is the number of cells swept; ``legs`` is one int64 run of 4 * len(out)
# flat indices into ``values``, the block's E, W, N, then S neighbors (any
# index with zero coefficient when the neighbor carries Dirichlet data folded
# into ``bc``, the right-hand side); ``coef`` is a pair (full, cut): the
# block's last k cells have cut legs and their coefficients in ``cut``, a
# (4, k) array, and every leg of the cells before them has the one number
# ``full``; ``diag`` (the diagonal of -Delta_h + 1) is one number per cell;
# ``obstacle`` is the lower-bound clamp, a number or one per cell (-inf for
# an unconstrained solve); ``work`` is scratch space of at least
# 4 * len(out) floats.  Cells of one color share no stencil leg, so the
# vectorized update is exact Gauss-Seidel for that color.
#
# One ``take`` gathers the four legs: mode="clip" writes them straight into
# ``work``, where mode="raise" gathers into a temporary first, but it would
# also clamp a bad index silently, so the grid keeps ``legs`` in
# [0, len(values)).  The weighted legs are summed E + W + N + S, in turn.
# ---------------------------------------------------------------------------


def _leg_sum(values, legs, coef, work):
    """coef-weighted sum of the four legs, E + W + N + S, in ``work``."""
    full, cut = coef
    terms = values.take(legs, out=work[:legs.size], mode="clip").reshape(4, -1)
    k = terms.shape[1] - cut.shape[1]
    terms[:, :k] *= full
    terms[:, k:] *= cut
    acc = terms[0]
    acc += terms[1]
    acc += terms[2]
    acc += terms[3]
    return acc


def psor_sweep(values, out, legs, coef, diag, bc, obstacle, work):
    acc = _leg_sum(values, legs, coef, work)
    acc += bc
    acc /= diag
    np.maximum(acc, obstacle, out=out)


def warmup():
    """Run every kernel once on tiny inputs."""
    ds = np.array([0.3, 0.6])
    dt = np.array([0.2, 0.7])
    green_values(ds, dt, 0.5, np.sqrt(3.0) / 2.0, 4)
    green_grads(ds, dt, 0.5, np.sqrt(3.0) / 2.0, 4)
    vals = np.zeros(9)
    legs = np.arange(8, dtype=np.int64)
    cf = np.ones(2)
    psor_sweep(vals, vals[4:6], legs, (1.0, np.ones((4, 1))), cf * 5.0, cf,
               -np.inf, np.empty(8))
