"""Vectorized numpy kernels: torus Green-function batches and one sweep.

These are the hot loops of the package: the Green function's q-series over
arrays of point differences (``green_values``), its first and second
derivatives from the same terms (``green_grads``), and one projected
Gauss-Seidel sweep (``psor_sweep``), the smoother of the obstacle
multigrid.  Each Green kernel evaluates all series terms of a block of
``PAIR_BLOCK`` points in one broadcast pass and combines them in series
order: ``green_values`` multiplies the paired factors one row after
another, ``green_grads`` sums its rows with one reduction.  So a call costs
a fixed number of numpy operations per block, and per term one more for
the product, and its (terms x points) temporaries stay the same size
however many points a call brings.  They are single-threaded and
deterministic.
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# Points per broadcast pass of a Green kernel.  A pass holds a few
# (N x points) complex temporaries, one row per series term (N = 8 on the
# square torus: 64 KB at 512 points).  Passes over a few thousand points no
# longer fit in cache, and their freed temporaries go back to the system
# and fault in again on the next call.  On a 2-core Xeon VM, 512 points
# ran the benchmark's conjecture1 rounds about 3% faster than 1,024, and
# 1,024 an n = 128 probe (24,384 pairs a call) about 7% faster.
PAIR_BLOCK = 512

# ---------------------------------------------------------------------------
# Green-function kernels.
#
# Inputs are fractional coordinates (s, t) in the frame of a modulus
# tau = a + i b (any b > 0; callers pass the reduced one).  With z = s + t*tau,
# q = exp(2 i pi tau), w = exp(i pi z), p = w^2, the torus Green function of
# the cell (volume-2pi normalization) is
#
#   G(s, t) = pi b/6 + pi b t^2 - log|(w - 1/w) prod_{n>=1} F_n|,
#   F_n = (1 - q^n p)(1 - q^n/p) = 1 + q^2n - q^n c,   c = p + 1/p,
#
# Jacobi's triple product with its factors paired (DLMF 20.5.1).  Its
# (s, t)-gradient follows from the log-derivative, with d = p - 1/p,
#
#   L(z) = pi i (p+1)/(p-1) - 2 pi i d sum_{n>=1} q^n/F_n,
#   dG/ds = -Re L,   dG/dt = -Re(tau L) + 2 pi b t,
#
# and its z-derivative
#
#   L'(z) = 4 pi^2 p/(p-1)^2
#           + 4 pi^2 sum_{n>=1} [q^n (1 + q^2n) c - 4 q^2n] / F_n^2
#
# gives the second derivatives
#
#   d2G/ds2 = -Re L',  d2G/dsdt = -Re(tau L'),  d2G/dt2 = -Re(tau^2 L') + 2 pi b.
#
# Every kernel wraps (s, t) into [-1/2, 1/2] first, which bounds |q^n c| by
# 2|q|^(n-1/2), so no F_n cancels.  The n = 0 parts keep p - 1 (and
# w - 1/w), whose cancellation near z = 0 is the pole's own; w - 1/w
# rewritten in c - 2 would square it.
#
# Per-term constants (q^n, 1 + q^2n, ...) form columns that give the rows
# F_1 .. F_N of a block of points at once.  The product is taken one row
# after another, out of place, and the series rows are summed in series
# order, never pairwise, so that a point's value has the same bits whether
# it is evaluated alone or among many, in any block (tests/test_backend.py
# holds the per-term loops these must equal).  The kernels take 1-D arrays
# of fractional differences.
# ---------------------------------------------------------------------------


def _columns(q, nterms):
    """q^n, 1 + q^2n, q^n (1 + q^2n) and 4 q^2n for n = 1 .. nterms, as
    (nterms, 1) columns that broadcast over a block of points.

    Each q^n is the previous one times q, the order the series defines, and
    q^2n is q^n q^n.
    """
    rows = []
    qn = complex(1.0, 0.0)
    for _ in range(nterms):
        qn = qn * q
        q2n = qn * qn
        rows.append((qn, 1.0 + q2n, qn * (1.0 + q2n), 4.0 * q2n))
    return np.array(rows).T.reshape(4, nterms, 1)


def _blocks(size):
    """Consecutive slices of at most PAIR_BLOCK points covering ``size``."""
    return [slice(lo, lo + PAIR_BLOCK) for lo in range(0, size, PAIR_BLOCK)]


def _setup(ds, dt, a, b):
    """tau, q, the wrapped t, w = exp(i pi z), p = w^2 and 1/p of every
    point."""
    tau = complex(a, b)
    q = np.exp(2j * np.pi * tau)
    s = ds - np.rint(ds)
    t = dt - np.rint(dt)
    z = s + t * tau
    w = np.exp(1j * np.pi * z)
    p = w * w
    return tau, q, t, w, p, 1.0 / p


def green_values(ds, dt, a, b, nterms):
    tau, q, t, w, p, ip = _setup(ds, dt, a, b)
    qn, one_q2n, _, _ = _columns(q, nterms)
    c = p + ip
    prod = w - 1.0 / w
    for blk in _blocks(len(p)):
        # rows F_n = (1 + q^2n) - q^n c, multiplied in turn; multiply.reduce
        # would not keep one point's bits, nor would an in-place product
        f = qn * c[blk]
        np.subtract(one_q2n, f, out=f)
        acc = prod[blk]
        for row in f:
            acc = acc * row
        prod[blk] = acc
    return np.pi * b / 6.0 - np.log(np.abs(prod)) + np.pi * b * t * t


def green_grads(ds, dt, a, b, nterms):
    """First and second (s, t)-derivatives of G, from L(z) and L'(z).

    Returns ((G_s, G_t), (H_ss, H_st, H_tt)); both series come from the
    same reciprocals 1/F_n, evaluated for every term of a block at once.
    """
    tau, q, t, _, p, ip = _setup(ds, dt, a, b)
    qn, one_q2n, lead, four_q2n = _columns(q, nterms)
    c = p + ip
    ser = np.empty_like(p)
    dl = p / (p - 1.0) ** 2
    for blk in _blocks(len(p)):
        cb = c[blk]
        # L's rows: a zero, then q^n/F_n per term; L''s rows: minus its
        # n = 0 part, then (q^n (1 + q^2n) c - 4 q^2n)/F_n^2 per term.  The
        # rows are subtracted in turn: subtract has no pairwise reduction,
        # and (-a) - b - ... is -(a + b + ...) summed in series order, to
        # the bit but for the sign of an exactly cancelling zero
        lterms = np.empty((nterms + 1, len(cb)), complex)
        dterms = np.empty((nterms + 1, len(cb)), complex)
        lterms[0] = 0.0
        np.negative(dl[blk], out=dterms[0])
        f = qn * cb
        np.subtract(one_q2n, f, out=f)
        r = np.reciprocal(f)
        np.multiply(qn, r, out=lterms[1:])
        # the square is taken out of place: numpy rounds an in-place square
        # of a lone complex element differently
        r = r * r
        np.multiply(lead, cb, out=f)
        np.subtract(f, four_q2n, out=f)
        np.multiply(f, r, out=dterms[1:])
        np.subtract.reduce(lterms, axis=0, out=ser[blk])
        np.subtract.reduce(dterms, axis=0, out=dl[blk])
    # ser now holds -sum q^n/F_n, and dl -L' / (4 pi^2)
    lsum = np.pi * 1j * (p + 1.0) / (p - 1.0) + 2j * np.pi * (p - ip) * ser
    dl *= 4.0 * np.pi * np.pi
    grad = (-lsum.real, -(tau * lsum).real + 2.0 * np.pi * b * t)
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
