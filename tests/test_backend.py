"""The numpy kernel module."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abrikosov import backend


def _kernels():
    """Public functions of the backend other than ``warmup``."""
    return sorted(name for name, obj in vars(backend).items()
                  if inspect.isfunction(obj) and obj.__module__ == backend.__name__
                  and not name.startswith("_") and name != "warmup")


def test_kernel_set():
    assert _kernels() == ["green_grads", "green_values", "psor_sweep"]


def test_warmup_is_idempotent():
    backend.warmup()
    backend.warmup()


def test_warmup_calls_every_kernel(monkeypatch):
    kernels = _kernels()
    called = set()
    for name in kernels:
        kernel = getattr(backend, name)

        def wrapper(*args, _name=name, _kernel=kernel):
            called.add(_name)
            return _kernel(*args)
        monkeypatch.setattr(backend, name, wrapper)
    backend.warmup()
    assert called == set(kernels)


# ---------------------------------------------------------------------------
# The Green kernels against their per-term loops
# ---------------------------------------------------------------------------


def _setup(ds, dt, a, b):
    """tau, q, the wrapped t, w = exp(i pi z) and p = w^2."""
    tau = complex(a, b)
    q = np.exp(2j * np.pi * tau)
    s = ds - np.rint(ds)
    t = dt - np.rint(dt)
    z = s + t * tau
    w = np.exp(1j * np.pi * z)
    return tau, q, t, w, w * w


def _paired_values(ds, dt, a, b, nterms):
    """G from the paired factors F_n, multiplied one term after another."""
    tau, q, t, w, p = _setup(ds, dt, a, b)
    c = p + 1.0 / p
    acc = w - 1.0 / w
    qn = complex(1.0, 0.0)
    for _ in range(nterms):
        qn = qn * q
        q2n = qn * qn
        acc = acc * ((1.0 + q2n) - qn * c)
    return np.pi * b / 6.0 - np.log(np.abs(acc)) + np.pi * b * t * t


def _paired_grads(ds, dt, a, b, nterms):
    """2 dG/dz and 4 d2G/dz2 from L and L' in the paired form, summed one
    term after another."""
    tau, q, t, _, p = _setup(ds, dt, a, b)
    ip = 1.0 / p
    c = p + ip
    ser = np.zeros_like(p)
    dl = -(p / (p - 1.0) ** 2)
    qn = complex(1.0, 0.0)
    for _ in range(nterms):
        qn = qn * q
        q2n = qn * qn
        r = np.reciprocal((1.0 + q2n) - qn * c)
        ser = ser - qn * r
        dl = dl - ((qn * (1.0 + q2n)) * c - 4.0 * q2n) * (r * r)
    lsum = np.pi * 1j * (p + 1.0) / (p - 1.0) + 2j * np.pi * (p - ip) * ser
    dl = dl * (4.0 * np.pi * np.pi)
    return -(lsum + 2j * np.pi * t), 2.0 * (dl - np.pi / b)


@pytest.mark.parametrize("nterms", [4, 9, 200])
@pytest.mark.parametrize("pairs", [1, 2, 23, 496, 1025, 1500, 3000])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.5, np.sqrt(3.0) / 2.0),
                                  (0.3, 1.2)], ids=["square", "hex", "skew"])
def test_kernels_equal_per_term_loops(a, b, pairs, nterms):
    # the same operations summed in the same order give the same bits; a
    # pairwise sum or product, or a product taken in place, does not.
    # 1,025, 1,500 and 3,000 points cross the kernels' block edges; 1,025
    # ends in a block of a single point
    assert backend.PAIR_BLOCK == 512
    rng = np.random.default_rng(1000 * pairs + nterms)
    ds, dt = rng.uniform(-1.5, 1.5, (2, pairs))
    assert np.array_equal(backend.green_values(ds, dt, a, b, nterms),
                          _paired_values(ds, dt, a, b, nterms))
    dz, dzz = backend.green_grads(ds, dt, a, b, nterms)
    ldz, ldzz = _paired_grads(ds, dt, a, b, nterms)
    assert dz.dtype == dzz.dtype == complex
    assert np.array_equal(dz, ldz) and np.array_equal(dzz, ldzz)


def _loop_values(ds, dt, a, b, nterms):
    """G from the unpaired triple product, one log per factor."""
    tau, q, t, w, p = _setup(ds, dt, a, b)
    acc = np.pi * b / 6.0 - np.log(np.abs(w - 1.0 / w)) + np.pi * b * t * t
    qn = complex(1.0, 0.0)
    for _ in range(nterms):
        qn = qn * q
        acc = acc - np.log(np.abs(1.0 - qn * p)) - np.log(np.abs(1.0 - qn / p))
    return acc


def _loop_grads(ds, dt, a, b, nterms):
    """2 dG/dz and 4 d2G/dz2 from the unpaired terms of L and L', then L
    and L' themselves."""
    tau, q, t, w, p = _setup(ds, dt, a, b)
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


def _unpaired_gaps(ds, dt, a, b, nterms, lsum, dl):
    """Bounds on |L - L_loop| and |L' - L'_loop|, the paired kernels'
    series against the unpaired loop's ``lsum`` and ``dl``, from per-term
    rounding (derived in ``test_kernels_equal_the_unpaired_product``)."""
    u = 2.0 ** -53
    _, q, _, _, p = _setup(ds, dt, a, b)
    n = np.arange(1, nterms + 1)[:, None]
    mu = (abs(q) ** n * (np.abs(p) + 1.0 / np.abs(p))).sum(axis=0)
    mu2 = 4.0 * (mu + 4.0 * (abs(q) ** (2 * n)).sum(axis=0))
    per_term = (2 * nterms + 200) * u
    d_l = 2.0 * np.pi * per_term * mu + (nterms + 4) * u * np.abs(lsum)
    d_dl = 4.0 * np.pi ** 2 * per_term * mu2 + (2 * nterms + 4) * u * np.abs(dl)
    return d_l, d_dl


@pytest.mark.parametrize("nterms", [4, 9, 200])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.5, np.sqrt(3.0) / 2.0),
                                  (0.3, 1.2), (0.1, 10.0), (0.0, 100.0)],
                         ids=["square", "hex", "skew", "long", "b100"])
def test_kernels_equal_the_unpaired_product(a, b, nterms):
    # The paired factors F_n = (1 - q^n p)(1 - q^n/p) against the unpaired
    # product, to a bound built from per-term rounding.  With u = 2^-53,
    # each complex product, quotient or reciprocal rounds to within 8u of
    # itself, a sum to within u.  A term of either form takes at most six
    # such steps on numbers no larger than mu_n = |q|^n (|p| + 1/|p|) (or
    # on 1), and at |t| <= 1/2 every factor has modulus at least 1/2, so
    # the two forms' n-th terms differ by at most 200 u mu_n, and 4 x that
    # for the squared denominators of L'.  Each of the N steps of a running
    # sum rounds to u of the running total: of its terms' sizes, and of the
    # shared lead part (the n = 0 term, and for G its two real terms) when
    # the sum carries it, as the unpaired G and L and both forms of L' do.
    # The final sums and products add a few u more.  Half the points sit at
    # |t| = 1/2, where |q^n c| is largest.
    #
    # The kernels return -(L + 2 pi i t) and -2 (L' + pi/b).  Both forms add
    # the same rounded constant c (2 pi i t, or pi/b) to their own L, and
    # a sum rounds to within u of itself, so with x the loop's L + c,
    # |x| <= |dz_loop| / (1 - u), and d the bound on the gap of the L:
    #   |fl(L + c) - fl(L_loop + c)| <= d + u (|x| + d) + u |x|
    #                               = (1 + u) d + 2 u |x|.
    # Negation and the factor -2 are exact, so the dz gap is at most
    # (1 + u) d_l + 2 u |dz_loop| / (1 - u), and the dzz gap twice
    # (1 + u) d_dl + 2 u |dzz_loop / 2| / (1 - u).
    rng = np.random.default_rng(nterms)
    ds = rng.uniform(-1.5, 1.5, 400)
    dt = np.concatenate([rng.uniform(-1.5, 1.5, 200),
                         np.repeat([0.5, -0.5], 100)])
    u = 2.0 ** -53
    _, q, t, w, p = _setup(ds, dt, a, b)
    n = np.arange(1, nterms + 1)[:, None]
    mu = (abs(q) ** n * (np.abs(p) + 1.0 / np.abs(p))).sum(axis=0)
    per_term = (2 * nterms + 200) * u

    lead = (np.pi * b / 6.0 + np.abs(np.log(np.abs(w - 1.0 / w)))
            + np.pi * b * t * t + 2.0 * mu)
    tol = per_term * mu + (2 * nterms + 6) * u * lead
    err = np.abs(backend.green_values(ds, dt, a, b, nterms)
                 - _loop_values(ds, dt, a, b, nterms))
    assert np.all(err <= tol)

    dz, dzz = backend.green_grads(ds, dt, a, b, nterms)
    ldz, ldzz, lsum, dl = _loop_grads(ds, dt, a, b, nterms)
    d_l, d_dl = _unpaired_gaps(ds, dt, a, b, nterms, lsum, dl)
    assert np.all(np.abs(dz - ldz)
                  <= (1 + u) * d_l + 2 * u * np.abs(ldz) / (1 - u))
    assert np.all(np.abs(dzz - ldzz)
                  <= 2 * (1 + u) * d_dl + 2 * u * np.abs(ldzz) / (1 - u))


# ---------------------------------------------------------------------------
# The projected Gauss-Seidel sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("obstacle", [-np.inf, -1e300, 0.6, "array"])
def test_psor_sweep_writes_only_its_block(obstacle):
    # cells 5..8 are swept from neighbors outside the block; every other
    # cell keeps its sentinel value.  The last k cells have cut legs and
    # their own coefficients, the others 1.5 on every leg: no cut cell
    # (k = 0), a mixed block and an all-cut block.  Cell 6's S leg is cut
    # where cell 6 is a cut cell: index 0 with coefficient 0
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 1.0, 16)
    before = values.copy()
    out = values[5:9]
    iE, iW, iN, iS = (np.array(ix) for ix in
                      ([0, 1, 2, 3], [9, 10, 11, 12], [13, 14, 15, 0],
                       [4, 0, 13, 9]))
    legs = np.stack([iE, iW, iN, iS])
    cut = rng.uniform(1.0, 2.0, (4, 4))
    cut[3, 1] = 0.0
    diag, bc = rng.uniform(6.0, 8.0, 4), rng.uniform(0.0, 1.0, 4)
    if obstacle == "array":
        obstacle = rng.uniform(0.0, 1.0, 4)
    keep = np.r_[0:5, 9:16]
    for k in (0, 3, 4):
        values[5:9] = before[5:9]
        work = np.full((4, 4), np.nan)
        coef = np.hstack([np.full((4, 4 - k), 1.5), cut[:, 4 - k:]])
        backend.psor_sweep(values, out, legs, coef, diag, bc, obstacle, work)
        cE, cW, cN, cS = coef
        gs = (cE * before[iE] + cW * before[iW] + cN * before[iN]
              + cS * before[iS] + bc) / diag
        assert np.array_equal(values[5:9], np.maximum(gs, obstacle))
        assert np.array_equal(values[keep], before[keep])


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 40), cut_share=st.floats(0.0, 1.0),
       pad=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1),
       obstacle=st.one_of(st.just(-np.inf), st.floats(-1.0, 2.0),
                          st.just("array")))
def test_psor_sweep_is_the_cellwise_update(m, cut_share, pad, seed, obstacle):
    # a random block of m cells at offset pad, its last k cells with cut
    # legs whose coefficients are sometimes 0, legs anywhere in the values:
    # each cell gets max((cE vE + cW vW + cN vN + cS vS + bc) / diag,
    # obstacle), summed in that order from the values before the sweep,
    # and no value outside the block changes
    rng = np.random.default_rng(seed)
    size = m + pad + 5
    values = rng.uniform(-1.0, 1.0, size)
    before = values.copy()
    legs = rng.integers(0, size, (4, m), dtype=np.int64)
    k = round(cut_share * m)
    coef = np.full((4, m), rng.uniform(0.5, 2.0))
    cut = rng.uniform(0.5, 2.0, (4, k))
    cut[rng.random((4, k)) < 0.3] = 0.0
    coef[:, m - k:] = cut
    diag, bc = rng.uniform(6.0, 8.0, m), rng.uniform(-1.0, 1.0, m)
    if obstacle == "array":
        obstacle = rng.uniform(-1.0, 1.0, m)
    bound = np.broadcast_to(obstacle, (m,))
    backend.psor_sweep(values, values[pad:pad + m], legs, coef, diag, bc,
                       obstacle, np.full((4, m), np.nan))
    for cell in range(m):
        (iE, iW, iN, iS), (cE, cW, cN, cS) = legs[:, cell], coef[:, cell]
        acc = cE * before[iE]
        acc += cW * before[iW]
        acc += cN * before[iN]
        acc += cS * before[iS]
        want = max((acc + bc[cell]) / diag[cell], bound[cell])
        assert values[pad + cell] == want
    outside = np.r_[0:pad, pad + m:size]
    assert np.array_equal(values[outside], before[outside])
