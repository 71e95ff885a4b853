"""The numpy kernel module."""

import inspect

import numpy as np
import pytest

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


def _loop_values(ds, dt, a, b, nterms):
    """G summed one series term after another."""
    tau = complex(a, b)
    q = np.exp(2j * np.pi * tau)
    s = ds - np.rint(ds)
    t = dt - np.rint(dt)
    z = s + t * tau
    w = np.exp(1j * np.pi * z)
    p = w * w
    acc = np.pi * b / 6.0 - np.log(np.abs(w - 1.0 / w)) + np.pi * b * t * t
    qn = complex(1.0, 0.0)
    for _ in range(nterms):
        qn = qn * q
        acc = acc - np.log(np.abs(1.0 - qn * p)) - np.log(np.abs(1.0 - qn / p))
    return acc


def _loop_grads(ds, dt, a, b, nterms):
    """The derivatives of G from L and L' summed one term after another."""
    tau = complex(a, b)
    q = np.exp(2j * np.pi * tau)
    s = ds - np.rint(ds)
    t = dt - np.rint(dt)
    z = s + t * tau
    w = np.exp(1j * np.pi * z)
    p = w * w
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
    grad = (-lsum.real, -(tau * lsum).real + 2.0 * np.pi * b * t)
    hess = (-dl.real, -(tau * dl).real, -(tau * tau * dl).real + 2.0 * np.pi * b)
    return grad, hess


@pytest.mark.parametrize("nterms", [4, 9, 200])
@pytest.mark.parametrize("pairs", [1, 2, 23, 496, 1025, 1500, 3000])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.5, np.sqrt(3.0) / 2.0),
                                  (0.3, 1.2)], ids=["square", "hex", "skew"])
def test_kernels_equal_per_term_loops(a, b, pairs, nterms):
    # the same operations summed in the same order give the same bits; a
    # pairwise sum or u- and v-terms added together first do not.  1,025,
    # 1,500 and 3,000 points cross the kernels' block edges; 1,025 ends in a
    # block of a single point
    assert backend.PAIR_BLOCK == 512
    rng = np.random.default_rng(1000 * pairs + nterms)
    ds, dt = rng.uniform(-1.5, 1.5, (2, pairs))
    assert np.array_equal(backend.green_values(ds, dt, a, b, nterms),
                          _loop_values(ds, dt, a, b, nterms))
    (gs, gt), hess = backend.green_grads(ds, dt, a, b, nterms)
    (ls, lt), lhess = _loop_grads(ds, dt, a, b, nterms)
    assert np.array_equal(gs, ls) and np.array_equal(gt, lt)
    for got, want in zip(hess, lhess):
        assert np.array_equal(got, want)


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
    legs = np.concatenate([iE, iW, iN, iS])
    cut = rng.uniform(1.0, 2.0, (4, 4))
    cut[3, 1] = 0.0
    diag, bc = rng.uniform(6.0, 8.0, 4), rng.uniform(0.0, 1.0, 4)
    if obstacle == "array":
        obstacle = rng.uniform(0.0, 1.0, 4)
    keep = np.r_[0:5, 9:16]
    for k in (0, 3, 4):
        values[5:9] = before[5:9]
        work = np.full(20, np.nan)
        backend.psor_sweep(values, out, legs, (1.5, cut[:, 4 - k:].copy()),
                           diag, bc, obstacle, work)
        cE, cW, cN, cS = np.hstack([np.full((4, 4 - k), 1.5), cut[:, 4 - k:]])
        gs = (cE * before[iE] + cW * before[iW] + cN * before[iN]
              + cS * before[iS] + bc) / diag
        assert np.array_equal(values[5:9], np.maximum(gs, obstacle))
        assert np.array_equal(values[keep], before[keep])
