"""The eta route of the lattice energy, on the standard library alone.

The energy of a unit-density lattice of shape ``tau = a + i b`` is
w(tau) = -1/4 log(2 pi b) - log|eta(tau)|: one reduction into the
fundamental domain and a q-product of a few terms, with ``q = exp(2 i pi
tau)``.  This module holds those pieces, and imports no numpy, so that
``python -m abrikosov lattice --tau A B`` answers without loading it.
``modular`` and ``lattice`` import every name back, and the moduli scan
runs the same ``_w_unit`` and ``_density_scale`` over numpy arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    InputError,
    NonPositiveImaginaryPart,
    NonPositiveParameter,
    PrecisionUnreachable,
    positive,
)

DEFAULT_CONTROL_TOL = 1e-12
MAX_SERIES_TERMS = 512
TWO_PI = 2.0 * math.pi
MAX_B = 1e307              # largest b the routes and the scan take: 2 pi b < inf


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the q-series and lattice sums.

    ``abs_tol`` is the one truncation setting: each q-series keeps the terms
    and each lattice sum the points that its own proven tail bound needs to
    stay below it.  A q-series that would need more than
    ``MAX_SERIES_TERMS`` terms raises :class:`PrecisionUnreachable`.
    """

    abs_tol: float = DEFAULT_CONTROL_TOL

    def __post_init__(self):
        positive("abs_tol", self.abs_tol)


_DEFAULT_CTL = SeriesControl()


@dataclass(frozen=True)
class EnergyReport:
    """An energy value plus the route and truncation data that produced it."""

    value: float
    route: str  # "eta" or "fourier"
    truncation: SeriesControl
    error_estimate: float

    def __post_init__(self):
        if self.error_estimate < 0.0:
            raise NonPositiveParameter("error_estimate must be >= 0")


# ---------------------------------------------------------------------------
# Fundamental-domain reduction
# ---------------------------------------------------------------------------


def _require_upper(tau: complex) -> complex:
    tau = complex(tau)
    if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
        raise InputError(f"tau must be finite, not {tau}")
    if not (tau.imag > 0.0):
        raise NonPositiveImaginaryPart(f"tau must satisfy Im tau > 0, got {tau}")
    return tau


def _reduce_with_matrix(tau: complex):
    """Reduce tau into {|Re| <= 1/2, |tau| >= 1} tracking the group word.

    Returns (tau', M) with M = ((alpha, beta), (gamma, delta)) in Python
    ints, det M = 1, and tau' = (alpha tau + beta) / (gamma tau + delta).
    A |tau|^2 that underflows to 0 is inverted as -1/tau.
    """
    tau = _require_upper(tau)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10_000):
        k = math.floor(tau.real + 0.5)
        if k != 0:
            tau = tau - k
            a, b = a - k * c, b - k * d
        norm = tau.real * tau.real + tau.imag * tau.imag
        if norm < 1.0 - 1e-15:
            tau = (complex(-tau.real / norm, tau.imag / norm) if norm
                   else -1.0 / tau)
            a, b, c, d = -c, -d, a, b
            continue
        break
    # canonical representative on the boundary identifications
    if abs(tau.real + 0.5) < 1e-14:
        tau = complex(0.5, tau.imag)
        a, b = a + c, b + d
    norm = tau.real * tau.real + tau.imag * tau.imag
    if abs(norm - 1.0) < 1e-14 and tau.real < -1e-14:
        tau = complex(-tau.real / norm, tau.imag / norm)
        a, b, c, d = -c, -d, a, b
    return tau, ((a, b), (c, d))


def reduce_fundamental(tau: complex) -> complex:
    """Canonical representative of tau in {|Re| <= 1/2, |tau| >= 1}.

    Boundary points are canonicalized toward nonnegative real part
    (Re = -1/2 maps to +1/2; the left unit-arc half maps to the right).
    """
    return _reduce_with_matrix(tau)[0]


def _reduced(tau: complex, what: str = "") -> complex:
    """``reduce_fundamental(tau)``; InputError naming ``what`` (by default
    tau) if its imaginary part exceeds MAX_B, the largest the routes take."""
    tau_r = reduce_fundamental(tau)
    if tau_r.imag > MAX_B:
        raise InputError(f"{what or f'tau = {tau}'} reduces to Im tau above "
                         f"{MAX_B:g}")
    return tau_r


# ---------------------------------------------------------------------------
# The eta product
# ---------------------------------------------------------------------------


def _nterms_for(b: float, ctl: SeriesControl, extra: float = 0.0) -> int:
    """Smallest n with exp(-2 pi b n + extra) below ctl.abs_tol / 10, plus 2
    (at least 4); PrecisionUnreachable above MAX_SERIES_TERMS."""
    need = (-math.log(ctl.abs_tol / 10.0) + extra) / (2.0 * math.pi * b)
    n = max(int(math.ceil(need)) + 2, 4)
    if n > MAX_SERIES_TERMS:
        raise PrecisionUnreachable(
            f"need {n} series terms for abs_tol={ctl.abs_tol} at b={b}, "
            f"more than {MAX_SERIES_TERMS}"
        )
    return n


def eta_truncation(tau: complex, ctl: SeriesControl = _DEFAULT_CTL):
    """(term count, a-posteriori bound) of the eta product at this tau, as
    ``modular.dedekind_eta`` and ``w_eta`` take it.

    The bound is on |log eta_truncated - log eta|: the dropped factors are
    prod_{k>n}(1 - q^k), so |delta log| <= sum_{k>n} |q|^k / (1 - |q|)
    <= |q|^(n+1) / (1 - |q|)^2.
    """
    tau = _require_upper(tau)
    n = _nterms_for(tau.imag, ctl)
    qa = math.exp(-2.0 * math.pi * tau.imag)
    bound = qa ** (n + 1) / (1.0 - qa) ** 2
    return n, bound


def _eta_product(q, n: int):
    """prod_{k<=n} (1 - q^k), dedekind_eta without q^(1/24), at one complex
    q or elementwise over an array of them, which it updates in place."""
    qn = +q    # a new array where q is one, so that q^k can grow in place
    prod = 1.0 - qn
    for _ in range(n - 1):
        qn *= q
        prod *= 1.0 - qn
    return prod


def _cexp(z: complex) -> complex:
    """exp(z) for one complex z with Re z <= 0 by the operations, and so with
    the bits, of ``cmath.exp``, whose extension module raised the peak
    memory of a ``moduli-scan`` process by about 0.15 MB."""
    e = math.exp(z.real)
    return complex(e * math.cos(z.imag), e * math.sin(z.imag))


def _w_unit(tau, n: int, exp=_cexp, log=math.log):
    """w_1 = pi b / 12 - 1/4 log(2 pi b) - log|prod_{k<=n} (1 - q^k)| at
    one complex tau, or elementwise over an array with numpy's ``exp`` and
    ``log`` (``abs`` and ``.imag`` serve both)."""
    b = tau.imag
    return (math.pi * b / 12.0 - 0.25 * log(TWO_PI * b)
            - log(abs(_eta_product(exp(2j * math.pi * tau), n))))


# ---------------------------------------------------------------------------
# Density scaling and the route
# ---------------------------------------------------------------------------


def _density_scale(value_unit, m: float, any_=bool):
    """w_m = m (w_1 - 1/4 log m), elementwise in w_1 (pass numpy's ``any``
    with an array)."""
    m = positive("density m", m)
    return _in_range(m * (value_unit - 0.25 * math.log(m)), value_unit, m,
                     any_)


def _in_range(value, value_unit, m: float, any_=bool):
    """``value``, the density-m scaling of ``value_unit``; InputError where
    it takes a finite value out of the float range."""
    if any_((abs(value) == math.inf) & (abs(value_unit) < math.inf)):
        raise InputError(f"density m = {m} scales the energy out of the "
                         "float range")
    return value


def w_eta(tau: complex, m: float = 1.0,
          ctl: SeriesControl = _DEFAULT_CTL) -> EnergyReport:
    """Energy of the shape-tau lattice at density m, eta-product route."""
    tau_r = _reduced(tau)
    n, log_tail = eta_truncation(tau_r, ctl)
    return EnergyReport(value=_density_scale(_w_unit(tau_r, n), m),
                        route="eta", truncation=ctl,
                        error_estimate=m * log_tail)
