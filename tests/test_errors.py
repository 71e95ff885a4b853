"""Parameter validation: every float parameter that must be finite and > 0
goes through ``errors.positive``, which names the parameter and its value."""

import math
import re

import pytest

from abrikosov.errors import NonPositiveParameter, positive
from abrikosov.lattice import (
    TRIANGULAR_TAU,
    shape_basis,
    theta_minimality_probe,
    w_eta,
    w_zeta_diff,
)
from abrikosov.modular import SeriesControl, theta_lattice
from abrikosov.obstacle import DomainGrid, Ellipse, UnitDisk, solve_obstacle
from abrikosov.torus import MinimizeControl, TorusSpec

BAD = [0.0, -1.0, math.inf, math.nan]


def test_positive_returns_the_float():
    assert positive("x", 2) == 2.0 and type(positive("x", 2)) is float
    assert positive("x", 5e-324) == 5e-324
    assert positive("x", 1.7e308) == 1.7e308


@pytest.mark.parametrize("x", BAD + [-math.inf, -0.0])
def test_positive_rejects_what_is_not_finite_and_positive(x):
    with pytest.raises(NonPositiveParameter, match=r"^x must be finite and > 0"):
        positive("x", x)


def _solve_at_tol(x):
    solve_obstacle(DomainGrid(UnitDisk(), 0.25), 0.5, x)


SITES = {
    "abs_tol": lambda x: SeriesControl(abs_tol=x),
    "grad_tol": lambda x: MinimizeControl(grad_tol=x),
    "ellipse semi-axis rx": lambda x: Ellipse(x, 1.0),
    "ellipse semi-axis ry": lambda x: Ellipse(1.0, x),
    "grid spacing h": lambda x: DomainGrid(UnitDisk(), x),
    "tol": _solve_at_tol,
    "alpha": lambda x: theta_lattice(shape_basis(1j, 1.0), x),
    "alphas": lambda x: theta_minimality_probe([1.0, x], 1),
    "covolume": lambda x: shape_basis(1j, x),
    "density m": lambda x: w_eta(1j, x),
    "density m (zeta difference)": lambda x: w_zeta_diff(1j, TRIANGULAR_TAU,
                                                         x),
    "aspect": lambda x: TorusSpec.rectangular(x),
}


@pytest.mark.parametrize("x", BAD, ids=["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("site", SITES)
def test_each_positive_parameter_is_checked_by_name(site, x):
    name = site.split(" (")[0]
    with pytest.raises(NonPositiveParameter,
                       match=re.escape(f"{name} must be finite and > 0")):
        SITES[site](x)

