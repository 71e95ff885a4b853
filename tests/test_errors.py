"""Parameter validation: every float parameter that must be finite and > 0
goes through ``errors.positive``, and every count through ``errors.count``;
both name the parameter and its value."""

import math
import re

import numpy as np
import pytest

from abrikosov.errors import NonPositiveParameter, count, positive
from abrikosov.lattice import (
    TRIANGULAR_TAU,
    ModuliGrid,
    shape_basis,
    theta_minimality_probe,
    w_eta,
    w_zeta_diff,
)
from abrikosov.modular import SeriesControl, theta_lattice
from abrikosov.obstacle import DomainGrid, Ellipse, UnitDisk, solve_obstacle
from abrikosov.torus import (
    MinimizeControl,
    TorusSpec,
    conjecture1_probe,
    elkies_experiment,
    triangular_embedding,
)

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



def test_count_returns_the_int():
    for x in (3, np.int64(3), np.uint8(3)):
        assert count("x", x, 1) == 3 and type(count("x", x, 1)) is int
    assert count("x", 0) == 0


@pytest.mark.parametrize("x", [2.5, 3.0, -1, np.int64(0), "3", None])
def test_count_rejects_what_is_not_an_integer_at_least(x):
    with pytest.raises(NonPositiveParameter,
                       match=r"^x must be >= 1 and an integer, not "):
        count("x", x, 1)


# each count site at a non-integer value it once took: the experiments
# silently ran n = 2, max_iters = 3.5 never ended a start, and the others
# died with TypeErrors
COUNT_SITES = {
    "n (Elkies)": lambda: elkies_experiment([2.5, 3]),
    "n (conjecture 1)": lambda: conjecture1_probe([2.9]),
    "n (embedding)": lambda: triangular_embedding(4.5),
    "max_iters": lambda: MinimizeControl(max_iters=3.5),
    "restarts": lambda: MinimizeControl(restarts=2.5),
    "rng_seed": lambda: MinimizeControl(rng_seed=1.5),
    "resolution": lambda: ModuliGrid(resolution=2.5),
}


@pytest.mark.parametrize("site", COUNT_SITES)
def test_each_count_is_checked_by_name(site):
    name = site.split(" (")[0]
    with pytest.raises(NonPositiveParameter,
                       match=re.escape(f"{name} must be >= ")):
        COUNT_SITES[site]()


def test_counts_take_numpy_integers():
    three = np.int64(3)
    ctl = MinimizeControl(max_iters=three, restarts=three, rng_seed=three)
    assert (ctl.max_iters, ctl.restarts, ctl.rng_seed) == (3, 3, 3)
    assert ModuliGrid(resolution=three).size == ModuliGrid(resolution=3).size
    assert triangular_embedding(np.int64(4))[2].shape == (4, 2)
    rep = elkies_experiment(np.array([1, 2]),
                            ctl=MinimizeControl(restarts=0, max_iters=50))
    assert [n for n, _, _ in rep.rows] == [1, 2]
