"""Coulombian renormalized energy of planar lattices and torus configurations.

The package computes the renormalized interaction energy of 2D lattices and
periodic point configurations (through the modular eta product, or through
Ewald lattice sums, absolute or as a zeta-difference limit), optimizes the
energy over lattice shapes and over n-point torus configurations, and
solves the companion constant-obstacle problem with its verification
suite.  The hot kernels are vectorized numpy.

Each module's ``__all__`` is its public surface; the package re-exports
those of ``modular``, ``lattice``, ``torus`` and ``obstacle``, in that order.
"""
from ._version import __version__
from . import backend, errors, modular, lattice, torus, obstacle
from .modular import *   # noqa: F401,F403
from .lattice import *   # noqa: F401,F403
from .torus import *     # noqa: F401,F403
from .obstacle import *  # noqa: F401,F403

__all__ = ["__version__", "backend", "errors", *modular.__all__,
           *lattice.__all__, *torus.__all__, *obstacle.__all__]
