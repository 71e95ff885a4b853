"""Exception hierarchy.

Two broad families matter for the CLI exit-code mapping: input/usage problems
(`InputError`, exit code 2) and numerical failures discovered mid-computation
(`NumericalError`, exit code 3).
"""
import math
import numbers


class AbrikosovError(Exception):
    """Base class for every error raised by this package."""


class InputError(AbrikosovError):
    """Invalid argument or malformed input object."""


class NumericalError(AbrikosovError):
    """A computation could not reach its accuracy or convergence target."""


# --- input-side errors -------------------------------------------------------

class NonPositiveImaginaryPart(InputError):
    """tau must lie in the open upper half-plane."""


class NonPositiveParameter(InputError):
    """A parameter that must be strictly positive was not."""


def positive(name: str, x) -> float:
    """``float(x)`` if it is finite and > 0; otherwise NonPositiveParameter
    naming the parameter ``name`` and its value."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise NonPositiveParameter(f"{name} must be finite and > 0, not {x}")
    return x


def count(name: str, x, least: int = 0) -> int:
    """``int(x)`` if x is an integer (a numpy one too) >= ``least``;
    otherwise NonPositiveParameter naming the count ``name`` and its value."""
    if not (isinstance(x, numbers.Integral) and x >= least):
        raise NonPositiveParameter(f"{name} must be >= {least} and an "
                                   f"integer, not {x}")
    return int(x)


class DegenerateBasis(InputError):
    """Basis vectors are (numerically) collinear or zero."""


class CovolumeMismatch(InputError):
    """Two lattices that must share a covolume do not."""


class VolumeNotNormalized(InputError):
    """Torus cell volume must equal 2*pi for the renormalized-energy identities."""


class CoincidentPoints(InputError):
    """Two configuration points closer than the minimum separation."""


class NonConvexDomain(InputError):
    """Polygon vertices do not describe a convex, positively oriented domain."""


class InfeasibleObstacle(InputError):
    """Obstacle level m > 1 is incompatible with boundary data 1."""


# --- numerical errors --------------------------------------------------------

class PrecisionUnreachable(NumericalError):
    """Requested tolerance cannot be met within the term/size budget."""


class LatticePointSingularity(NumericalError):
    """Evaluation point inside the singular tube around a lattice point."""


class NoConvergence(NumericalError):
    """Iterative solver exhausted its iteration budget."""


class UnderResolved(NumericalError):
    """Too few grid cells resolve the feature being measured."""
