"""Coulombian renormalized energy of planar lattices and torus configurations.

The package computes the renormalized interaction energy of 2D lattices and
periodic point configurations (through the modular eta product, or through
Ewald lattice sums, absolute or as a zeta-difference limit), optimizes the
energy over lattice shapes and over n-point torus configurations, and
solves the companion constant-obstacle problem with its verification
suite.  The hot kernels are vectorized numpy.

Each module's ``__all__`` is its public surface; the package re-exports
those of ``modular``, ``lattice``, ``torus`` and ``obstacle``, in that order.

Names load on first use: ``import abrikosov`` imports neither numpy nor any
module of the package.  A module loads when its name is first read
(``abrikosov.torus``), and the first read of any re-exported name, of
``__all__`` or of ``dir(abrikosov)`` loads the four modules above and
binds every re-export at once.
"""
import importlib

from ._version import __version__

_MODULES = ("backend", "cli", "csvfile", "errors", "lattice", "modular",
            "obstacle", "torus")
_REEXPORTED = ("modular", "lattice", "torus", "obstacle")


def _bind_exports():
    """Bind the re-exported names and ``__all__`` in the package namespace.

    ``modular`` imports ``backend`` and ``errors``, which binds them too.
    """
    names = ["__version__", "backend", "errors"]
    for mod_name in _REEXPORTED:
        module = importlib.import_module(f"{__name__}.{mod_name}")
        globals().update((n, getattr(module, n)) for n in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    # no export is a dunder name but __all__, so probes such as inspect's
    # for __wrapped__ load nothing
    dunder = name.startswith("__") and name.endswith("__")
    if "__all__" not in globals() and (name == "__all__" or not dunder):
        _bind_exports()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    if "__all__" not in globals():
        _bind_exports()
    return sorted(globals())
