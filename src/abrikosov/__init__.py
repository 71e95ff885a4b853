"""Coulombian renormalized energy of planar lattices and torus configurations.

The package computes the renormalized interaction energy of 2D lattices and
periodic point configurations (through the modular eta product, or through
Ewald lattice sums, absolute or as a zeta-difference limit), optimizes the
energy over lattice shapes and over n-point torus configurations, and
solves the companion constant-obstacle problem with its verification
suite.  The hot kernels are vectorized numpy.
"""
from ._version import __version__
from . import backend, errors
from .modular import (
    LatticeBasis,
    SeriesControl,
    dedekind_eta,
    kronecker_f,
    theta_lattice,
    zeta_difference_limit,
)
from .lattice import (
    EnergyReport,
    ModuliGrid,
    ScanReport,
    ThetaProbeReport,
    TRIANGULAR_TAU,
    lattice_to_tau,
    moduli_scan,
    reduce_fundamental,
    shape_basis,
    theta_minimality_probe,
    w_eta,
    w_fourier,
    w_zeta_diff,
)
from .torus import (
    Conjecture1Report,
    ElkiesReport,
    GreenEvaluator,
    MinimizeControl,
    MinimizeOutcome,
    TorusConfig,
    TorusSpec,
    config_energy,
    config_grad,
    conjecture1_probe,
    elkies_experiment,
    minimize_config,
    triangular_embedding,
)
from .obstacle import (
    AsymptoticsReport,
    ConvexPolygon,
    DomainGrid,
    Ellipse,
    EllipseLimitReport,
    GradientBoundReport,
    H0Field,
    ObstacleField,
    UnitDisk,
    coincidence_metrics,
    solve_h0,
    solve_obstacle,
    sup_gradient,
    verify_ellipse_limit,
    verify_gradient_bound,
    verify_scale_law,
)

__all__ = [
    "__version__",
    "backend",
    "errors",
    # modular forms layer
    "LatticeBasis",
    "SeriesControl",
    "dedekind_eta",
    "kronecker_f",
    "theta_lattice",
    "zeta_difference_limit",
    # lattice energies
    "EnergyReport",
    "ModuliGrid",
    "ScanReport",
    "ThetaProbeReport",
    "TRIANGULAR_TAU",
    "lattice_to_tau",
    "moduli_scan",
    "reduce_fundamental",
    "shape_basis",
    "theta_minimality_probe",
    "w_eta",
    "w_fourier",
    "w_zeta_diff",
    # torus configurations
    "Conjecture1Report",
    "ElkiesReport",
    "GreenEvaluator",
    "MinimizeControl",
    "MinimizeOutcome",
    "TorusConfig",
    "TorusSpec",
    "config_energy",
    "config_grad",
    "conjecture1_probe",
    "elkies_experiment",
    "minimize_config",
    "triangular_embedding",
    # obstacle problem
    "AsymptoticsReport",
    "ConvexPolygon",
    "DomainGrid",
    "Ellipse",
    "EllipseLimitReport",
    "GradientBoundReport",
    "H0Field",
    "ObstacleField",
    "UnitDisk",
    "coincidence_metrics",
    "solve_h0",
    "solve_obstacle",
    "sup_gradient",
    "verify_ellipse_limit",
    "verify_gradient_bound",
    "verify_scale_law",
]
