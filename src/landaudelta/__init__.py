"""Spectral objects of Landau levels perturbed by delta interactions on curves.

Subpackages:
    laguerre  - generalized Laguerre evaluation, zeros, Gauss rules
    basis     - angular-momentum Landau eigenbasis and magnetic translations
    curves    - Jordan curves, arclength quadrature, interaction weights
    toeplitz  - truncated singular Berezin-Toeplitz matrices and spectra
    census    - resonant radii of circles, zero curves, scalar constants
    galerkin  - finite models of the perturbed Hamiltonian
    verify    - cross-module invariant suite
"""

from .basis import (
    BasisIndex,
    MagneticField,
    annihilation_residual,
    basis_eval,
    basis_eval_parts,
    basis_inner_product,
    basis_matrix,
    magnetic_phase,
    magnetic_translate,
)
from .census import (
    CensusEntry,
    census,
    coupling_lower_bounds,
    eta_curve,
    explicit_D12,
    gap_constants,
    multiplicity,
    multiplicities,
)
from .curves import (
    JordanCurve,
    WeightedCurve,
    arclength_rule,
    load_curve,
    load_weight,
    make_circle,
    make_ellipse,
)
from .galerkin import GalerkinModel, assemble_model, cluster_report, persistence_check
from .laguerre import (
    LaguerreSpec,
    gauss_laguerre_rule,
    laguerre_derivative,
    laguerre_eval,
    laguerre_zeros,
    orthogonality_defect,
)
from .toeplitz import (
    ToeplitzMatrix,
    assemble,
    circle_diagonal,
    default_truncation,
    eigenvalues,
    kernel_dim_estimate,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BasisIndex",
    "CensusEntry",
    "GalerkinModel",
    "JordanCurve",
    "LaguerreSpec",
    "MagneticField",
    "ToeplitzMatrix",
    "WeightedCurve",
    "annihilation_residual",
    "arclength_rule",
    "assemble",
    "assemble_model",
    "basis_eval",
    "basis_eval_parts",
    "basis_inner_product",
    "basis_matrix",
    "census",
    "circle_diagonal",
    "cluster_report",
    "coupling_lower_bounds",
    "default_truncation",
    "eigenvalues",
    "eta_curve",
    "explicit_D12",
    "gap_constants",
    "gauss_laguerre_rule",
    "kernel_dim_estimate",
    "laguerre_derivative",
    "laguerre_eval",
    "laguerre_zeros",
    "load_curve",
    "load_weight",
    "magnetic_phase",
    "magnetic_translate",
    "make_circle",
    "make_ellipse",
    "multiplicity",
    "multiplicities",
    "orthogonality_defect",
    "persistence_check",
    "spectrum",
]
