"""Dirac fermions in a rigidly rotating sphere: quantized modes under
spectral and MIT bag boundary conditions, vacuum equivalence checks, and the
vacuum-subtracted thermal fermion condensate."""

from .boundary import (BoundaryKind, BoundaryReport, FasterThanLightError,
                       QuantizedMode, SolverError, SPECTRAL, Spectrum, VacuumReport,
                       enumerate_spectrum, mit, mit_momenta, mit_norm,
                       quantization_residual, radial_integral_minus,
                       radial_integral_plus, spectral_momentum, spectral_norm,
                       spectrum_to_csv, spectrum_to_json, two_j_from,
                       verify_boundary_residuals, verify_vacuum_equivalence)
from .condensate import (CondensateGrid, PhysicalParams, condensate_grid,
                         condensate_nonrotating, condensate_point, grid_to_csv,
                         grid_to_json, thermal_weight, thermal_weight_subtracted)
from .modes import (AngularDensity, QuantumNumbers, RadialPair, angular_density,
                    assemble_spinor, bessel_orders, conjugate_index,
                    corotating_energy, density_terms, radial_pair,
                    scalar_density, spinor_harmonic)
from .specfun import (UnsupportedOrderError, assoc_legendre_density, bessel_zeros,
                      legendre_density_table, spherical_bessel_j,
                      spherical_bessel_j_prime, spherical_bessel_zero)

__version__ = "0.1.0"

__all__ = [
    "AngularDensity", "BoundaryKind", "BoundaryReport", "CondensateGrid",
    "FasterThanLightError", "PhysicalParams", "QuantizedMode", "QuantumNumbers",
    "RadialPair", "SolverError", "SPECTRAL", "Spectrum", "UnsupportedOrderError",
    "VacuumReport", "angular_density", "assemble_spinor", "assoc_legendre_density",
    "bessel_orders", "bessel_zeros", "condensate_grid", "condensate_nonrotating",
    "condensate_point", "conjugate_index", "corotating_energy", "density_terms",
    "enumerate_spectrum", "grid_to_csv", "grid_to_json", "legendre_density_table",
    "mit", "mit_momenta", "mit_norm", "quantization_residual", "radial_pair",
    "radial_integral_minus", "radial_integral_plus", "scalar_density",
    "spectral_momentum", "spectral_norm", "spectrum_to_csv", "spectrum_to_json",
    "spherical_bessel_j", "spherical_bessel_j_prime", "spherical_bessel_zero",
    "spinor_harmonic", "thermal_weight", "thermal_weight_subtracted", "two_j_from",
    "verify_boundary_residuals", "verify_vacuum_equivalence",
]
