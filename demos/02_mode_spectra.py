"""Quantized momentum spectra under the two boundary conditions.

Shows how the spectral condition pins p*R to spherical Bessel zeros while
the MIT bag condition shifts the roots through the transcendental wall
relation, how the chirality sign varsigma moves the MIT spectrum, and that a
mode and its charge conjugate share momentum and normalization constant.
"""

import math

import numpy as np

from rotsphere import (PhysicalParams, SPECTRAL, enumerate_spectrum, mit,
                       mit_momenta, mit_norm, spectral_momentum, spectrum_to_csv)

R, M = 1.0, 1.0

print("Lowest momenta p*R for j = 1/2 (M = 1, R = 1, E > 0):")
print("  spectral, m*kappa < 0:", [round(spectral_momentum(1, -1, i, R), 5)
                                   for i in (1, 2, 3)])
print("  spectral, m*kappa > 0:", [round(spectral_momentum(1, 1, i, R), 5)
                                   for i in (1, 2, 3)])
for vs in (1, -1):
    p = mit_momenta(1, 1, 1, R, M, vs, 3)
    print(f"  MIT kappa=+1, varsigma={vs:+d}: ", np.round(p, 5))

print("\nCharge conjugation: (E, kappa) -> (-E, -kappa) keeps p and C")
p_pos = mit_momenta(3, 2, 1, R, M, 1, 2)
p_neg = mit_momenta(3, -2, -1, R, M, 1, 2)
for i in (1, 2):
    c_pos = mit_norm(3, 2, i, R, M, 1, 1, p_pos[i - 1])
    c_neg = mit_norm(3, -2, i, R, M, -1, 1, p_neg[i - 1])
    print(f"  i={i}: p={p_pos[i - 1]:.10f} vs {p_neg[i - 1]:.10f}, "
          f"C={c_pos:.10f} vs {c_neg:.10f}")

print("\nFull enumeration is deterministic and export-ready; first rows:")
params = PhysicalParams(M=M, R=R, Omega=0.4, beta=1.0)
spectrum = enumerate_spectrum(mit(1), params, 1.5, 2)
print("  " + "\n  ".join(spectrum_to_csv(spectrum, R).splitlines()[:6]))
print(f"  ... {len(spectrum)} modes total")

energies = sorted({round(E, 6) for E in spectrum.E.tolist() if E > 0})
print(f"\nDistinct positive energies (j <= 3/2, i <= 2): {energies}")
