"""Rotating vs nonrotating vacuum: the E * E_tilde > 0 check.

As long as the wall stays inside the light cylinder (Omega * R < 1), every
mode keeps E * E_tilde > 0, so filling the Dirac sea by Minkowski energy or
by corotating energy gives the same vacuum.  Pushing Omega past 1/R (here
only hypothetically, by rescoring an already-built spectrum) produces the
level crossings that would split the two vacua.
"""

import numpy as np

from rotsphere import (PhysicalParams, SPECTRAL, enumerate_spectrum, mit,
                       verify_vacuum_equivalence)

R = 1.0
params = PhysicalParams(M=1.0, R=R, Omega=0.0, beta=1.0)
spec_sp = enumerate_spectrum(SPECTRAL, params, 10.5, 12)
spec_mit = enumerate_spectrum(mit(1), params, 10.5, 12)

print("min |E_tilde| over the spectrum as the rotation rate grows:")
print("  Omega*R   spectral    MIT        violations")
for omega_r in (0.0, 0.3, 0.6, 0.9, 0.99, 1.2, 1.5):
    rep_sp = verify_vacuum_equivalence(spec_sp, omega_r / R, R)
    rep_mit = verify_vacuum_equivalence(spec_mit, omega_r / R, R)
    n_bad = len(rep_sp.violations) + len(rep_mit.violations)
    tag = "" if omega_r < 1 else "  <- beyond the light surface"
    print(f"  {omega_r:7.2f}  {rep_sp.min_abs_corotating:9.5f}  "
          f"{rep_mit.min_abs_corotating:9.5f}  {n_bad:6d}{tag}")

rep = verify_vacuum_equivalence(spec_sp, 1.5 / R, R)
worst = min(rep.violations, key=lambda m: m.E * (m.E - 1.5 * m.qn.two_mj / 2))
print(f"\nAt Omega*R = 1.5 the first crossings sit at large m_j, e.g. "
      f"j = {worst.qn.two_j}/2, m_j = {worst.qn.two_mj}/2, p*R = {worst.p * R:.4f}")
print("Inside the light surface the spectrum never produces such modes, "
      "because p*R > j + 1/2 >= m_j for every quantized momentum.")
