"""Quantization of the rotating Dirac field in a sphere of radius R.

Two boundary conditions are supported.  The spectral condition zeroes one
pair of spinor components on the wall and discretizes the momentum at
spherical Bessel zeros.  The MIT bag condition -i gamma^r psi = varsigma psi
leads to a transcendental momentum equation solved here by a guarded sign
scan plus bracketed root refinement, which cannot skip roots silently.

All momenta are handled as the dimensionless combination x = p*R; energies
are E = esign * sqrt(p^2 + M^2) and the corotating energy is
E_tilde = E - Omega * m_j.  When Omega*R < 1 every mode satisfies
E * E_tilde > 0, so the rotating and nonrotating vacua coincide; this is
what verify_vacuum_equivalence checks mode by mode.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import spherical_jn

from .modes import QuantumNumbers, assemble_spinor, bessel_orders, density_terms, gamma_radial
from .specfun import bessel_zeros

if TYPE_CHECKING:
    from .condensate import PhysicalParams

_ROOT_XTOL = 1e-14
_SCAN_STEP = math.pi / 8.0


class SolverError(RuntimeError):
    """Root solving failed or produced an inconsistent momentum/energy pair."""


class FasterThanLightError(ValueError):
    """Boundary speed Omega*R reaches or exceeds the speed of light."""


@dataclass(frozen=True)
class BoundaryKind:
    """Boundary condition: 'spectral', or 'mit' with chirality sign varsigma."""

    kind: str
    varsigma: int | None = None

    def __post_init__(self):
        if self.kind not in ("spectral", "mit"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "mit":
            if self.varsigma not in (-1, 1):
                raise ValueError("MIT boundary requires varsigma in {+1, -1}")
        elif self.varsigma is not None:
            raise ValueError("varsigma only applies to the MIT boundary")

    @property
    def is_mit(self) -> bool:
        return self.kind == "mit"


SPECTRAL = BoundaryKind("spectral")


def mit(varsigma: int = 1) -> BoundaryKind:
    return BoundaryKind("mit", varsigma)


@dataclass(frozen=True)
class QuantizedMode:
    """A solved mode: label, momentum, energies and normalization constant."""

    qn: QuantumNumbers
    p: float
    E: float
    E_tilde: float
    C: float


def two_j_from(j_max: float) -> int:
    """Doubled half-integer from j (e.g. 2.5 -> 5); validates half-integerness."""
    if not math.isfinite(j_max):
        raise ValueError(f"j must be a positive half-integer, got {j_max}")
    two = int(round(2 * j_max))
    if abs(two - 2 * j_max) > 1e-9 or two < 1 or two % 2 == 0:
        raise ValueError(f"j must be a positive half-integer, got {j_max}")
    return two


# ---------------------------------------------------------------------------
# Spectral boundary condition
# ---------------------------------------------------------------------------


def _spectral_shell(two_j: int, sign_mk: int, count: int,
                    R: float) -> tuple[np.ndarray, np.ndarray]:
    """Momenta and normalization constants of the spectral modes i = 1..count.

    p*R = xi_{n,i}, with n = j+1/2 for m*kappa > 0 and j-1/2 for m*kappa < 0,
    and C = sqrt(2) / (sqrt(R^3) |j_m(xi_{n,i})|), where m is the other of
    j -+ 1/2.  That Bessel value is never zero, by interlacing of
    consecutive-order zeros.
    """
    if sign_mk not in (-1, 1):
        raise ValueError("sign_mk must be +-1")
    if not R > 0:
        raise ValueError("R must be positive")
    n_zero, n_other = (two_j + 1) // 2, (two_j - 1) // 2
    if sign_mk < 0:
        n_zero, n_other = n_other, n_zero
    xi = bessel_zeros(n_zero, count)
    return xi / R, math.sqrt(2.0) / (math.sqrt(R**3) * np.abs(spherical_jn(n_other, xi)))


def spectral_momentum(two_j: int, sign_mk: int, i: int, R: float) -> float:
    """Momentum of the i-th spectral mode with sign(m_j kappa) = sign_mk."""
    return float(_spectral_shell(two_j, sign_mk, i, R)[0][i - 1])


def spectral_norm(two_j: int, sign_mk: int, i: int, R: float) -> float:
    """Normalization constant of the i-th spectral mode with sign(m_j kappa) = sign_mk."""
    return float(_spectral_shell(two_j, sign_mk, i, R)[1][i - 1])


# ---------------------------------------------------------------------------
# MIT boundary condition
# ---------------------------------------------------------------------------


def _mit_equation(x, two_j: int, kappa: int, esign: int, rho: float, varsigma: int):
    """Residual of j_{l_f}(x) - sgn(kappa) varsigma p/(E+M) j_{l_g}(x) at x = p R.

    rho = M*R; the coefficient is x / (esign * sqrt(x^2 + rho^2) + rho).
    """
    n_f, n_g = bessel_orders(kappa)
    sgn_k = 1.0 if kappa > 0 else -1.0
    denom = esign * np.sqrt(x * x + rho * rho) + rho
    return spherical_jn(n_f, x) - sgn_k * varsigma * x / denom * spherical_jn(n_g, x)


def mit_momenta(two_j: int, kappa: int, esign: int, R: float, M: float,
                varsigma: int, count: int) -> np.ndarray:
    """First `count` positive momenta allowed by the MIT condition, ascending.

    Roots in x = p*R are located by a sign scan over intervals bounded by the
    zeros of both Bessel orders, subdivided to at most pi/8, then refined by
    bracketed solving.  Raises SolverError rather than skipping roots.
    """
    if R <= 0 or M < 0 or count < 1:
        raise ValueError("require R > 0, M >= 0, count >= 1")
    if esign not in (-1, 1) or varsigma not in (-1, 1):
        raise ValueError("esign and varsigma must be +-1")
    rho = M * R
    n_f, n_g = bessel_orders(kappa)
    f = lambda x: _mit_equation(x, two_j, kappa, esign, rho, varsigma)

    need = count
    for _ in range(6):
        k_hi = need + 2
        breaks = np.union1d(bessel_zeros(n_f, k_hi), bessel_zeros(n_g, k_hi))
        # near-zero approach: log-spaced probes below the first break
        pts = [np.geomspace(1e-6, breaks[0], 12)]
        lo = breaks[0]
        for hi in breaks[1:]:
            nseg = max(2, int(math.ceil((hi - lo) / _SCAN_STEP)))
            pts.append(np.linspace(lo, hi, nseg + 1)[1:])
            lo = hi
        grid = np.concatenate(pts)
        vals = f(grid)
        if not np.all(np.isfinite(vals)):
            raise SolverError("non-finite values in momentum equation scan")
        sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        roots = []
        for idx in sign_change:
            roots.append(brentq(f, grid[idx], grid[idx + 1], xtol=_ROOT_XTOL))
        exact = grid[vals == 0.0]
        if exact.size:
            roots = sorted(set(roots) | set(exact.tolist()))
        if len(roots) >= count:
            roots = sorted(roots)[:count]
            for x in roots:
                if abs(f(x)) > 1e-10:
                    raise SolverError(
                        f"momentum root residual {abs(f(x)):.2e} exceeds 1e-10 "
                        f"(two_j={two_j}, kappa={kappa}, esign={esign})")
            return np.array([x / R for x in roots])
        need += 4
    raise SolverError(
        f"could not locate {count} momentum roots (two_j={two_j}, kappa={kappa}, "
        f"esign={esign}, M={M}, varsigma={varsigma})")


def radial_integral_plus(n: int, p: float, R: float) -> float:
    """Closed form of int_0^R r^2 [j_n^2(pr) + j_{n+1}^2(pr)]/2 dr."""
    if p <= 0 or R <= 0:
        raise ValueError("require p > 0 and R > 0")
    x = p * R
    jn = float(spherical_jn(n, x))
    jn1 = float(spherical_jn(n + 1, x))
    return (R**3 / 2.0) * (jn1 * jn1 - (2.0 * (n + 1) / x) * jn * jn1 + jn * jn)


def radial_integral_minus(n: int, p: float, R: float) -> float:
    """Closed form of int_0^R r^2 [j_n^2(pr) - j_{n+1}^2(pr)]/2 dr."""
    if p <= 0 or R <= 0:
        raise ValueError("require p > 0 and R > 0")
    x = p * R
    return (R * R / (2.0 * p)) * float(spherical_jn(n, x)) * float(spherical_jn(n + 1, x))


def mit_norm(two_j: int, kappa: int, i: int, R: float, M: float, esign: int,
             varsigma: int, p: float) -> float:
    """Normalization constant of the MIT mode with verified momentum p.

    Uses the closed form obtained by eliminating one Bessel order through the
    momentum equation; the ratio under the square root is checked positive,
    since a non-positive value means (p, E) do not solve the same branch.
    """
    E = esign * math.hypot(p, M)
    x = p * R
    if kappa > 0:
        denom = 2.0 * E * R - varsigma * (two_j + 1) + varsigma * M / E
        jval = abs(float(spherical_jn((two_j + 1) // 2, x)))
    else:
        denom = 2.0 * E * R + varsigma * (two_j + 1) + varsigma * M / E
        jval = abs(float(spherical_jn((two_j - 1) // 2, x)))
    ratio = (E + M) / denom
    if not ratio > 0.0 or jval == 0.0:
        raise SolverError(
            f"inconsistent momentum/energy pair for MIT norm (two_j={two_j}, "
            f"kappa={kappa}, i={i}, esign={esign}, p={p})")
    return (math.sqrt(2.0) / (R * jval)) * math.sqrt(ratio)


# ---------------------------------------------------------------------------
# Shell tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def shell_table(bc: BoundaryKind, two_j: int, kappa: int, esign: int, M: float,
                R: float, i_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached read-only arrays p_i, E_i, C_i (i = 1..i_max) of a (j, kappa, esign) shell.

    A spectral mode's p and C depend only on sign(m_j kappa), so the table
    of kappa holds the modes with m_j > 0, and a mode with m_j < 0 reads the
    table of -kappa.  MIT modes do not depend on m_j.
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    if bc.is_mit:
        p = mit_momenta(two_j, kappa, esign, R, M, bc.varsigma, i_max)
        # mit_norm computes its own energy with math.hypot, which differs from
        # the np.hypot E below in the last bit for some (p, M)
        C = np.array([mit_norm(two_j, kappa, i + 1, R, M, esign, bc.varsigma, x)
                      for i, x in enumerate(p)])
    else:
        p, C = _spectral_shell(two_j, 1 if kappa > 0 else -1, i_max, R)
    E = esign * np.hypot(p, M)
    for arr in (p, E, C):
        arr.flags.writeable = False
    return p, E, C


# ---------------------------------------------------------------------------
# Spectrum enumeration and vacuum equivalence
# ---------------------------------------------------------------------------


def quantization_residual(bc: BoundaryKind, mode: QuantizedMode, R: float,
                          M: float) -> float:
    """Absolute residual of the active quantization condition at p*R."""
    qn = mode.qn
    x = mode.p * R
    if bc.is_mit:
        return abs(float(_mit_equation(x, qn.two_j, qn.kappa, qn.esign, M * R,
                                       bc.varsigma)))
    sign_mk = 1 if qn.two_mj * qn.kappa > 0 else -1
    n = (qn.two_j + 1) // 2 if sign_mk > 0 else (qn.two_j - 1) // 2
    return abs(float(spherical_jn(n, x)))


def enumerate_spectrum(bc: BoundaryKind, params: "PhysicalParams", j_max: float,
                       i_max: int) -> list[QuantizedMode]:
    """All modes with j <= j_max, i <= i_max, both kappa and E signs, all m_j.

    Deterministic ordering: ascending (j, kappa, i, m_j, esign).  Requires
    Omega*R < 1; a sphere whose surface moves at or above the speed of light
    is rejected.
    """
    M, R, Omega = params.M, params.R, params.Omega
    if Omega * R >= 1.0:
        raise FasterThanLightError(
            f"Omega*R = {Omega * R} >= 1: boundary at or beyond the speed of light")
    two_j_max = two_j_from(j_max)

    modes: list[QuantizedMode] = []
    for two_j in range(1, two_j_max + 1, 2):
        k0 = (two_j + 1) // 2
        for kappa in (-k0, k0):
            rows = {}  # (esign, m_j > 0) -> [(p, E, C) of i = 1..i_max]
            for es in (-1, 1):
                for m_pos in (False, True):
                    key_kappa = kappa if m_pos or bc.is_mit else -kappa
                    table = shell_table(bc, two_j, key_kappa, es, M, R, i_max)
                    rows[es, m_pos] = list(zip(*(a.tolist() for a in table)))
            for i in range(1, i_max + 1):
                for two_mj in range(-two_j, two_j + 1, 2):
                    for esign in (-1, 1):
                        p, E, C = rows[esign, two_mj > 0][i - 1]
                        qn = QuantumNumbers(esign, two_j, two_mj, kappa, i)
                        modes.append(QuantizedMode(qn, p, E, E - Omega * two_mj / 2.0, C))
    return modes


@dataclass
class VacuumReport:
    """Outcome of the rotating/nonrotating vacuum equivalence check."""

    violations: list[QuantizedMode]
    min_abs_corotating: float
    n_modes: int
    omega_r: float

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_vacuum_equivalence(modes: Sequence[QuantizedMode], Omega: float,
                              R: float) -> VacuumReport:
    """List modes with E * E_tilde <= 0 at the given Omega.

    E_tilde is recomputed from E and m_j so the check can be run against a
    hypothetical rotation rate, including unphysical Omega*R >= 1.
    """
    violations = []
    min_abs = math.inf
    for mo in modes:
        et = mo.E - Omega * mo.qn.two_mj / 2.0
        if mo.E * et <= 0.0:
            violations.append(mo)
        min_abs = min(min_abs, abs(et))
    return VacuumReport(violations, min_abs, len(modes), Omega * R)


# ---------------------------------------------------------------------------
# Per-mode boundary residuals
# ---------------------------------------------------------------------------

_THETA_SAMPLES = (0.17, 0.9, math.pi / 2, 2.3, 2.95)
_PHI_SAMPLES = (0.0, 1.3, 4.0)


def spectral_component_residual(mode: QuantizedMode, R: float, M: float,
                                thetas: Iterable[float] = _THETA_SAMPLES,
                                phis: Iterable[float] = _PHI_SAMPLES) -> float:
    """Largest magnitude of the wall-vanishing spinor components at r = R.

    The lower pair must vanish for m_j > 0, the upper pair for m_j < 0.
    """
    sel = slice(2, 4) if mode.qn.two_mj > 0 else slice(0, 2)
    worst = 0.0
    for th in thetas:
        for ph in phis:
            u = mode.C * assemble_spinor(mode.qn, mode.p, M, R, th, ph)
            worst = max(worst, float(np.max(np.abs(u[sel]))))
    return worst


def mit_condition_residual(mode: QuantizedMode, R: float, M: float, varsigma: int,
                           thetas: Iterable[float] = _THETA_SAMPLES,
                           phis: Iterable[float] = _PHI_SAMPLES) -> float:
    """Largest componentwise residual of -i gamma^r psi = varsigma psi at r = R."""
    worst = 0.0
    for th in thetas:
        for ph in phis:
            u = mode.C * assemble_spinor(mode.qn, mode.p, M, R, th, ph)
            resid = -1j * (gamma_radial(th, ph) @ u) - varsigma * u
            worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def mit_density_residual(mode: QuantizedMode, R: float, M: float,
                         thetas: Iterable[float] = _THETA_SAMPLES) -> float:
    """Largest |C|^2 |A + B| on the wall; the MIT condition forces it to zero."""
    worst = 0.0
    for th in thetas:
        A, B = density_terms(mode.qn, mode.p, M, R, th)
        worst = max(worst, mode.C**2 * abs(A + B))
    return worst


@dataclass
class BoundaryReport:
    """Worst-case boundary residuals over a set of modes."""

    max_component: float
    max_condition: float
    max_density: float
    n_modes: int
    tol_component: float
    tol_condition: float
    tol_density: float

    @property
    def ok(self) -> bool:
        return (self.max_component <= self.tol_component
                and self.max_condition <= self.tol_condition
                and self.max_density <= self.tol_density)


def verify_boundary_residuals(bc: BoundaryKind, modes: Sequence[QuantizedMode],
                              R: float, M: float) -> BoundaryReport:
    """Run the per-mode wall checks appropriate to the boundary condition."""
    if bc.is_mit:
        max_cond = max(mit_condition_residual(mo, R, M, bc.varsigma) for mo in modes)
        max_dens = max(mit_density_residual(mo, R, M) for mo in modes)
        return BoundaryReport(0.0, max_cond, max_dens, len(modes),
                              tol_component=math.inf, tol_condition=1e-9,
                              tol_density=1e-9)
    max_comp = max(spectral_component_residual(mo, R, M) for mo in modes)
    return BoundaryReport(max_comp, 0.0, 0.0, len(modes),
                          tol_component=1e-10, tol_condition=math.inf,
                          tol_density=math.inf)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

SPECTRUM_FIELDS = ("esign", "two_j", "two_mj", "kappa", "i", "pR", "E", "Etilde", "C")


def _mode_row(mo: QuantizedMode, R: float) -> tuple:
    return (mo.qn.esign, mo.qn.two_j, mo.qn.two_mj, mo.qn.kappa, mo.qn.i,
            mo.p * R, mo.E, mo.E_tilde, mo.C)


def spectrum_to_csv(modes: Sequence[QuantizedMode], R: float) -> str:
    lines = [",".join(SPECTRUM_FIELDS)]
    for mo in modes:
        row = _mode_row(mo, R)
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def spectrum_to_json(modes: Sequence[QuantizedMode], R: float) -> str:
    rows = [dict(zip(SPECTRUM_FIELDS, _mode_row(mo, R))) for mo in modes]
    return json.dumps(rows, indent=1) + "\n"
