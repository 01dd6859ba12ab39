"""Quantization of the rotating Dirac field in a sphere of radius R.

The spectral condition zeroes one pair of spinor components on the wall and
puts the momenta at spherical Bessel zeros.  The MIT bag condition
-i gamma^r psi = varsigma psi gives a transcendental momentum equation, solved
by a guarded sign scan per shell, which cannot skip roots silently, and one
array Brent refinement over the brackets of a batch of shells.  The solver and
the quantization residual accept a root by one rule, _mit_residual <= QUANT_TOL.

Momenta are handled as x = p*R, energies as E = esign * hypot(p, M) and
E_tilde = E - Omega * m_j.  One store holds the solved shells: per (boundary,
esign, M, R, i_max), j rows grown by whole j prefixes, each row both kappa
shells of a j.  A Spectrum holds the modes as flat columns read from it, so
the vacuum check (E * E_tilde > 0 for every mode when Omega*R < 1: the
rotating and nonrotating vacua coincide), the quantization residual and the
wall checks are array expressions; the latter assemble the spinors of a
(j, kappa) block in one call, on 5 x 3 (theta, phi) samples at r = R.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .modes import (QuantumNumbers, _energy, _ubar_u, assemble_spinor, bessel_orders,
                    gamma_radial)
from .specfun import I_MAX_DEFAULT, SolverError, _brentq_array, bessel_zeros, spherical_jn

if TYPE_CHECKING:
    from .condensate import PhysicalParams

_SCAN_STEP = math.pi / 8.0
QUANT_TOL = 1e-10  # the largest quantization residual accepted


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
    if not 0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
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


def _mit_equation(x, two_j, kappa, esign, rho: float, varsigma: int):
    """Residual of j_{l_f}(x) - sgn(kappa) varsigma p/(E+M) j_{l_g}(x) at x = p R,
    elementwise over x and label columns kappa and esign (kappa fixes j).
    rho = M*R; the coefficient is x / (esign s + rho), s = sqrt(x^2 + rho^2),
    which cancels for esign = -1 and is computed there as the equal -(s + rho) / x.
    """
    n_f, n_g = bessel_orders(kappa)
    s = np.sqrt(x * x + rho * rho)
    coeff = np.where(esign < 0, -(s + rho) / x, x / (s + rho))[()]  # [()]: scalars stay fast
    sgn_k = (kappa > 0) * 2.0 - 1.0
    return spherical_jn(n_f, x) - sgn_k * varsigma * coeff * spherical_jn(n_g, x)


def _mit_residual(x, kappa, esign, rho: float, varsigma: int):
    """|_mit_equation| / max(1, |p/(E+M)|): divided by (|E| + M) / p where E < 0."""
    scale = np.where(esign < 0, (np.sqrt(x * x + rho * rho) + rho) / x, 1.0)
    return np.abs(_mit_equation(x, None, kappa, esign, rho, varsigma)) / scale


def _mit_roots(two_j, kappa, esign, R: float, M: float, varsigma: int,
               count: int) -> np.ndarray:
    """First `count` momenta of each MIT shell of the label columns (two_j,
    kappa, esign), ascending, a row per shell.

    Each shell's roots in x = p*R are located by a sign scan over intervals
    bounded by the zeros of both Bessel orders, subdivided to at most pi/8;
    the brackets of all shells are refined by one array Brent call, so a root
    has the bits of its shell solved alone.  A shell short of roots rescans
    with 4 more zeros; an exact 0 counts where j_{l_f} is not 0 (both underflow
    near x = 0 from j = 83/2).  Raises SolverError rather than skipping roots.
    """
    if not (0 < R < math.inf and 0 <= M < math.inf and count >= 1):
        raise ValueError("require finite R > 0, finite M >= 0, count >= 1")
    two_j, kappa, esign = (v.ravel() for v in np.broadcast_arrays(two_j, kappa, esign))
    if not (np.isin(esign, (-1, 1)).all() and varsigma in (-1, 1)):
        raise ValueError("esign and varsigma must be +-1")
    f = lambda x, kappa, esign: _mit_equation(x, None, kappa, esign, M * R, varsigma)
    n = kappa.size
    roots, k_hi, todo = [None] * n, np.full(n, min(count + 2, I_MAX_DEFAULT)), range(n)
    for _ in range(6):
        grids = []
        for top, *orders in np.transpose([k_hi[todo], *bessel_orders(kappa[todo])]).tolist():
            breaks = np.union1d(*(bessel_zeros(n_fg, top) for n_fg in orders))
            # near-zero approach: log-spaced probes below the first break; then
            # linspace(lo, hi, nseg + 1)[1:] of every gap at once, bit for bit
            lo, hi = breaks[:-1, None], breaks[1:, None]
            nseg = np.maximum(2, np.ceil((hi - lo) / _SCAN_STEP)).astype(int)
            k = np.arange(1, nseg.max() + 1)
            scan = np.where(k < nseg, k * ((hi - lo) / nseg) + lo, hi)[k <= nseg]
            grids.append(np.concatenate([np.geomspace(1e-6, breaks[0], 12), scan]))
        shell, grid = np.repeat(todo, [g.size for g in grids]), np.concatenate(grids)
        vals = f(grid, kappa[shell], esign[shell])
        if not np.all(np.isfinite(vals)):
            raise SolverError("non-finite values in momentum equation scan")
        cross = np.flatnonzero((np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
                               & (shell[:-1] == shell[1:]))  # inside one shell's scan
        at = shell[cross]
        found = _brentq_array(f, grid[cross], grid[cross + 1], (kappa[at], esign[at]))
        zero = vals == 0.0
        zero[zero] = spherical_jn(bessel_orders(kappa[shell[zero]])[0], grid[zero]) != 0.0
        for s in todo:
            roots[s] = np.union1d(found[at == s], grid[zero & (shell == s)])[:count]
        todo = [s for s in todo if roots[s].size < count]
        if not todo:
            break
        k_hi[todo] = np.minimum(k_hi[todo] + 4, I_MAX_DEFAULT)
    # the first failing shell raises, as it would with the shells solved in turn
    stop = todo[0] if todo else n
    resid = _mit_residual(np.reshape(roots[:stop], (stop, count)), kappa[:stop, None],
                          esign[:stop, None], M * R, varsigma)
    fails = np.flatnonzero((resid > QUANT_TOL).any(axis=1))
    if fails.size:
        s, r = fails[0], resid[resid > QUANT_TOL][0]  # the first failing root
        raise SolverError(f"momentum root residual {r:.2e} exceeds {QUANT_TOL:g} "
                          f"(two_j={two_j[s]}, kappa={kappa[s]}, esign={esign[s]})")
    if todo:
        s = todo[0]
        raise SolverError(f"could not locate {count} momentum roots (two_j={two_j[s]}, "
                          f"kappa={kappa[s]}, esign={esign[s]}, M={M}, varsigma={varsigma})")
    return np.array(roots) / R


def mit_momenta(two_j: int, kappa: int, esign: int, R: float, M: float,
                varsigma: int, count: int) -> np.ndarray:
    """First `count` positive momenta allowed by the MIT condition, ascending."""
    return _mit_roots(two_j, kappa, esign, R, M, varsigma, count)[0]


def _check_p_R(p: float, R: float) -> None:
    if not (0 < p < math.inf and 0 < R < math.inf):
        raise ValueError(f"require finite p > 0 and R > 0, got p={p}, R={R}")


def radial_integral_plus(n: int, p: float, R: float) -> float:
    """Closed form of int_0^R r^2 [j_n^2(pr) + j_{n+1}^2(pr)]/2 dr."""
    _check_p_R(p, R)
    x = p * R
    jn = float(spherical_jn(n, x))
    jn1 = float(spherical_jn(n + 1, x))
    return (R**3 / 2.0) * (jn1 * jn1 - (2.0 * (n + 1) / x) * jn * jn1 + jn * jn)


def radial_integral_minus(n: int, p: float, R: float) -> float:
    """Closed form of int_0^R r^2 [j_n^2(pr) - j_{n+1}^2(pr)]/2 dr."""
    _check_p_R(p, R)
    x = p * R
    return (R * R / (2.0 * p)) * float(spherical_jn(n, x)) * float(spherical_jn(n + 1, x))


def _mit_norms(two_j, kappa, i, R: float, M: float, E, varsigma: int,
               p: np.ndarray) -> np.ndarray:
    """Normalization constants of the MIT modes i with verified momenta p and
    energies E, elementwise over labels that broadcast against p.

    Uses the closed form obtained by eliminating one Bessel order through the
    momentum equation, its E + M as -p^2 / (|E| + M) for E < 0 (no cancellation);
    the ratio under the square root is checked positive, since a non-positive
    value means (p, E) do not solve the same branch."""
    two_j, kappa, i, E, p = np.broadcast_arrays(two_j, kappa, i, E, p)
    sgn_k = np.where(kappa > 0, 1, -1)
    ratio = (np.where(E > 0, E + M, -(p * p) / (np.abs(E) + M))
             / (2.0 * E * R - sgn_k * varsigma * (two_j + 1) + varsigma * M / E))
    jval = np.abs(spherical_jn((two_j + sgn_k) // 2, p * R))
    bad = np.flatnonzero(~(ratio > 0.0) | (jval == 0.0))
    if bad.size:
        at = np.unravel_index(bad[0], p.shape)
        raise SolverError(
            f"inconsistent momentum/energy pair for MIT norm (two_j={two_j[at]}, "
            f"kappa={kappa[at]}, i={i[at]}, esign={int(np.sign(E[at]))}, p={p[at]})")
    return math.sqrt(2.0) / (R * jval) * np.sqrt(ratio)


def mit_norm(two_j: int, kappa: int, i: int, R: float, M: float, esign: int,
             varsigma: int, p: float) -> float:
    """Normalization constant of the MIT mode i with verified momentum p."""
    return float(_mit_norms(two_j, kappa, i, R, M, _energy(esign, p, M), varsigma, p))


# ---------------------------------------------------------------------------
# The shell store
# ---------------------------------------------------------------------------


# The bound counts sets: 24 hold the working sets (fig-sweep 9, verify-spectrum
# 18, `--preset fig1` plus `fig2` 9) and, at 42 shells (~60 KB) per set at
# j_max = 41/2 and i_max = 60, about the 1,024 shells of a per-shell cache.
# typed: a float i_max must miss the entry of the equal int and be rejected.
@lru_cache(maxsize=24, typed=True)
def _shell_set(bc: BoundaryKind, esign: int, M: float, R: float, i_max: int) -> list:
    if not isinstance(i_max, (int, np.integer)) or not 1 <= i_max <= I_MAX_DEFAULT:
        raise ValueError(f"i_max must be an integer in [1, {I_MAX_DEFAULT}], got {i_max!r}")
    return []


def shell_rows(bc: BoundaryKind, esign: int, M: float, R: float, i_max: int,
               two_j_max: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Read-only (p, E, C) rows of j = 1/2 .. two_j_max/2 from the store, each
    the kappa = -k0 shell (i = 1..i_max), then kappa = +k0.  Only the j past
    the end of the set are solved, MIT shells in batches.  A spectral shell
    of kappa holds the modes with m_j > 0, as p and C depend only on
    sign(m_j kappa): a mode with m_j < 0 reads the shell of -kappa."""
    rows, n = _shell_set(bc, esign, M, R, i_max), (two_j_max + 1) // 2
    while len(rows) < n:  # ~2,500 modes a batch: few array passes, arrays near 2 MB
        jx = np.arange(len(rows), min(n, len(rows) + max(1, 1260 // i_max)))
        two_j, kappa = np.repeat(2 * jx + 1, 2), np.outer(jx + 1, [-1, 1]).ravel()
        if bc.is_mit:
            p = _mit_roots(two_j, kappa, esign, R, M, bc.varsigma, i_max)
            E = _energy(esign, p, M)
            C = _mit_norms(two_j[:, None], kappa[:, None], np.arange(1, i_max + 1), R, M, E,
                           bc.varsigma, p)
        else:
            p, C = np.array([_spectral_shell(tj, np.sign(ka), i_max, R) for tj, ka
                             in zip(two_j.tolist(), kappa.tolist())]).transpose(1, 0, 2)
            E = _energy(esign, p, M)
        p, E, C = (v.reshape(jx.size, -1) for v in (p, E, C))
        p.flags.writeable = E.flags.writeable = C.flags.writeable = False
        rows += zip(p, E, C)
    return rows[:n]


def shell_table(bc: BoundaryKind, two_j: int, kappa: int, esign: int, M: float,
                R: float, i_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only arrays p_i, E_i, C_i (i = 1..i_max) of a (j, kappa, esign)
    shell: its half of the j row of shell_rows."""
    half = slice(i_max, None) if kappa > 0 else slice(i_max)
    return tuple(v[half] for v in shell_rows(bc, esign, M, R, i_max, two_j)[-1])


# ---------------------------------------------------------------------------
# Spectrum enumeration and vacuum equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A truncated spectrum as flat per-mode columns in the deterministic order
    ascending (j, kappa, i, m_j, esign); half-integers are doubled."""

    esign: np.ndarray
    two_j: np.ndarray
    two_mj: np.ndarray
    kappa: np.ndarray
    i: np.ndarray
    p: np.ndarray
    E: np.ndarray
    E_tilde: np.ndarray
    C: np.ndarray

    def __len__(self) -> int:
        return self.E.size

    def __getitem__(self, mask) -> Spectrum:
        """The modes selected by a numpy index, as a Spectrum."""
        return Spectrum(*(getattr(self, f.name)[mask] for f in fields(self)))

    def modes(self, mask=slice(None)) -> list[QuantizedMode]:
        """QuantizedMode objects of the modes selected by a numpy index."""
        # tolist() gives Python scalars: numpy 2 scalars print as np.int64(3)
        cols = [col.tolist() for col in vars(self[mask]).values()]
        return [QuantizedMode(QuantumNumbers(*row[:5]), *row[5:]) for row in zip(*cols)]


def enumerate_spectrum(bc: BoundaryKind, params: "PhysicalParams", j_max: float,
                       i_max: int) -> Spectrum:
    """All modes with j <= j_max, i <= i_max, both kappa and E signs, all m_j.

    Requires Omega*R < 1; a sphere whose surface moves at or above the speed
    of light is rejected.
    """
    M, R, Omega = params.M, params.R, params.Omega
    if Omega * R >= 1.0:
        raise FasterThanLightError(
            f"Omega*R = {Omega * R} >= 1: boundary at or beyond the speed of light")
    labels, values = [], []
    i = np.arange(1, i_max + 1)[:, None, None]
    sets = [shell_rows(bc, es, M, R, i_max, two_j_from(j_max)) for es in (-1, 1)]
    for two_j, *rows in zip(range(1, 2 * len(sets[0]), 2), *sets):
        k0 = (two_j + 1) // 2
        two_mj = np.arange(-two_j, two_j + 1, 2)
        tab = np.reshape(rows, (2, 3, 2, i_max))  # [esign, (p, E, C), kappa shell, i - 1]
        for h, kappa in enumerate((-k0, k0)):
            # the shell each m_j reads; a block's axes are (i, m_j, esign)
            shell = np.where((two_mj > 0) | bc.is_mit, h, 1 - h)
            values.append(tab[:, :, shell].transpose(1, 3, 2, 0).reshape(3, -1))
            labels.append(np.stack(np.broadcast_arrays(
                np.array([-1, 1]), two_j, two_mj[:, None], kappa, i)).reshape(5, -1))
    esign, two_j, two_mj, kappa, i = np.concatenate(labels, axis=1)
    p, E, C = np.concatenate(values, axis=1)
    return Spectrum(esign, two_j, two_mj, kappa, i, p, E, E - Omega * two_mj / 2.0, C)


def quantization_residual(bc: BoundaryKind, spectrum: Spectrum, R: float,
                          M: float) -> np.ndarray:
    """Per-mode residual of the quantization condition at p*R, to hold to QUANT_TOL."""
    x = spectrum.p * R
    if not bc.is_mit:
        # p*R is a zero of j_n, n = j + 1/2 if m_j kappa > 0, else j - 1/2
        n = (spectrum.two_j + np.where(spectrum.two_mj * spectrum.kappa > 0, 1, -1)) // 2
        return np.abs(spherical_jn(n, x))
    return _mit_residual(x, spectrum.kappa, spectrum.esign, M * R, bc.varsigma)


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


def verify_vacuum_equivalence(spectrum: Spectrum, Omega: float, R: float) -> VacuumReport:
    """List modes with E * E_tilde <= 0 at the given Omega.

    E_tilde is recomputed from E and m_j so the check can be run against a
    hypothetical rotation rate, including unphysical Omega*R >= 1.
    """
    if not math.isfinite(Omega):
        raise ValueError(f"Omega must be finite, got {Omega}")
    et = spectrum.E - Omega * spectrum.two_mj / 2.0
    return VacuumReport(spectrum.modes(spectrum.E * et <= 0.0),
                        float(np.min(np.abs(et), initial=math.inf)), len(spectrum), Omega * R)


# ---------------------------------------------------------------------------
# Wall residuals
# ---------------------------------------------------------------------------

# The 15 wall samples: 5 polar angles x 3 azimuths, axes (theta, phi)
_WALL_THETA, _WALL_PHI = np.meshgrid((0.17, 0.9, math.pi / 2, 2.3, 2.95), (0.0, 1.3, 4.0),
                                     indexing="ij")
_WALL_GAMMA_R = gamma_radial(_WALL_THETA, _WALL_PHI)


def _wall_residuals(bc: BoundaryKind, spectrum: Spectrum, R: float, M: float) -> np.ndarray:
    """Per-mode maxima over the wall samples at r = R, rows (vanishing
    components, MIT condition -i gamma^r psi = varsigma psi, C^2 |u-bar u|).

    Spectral modes fill the first row: their lower pair must vanish for
    m_j > 0, their upper pair for m_j < 0.  MIT modes fill the other two
    from one assembly.  The rows a condition does not check hold 0.  Each
    (j, kappa) block is assembled in one call, which bounds the memory.
    """
    out = np.zeros((3, len(spectrum)))
    for kappa in np.unique(spectrum.kappa):  # kappa fixes j
        sel = spectrum.kappa == kappa
        block = spectrum[sel]
        C = block.C[:, None, None]
        u = assemble_spinor(block, block.p, M, R, _WALL_THETA, _WALL_PHI)  # (4, modes, 5, 3)
        Cu = C * u
        if bc.is_mit:
            resid = -1j * np.einsum("ab...,b...->a...", _WALL_GAMMA_R, Cu) - bc.varsigma * Cu
            out[1, sel] = np.abs(resid).max(axis=(0, 2, 3))
            out[2, sel] = (C**2 * np.abs(_ubar_u(u))).max(axis=(1, 2))
        else:
            pairs = np.abs(Cu).reshape(2, 2, len(block), -1).max(axis=(1, 3))  # upper, lower
            out[0, sel] = np.where(block.two_mj > 0, pairs[1], pairs[0])
    return out


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


def verify_boundary_residuals(bc: BoundaryKind, spectrum: Spectrum, R: float,
                              M: float) -> BoundaryReport:
    """Worst wall residuals of the modes of a Spectrum under its boundary condition."""
    worst = _wall_residuals(bc, spectrum, R, M).max(axis=1, initial=0.0).tolist()
    tols = (math.inf, 1e-9, 1e-9) if bc.is_mit else (1e-10, math.inf, math.inf)
    return BoundaryReport(*worst, len(spectrum), *tols)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

SPECTRUM_FIELDS = ("esign", "two_j", "two_mj", "kappa", "i", "pR", "E", "Etilde", "C")


def _rows(spectrum: Spectrum, R: float):
    cols = (spectrum.esign, spectrum.two_j, spectrum.two_mj, spectrum.kappa, spectrum.i,
            spectrum.p * R, spectrum.E, spectrum.E_tilde, spectrum.C)
    return zip(*(c.tolist() for c in cols))


def spectrum_to_csv(spectrum: Spectrum, R: float) -> str:
    lines = [",".join(SPECTRUM_FIELDS)]
    lines += [",".join(map(repr, row)) for row in _rows(spectrum, R)]
    return "\n".join(lines) + "\n"


def spectrum_to_json(spectrum: Spectrum, R: float) -> str:
    rows = [dict(zip(SPECTRUM_FIELDS, row)) for row in _rows(spectrum, R)]
    return json.dumps(rows, indent=1) + "\n"
