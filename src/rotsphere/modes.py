"""Mode-level quantities for a Dirac field in a rigidly rotating sphere.

A mode is labeled by (esign, j, m_j, kappa, i): j a positive half-integer,
m_j in {-j, ..., j}, kappa = +-(j + 1/2) and i >= 1 the radial excitation.
Half-integers are stored doubled (two_j, two_mj), so labels compare exactly.
Its energy is E = esign * hypot(p, M), formed by _energy wherever it is used.

The scalar density of a mode separates into a radial amplitude pair (f, g)
acting on the two spinor-harmonic angular densities; only those real
quantities enter the condensate sums.  An explicit 4-component spinor
assembler, broadcasting over label columns (a mode axis) and angle arrays,
serves verification only (wall residuals of a block of modes, oracle tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import sph_harm_y

from .specfun import legendre_density_table, spherical_jn


@dataclass(frozen=True)
class QuantumNumbers:
    """Discrete mode label (E-sign, j, m_j, kappa, i), half-integers doubled."""

    esign: int
    two_j: int
    two_mj: int
    kappa: int
    i: int

    def __post_init__(self):
        if self.esign not in (-1, 1):
            raise ValueError(f"esign must be +-1, got {self.esign}")
        if self.two_j < 1 or self.two_j % 2 == 0:
            raise ValueError(f"two_j must be a positive odd integer, got {self.two_j}")
        if abs(self.two_mj) > self.two_j or self.two_mj % 2 == 0:
            raise ValueError(f"two_mj={self.two_mj} invalid for two_j={self.two_j}")
        if abs(self.kappa) != (self.two_j + 1) // 2 or self.kappa == 0:
            raise ValueError(f"kappa={self.kappa} must be +-(j+1/2) for two_j={self.two_j}")
        if self.i < 1:
            raise ValueError(f"radial index i must be >= 1, got {self.i}")


def conjugate_index(k: QuantumNumbers) -> QuantumNumbers:
    """Charge-conjugate label: flips esign, m_j and kappa; keeps j and i."""
    return QuantumNumbers(-k.esign, k.two_j, -k.two_mj, -k.kappa, k.i)


def corotating_energy(E: float, m_j: float, Omega: float) -> float:
    """Energy seen by the corotating observer: E - Omega * m_j."""
    return E - Omega * m_j


def bessel_orders(kappa: int) -> tuple[int, int]:
    """Orders (l_f, l_g) of the upper/lower radial Bessel amplitudes.

    l_f = kappa - 1 and l_g = kappa for kappa > 0; l_f = -kappa and
    l_g = -kappa - 1 for kappa < 0.  Elementwise over an integer array.
    """
    return abs(kappa) - (kappa > 0), abs(kappa) - (kappa < 0)


@dataclass(frozen=True)
class AngularDensity:
    """Pointwise spinor-harmonic densities chi+^dag chi+ and chi-^dag chi-."""

    d_plus: float
    d_minus: float


def spinor_densities(two_j: int, two_mj, tab: np.ndarray):
    """Spinor-harmonic densities (d+, d-) of (j, m_j) from a Legendre table.

    tab is a legendre_density_table with l_max >= j + 1/2; it is read at |m|,
    so negative m_j works, and a vanishing coefficient always meets an
    above-diagonal zero entry.  two_mj may be an integer array, over which
    the result broadcasts.
    """
    l_up = (two_j - 1) // 2
    m_lo = np.abs((np.asarray(two_mj) - 1) // 2)
    m_hi = np.abs((np.asarray(two_mj) + 1) // 2)
    d_plus = ((two_j + two_mj) * tab[l_up, m_lo]
              + (two_j - two_mj) * tab[l_up, m_hi]) / (2.0 * two_j)
    d_minus = ((two_j - two_mj + 2) * tab[l_up + 1, m_lo]
               + (two_j + two_mj + 2) * tab[l_up + 1, m_hi]) / (2.0 * (two_j + 2))
    return d_plus, d_minus


def density_split(kappa, d_plus, d_minus, jm2, jp2, mass_ratio):
    """Scalar-density split U-bar U = A + B, broadcasting over its arguments.

    A = sgn(kappa)/2 [jm2 d+ - jp2 d-] carries no mass factor;
    B = M/(2E) [jm2 d+ + jp2 d-], with mass_ratio = M/(2E), vanishes at M = 0
    and has the sign of E*M.  jm2 and jp2 are j_{j-1/2}^2(pr), j_{j+1/2}^2(pr).
    kappa is an int or an integer array.  jm2 d+ and jp2 d- are formed once
    and reused in place, so each must have the shape of the result.
    """
    up, down = jm2 * d_plus, jp2 * d_minus
    a = up - down
    a *= (kappa > 0) - 0.5  # sgn(kappa)/2
    up += down
    up *= mass_ratio
    return a, up


def angular_density(two_j: int, two_mj: int, kappa: int, theta: float) -> AngularDensity:
    """Angular densities of the two spinor harmonics at polar angle theta.

    Both are non-negative, independent of the azimuth, and sum over m_j to
    (2j+1)/(4 pi).  kappa only selects which density multiplies the upper or
    lower spinor block and is validated for consistency here.
    """
    QuantumNumbers(1, two_j, two_mj, kappa, 1)  # reuse label validation
    tab = legendre_density_table((two_j + 1) // 2, math.cos(theta))
    d_plus, d_minus = spinor_densities(two_j, two_mj, tab)
    return AngularDensity(float(d_plus), float(d_minus))


@dataclass(frozen=True)
class RadialPair:
    """Radial amplitudes: f real, g purely imaginary with g = i * g_over_i."""

    f: float
    g_over_i: float


def _energy(esign, p, M):
    return esign * np.hypot(p, M)


def _check_momentum_radius(p, M: float, r: float) -> None:
    if not np.all((0 < p) & (p < math.inf)):
        raise ValueError(f"momentum must be positive and finite, got {p}")
    if not 0 <= M < math.inf:
        raise ValueError(f"mass must be non-negative and finite, got {M}")
    if not 0 <= r < math.inf:
        raise ValueError(f"radius must be non-negative and finite, got {r}")


def radial_pair(k: QuantumNumbers, p, M: float, r: float) -> RadialPair:
    """Radial amplitude pair of the mode at radius r.

    f = sqrt((E+M)/(2E)) j_{l_f}(p r) and
    g_over_i = sgn(E) sgn(kappa) sqrt((E-M)/(2E)) j_{l_g}(p r),
    with E = esign * sqrt(p^2 + M^2).  Both ratios (E+-M)/(2E) are
    non-negative for |E| >= M regardless of the sign of E.  Broadcasts over
    label arrays k.esign and k.kappa and momenta p.
    """
    _check_momentum_radius(p, M, r)
    E = _energy(k.esign, p, M)
    l_f, l_g = bessel_orders(k.kappa)
    pref_f = np.sqrt((E + M) / (2.0 * E))
    pref_g = np.sqrt((E - M) / (2.0 * E))
    f = pref_f * spherical_jn(l_f, p * r)
    g_i = k.esign * np.sign(k.kappa) * pref_g * spherical_jn(l_g, p * r)
    return RadialPair(f, g_i) if np.ndim(f) else RadialPair(float(f), float(g_i))


def density_terms(k: QuantumNumbers, p: float, M: float, r: float,
                  theta: float) -> tuple[float, float]:
    """Scalar-density split (A, B) of the (unnormalized) mode; see density_split."""
    _check_momentum_radius(p, M, r)
    n_lo = (k.two_j - 1) // 2
    dens = angular_density(k.two_j, k.two_mj, k.kappa, theta)
    jm2 = float(spherical_jn(n_lo, p * r)) ** 2
    jp2 = float(spherical_jn(n_lo + 1, p * r)) ** 2
    return density_split(k.kappa, dens.d_plus, dens.d_minus, jm2, jp2,
                         float(M / (2.0 * _energy(k.esign, p, M))))


# ---------------------------------------------------------------------------
# Explicit spinor assembly (verification path)
# ---------------------------------------------------------------------------

GAMMA_T = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def gamma_radial(theta, phi) -> np.ndarray:
    """gamma^r in the Pauli-Dirac representation at direction (theta, phi).

    Broadcasts over array theta and phi; the result has shape (4, 4, ...).
    """
    theta, phi = np.broadcast_arrays(theta, phi)
    nvec = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    sig_r = sum(c * s.reshape(s.shape + (1,) * theta.ndim) for c, s in zip(nvec, _SIGMA))
    out = np.zeros((4, 4) + theta.shape, dtype=complex)
    out[:2, 2:] = sig_r
    out[2:, :2] = -sig_r
    return out


def spinor_harmonic(two_j, two_mj, sign, theta, phi) -> np.ndarray:
    """Two-component spinor harmonic chi^sign_{j m_j} at (theta, phi).

    Broadcasts over integer label arrays and array theta and phi; the result
    has shape (2, ...).  sph_harm_y is 0 for |m| > l, where the matching
    coefficient vanishes.
    """
    # with t = 2j + 1 - sign: l = (2j - sign)/2, c1 = sqrt((t + sign 2m_j)/(2t))
    # and c2 = sign sqrt((t - sign 2m_j)/(2t))
    t = two_j + 1 - sign
    l = (two_j - sign) // 2
    c1 = np.sqrt((t + sign * two_mj) / (2.0 * t))
    c2 = sign * np.sqrt((t - sign * two_mj) / (2.0 * t))
    return np.array([c1 * sph_harm_y(l, (two_mj - 1) // 2, theta, phi),
                     c2 * sph_harm_y(l, (two_mj + 1) // 2, theta, phi)])


def assemble_spinor(k, p, M: float, r: float, theta, phi) -> np.ndarray:
    """Explicit 4-component eigenspinor u_k(r, theta, phi), unnormalized.

    k is a QuantumNumbers, or has esign, two_j, two_mj and kappa columns (a
    Spectrum) that match the momenta p.  The result has shape
    (4, *modes, *angles), where the angle axes are those of theta and phi
    broadcast.  Verification path only: wall-residual checks and oracle
    tests build the full spinor; production sums never materialize it.
    """
    tail = (1,) * np.broadcast(theta, phi).ndim
    col = lambda v: np.reshape(v, np.shape(v) + tail)  # mode axes, then angle axes
    rad = radial_pair(k, p, M, r)
    two_j, two_mj, sign = col(k.two_j), col(k.two_mj), col(np.sign(k.kappa))
    chi_up = spinor_harmonic(two_j, two_mj, sign, theta, phi)
    chi_dn = spinor_harmonic(two_j, two_mj, -sign, theta, phi)
    return np.concatenate([col(rad.f) * chi_up, 1j * col(rad.g_over_i) * chi_dn])


def _ubar_u(u: np.ndarray) -> np.ndarray:
    """u-bar u = u^dag gamma^t u, contracted over the spinor axis 0 of u."""
    return np.einsum("a...,ab,b...->...", u.conj(), GAMMA_T, u).real


def scalar_density(k: QuantumNumbers, p: float, M: float, r: float,
                   theta, phi=0.0):
    """U-bar U from the explicit spinor; cross-checks density_terms.

    Broadcasts over array theta and phi.
    """
    return _ubar_u(assemble_spinor(k, p, M, r, theta, phi))
