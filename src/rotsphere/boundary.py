"""Quantization of the rotating Dirac field in a sphere of radius R.

The spectral condition zeroes one pair of spinor components on the wall and
puts the momenta at spherical Bessel zeros.  The MIT bag condition
-i gamma^r psi = varsigma psi gives a transcendental momentum equation.  Above
the first zero of its two Bessel orders, each gap between consecutive zeros
where the signs of its two Bessel terms admit a root holds exactly one (the
proof is _mit_roots'), so each is bisected over its equal parts to the one
that holds the root, with probes below the first zero, and one array Brent
refinement solves the brackets of a batch of shells.  The solver and the
quantization residual accept a root by one rule, _mit_residual <= QUANT_TOL.

Momenta are handled as x = p*R, energies as E = esign * hypot(p, M) and
E_tilde = E - Omega * m_j.  One store holds the solved (p, C) shells, in j
rows grown by whole j prefixes, each row both kappa shells of a j: MIT sets
per (esign, M, R, i_max), spectral sets, which depend on neither esign nor M,
per (R, i_max); E is formed on each read.  A Spectrum holds the modes as flat
columns gathered from it in one pass, so the vacuum check (E * E_tilde > 0
for every mode when Omega*R < 1: the rotating and nonrotating vacua
coincide), the quantization residual (per mode given) and the wall checks
(per label of up to _WALL_MODES consecutive modes, on 5 x 3 (theta, phi)
samples at r = R, with the mode's f and g) are array expressions.

What depends only on the truncation, or on nothing, is formed once per
process: the mode layout (label columns, m_j and gather index) per
truncation, which every Spectrum of it shares read-only, and the wall table
(chi, sigma_r chi and |chi|^2 of each harmonic label at the wall samples),
which serves every j.  verify checks the quantization residual on the modes
with m_j = j, one per shell root, as a mode's residual depends on its root
alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .modes import (QuantumNumbers, _energy, _label_key, bessel_orders, corotating_energy,
                    gamma_radial, radial_pair, spinor_harmonic)
from .specfun import (I_MAX_DEFAULT, SolverError, _brentq_array, _zero_table, bessel_zeros,
                      spherical_jn)

if TYPE_CHECKING:
    from .condensate import PhysicalParams

_SCAN_STEP = math.pi / 8.0
QUANT_TOL = 1e-10  # the largest quantization residual accepted
_MR_MAX = math.sqrt(np.finfo(float).max)  # x * x + (M R)**2 overflows above it


class FasterThanLightError(ValueError):
    """Boundary speed Omega*R reaches or exceeds the speed of light."""


def _check_light_cylinder(params: "PhysicalParams") -> None:
    if params.Omega * params.R >= 1.0:
        raise FasterThanLightError(f"Omega*R = {params.Omega * params.R} >= 1: "
                                   "boundary at or beyond the speed of light")


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
    if not math.isfinite(2 * j_max):  # round(2 * j_max) needs a finite value
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


def _mit_equation(x, kappa, esign, rho: float, varsigma: int):
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
    return np.abs(_mit_equation(x, kappa, esign, rho, varsigma)) / scale


def _scan_grids(orders: tuple[np.ndarray, np.ndarray], count: int, sign_fg: np.ndarray,
                probe: np.ndarray):
    """Brackets of each shell's first count roots, shell by shell, ascending:
    (x, shell, sign) of 11 log-spaced probes and the first break, below which
    the shells where probe holds can have a root, and (lo, hi, shell, sign)
    of the first count gaps between breaks where sign(j_lf j_lg) = sign_fg,
    with sign that of f at the first break and at lo (0: unknown).

    The breaks are the first count + 1 zeros of both orders of the columns
    (l_f, l_g), sorted, each order's table read once.  They interlace strictly,
    the lower order's first (DLMF 10.21(i)), so sign(j_lf j_lg) flips at each
    and every other gap is kept, and (r + 1 + [l_f < l_g]) // 2 of j_lf's zeros
    lie below gap r.  f has j_lf's sign in the rootless gaps next to a kept
    one, so at its ends.
    """
    distinct, at = np.unique(orders, return_inverse=True)
    tables = np.array([_zero_table(n_fg, count + 1) for n_fg in distinct.tolist()])
    both = np.concatenate(tables[at.reshape(np.shape(orders))], axis=1)
    breaks = np.sort(both, axis=1)
    r = np.arange(breaks.shape[1] - 1)
    kept = sign_fg[:, None] == -(-1.0) ** r
    shell, gap = np.nonzero(kept & (np.cumsum(kept, axis=1) <= count))
    lower_f = orders[0] < orders[1]
    probed = np.flatnonzero(probe)
    probes = np.c_[np.geomspace(1e-6, breaks[probed, 0], 12, axis=1)[:, :11], breaks[probed, 0]]
    want = np.zeros(probes.shape)
    want[:, -1] = 1.0 - 2.0 * lower_f[probed]  # j_lf's sign above the first break
    return ((probes.ravel(), np.repeat(probed, 12), want.ravel()),
            (breaks[shell, gap], breaks[shell, gap + 1], shell,
             (-1.0) ** ((gap + lower_f[shell]) // 2)))


def _bisect_parts(f, lo, hi, f_lo, f_hi, cols, todo):
    """Of each gap [lo, hi] in todo, holding one root where f changes sign,
    the part of its nseg = max(2, ceil((hi - lo) / _SCAN_STEP)) equal parts
    that holds the root, found by bisecting over the parts' ends, as (a, b,
    f(a), f(b)); an end at an exact 0 of f is the root, with f(a) = 0.
    Brent from that part, as from a sign scan over every part's end, gives
    each root the same bits with fewer evaluations of f."""
    nseg = np.maximum(2, np.ceil((hi - lo) / _SCAN_STEP)).astype(int)
    step, i, k = (hi - lo) / nseg, np.zeros_like(nseg), nseg.copy()
    fa, fb = f_lo.copy(), f_hi.copy()
    while True:
        act = np.flatnonzero(todo & (k - i > 1) & (fa != 0))
        if not act.size:
            break
        m = (i[act] + k[act]) // 2
        fm = f(m * step[act] + lo[act], *(c[act] for c in cols))
        if not np.all(np.isfinite(fm)):
            raise SolverError("non-finite values in momentum equation scan")
        right = (fm == 0) | (np.sign(fm) == np.sign(fa[act]))  # the root is at or past m
        i[act[right]], fa[act[right]] = m[right], fm[right]
        k[act[~right]], fb[act[~right]] = m[~right], fm[~right]
    return (np.where(i > 0, i * step + lo, lo), np.where(k < nseg, k * step + lo, hi), fa, fb)


def _mit_roots(two_j, kappa, esign, R: float, M: float, varsigma: int,
               count: int) -> np.ndarray:
    """First `count` momenta of each MIT shell of the label columns (two_j,
    kappa, esign), ascending, a row per shell.

    In x = p R, let n be the lower order, (l_f, l_g) = (n, n + 1) for kappa > 0
    and (n + 1, n) for kappa < 0.  The angle theta of (j_n, j_n+1) obeys
    theta' = 1 - (n + 1) sin(2 theta) / x (by j_n' = n j_n / x - j_n+1 and
    j_n+1' = j_n - (n + 2) j_n+1 / x), and a root is where tan theta is s c
    or 1 / (s c), s = sgn(kappa) varsigma, c = p / (E + M): c = tan(psi/2),
    or -cot(psi/2) for E < 0, psi = atan(x / (M R)), so that target angle
    keeps its sign and turns at M R / (2 (x^2 + (M R)^2)) <= 1 / (4 x).  Above
    the first break, a zero of j_n above n + 5/4 (specfun checks it), theta
    minus the target so increases strictly, and theta turns a quarter from
    break to break: a gap where sign(j_lf j_lg) = s esign, the sign of tan
    theta at a root, holds one root and the others none.  Below the first
    break, j_n+1 / (x j_n) rises from 1/(2n + 3) (the Mittag-Leffler series
    of J_nu+1/J_nu, Watson ch. 15), and a root puts it at 1/(q + M R), q =
    (x^2 + (M R)^2)^(1/2), falling from 1/(2 M R), where E and kappa have
    opposite signs, or at (q + M R)/x^2, falling from inf, where they agree.
    So only a shell with sign_fg = +1 can have a root there, and with
    opposite signs only if M R < n + 3/2.  Probes of those shells find sign
    changes, and an exact 0 where j_lf is not 0 (both underflow near x = 0
    from j = 83/2) is a root.  The others are not probed: the rounding of
    their subnormal terms gave f a wrong sign there (from j = 81/2 at M R =
    50), a spurious root.

    f is evaluated once at each probe and each end of a kept gap, which
    _bisect_parts then bisects to the part of it that holds the root, and
    one array Brent call refines all brackets, so a root has the bits of
    scalar brentq after a sign scan of every part.  An exact 0 of f at a gap's
    end is a root, and an end where f has the wrong sign (from M R of about
    1e14, where rounding swamps f at a break) is the root, to within
    rounding, for the unchanged QUANT_TOL check.  Raises SolverError rather
    than skipping roots, and ValueError for E < 0 above M R = 1.34e154, where
    the equation overflows.
    """
    if not (0 < R < math.inf and 0 <= M < math.inf and count >= 1):
        raise ValueError("require finite R > 0, finite M >= 0, count >= 1")
    two_j, kappa, esign = (v.ravel() for v in np.broadcast_arrays(two_j, kappa, esign))
    if not (np.isin(esign, (-1, 1)).all() and varsigma in (-1, 1)):
        raise ValueError("esign and varsigma must be +-1")
    if (esign < 0).any() and M * R > _MR_MAX:
        raise ValueError(f"M*R = {M * R!r} exceeds {_MR_MAX!r}: the E < 0 momentum scan overflows")
    f = lambda x, kappa, esign: _mit_equation(x, kappa, esign, M * R, varsigma)
    sign_fg = np.where(kappa > 0, varsigma, -varsigma) * esign  # of j_lf j_lg at a root
    orders = bessel_orders(kappa)
    probe = (sign_fg > 0) & ((esign * kappa > 0) | (M * R < np.minimum(*orders) + 1.5))
    (px, ps, want), (lo, hi, gs, sign) = _scan_grids(orders, count, sign_fg, probe)
    shell = np.r_[ps, gs, gs]
    vals = f(np.r_[px, lo, hi], kappa[shell], esign[shell])
    if not np.all(np.isfinite(vals)):
        raise SolverError("non-finite values in momentum equation scan")
    pv, f_lo, f_hi = np.split(vals, [px.size, px.size + lo.size])
    zero = pv == 0.0
    zero[zero] = spherical_jn(bessel_orders(kappa[ps[zero]])[0], px[zero]) != 0.0
    zero |= (want != 0) & (np.sign(pv) != want)  # a first break with the wrong sign
    cross = np.flatnonzero((np.sign(pv[:-1]) * np.sign(pv[1:]) < 0) & (ps[:-1] == ps[1:])
                           & ~zero[1:])
    # a gap's ends: an exact 0 is a root, and one with the wrong sign is the root
    wrong_lo, wrong = f_lo * sign < 0, (f_lo * sign < 0) | (f_hi * sign > 0)
    a, b, fa, fb = _bisect_parts(f, lo, hi, np.where(f_lo == 0, sign, f_lo),
                                 np.where(f_hi == 0, -sign, f_hi), (kappa[gs], esign[gs]), ~wrong)
    solve = ~wrong & ((a > lo) | (f_lo != 0)) & ((b < hi) | (f_hi != 0))
    at = np.r_[ps[cross], gs[solve]]
    found = _brentq_array(f, np.r_[px[cross], a[solve]], np.r_[px[cross + 1], b[solve]],
                          (kappa[at], esign[at]), np.r_[pv[cross], fa[solve]],
                          np.r_[pv[cross + 1], fb[solve]])
    on_lo, on_hi = f_lo * sign <= 0, (f_hi * sign >= 0) & ~wrong_lo
    x = np.r_[px[zero], found, lo[on_lo], hi[on_hi]]
    at = np.r_[ps[zero], at, gs[on_lo], gs[on_hi]]
    have = np.bincount(at, minlength=kappa.size)
    roots = x[np.lexsort((x, at))][(np.cumsum(have) - have)[have >= count, None]
                                   + np.arange(count)]
    # the first failing shell raises, as it would with the shells solved in turn
    stop = np.argmax(have < count) if (have < count).any() else kappa.size
    resid = _mit_residual(roots[:stop], kappa[:stop, None], esign[:stop, None], M * R,
                          varsigma)
    fails = np.flatnonzero((resid > QUANT_TOL).any(axis=1))
    if fails.size:
        s, r = fails[0], resid[resid > QUANT_TOL][0]  # the first failing root
        raise SolverError(f"momentum root residual {r:.2e} exceeds {QUANT_TOL:g} "
                          f"(two_j={two_j[s]}, kappa={kappa[s]}, esign={esign[s]})")
    if stop < kappa.size:
        raise SolverError(f"could not locate {count} momentum roots (two_j={two_j[stop]}, "
                          f"kappa={kappa[stop]}, esign={esign[stop]}, M={M}, "
                          f"varsigma={varsigma})")
    return roots / R


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
    momentum equation, its E + M as -p^2 / (|E| + M) for E < 0 (no cancellation).
    The ratio under the square root must be positive: if negative, (p, E) do not
    solve the same branch; if +0 or subnormal, it underflowed, keeping few or no
    bits (FloatingPointError)."""
    two_j, kappa, i, E, p = np.broadcast_arrays(two_j, kappa, i, E, p)
    sgn_k = np.where(kappa > 0, 1, -1)
    ratio = (np.where(E > 0, E + M, -(p * p) / (np.abs(E) + M))
             / (2.0 * E * R - sgn_k * varsigma * (two_j + 1) + varsigma * M / E))
    jval = np.abs(spherical_jn((two_j + sgn_k) // 2, p * R))
    bad = np.flatnonzero(~(ratio >= 2.0**-1022) | (jval == 0.0))
    if bad.size:
        at = np.unravel_index(bad[0], p.shape)
        if 0.0 <= ratio[at] < 2.0**-1022 and not np.signbit(ratio[at]):
            raise FloatingPointError(f"MIT norm ratio underflows at R={R}, M={M}")
        raise SolverError(
            f"inconsistent momentum/energy pair for MIT norm (two_j={two_j[at]}, "
            f"kappa={kappa[at]}, i={i[at]}, esign={int(np.sign(E[at]))}, p={p[at]})")
    return math.sqrt(2.0) / (R * jval) * np.sqrt(ratio)


def mit_norm(two_j: int, kappa: int, i: int, R: float, M: float, esign: int,
             varsigma: int, p: float) -> float:
    """Normalization constant of the MIT mode i with verified momentum p."""
    return float(_mit_norms(two_j, kappa, i, R, M, _energy(esign, p, M), varsigma, p))


# ---------------------------------------------------------------------------
# The process caches: shell store, mode layout and wall table
# ---------------------------------------------------------------------------


# The bound counts sets: 24 hold the working sets (fig-sweep 7, new-params 21,
# verify-spectrum 18, after warm-up and 40 requests each) and, at 42 shells
# (~40 KB) per set at j_max = 41/2 and i_max = 60, about the 1,024 shells of a
# per-shell cache.
# typed: a float i_max must miss the entry of the equal int and be rejected.
@lru_cache(maxsize=24, typed=True)
def _shell_set(bc: BoundaryKind, esign: int, M: float, R: float, i_max: int) -> list:
    if not isinstance(i_max, (int, np.integer)) or not 1 <= i_max <= I_MAX_DEFAULT:
        raise ValueError(f"i_max must be an integer in [1, {I_MAX_DEFAULT}], got {i_max!r}")
    return []


# The layout holds a truncation's label columns, m_j and (p, E, C) gather index,
# seven read-only columns of 8 bytes a mode: 0.8 MB at verify's 14,560 modes, 52 MB
# at j <= 41/2 and i_max = 500.  The bound counts layouts: verify-spectrum reads 4,
# spectral and MIT at its truncation and at its warm-up's.
@lru_cache(maxsize=4)
def _mode_layout(mit: bool, n_j: int, i_max: int) -> tuple[np.ndarray, ...]:
    """Read-only (esign, two_j, two_mj, kappa, i) columns, m_j and the index into the
    flattened (p, E, C) shell sets of enumerate_spectrum, axes [esign, j, kappa
    shell, i - 1]: (j, kappa) blocks with axes (i, m_j, esign), each label column a
    repeat of its (block, i) rows and the index built on the rows."""
    k0, h = np.divmod(np.arange(2, 2 * n_j + 2), 2)  # (j, kappa) blocks, kappa = (2h - 1) k0
    k0, h, i = np.repeat(k0, i_max), np.repeat(h, i_max), np.tile(np.arange(i_max), 2 * n_j)
    width = 4 * k0  # (block, i) rows of 2j + 1 m_j (< 0 first) by 2 esign, at multiples of 4
    two_mj = (np.arange(width.sum()) & -2) - np.repeat(np.cumsum(width) - 2 * k0 - 1, width)
    shell = np.stack([h if mit else 1 - h, h], 1)[..., None]  # each half row reads one
    at = ((np.arange(2) * n_j + k0[:, None, None] - 1) * 2 + shell) * i_max + i[:, None, None]
    at = np.repeat(at.reshape(-1, 2), np.repeat(k0, 2), axis=0).ravel()  # an (esign) pair per m_j
    cols = (np.tile([-1, 1], at.size // 2), np.repeat(2 * k0 - 1, width), two_mj,
            np.repeat((2 * h - 1) * k0, width), np.repeat(i + 1, width), two_mj / 2.0, at)
    for col in cols:
        col.flags.writeable = False
    return cols


# The wall table holds chi, S = sigma_r chi and |chi|^2 of the harmonic labels
# (j, m_j, +-1) at the 15 wall samples, 1,080 bytes a label, read-only and grown by
# whole j prefixes as far as a wall check asks, with no cap: verify's j <= 9/2 is
# 60 labels (65 KB), j <= 41/2 924 (1.0 MB), j <= 199/2 20,200 (22 MB).
_wall_table: list[np.ndarray] = []


def shell_rows(bc: BoundaryKind, esign: int, M: float, R: float, i_max: int,
               two_j_max: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Read-only (p, E, C) rows of j = 1/2 .. two_j_max/2, each the kappa = -k0
    shell (i = 1..i_max), then kappa = +k0.  The store holds (p, C) rows and
    solves only the j past the end of a set, MIT shells in batches; E = esign
    hypot(p, M) is formed on each read.  A spectral shell of kappa holds the
    modes with m_j > 0, as p and C depend only on sign(m_j kappa): a mode with
    m_j < 0 reads the shell of -kappa.  Nor do they depend on esign or M, so
    a spectral set is keyed by (R, i_max) alone, as esign = 0 and M = 0.0."""
    key = (esign, M) if bc.is_mit else (0, 0.0)
    rows, n = _shell_set(bc, *key, R, i_max), (two_j_max + 1) // 2
    while len(rows) < n:  # ~2,500 modes a batch: few array passes, arrays near 2 MB
        jx = np.arange(len(rows), min(n, len(rows) + max(1, 1260 // i_max)))
        two_j, kappa = np.repeat(2 * jx + 1, 2), np.outer(jx + 1, [-1, 1]).ravel()
        with np.errstate(all="ignore"):  # an overflow is reported below, not warned
            try:
                if bc.is_mit:
                    p = _mit_roots(two_j, kappa, esign, R, M, bc.varsigma, i_max)
                    C = _mit_norms(two_j[:, None], kappa[:, None], np.arange(1, i_max + 1),
                                   R, M, _energy(esign, p, M), bc.varsigma, p)
                else:
                    shells = [_spectral_shell(tj, np.sign(ka), i_max, R)
                              for tj, ka in zip(two_j.tolist(), kappa.tolist())]
                    p, C = np.array(shells).transpose(1, 0, 2)
                finite = np.isfinite([p, _energy(esign, p, M), C * C]).all()  # sums read C^2
            except (OverflowError, FloatingPointError):  # spectral R**3; MIT ratio at +0
                finite = False
        if not finite:
            raise ValueError(f"non-finite momentum, energy or |C|^2 at R={R}, M={M}")
        p, C = (v.reshape(jx.size, -1) for v in (p, C))
        p.flags.writeable = C.flags.writeable = False
        rows += zip(p, C)
    E = _energy(esign, np.array([p for p, _ in rows[:n]]), M)
    E.flags.writeable = False
    return [(p, e, C) for (p, C), e in zip(rows[:n], E)]


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
    """All modes with j <= j_max, i <= i_max, both kappa and E signs, all m_j, as
    flat columns over (j, kappa) blocks with axes (i, m_j, esign).  The label
    columns are the read-only arrays of the truncation's shared layout; p, E and
    C are one gather from the E < 0 and E > 0 shell sets, and E_tilde is formed
    from them.  Raises FasterThanLightError unless Omega*R < 1."""
    _check_light_cylinder(params)
    M, R, Omega = params.M, params.R, params.Omega
    sets = np.array([shell_rows(bc, es, M, R, i_max, two_j_from(j_max)) for es in (-1, 1)])
    *labels, m_j, at = _mode_layout(bc.is_mit, sets.shape[1], i_max)
    p, E, C = np.take(np.moveaxis(sets, 2, 0).reshape(3, -1), at, axis=1)
    return Spectrum(*labels, p, E, corotating_energy(E, m_j, Omega), C)


def quantization_residual(bc: BoundaryKind, spectrum: Spectrum, R: float,
                          M: float) -> np.ndarray:
    """Per-mode residual of the quantization condition at p*R, to hold to QUANT_TOL.
    Every mode given is evaluated: a caller that wants each root once passes one
    mode per root, as verify does."""
    s, x = spectrum, spectrum.p * R
    if bc.is_mit:
        return _mit_residual(x, s.kappa, s.esign, M * R, bc.varsigma)
    # p*R is a zero of j_n, n = j + 1/2 if m_j kappa > 0, else j - 1/2
    n = (s.two_j + np.where(s.two_mj * s.kappa > 0, 1, -1)) // 2
    return np.abs(spherical_jn(n, x))


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
    et = corotating_energy(spectrum.E, spectrum.two_mj / 2.0, Omega)
    bad = np.flatnonzero(spectrum.E * et <= 0.0)
    return VacuumReport(spectrum.modes(bad) if bad.size else [],
                        float(np.min(np.abs(et), initial=math.inf)), len(spectrum), Omega * R)


# ---------------------------------------------------------------------------
# Wall residuals
# ---------------------------------------------------------------------------

# The 15 wall samples: 5 polar angles x 3 azimuths, axes (theta, phi)
_WALL_THETA, _WALL_PHI = np.meshgrid((0.17, 0.9, math.pi / 2, 2.3, 2.95), (0.0, 1.3, 4.0),
                                     indexing="ij")
_WALL_SIGMA_R = gamma_radial(_WALL_THETA, _WALL_PHI)[:2, 2:].reshape(2, 2, 1, -1)  # sigma_r
_WALL_MODES = 1040  # modes per run, the j = 25/2 block at i_max = 20: bounds the memory


def _wall_rows(chi: np.ndarray) -> list[np.ndarray]:
    """[chi, S = sigma_r chi, |chi|^2] of harmonics chi with axes (component, label, sample)."""
    return [chi, _WALL_SIGMA_R[:, 0] * chi[0] + _WALL_SIGMA_R[:, 1] * chi[1],
            (chi.real**2 + chi.imag**2).sum(axis=0)]


def _wall_harmonics(block: Spectrum) -> tuple[list[np.ndarray], np.ndarray]:
    """[chi, S, |chi|^2] at the wall samples, rows by label, and the rows of each
    mode's (upper, lower) pair labels (j, m_j, +-sgn kappa), (2, modes).  The rows
    are _wall_table's, grown to the block's largest j, with _label_key's order."""
    top = int(block.two_j.max(initial=1))
    have = _wall_table[0].shape[1] if _wall_table else 0
    if have <= _label_key(top, top, 1):  # add the labels of the j past the table's end
        lab = np.array([(tj, tm, s) for tj in range(1, top + 1, 2)
                        for tm in range(-tj, tj + 1, 2) for s in (-1, 1)][have:]).T
        rows = _wall_rows(spinor_harmonic(*lab[..., None], _WALL_THETA.ravel(),
                                          _WALL_PHI.ravel()))
        if _wall_table:
            rows = [np.concatenate(v, axis=-2) for v in zip(_wall_table, rows)]
        _wall_table[:] = rows
        for v in _wall_table:
            v.flags.writeable = False
    return _wall_table, np.stack([_label_key(block.two_j, block.two_mj, s * block.kappa)
                                  for s in (1, -1)])


def _wall_residuals(bc: BoundaryKind, spectrum: Spectrum, R: float, M: float) -> np.ndarray:
    """Per-mode maxima over the wall samples at r = R, rows (vanishing
    components, MIT condition -i gamma^r psi = varsigma psi, C^2 |u-bar u|).

    A mode's pairs at r = R are f chi_a and i g chi_b, chi_a and chi_b the
    harmonics of its labels (j, m_j, +-sgn kappa).  Spectral modes fill row 0
    from the pair that must vanish (the lower for m_j > 0); MIT modes rows 1
    and 2, C |g S_b - varsigma f chi_a|, C |f S_a - varsigma g chi_b| (S =
    sigma_r chi) and C^2 |f^2 |chi_a|^2 - g^2 |chi_b|^2|, with chi, S and
    |chi|^2 read from the wall table, per run of at most _WALL_MODES modes
    (verify's subset: one run).
    """
    out = np.zeros((3, len(spectrum)))
    for lo in range(0, len(spectrum), _WALL_MODES):
        block, sel = spectrum[lo:lo + _WALL_MODES], slice(lo, lo + _WALL_MODES)
        rad = radial_pair(block, block.p, M, R)
        f, g, C = rad.f[:, None], rad.g_over_i[:, None], block.C[:, None]
        (chi, S, n2), (a, b) = _wall_harmonics(block)
        if not bc.is_mit:  # C (amp chi) of the pair that must vanish, the spinor's bits
            u = chi[:, np.where(block.two_mj < 0, a, b)]  # (component, mode, sample)
            np.multiply(np.where(block.two_mj[:, None] < 0, f, 1j * g), u, out=u)
            out[0, sel] = np.abs(np.multiply(C, u, out=u)).max(axis=(0, 2))
            continue
        out[2, sel] = (C * C * np.abs(f * f * n2[a] - g * g * n2[b])).max(axis=1)
        buf = np.empty((2, 2, len(block), _WALL_THETA.size), complex)  # "clip" lets take fill it
        for s_at, amp, chi_at, amp_vs in ((b, g, a, bc.varsigma * f), (a, f, b, bc.varsigma * g)):
            pair = np.multiply(np.take(S, s_at, 1, buf[0], "clip"), amp, out=buf[0])
            pair -= np.multiply(np.take(chi, chi_at, 1, buf[1], "clip"), amp_vs, out=buf[1])
            np.maximum(out[1, sel], np.abs(pair).max(axis=(0, 2)), out=out[1, sel])
        out[1, sel] *= C[:, 0]
    return out


@dataclass
class BoundaryReport:
    """Worst-case boundary residuals over a set of modes, in units of the
    field's size: components and the MIT condition times R^(3/2), |A+B|
    times R^3, since C ~ R^(-3/2).  At R = 1 they are the residuals."""

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
    """Worst wall residuals of the modes of a Spectrum under its boundary
    condition, scaled to the field's size (see BoundaryReport)."""
    comp, cond, dens = _wall_residuals(bc, spectrum, R, M).max(axis=1, initial=0.0).tolist()
    root = math.sqrt(R)  # the residuals scaled factor by factor overflow at no R
    tols = (math.inf, 1e-9, 1e-9) if bc.is_mit else (1e-10, math.inf, math.inf)
    return BoundaryReport(comp * root * R, cond * root * R, dens * R * R * R, len(spectrum),
                          *tols)


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
