import dataclasses
import functools
import itertools
import json
import math
import tracemalloc
import warnings
from typing import Iterable

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import sph_harm_y

from rotsphere import (FasterThanLightError, PhysicalParams, QuantizedMode,
                       QuantumNumbers, SPECTRAL, Spectrum, VacuumReport, condensate_grid,
                       condensate_point, density_terms, enumerate_spectrum, mit, mit_momenta, mit_norm,
                       quantization_residual, radial_integral_minus,
                       radial_integral_plus, spectral_momentum, spectral_norm,
                       spectrum_to_csv, spectrum_to_json, spherical_bessel_j,
                       verify_boundary_residuals, verify_vacuum_equivalence)
from rotsphere import boundary, modes
from rotsphere.boundary import (QUANT_TOL, _SCAN_STEP, _WALL_MODES, _WALL_PHI, _WALL_SIGMA_R,
                                _WALL_THETA, BoundaryKind, SolverError, _mit_equation,
                                _mit_norms, _mit_residual, _mit_roots, _wall_residuals,
                                shell_rows, two_j_from)
from rotsphere.modes import (GAMMA_T, RadialPair, assemble_spinor, bessel_orders,
                             corotating_energy, gamma_radial, radial_pair, scalar_density,
                             spinor_harmonic)
from rotsphere.specfun import _ROOT_XTOL, I_MAX_DEFAULT, bessel_zeros, spherical_jn
from oracles import (bisect_root, mp_mit_norm, mp_mit_sign_change, quadrature_mode_norm,
                     quadrature_mode_overlap, radial_quadrature, scan_mit_momenta,
                     shell_table)

XI_1_1 = 4.493409457909064

# The scalar spinor assembly and the per-mode wall checks that the block
# path replaced, kept verbatim as references: one mode per assembly, and the
# MIT density assembled a second time through scalar_density.


def _energy_reference(esign: int, p: float, M: float) -> float:
    # np.hypot, as the library: math.hypot differs from it in the last bit for
    # some p (p = 9.975595215145983, M = 1), and so would the E < 0 factor f
    return esign * float(np.hypot(p, M))


def _check_momentum_radius_reference(p: float, M: float, r: float) -> None:
    if not 0 < p < math.inf:
        raise ValueError(f"momentum must be positive and finite, got {p}")
    if not 0 <= M < math.inf:
        raise ValueError(f"mass must be non-negative and finite, got {M}")
    if not 0 <= r < math.inf:
        raise ValueError(f"radius must be non-negative and finite, got {r}")


def _radial_pair_reference(k: QuantumNumbers, p: float, M: float, r: float) -> RadialPair:
    _check_momentum_radius_reference(p, M, r)
    E = _energy_reference(k.esign, p, M)
    l_f, l_g = bessel_orders(k.kappa)
    small = p / (abs(E) + M) * p  # |E| - M, which E - M (E > 0) or -(E + M) cancels
    pref_f = math.sqrt((E + M if E > 0 else -small) / (2.0 * E))
    pref_g = math.sqrt((small if E > 0 else E - M) / (2.0 * E))
    f = pref_f * float(spherical_jn(l_f, p * r))
    g_i = k.esign * (1 if k.kappa > 0 else -1) * pref_g * float(spherical_jn(l_g, p * r))
    return RadialPair(f, g_i)


def _spinor_harmonic_reference(two_j: int, two_mj: int, sign: int, theta, phi) -> np.ndarray:
    m_lo = (two_mj - 1) // 2
    m_hi = (two_mj + 1) // 2
    if sign > 0:
        l = (two_j - 1) // 2
        c1 = math.sqrt((two_j + two_mj) / (2.0 * two_j))
        c2 = math.sqrt((two_j - two_mj) / (2.0 * two_j))
    else:
        l = (two_j + 1) // 2
        c1 = math.sqrt((two_j - two_mj + 2) / (2.0 * (two_j + 2)))
        c2 = -math.sqrt((two_j + two_mj + 2) / (2.0 * (two_j + 2)))
    return np.array([c1 * sph_harm_y(l, m_lo, theta, phi),
                     c2 * sph_harm_y(l, m_hi, theta, phi)])


def _assemble_spinor_reference(k: QuantumNumbers, p: float, M: float, r: float,
                               theta, phi) -> np.ndarray:
    rad = _radial_pair_reference(k, p, M, r)
    chi_up = _spinor_harmonic_reference(k.two_j, k.two_mj, +1 if k.kappa > 0 else -1,
                                        theta, phi)
    chi_dn = _spinor_harmonic_reference(k.two_j, k.two_mj, -1 if k.kappa > 0 else +1,
                                        theta, phi)
    return np.concatenate([rad.f * chi_up, 1j * rad.g_over_i * chi_dn])


def _scalar_density_reference(k: QuantumNumbers, p: float, M: float, r: float,
                              theta, phi=0.0):
    u = _assemble_spinor_reference(k, p, M, r, theta, phi)
    return np.einsum("a...,ab,b...->...", u.conj(), GAMMA_T, u).real


_WALL_GAMMA_R = gamma_radial(_WALL_THETA, _WALL_PHI)  # the 4 x 4 gamma^r of the wall samples


def _wall_spinor_reference(mode: QuantizedMode, R: float, M: float) -> np.ndarray:
    return mode.C * _assemble_spinor_reference(mode.qn, mode.p, M, R, _WALL_THETA, _WALL_PHI)


def _spectral_component_residual_reference(mode: QuantizedMode, R: float, M: float) -> float:
    sel = slice(2, 4) if mode.qn.two_mj > 0 else slice(0, 2)
    return float(np.max(np.abs(_wall_spinor_reference(mode, R, M)[sel])))


def _mit_condition_residual_reference(mode: QuantizedMode, R: float, M: float,
                                      varsigma: int) -> float:
    u = _wall_spinor_reference(mode, R, M)
    resid = -1j * np.einsum("ab...,b...->a...", _WALL_GAMMA_R, u) - varsigma * u
    return float(np.max(np.abs(resid)))


def _mit_density_residual_reference(mode: QuantizedMode, R: float, M: float) -> float:
    dens = _scalar_density_reference(mode.qn, mode.p, M, R, _WALL_THETA, _WALL_PHI)
    return float(np.max(mode.C**2 * np.abs(dens)))


def _wall_residuals_by_block(bc, spectrum: Spectrum, R: float, M: float) -> np.ndarray:
    """The wall residuals with one 4-component assembly per (j, kappa) block,
    the loop that the mode-budget runs replaced: a bit-exact reference of the
    spectral row, and of the MIT rows within _wall_rounding_bounds."""
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
            ubar_u = np.einsum("a...,ab,b...->...", u.conj(), GAMMA_T, u).real
            out[2, sel] = (C**2 * np.abs(ubar_u)).max(axis=(1, 2))
        else:
            pairs = np.abs(Cu).reshape(2, 2, len(block), -1).max(axis=(1, 3))  # upper, lower
            out[0, sel] = np.where(block.two_mj > 0, pairs[1], pairs[0])
    return out


def _wall_residuals_per_block(bc, spectrum: Spectrum, R: float, M: float) -> np.ndarray:
    """The wall residuals with one _wall_residuals call per (j, kappa) block."""
    out = np.zeros((3, len(spectrum)))
    for kappa in np.unique(spectrum.kappa):  # kappa fixes j
        sel = spectrum.kappa == kappa
        out[:, sel] = _wall_residuals(bc, spectrum[sel], R, M)
    return out


def _wall_rounding_bounds(spectrum: Spectrum, R: float, M: float):
    """Per-mode bounds on the difference between the MIT rows of the per-label
    expression and of the 4-component references.

    Both are formed from the same f, g, C, chi and sigma_r, so they differ by
    their own roundings alone.  With u = 2^-53, a complex product within
    sqrt(5) u of its modulus, every other operation within u, and the rows of
    sigma_r of unit norm, at a sample:
    - condition, per label: sigma_r chi_b (sqrt(5) + 1), times g, the
      difference, |.| and C (1 each) on the g term, 4 on the f term; with
      gamma^r: C (amp chi) (2), then as before less the product by g.  Each is
      within (sqrt(5) + 5) u X, so the two within 14.5 u X < 16 u X, with
      X = C (|f| |chi_a| + |g| |chi_b|);
    - density, per label: |chi|^2 (3), f^2 and the product (2), the difference,
      C^2 and the product (1 each): 8 u Y; with gamma^t: |u_c|^2 (2 + 2), the
      sum of four (3), C**2 and the product (1 each): 9 u Y.  So 17 u Y < 20 u Y,
      with Y = C^2 (f^2 |chi_a|^2 + g^2 |chi_b|^2).
    A maximum over the samples moves by at most the largest of these.
    """
    u = assemble_spinor(spectrum, spectrum.p, M, R, _WALL_THETA, _WALL_PHI)  # (4, modes, 5, 3)
    up, lo = (np.sqrt((np.abs(u[pair]) ** 2).sum(axis=0)) for pair in (slice(2), slice(2, 4)))
    C = spectrum.C[:, None, None]
    eps = 2.0**-53
    return (16 * eps * (C * (up + lo)).max(axis=(1, 2)),
            20 * eps * (C * C * (up * up + lo * lo)).max(axis=(1, 2)))


# The MIT wall checks as scalar per-sample references of the per-label
# expression: at r = R a mode's upper pair is f chi_a, its lower pair i g chi_b,
# and S = sigma_r chi.  Each value is the library's IEEE expression at one
# (theta, phi) sample, so the bits are equal.
_SIGMA_R_SAMPLES = [gamma_radial(th, ph)[:2, 2:] for th, ph in
                    zip(_WALL_THETA.ravel().tolist(), _WALL_PHI.ravel().tolist())]


@functools.lru_cache(maxsize=None)
def _harmonic_sample_reference(two_j: int, two_mj: int, sign: int, sample: int) -> np.ndarray:
    th, ph = float(_WALL_THETA.flat[sample]), float(_WALL_PHI.flat[sample])
    return _spinor_harmonic_reference(two_j, two_mj, sign, th, ph)


def _mit_wall_reference(mode, R: float, M: float, varsigma: int) -> tuple[float, float]:
    """C max |g S_b - varsigma f chi_a|, |f S_a - varsigma g chi_b| and
    C^2 max |f^2 |chi_a|^2 - g^2 |chi_b|^2| over the wall samples."""
    k = mode.qn
    rad = _radial_pair_reference(k, mode.p, M, R)
    f, g, sgn = rad.f, rad.g_over_i, (1 if k.kappa > 0 else -1)
    cond = dens = 0.0
    for sample, sig in enumerate(_SIGMA_R_SAMPLES):
        chi_a = _harmonic_sample_reference(k.two_j, k.two_mj, sgn, sample)
        chi_b = _harmonic_sample_reference(k.two_j, k.two_mj, -sgn, sample)
        S_a, S_b = (sig[:, 0] * chi[0] + sig[:, 1] * chi[1] for chi in (chi_a, chi_b))
        for pair in (g * S_b - varsigma * f * chi_a, f * S_a - varsigma * g * chi_b):
            cond = max(cond, float(np.max(np.abs(pair))))
        n2a, n2b = (float(sq[0] + sq[1]) for sq in (chi_a.real**2 + chi_a.imag**2,
                                                     chi_b.real**2 + chi_b.imag**2))
        dens = max(dens, abs(f * f * n2a - g * g * n2b))
    return mode.C * cond, mode.C * mode.C * dens


# The per-sample wall checks that the array path replaced, kept verbatim as
# references: one scalar spinor assembly per (theta, phi) sample.
_THETA_SAMPLES = (0.17, 0.9, math.pi / 2, 2.3, 2.95)
_PHI_SAMPLES = (0.0, 1.3, 4.0)


def _spectral_component_reference(mode, R: float, M: float,
                                  thetas: Iterable[float] = _THETA_SAMPLES,
                                  phis: Iterable[float] = _PHI_SAMPLES) -> float:
    sel = slice(2, 4) if mode.qn.two_mj > 0 else slice(0, 2)
    worst = 0.0
    for th in thetas:
        for ph in phis:
            u = mode.C * _assemble_spinor_reference(mode.qn, mode.p, M, R, th, ph)
            worst = max(worst, float(np.max(np.abs(u[sel]))))
    return worst


def _mit_condition_reference(mode, R: float, M: float, varsigma: int,
                             thetas: Iterable[float] = _THETA_SAMPLES,
                             phis: Iterable[float] = _PHI_SAMPLES) -> float:
    worst = 0.0
    for th in thetas:
        for ph in phis:
            u = mode.C * _assemble_spinor_reference(mode.qn, mode.p, M, R, th, ph)
            resid = -1j * (gamma_radial(th, ph) @ u) - varsigma * u
            worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def _mit_density_reference(mode, R: float, M: float,
                           thetas: Iterable[float] = _THETA_SAMPLES) -> float:
    worst = 0.0
    for th in thetas:
        A, B = density_terms(mode.qn, mode.p, M, R, th)
        worst = max(worst, mode.C**2 * abs(A + B))
    return worst


# The scalar MIT root and norm code that the array path replaced, kept
# verbatim as references: the per-interval linspace scan, one scipy brentq
# call per bracket, the per-root residual check and the per-mode norm.


def _mit_momenta_reference(two_j: int, kappa: int, esign: int, R: float, M: float,
                           varsigma: int, count: int) -> np.ndarray:
    if not (0 < R < math.inf and 0 <= M < math.inf and count >= 1):
        raise ValueError("require finite R > 0, finite M >= 0, count >= 1")
    if esign not in (-1, 1) or varsigma not in (-1, 1):
        raise ValueError("esign and varsigma must be +-1")
    rho = M * R
    n_f, n_g = bessel_orders(kappa)
    f = lambda x: _mit_equation(x, kappa, esign, rho, varsigma)

    # _mit_roots' existence rule: with E and kappa of opposite signs, no root
    # lies below the first break unless M R < n + 3/2
    probe = esign * kappa > 0 or rho < min(n_f, n_g) + 1.5
    need = count
    for _ in range(6):
        k_hi = min(need + 2, I_MAX_DEFAULT)
        breaks = np.union1d(bessel_zeros(n_f, k_hi), bessel_zeros(n_g, k_hi))
        # near-zero approach: log-spaced probes below the first break
        pts = [np.geomspace(1e-6, breaks[0], 12) if probe else breaks[:1]]
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


def _mit_norm_reference(two_j: int, kappa: int, i: int, R: float, M: float, esign: int,
                        varsigma: int, p: float) -> float:
    E = esign * float(np.hypot(p, M))
    x = p * R
    if kappa > 0:
        denom = 2.0 * E * R - varsigma * (two_j + 1) + varsigma * M / E
        jval = abs(float(spherical_jn((two_j + 1) // 2, x)))
    else:
        denom = 2.0 * E * R + varsigma * (two_j + 1) + varsigma * M / E
        jval = abs(float(spherical_jn((two_j - 1) // 2, x)))
    ratio = (E + M if E > 0 else -(p * p) / (abs(E) + M)) / denom
    if not ratio > 0.0 or jval == 0.0:
        raise SolverError(
            f"inconsistent momentum/energy pair for MIT norm (two_j={two_j}, "
            f"kappa={kappa}, i={i}, esign={esign}, p={p})")
    return (math.sqrt(2.0) / (R * jval)) * math.sqrt(ratio)


def _mit_shells(two_j_max: int = 41):
    """(two_j, kappa) of every shell up to two_j_max."""
    for two_j, sign in itertools.product(range(1, two_j_max + 1, 2), (-1, 1)):
        yield two_j, sign * ((two_j + 1) // 2)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# The per-mode spectrum code that the column path replaced, kept verbatim as
# references: the mode loop of enumerate_spectrum, the vacuum loop, the
# scalar quantization residual and the per-mode CSV/JSON rows.


def _enumerate_spectrum_reference(bc, params, j_max: float,
                                  i_max: int) -> list[QuantizedMode]:
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


def _enumerate_spectrum_flat_reference(bc, params, j_max: float, i_max: int) -> Spectrum:
    # the flat construction that the shared mode layout replaced: every column
    # built on each call
    M, R, Omega = params.M, params.R, params.Omega
    sets = np.array([shell_rows(bc, es, M, R, i_max, two_j_from(j_max)) for es in (-1, 1)])
    n_j = sets.shape[1]  # sets' axes: [esign, j, (p, E, C), kappa shell and i - 1]
    k0, h = np.divmod(np.arange(2, 2 * n_j + 2), 2)  # (j, kappa) blocks, kappa = (2h - 1) k0
    k0, h, i = np.repeat(k0, i_max), np.repeat(h, i_max), np.tile(np.arange(i_max), 2 * n_j)
    width = 4 * k0  # (block, i) rows of 2j + 1 m_j (< 0 first) by 2 esign, at multiples of 4
    two_mj = (np.arange(width.sum()) & -2) - np.repeat(np.cumsum(width) - 2 * k0 - 1, width)
    shell = np.stack([h if bc.is_mit else 1 - h, h], 1)[..., None]  # each half row reads one
    at = ((np.arange(2) * n_j + k0[:, None, None] - 1) * 2 + shell) * i_max + i[:, None, None]
    p, E, C = np.take(np.moveaxis(sets, 2, 0).reshape(3, -1),  # an (esign) pair per m_j
                      np.repeat(at.reshape(-1, 2), np.repeat(k0, 2), axis=0).ravel(), axis=1)
    E_tilde = corotating_energy(E, two_mj / 2.0, Omega)  # while few columns are live
    return Spectrum(np.tile([-1, 1], E.size // 2), np.repeat(2 * k0 - 1, width), two_mj,
                    np.repeat((2 * h - 1) * k0, width), np.repeat(i + 1, width), p, E, E_tilde, C)


def _verify_vacuum_equivalence_reference(modes, Omega: float, R: float) -> VacuumReport:
    violations = []
    min_abs = math.inf
    for mo in modes:
        et = mo.E - Omega * mo.qn.two_mj / 2.0
        if mo.E * et <= 0.0:
            violations.append(mo)
        min_abs = min(min_abs, abs(et))
    return VacuumReport(violations, min_abs, len(modes), Omega * R)


def _quantization_residual_reference(bc, mode: QuantizedMode, R: float,
                                     M: float) -> float:
    qn = mode.qn
    x = mode.p * R
    if bc.is_mit:
        rho = M * R
        s = math.sqrt(x * x + rho * rho)
        coeff = -(s + rho) / x if qn.esign < 0 else x / (s + rho)
        return abs(float(_mit_equation(x, qn.kappa, qn.esign, rho,
                                       bc.varsigma))) / max(1.0, abs(coeff))
    sign_mk = 1 if qn.two_mj * qn.kappa > 0 else -1
    n = (qn.two_j + 1) // 2 if sign_mk > 0 else (qn.two_j - 1) // 2
    return abs(float(spherical_jn(n, x)))


def _csv_reference(modes, R: float) -> str:
    lines = ["esign,two_j,two_mj,kappa,i,pR,E,Etilde,C"]
    for mo in modes:
        row = (mo.qn.esign, mo.qn.two_j, mo.qn.two_mj, mo.qn.kappa, mo.qn.i,
               mo.p * R, mo.E, mo.E_tilde, mo.C)
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_reference(modes, R: float) -> str:
    fields = ("esign", "two_j", "two_mj", "kappa", "i", "pR", "E", "Etilde", "C")
    rows = [dict(zip(fields, (mo.qn.esign, mo.qn.two_j, mo.qn.two_mj, mo.qn.kappa,
                              mo.qn.i, mo.p * R, mo.E, mo.E_tilde, mo.C)))
            for mo in modes]
    return json.dumps(rows, indent=1) + "\n"


class TestSpectralMomentum:
    def test_examples(self):
        assert spectral_momentum(1, -1, 1, 1.0) == pytest.approx(math.pi, abs=1e-13)
        assert spectral_momentum(1, 1, 1, 1.0) == pytest.approx(XI_1_1, abs=1e-12)
        assert spectral_momentum(1, -1, 2, 2.0) == pytest.approx(math.pi, abs=1e-13)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            spectral_momentum(1, 0, 1, 1.0)
        for R in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="R must be positive"):
                spectral_momentum(1, 1, 1, R)
            with pytest.raises(ValueError, match="R must be positive"):
                spectral_norm(1, 1, 1, R)


class TestSpectralNorm:
    def test_examples(self):
        assert spectral_norm(1, -1, 1, 1.0) == pytest.approx(
            math.sqrt(2) * math.pi, rel=1e-13)
        assert spectral_norm(1, -1, 1, 2.0) == pytest.approx(
            math.sqrt(2) * math.pi / math.sqrt(8), rel=1e-13)
        expected = math.sqrt(2) / abs(spherical_bessel_j(0, XI_1_1))
        assert spectral_norm(1, 1, 1, 1.0) == pytest.approx(expected, rel=1e-12)


class TestRadialIntegrals:
    def test_closed_forms_at_zero_of_j0(self):
        # pR = pi: j_0 vanishes, j_1(pi) = 1/pi
        assert radial_integral_plus(0, math.pi, 1.0) == pytest.approx(
            0.5 / math.pi**2, rel=1e-12)
        assert radial_integral_minus(0, math.pi, 1.0) == pytest.approx(0.0, abs=1e-17)

    def test_against_quadrature(self):
        from scipy.special import spherical_jn
        n, p, R = 1, 2.7 / 1.3, 1.3
        plus = radial_quadrature(
            lambda r: r * r * 0.5 * (spherical_jn(n, p * r) ** 2
                                     + spherical_jn(n + 1, p * r) ** 2), R)
        minus = radial_quadrature(
            lambda r: r * r * 0.5 * (spherical_jn(n, p * r) ** 2
                                     - spherical_jn(n + 1, p * r) ** 2), R)
        assert radial_integral_plus(n, p, R) == pytest.approx(plus, abs=1e-12)
        assert radial_integral_minus(n, p, R) == pytest.approx(minus, abs=1e-12)

    def test_rejects_bad_arguments(self):
        for p, R in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan),
                     (math.inf, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError, match="require finite"):
                radial_integral_plus(1, p, R)
            with pytest.raises(ValueError, match="require finite"):
                radial_integral_minus(1, p, R)


class TestMitMomenta:
    def test_first_root_massless(self):
        # j_0(x) = j_1(x), equivalently tan x = x/(1-x); bisection on (pi/2, pi)
        from scipy.special import spherical_jn
        ref = bisect_root(lambda x: spherical_jn(0, x) - spherical_jn(1, x),
                          math.pi / 2, math.pi)
        p = mit_momenta(1, 1, 1, 1.0, 0.0, 1, 1)
        assert p[0] == pytest.approx(2.0427867, abs=5e-7)
        assert p[0] == pytest.approx(ref, abs=1e-12)

    def test_heavy_mass_limit(self):
        # p/(E+M) -> 0, so the equation degenerates to j_{j-1/2}(pR) = 0
        from rotsphere import bessel_zeros
        roots = mit_momenta(3, 2, 1, 1.0, 1e7, 1, 4)
        assert np.allclose(roots, bessel_zeros(1, 4), atol=1e-5)

    def test_rejects_bad_arguments(self):
        # non-finite R or M must not yield zero momenta or a SolverError
        for R, M in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan),
                     (1.0, math.inf), (0.0, 1.0), (1.0, -1.0)):
            with pytest.raises(ValueError, match="require finite"):
                mit_momenta(1, 1, 1, R, M, 1, 3)

    def test_against_sign_scan_oracle(self):
        got = mit_momenta(1, -1, 1, 1.0, 1.0, 1, 3)
        ref = scan_mit_momenta(1, -1, 1, 1.0, 1.0, 1, 3)
        assert np.allclose(got, ref, atol=1e-9)

    @pytest.mark.parametrize("two_j, kappa", [(1, 1), (3, 2), (5, 3)])
    def test_negative_energy_at_mass_threshold(self, two_j, kappa):
        # at M R = j + 1 the leading x -> 0 term of the esign = -1, varsigma = -1
        # equation vanishes; a cancelling coefficient there made the scan
        # return near-zero noise roots or fail its residual check
        M = two_j / 2.0 + 1.0
        got = mit_momenta(two_j, kappa, -1, 1.0, M, -1, 3)
        ref = scan_mit_momenta(two_j, kappa, -1, 1.0, M, -1, 3)
        assert np.allclose(got, ref, atol=1e-9)

    @pytest.mark.parametrize("two_j, kappa", [(83, -42), (89, 45), (119, -60)])
    def test_high_j_has_no_near_zero_root(self, two_j, kappa):
        # from j = 83/2 both Bessel values underflow to 0 at the first near-zero
        # probes; those exact zeros of the equation are no roots
        for esign in (1, -1):
            got = mit_momenta(two_j, kappa, esign, 1.0, 1.23, 1, 5)
            ref = scan_mit_momenta(two_j, kappa, esign, 1.0, 1.23, 1, 5)
            assert np.allclose(got, ref, rtol=1e-12, atol=0), esign

    @pytest.mark.parametrize("seed", range(4))
    def test_root_completeness(self, seed):
        rng = np.random.default_rng(200 + seed)
        two_j = int(rng.choice([1, 3, 5, 9]))
        kappa = int(rng.choice([-1, 1])) * (two_j + 1) // 2
        esign = int(rng.choice([-1, 1]))
        varsigma = int(rng.choice([-1, 1]))
        M = float(rng.uniform(0.0, 3.0))
        R = float(rng.uniform(0.5, 2.0))
        count = 6
        got = mit_momenta(two_j, kappa, esign, R, M, varsigma, count)
        ref = scan_mit_momenta(two_j, kappa, esign, R, M, varsigma, count)
        assert len(ref) == count
        assert np.allclose(got, ref, atol=1e-8)
        assert np.all(np.diff(got) > 0) and got[0] > 0

    def test_massless_first_root_lower_bounds(self):
        # bounds from the cylinder-function combinations J_j +- J_{j+1}
        for two_j in (1, 3, 7):
            j = two_j / 2.0
            minus_bound = math.sqrt(j * (j + 2))
            plus_bound = math.sqrt((j + 1) * (j + 3))
            for kappa_sign in (1, -1):
                kappa = kappa_sign * (two_j + 1) // 2
                for varsigma in (1, -1):
                    first = mit_momenta(two_j, kappa, 1, 1.0, 0.0, varsigma, 1)[0]
                    minus_type = (kappa_sign * varsigma == 1)
                    bound = minus_bound if minus_type else plus_bound
                    assert first > bound
                    assert first > j  # the bound that protects E*E_tilde > 0


class TestMitNorm:
    def test_massless_reduction(self):
        p = mit_momenta(1, 1, 1, 1.0, 0.0, 1, 1)[0]
        E = p
        expected = (math.sqrt(2) / (1.0 * abs(spherical_bessel_j(1, p)))
                    * math.sqrt(E / (2 * E - 2.0)))
        assert mit_norm(1, 1, 1, 1.0, 0.0, 1, 1, p) == pytest.approx(expected,
                                                                     rel=1e-12)

    def test_subnormal_ratio_raises_as_underflow(self):
        # shell (1, -1) reads |j_0(p R)|, 1 to rounding at small p; at E < 0,
        # M = R = varsigma = 1 the norm ratio is p^2 / 2 and the norm
        # sqrt(2 p^2 / 2) = p: the ratio is a normal double at p = 1e-150,
        # subnormal at 1e-160, where it keeps only a few bits, and +0 at
        # 1e-170.  Both of the latter raise as an underflow
        norms = lambda p: _mit_norms(1, -1, 1, 1.0, 1.0, -math.hypot(p, 1.0), 1, np.array([p]))
        assert norms(1e-150)[0] == pytest.approx(1e-150, rel=1e-15)
        for p in (1e-160, 1e-170):
            with pytest.raises(FloatingPointError,
                               match=r"^MIT norm ratio underflows at R=1\.0, M=1\.0$"):
                norms(p)

    def test_conjugate_shares_constant(self):
        R, M, vs = 1.2, 0.7, -1
        for two_j, kappa in ((1, 1), (3, -2), (5, 3)):
            p1 = mit_momenta(two_j, kappa, 1, R, M, vs, 3)
            p2 = mit_momenta(two_j, -kappa, -1, R, M, vs, 3)
            assert np.allclose(p1, p2, atol=1e-11)
            for i in (1, 2, 3):
                c1 = mit_norm(two_j, kappa, i, R, M, 1, vs, p1[i - 1])
                c2 = mit_norm(two_j, -kappa, i, R, M, -1, vs, p2[i - 1])
                assert c1 == pytest.approx(c2, rel=1e-12)

    def test_inconsistent_pair_rejected(self):
        # a momentum far below any root drives the bracket negative
        with pytest.raises(SolverError):
            mit_norm(1, 1, 1, 1.0, 0.1, 1, 1, 0.05)

    @pytest.mark.parametrize("rho", [1e3, 1e6, 1e7])
    def test_negative_energy_norm_at_large_mass(self, rho):
        # E + M cancels where E is near -M; against an 80-digit evaluation of
        # the same closed form at the same float root
        for (two_j, kappa), vs in itertools.product(((1, -1), (1, 1), (7, 4), (21, -11),
                                                     (41, 21)), (1, -1)):
            p = mit_momenta(two_j, kappa, -1, 1.0, rho, vs, 20)
            for i in (1, 2, 7, 20):
                got = mit_norm(two_j, kappa, i, 1.0, rho, -1, vs, p[i - 1])
                want = mp_mit_norm(two_j, kappa, 1.0, rho, -1, vs, p[i - 1])
                assert got == pytest.approx(want, rel=1e-9, abs=0), (two_j, kappa, vs, i)


class TestMitArrayPath:
    """Array momenta and norms keep the bits of the scalar references."""

    @pytest.mark.parametrize("count", [1, 20, 60])
    @pytest.mark.parametrize("M", [0.0, 0.3, 1.0, 2.0, 2.7182, 3.5, 7.0, 11.5])
    def test_shell_tables_match_reference(self, M, count):
        two_j, kappa = np.array(list(_mit_shells())).T
        for R, vs, esign in itertools.product((0.7, 1.0, 2.3), (1, -1), (1, -1)):
            # all 42 shells in one batch, as the store solves them; outside the
            # store, since this sweep would only evict other sets
            p = _mit_roots(two_j, kappa, esign, R, M, vs, count)
            C = _mit_norms(two_j[:, None], kappa[:, None], np.arange(1, count + 1), R, M,
                           esign * np.hypot(p, M), vs, p)
            for s, (tj, ka) in enumerate(_mit_shells()):
                ref = _mit_momenta_reference(tj, ka, esign, R, M, vs, count)
                ref_C = [_mit_norm_reference(tj, ka, i + 1, R, M, esign, vs, x)
                         for i, x in enumerate(ref)]
                assert _same_bits(p[s], ref), (R, vs, esign, tj, ka)
                assert _same_bits(C[s], ref_C), (R, vs, esign, tj, ka)

    @pytest.mark.parametrize("rho, rejected", [(1e6, 0), (3e6, 8), (1e7, 57)])
    def test_solves_at_huge_mass(self, rho, rejected):
        # the esign = -1 coefficient grows like 2 M R / x, and with it the
        # rounding of the equation at a root: the reference's absolute check
        # rejects `rejected` of these 84 shells, the scaled check none
        two_j, kappa = np.array(list(_mit_shells())).T
        failed = 0
        for vs in (1, -1):
            p = _mit_roots(two_j, kappa, -1, 1.0, rho, vs, 20)
            for s, (tj, ka) in enumerate(_mit_shells()):
                for x in p[s].tolist():
                    assert mp_mit_sign_change(x, ka, -1, rho, vs), (vs, tj, ka, x)
                try:
                    ref = _mit_momenta_reference(tj, ka, -1, 1.0, rho, vs, 20)
                except SolverError:
                    failed += 1
                else:
                    assert _same_bits(p[s], ref), (vs, tj, ka)
        assert failed == rejected

    @pytest.mark.parametrize("rho, budget", [(1e16, 2_700), (1e20, 2_200)])
    def test_evaluations_at_huge_mass(self, rho, budget, monkeypatch):
        # here a break, a zero of one Bessel order, rounds the equation to
        # either sign: such a break is the root, to within rounding, with no
        # second pass over the shell.  The 22 shells of j <= 21/2 and 20 roots
        # take 2,154 to 2,683 evaluations (a scan whose sign guard failed
        # there, then a scan of every gap, took 8,174 to 8,277).  The esign =
        # +1 roots keep the reference's bits; the esign = -1 roots (which the
        # reference's absolute check rejects) change sign at 50 digits
        points, real = [], boundary._mit_equation
        monkeypatch.setattr(boundary, "_mit_equation", lambda x, *args: (
            points.append(np.size(x)) or real(x, *args)))
        two_j, kappa = np.array(list(_mit_shells(21))).T
        for vs, esign in itertools.product((1, -1), (1, -1)):
            points.clear()
            p = _mit_roots(two_j, kappa, esign, 1.0, rho, vs, 20)
            assert sum(points) <= budget, (vs, esign)
            for s, (tj, ka) in enumerate(_mit_shells(21)):
                if esign > 0:
                    ref = _mit_momenta_reference(tj, ka, 1, 1.0, rho, vs, 20)
                    assert _same_bits(p[s], ref), (vs, tj, ka)
                else:
                    for x in p[s].tolist():
                        assert mp_mit_sign_change(x, ka, -1, rho, vs), (vs, tj, ka, x)

    def test_cold_solve_skips_rootless_gaps(self, monkeypatch):
        # the j <= 41/2, i_max = 60 set of shell_rows(mit(1), 1, 1.0, 1.0, 60, 41)
        # evaluates the equation at 24,545 points: at the probes and the ends of
        # the gaps where sign(j_lf j_lg) admits a root, at the ends of the
        # parts that bisect each to its root's, then in Brent.  A sign scan of
        # every part of those gaps took 29,071, of every gap 43,698
        points, real = [], boundary._mit_equation
        monkeypatch.setattr(boundary, "_mit_equation", lambda x, *args: (
            points.append(np.size(x)) or real(x, *args)))
        two_j, kappa = np.array(list(_mit_shells())).T
        _mit_roots(two_j, kappa, 1, 1.0, 1.0, 1, 60)
        assert sum(points) <= 24_600

    def test_break_rule_idle_below_1e14(self):
        # below M R = 1e14 f has the expected sign at every break, so the roots
        # keep the bits of the reference, which has no break rule, wherever it
        # accepts them
        rng, compared = np.random.default_rng(1414), 0
        shells = list(_mit_shells(81))  # from j = 83/2 j_lf underflows at the first probe
        for rho in [0.0, *10.0 ** rng.uniform(-3.0, 13.0, 15)]:
            vs, esign, count = int(rng.choice([1, -1])), int(rng.choice([1, -1])), 12
            pick = rng.choice(len(shells), 10, replace=False)
            two_j, kappa = np.array([shells[k] for k in pick]).T
            p = _mit_roots(two_j, kappa, esign, 1.0, rho, vs, count)
            for row, tj, ka in zip(p, two_j.tolist(), kappa.tolist()):
                try:
                    ref = _mit_momenta_reference(tj, ka, esign, 1.0, rho, vs, count)
                except SolverError:  # its absolute residual check, at large M R
                    continue
                assert _same_bits(row, ref), (rho, vs, esign, tj, ka)
                compared += 1
        assert compared >= 100

    def test_phase_margin_above_first_break(self):
        # _mit_roots' proof: above the first zero of the lower order n, which
        # exceeds n + 5/4, the angle theta of (j_n, j_n+1) less the target angle
        # atan(s c) (kappa < 0) or atan(1 / (s c)) (kappa > 0) increases
        # strictly.  Sampled from that zero to the third of order n, for every
        # shell of j <= 41/2, both varsigma and E signs, and M R in {0, 1, 1e3}
        for (two_j, kappa), vs, esign, rho in itertools.product(
                _mit_shells(), (1, -1), (1, -1), (0.0, 1.0, 1e3)):
            n = min(bessel_orders(kappa))
            zeros = bessel_zeros(n, 3)
            assert zeros[0] > n + 1.25
            x = np.linspace(zeros[0], zeros[2], 400)
            theta = np.unwrap(np.arctan2(spherical_jn(n + 1, x), spherical_jn(n, x)))
            s = np.hypot(x, rho)
            sc = (1 if kappa > 0 else -1) * vs * (x / (s + rho) if esign > 0 else -(s + rho) / x)
            gap = theta - (np.arctan(1.0 / sc) if kappa > 0 else np.arctan(sc))
            assert np.all(np.diff(gap) > 0), (two_j, kappa, vs, esign, rho)

    def test_existence_rule_below_first_break(self):
        # _mit_roots' rule: below the first zero of the lower order n the
        # equation has one root where sign_fg = +1 and E and kappa agree in
        # sign, one where they do not only if M R < n + 3/2, and none where
        # sign_fg = -1.  Sampled at 4,000 points from x = 1e-3, where every
        # value here is a normal double, for every shell of j <= 21/2, both
        # varsigma and E signs, and M R on both sides of each n + 3/2
        for (two_j, kappa), vs, esign, rho in itertools.product(
                _mit_shells(11), (1, -1), (1, -1),
                (0.0, 0.5, 1.4, 1.6, 2.4, 2.6, 5.4, 5.6, 11.4, 11.6, 30.0)):
            n = min(bessel_orders(kappa))
            x = np.geomspace(1e-3, bessel_zeros(n, 1)[0], 4000)[:-1]
            f = _mit_equation(x, kappa, esign, rho, vs)
            found = int(np.count_nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0))
            sign_fg = (1 if kappa > 0 else -1) * vs * esign
            want = sign_fg > 0 and (esign * kappa > 0 or rho < n + 1.5)
            assert found == want, (two_j, kappa, vs, esign, rho)

    @pytest.mark.parametrize("two_j, M", [(81, 50.0), (81, 1000.0), (21, 11.5)])
    def test_no_probe_root_where_the_rule_has_none(self, two_j, M):
        # varsigma = -1, E and kappa of opposite signs, M R >= n + 3/2: no root
        # lies below the first break.  At j = 81/2 both Bessel terms are
        # subnormal at the lowest probes, and at M R = n + 3/2 the equation's
        # two terms cancel to x^2 there: rounding gave f the wrong sign, a
        # spurious root, where the 50-digit equation keeps its sign, that
        # moved every real root down an index.  The real roots keep the bits
        # of the scalar sign scan
        k0 = (two_j + 1) // 2
        for kappa, esign in ((-k0, 1), (k0, -1)):
            got = mit_momenta(two_j, kappa, esign, 1.0, M, -1, 4)
            assert np.allclose(got, scan_mit_momenta(two_j, kappa, esign, 1.0, M, -1, 4),
                               rtol=1e-12, atol=0)
            assert _same_bits(got, _mit_momenta_reference(two_j, kappa, esign, 1.0, M, -1, 4))
            probes = np.geomspace(1e-6, bessel_zeros(k0 - 1, 1)[0], 12)
            f = lambda x: _mit_equation(x, kappa, esign, M, -1)
            (k,) = np.flatnonzero(np.sign(f(probes[:-1])) * np.sign(f(probes[1:])) < 0)
            spurious = brentq(f, probes[k], probes[k + 1], xtol=_ROOT_XTOL)
            assert spurious < 1e-5 and not mp_mit_sign_change(spurious, kappa, esign, M, -1)

    @pytest.mark.parametrize("two_j, kappa, esign", [(145, -73, 1), (145, 73, -1),
                                                     (175, -88, 1)])
    def test_oracle_refuses_a_spurious_scan_root(self, two_j, kappa, esign):
        # the oracle's double-precision scan finds a root at x = 5.0e-3 (j =
        # 145/2) or 2.5e-2 (175/2) at M R = 100, far below the first break,
        # where the terms are subnormal and the 50-digit equation keeps its
        # sign: the oracle raises rather than return it
        n = min(bessel_orders(kappa))
        with pytest.raises(RuntimeError, match=rf"below the first zero of j_{n} is no sign"):
            scan_mit_momenta(two_j, kappa, esign, 1.0, 100.0, -1, 4)

    @pytest.mark.parametrize("rho", [1e6, 3e6, 1e7])
    def test_moved_roots_rejected(self, rho):
        # at the masses above, a root moved by 1e-9 relative fails the scaled
        # residual check
        two_j, kappa = np.array(list(_mit_shells())).T
        for vs, esign in itertools.product((1, -1), (1, -1)):
            x = _mit_roots(two_j, kappa, esign, 1.0, rho, vs, 20)
            resid = lambda y: _mit_residual(y, kappa[:, None], esign, rho, vs)
            assert np.all(resid(x) <= QUANT_TOL)
            for rel in (-1e-9, 1e-9):
                assert np.all(resid(x * (1 + rel)) > QUANT_TOL), (vs, esign, rel)

    # shells (1, -1) and (1, 1) read orders 0 and 1, shells (5, -3) and (5, 3)
    # orders 2 and 3
    _BATCH = ([1, 1, 5, 5], [-1, 1, -3, 3])

    def test_each_table_read_once(self, monkeypatch):
        # count 8 reads the first count + 1 = 9 zeros of each order, and each
        # order's table once for all the shells of the batch that read it
        calls, real = [], boundary._zero_table

        def counting(n, count):
            calls.append((n, count))
            return real(n, count)

        monkeypatch.setattr(boundary, "_zero_table", counting)
        p = _mit_roots(*self._BATCH, 1, 1.3, 0.7, -1, 8)
        assert sorted(calls) == [(0, 9), (1, 9), (2, 9), (3, 9)]
        for row, two_j, kappa in zip(p, *self._BATCH):
            assert _same_bits(row, _mit_momenta_reference(two_j, kappa, 1, 1.3, 0.7, -1, 8))

    def test_exact_zero_probe_in_a_batch(self, monkeypatch):
        # no input known to this suite puts an exact 0 of the equation on a
        # probe where j_{l_f} is not 0, so one is made: the equation of shell
        # (5, 3) reads 0 at a scan point between two of its roots, in the gap
        # from the first zero of j_3 to the second of j_2, which can hold a
        # root.  That probe is merged with the shell's roots; the other shells
        # keep theirs.
        real = boundary._mit_equation
        x0 = float(np.linspace(bessel_zeros(3, 1)[0], bessel_zeros(2, 2)[1], 3)[1])
        zero_at = lambda x, kappa, esign, rho, vs: np.where(
            (x == x0) & (kappa == 3), 0.0, real(x, kappa, esign, rho, vs))[()]
        monkeypatch.setattr(boundary, "_mit_equation", zero_at)
        monkeypatch.setitem(globals(), "_mit_equation", zero_at)
        p = _mit_roots(*self._BATCH, 1, 1.0, 1.23, 1, 5)
        assert x0 in p[3].tolist() and x0 not in p[2].tolist()
        for row, tj, ka in zip(p, *self._BATCH):
            assert _same_bits(row, _mit_momenta_reference(tj, ka, 1, 1.0, 1.23, 1, 5))

    def test_exact_zero_on_a_guarded_break(self, monkeypatch):
        # for shell (5, 3) at esign = varsigma = 1 a root needs j_2 j_3 > 0, so
        # the gap from the first zero of j_3 to the second of j_2 is kept, and
        # the equation must be negative at its lower end.  A 0 made there is a
        # root, as in the reference, beside the one the gap's parts bracket,
        # from the one evaluation of that break: no pass scans the shell
        # again, and Brent never reads it
        real, seen = boundary._mit_equation, []
        x0 = float(bessel_zeros(3, 1)[0])

        def zero_at(x, kappa, esign, rho, vs):
            if np.ndim(x) == 1:  # the pass over the brackets' ends, then Brent
                seen.extend(x[kappa == 3].tolist())
            return np.where((x == x0) & (kappa == 3), 0.0, real(x, kappa, esign, rho, vs))[()]

        monkeypatch.setattr(boundary, "_mit_equation", zero_at)
        p = _mit_roots(*self._BATCH, 1, 1.0, 1.23, 1, 5)
        assert seen.count(x0) == 1
        monkeypatch.setitem(globals(), "_mit_equation", zero_at)
        assert x0 in p[3].tolist() and x0 not in p[2].tolist()
        for row, tj, ka in zip(p, *self._BATCH):
            assert _same_bits(row, _mit_momenta_reference(tj, ka, 1, 1.0, 1.23, 1, 5))

    def test_exact_zero_at_first_probe(self, monkeypatch):
        # a zero on a shell's first probe, x = 1e-6, has no scan point to its
        # left: it opens the bracket that starts there and is the first root
        real = boundary._mit_equation
        zero_at = lambda x, kappa, esign, rho, vs: np.where(
            (x == 1e-6) & (kappa == 3), 0.0, real(x, kappa, esign, rho, vs))[()]
        monkeypatch.setattr(boundary, "_mit_equation", zero_at)
        monkeypatch.setitem(globals(), "_mit_equation", zero_at)
        p = _mit_roots(*self._BATCH, 1, 1.0, 1.23, 1, 5)
        assert p[3][0] == 1e-6 and 1e-6 not in p[2].tolist()
        for row, tj, ka in zip(p, *self._BATCH):
            assert _same_bits(row, _mit_momenta_reference(tj, ka, 1, 1.0, 1.23, 1, 5))

    def test_roots_not_located_names_first_failing_shell(self, monkeypatch):
        # the shells of orders 2 and 3 lose their last two kept gaps: (5, -3)
        # keeps 6 and its root below the first break, 7 of 8 roots, and (5, 3)
        # keeps 6.  The batch names the first, as that shell solved alone does
        real = boundary._scan_grids

        def short(orders, count, sign_fg, probe):
            probes, (lo, hi, shell, sign) = real(orders, count, sign_fg, probe)
            keep = np.ones(shell.size, bool)
            for s in np.flatnonzero(np.minimum(*orders) == 2):
                keep[np.flatnonzero(shell == s)[-2:]] = False
            return probes, (lo[keep], hi[keep], shell[keep], sign[keep])

        monkeypatch.setattr(boundary, "_scan_grids", short)
        with pytest.raises(SolverError) as got:
            _mit_roots(*self._BATCH, 1, 1.3, 0.7, -1, 8)
        assert str(got.value) == ("could not locate 8 momentum roots (two_j=5, kappa=-3, "
                                  "esign=1, M=0.7, varsigma=-1)")
        with pytest.raises(SolverError) as alone:
            _mit_roots(5, -3, 1, 1.3, 0.7, -1, 8)
        assert str(got.value) == str(alone.value)

    def test_batch_raises_for_first_failing_shell(self, monkeypatch):
        # the roots of the kappa < 0 shells moved by 1e-9 relative: at M R = 1e7,
        # esign = -1, shell (1, 1) passes, (1, -1) and (3, -2) fail
        moved = lambda x, kappa: x * np.where(kappa < 0, 1 + 1e-9, 1.0)
        real = boundary._brentq_array
        for two_j, kappa in ([1, 1, 3], [1, -1, -2]), ([3, 1, 1], [-2, 1, -1]):
            x = moved(_mit_roots(two_j, kappa, -1, 1.0, 1e7, 1, 20), np.c_[kappa])
            resid = _mit_residual(x, np.c_[kappa], -1, 1e7, 1)
            s = np.flatnonzero((resid > QUANT_TOL).any(axis=1))[0]
            assert kappa[s] < 0 and s == min(kappa.index(-1), kappa.index(-2))
            r = resid[s][resid[s] > QUANT_TOL][0]
            with monkeypatch.context() as m:
                m.setattr(boundary, "_brentq_array",
                          lambda f, a, b, cols, *ends: moved(real(f, a, b, cols, *ends),
                                                             cols[0]))
                with pytest.raises(SolverError) as got:
                    _mit_roots(two_j, kappa, -1, 1.0, 1e7, 1, 20)
            assert str(got.value) == (f"momentum root residual {r:.2e} exceeds 1e-10 "
                                      f"(two_j={two_j[s]}, kappa={kappa[s]}, esign=-1)")

    def test_scalar_norm_matches_reference(self):
        R, M, vs = 1.3, 0.9, -1
        for esign, (two_j, kappa) in itertools.product((1, -1), _mit_shells(9)):
            for i, x in enumerate(mit_momenta(two_j, kappa, esign, R, M, vs, 5).tolist(), 1):
                got = mit_norm(two_j, kappa, i, R, M, esign, vs, x)
                assert got.hex() == _mit_norm_reference(two_j, kappa, i, R, M, esign, vs,
                                                        x).hex()
        with pytest.raises(SolverError) as want:
            _mit_norm_reference(1, 1, 1, 1.0, 0.1, 1, 1, 0.05)
        with pytest.raises(SolverError) as got:
            mit_norm(1, 1, 1, 1.0, 0.1, 1, 1, 0.05)
        assert str(got.value) == str(want.value)


class TestShellStore:
    """One store of j rows per (bc, esign, M, R, i_max) set."""

    @staticmethod
    def _bits(rows):
        return [[v.view(np.int64).tolist() for v in row] for row in rows]

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_grown_set_matches_cold_solve(self, bc):
        key = (bc, -1, 0.83, 1.7, 40)  # a set no other test uses; 31 j a batch
        small = shell_rows(*key, 3)
        grown = shell_rows(*key, 73)  # 35 more j, in batches of 31 and 4
        assert len(small) == 2 and len(grown) == 37
        # the prefix is kept, not re-solved
        assert all(a[0] is b[0] and a[2] is b[2] for a, b in zip(small, grown))
        assert self._bits(small) == self._bits(grown[:2])
        boundary._shell_set.cache_clear()
        cold = shell_rows(*key, 73)  # batches of 31 and 6
        assert cold[0][0] is not grown[0][0]
        assert self._bits(cold) == self._bits(grown)
        assert self._bits(shell_rows(*key, 41)) == self._bits(grown[:21])
        # each row is the -k0 shell, then the +k0 shell
        for two_j, (p, E, C) in zip(range(1, 74, 2), cold):
            k0 = (two_j + 1) // 2
            for half, kappa in ((slice(40), -k0), (slice(40, None), k0)):
                table = shell_table(bc, two_j, kappa, -1, 0.83, 1.7, 40)
                assert self._bits([table]) == self._bits([(p[half], E[half], C[half])])
            assert not (p.flags.writeable or E.flags.writeable or C.flags.writeable)

    def test_evicted_set_rebuilds_with_same_bits(self):
        bound = boundary._shell_set.cache_parameters()["maxsize"]
        boundary._shell_set.cache_clear()
        first = shell_rows(mit(1), 1, 0.25, 1.1, 6, 7)
        for k in range(bound):  # one more set than the bound, counting the first
            shell_rows(mit(1), 1, 0.5 + k, 1.1, 6, 7)
        assert boundary._shell_set.cache_info().currsize == bound
        misses = boundary._shell_set.cache_info().misses
        again = shell_rows(mit(1), 1, 0.25, 1.1, 6, 7)
        assert boundary._shell_set.cache_info().misses == misses + 1
        assert again[0][0] is not first[0][0]
        assert self._bits(again) == self._bits(first)

    def test_spectral_sets_share_momenta_and_norms(self, monkeypatch):
        # spectral p and C depend on neither esign nor M: every (esign, M) read
        # takes them from the one set of (R, i_max) and forms only its E
        calls, spectral_shell = [], boundary._spectral_shell
        monkeypatch.setattr(boundary, "_spectral_shell",
                            lambda *args: calls.append(args) or spectral_shell(*args))
        R, i_max = 1.9, 7  # a set no other test uses
        sets = {(es, M): shell_rows(SPECTRAL, es, M, R, i_max, 9)
                for es in (-1, 1) for M in (0.0, 0.6, 2.5)}
        assert len(calls) == 10  # 5 j of 2 kappa shells, solved once
        first = sets[-1, 0.0]
        for (es, M), rows in sets.items():
            for two_j, (p, E, C), (p0, _, C0) in zip(range(1, 10, 2), rows, first):
                assert p is p0 and C is C0 and not E.flags.writeable
                assert E.tobytes() == (es * np.hypot(p, M)).tobytes()
                for half, sign in ((slice(i_max), -1), (slice(i_max, None), 1)):
                    want = spectral_shell(two_j, sign, i_max, R)
                    assert self._bits([(p[half], C[half])]) == self._bits([want])
        again = shell_rows(SPECTRAL, 1, 0.6, R, i_max, 9)
        assert again is not sets[1, 0.6] and len(calls) == 10
        assert all(a[0] is b[0] and a[2] is b[2] for a, b in zip(again, sets[1, 0.6]))
        assert self._bits(again) == self._bits(sets[1, 0.6])
        # a failed batch leaves no (p, C) rows behind, and names the caller's M
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"at R=1e-200, M=0\.6$"):
                shell_rows(SPECTRAL, 1, 0.6, 1e-200, 2, 3)
        assert len(boundary._shell_set(SPECTRAL, 0, 0.0, 1e-200, 2)) == 0

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_tiny_radius_raises_before_any_warning(self, bc):
        # sqrt(R^3) underflows (spectral C = inf), p^2 overflows in the MIT norm
        # of the E < 0 modes, and |C|^2 overflows for every MIT mode: each gave
        # a non-finite value with no error before.  The failed batch leaves no
        # rows in the set the store solves first: the spectral one, keyed
        # esign = 0, M = 0.0, or the MIT E < 0 one; the condensate reads E > 0
        keys = [(0, 0.0)] if not bc.is_mit else [(-1, 1.0), (1, 1.0)]
        for R in (1e-200, 1e-300):
            params = PhysicalParams(M=1.0, R=R, Omega=0.0, beta=1.0)
            for _ in range(2):  # the failed batch leaves no rows behind
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match=rf"non-finite momentum, energy or "
                                                         rf"\|C\|\^2 at R={R}, M=1\.0$"):
                        enumerate_spectrum(bc, params, 1.5, 2)
                    with pytest.raises(ValueError, match=rf"R={R}, M=1\.0"):
                        condensate_grid(bc, params, [0.0], [1.0], 1.5, 2)
                assert [len(boundary._shell_set(bc, *key, R, 2)) for key in keys] == [0] * len(
                    keys)
        # R**3 overflows in a spectral norm (an OverflowError before), and the
        # norm ratio of the MIT E < 0 modes underflows to 0 (a SolverError
        # before); the condensate reads only E > 0 modes
        for R in (1e108, 1e150):
            params = PhysicalParams(M=1.0, R=R, Omega=0.0, beta=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as exc:
                    enumerate_spectrum(bc, params, 1.5, 2)
            assert str(exc.value) == f"non-finite momentum, energy or |C|^2 at R={R}, M=1.0"
            assert len(boundary._shell_set(bc, *keys[0], R, 2)) == 0
        # a small radius at which every value is finite
        params = PhysicalParams(M=1.0, R=1e-100, Omega=0.0, beta=1.0)
        assert len(enumerate_spectrum(bc, params, 1.5, 2)) == 48


class TestEnumerate:
    def test_mode_count(self):
        params = PhysicalParams(M=0.0, R=1.0, Omega=0.0, beta=1.0)
        modes = enumerate_spectrum(SPECTRAL, params, 0.5, 1)
        assert len(modes) == 8

    def test_faster_than_light_rejected(self):
        with pytest.raises(FasterThanLightError):
            PhysicalParams(M=0.0, R=1.0, Omega=1.2, beta=1.0)
        good = PhysicalParams(M=0.0, R=1.0, Omega=0.0, beta=1.0)
        bad = object.__new__(PhysicalParams)
        object.__setattr__(bad, "M", 0.0)
        object.__setattr__(bad, "R", 1.0)
        object.__setattr__(bad, "Omega", 1.0)
        object.__setattr__(bad, "beta", 1.0)
        object.__setattr__(bad, "mu", 0.0)
        with pytest.raises(FasterThanLightError):
            enumerate_spectrum(SPECTRAL, bad, 0.5, 1)
        with pytest.raises(FasterThanLightError):
            condensate_point(SPECTRAL, bad, 0.5, 1.0, 1.5, 1)
        with pytest.raises(FasterThanLightError):
            condensate_grid(SPECTRAL, bad, [0.5], [1.0], 1.5, 1)
        enumerate_spectrum(SPECTRAL, good, 0.5, 1)

    def test_canonical_ordering_and_determinism(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.4, beta=1.0)
        a = enumerate_spectrum(mit(1), params, 1.5, 2).modes()
        b = enumerate_spectrum(mit(1), params, 1.5, 2).modes()
        assert a == b
        keys = [(m.qn.two_j, m.qn.kappa, m.qn.i, m.qn.two_mj, m.qn.esign) for m in a]
        assert keys == sorted(keys)

    def test_all_corotating_products_positive(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.9, beta=1.0)
        for bc in (SPECTRAL, mit(1)):
            spec = enumerate_spectrum(bc, params, 4.5, 4)
            assert np.all(spec.E * spec.E_tilde > 0)

    def test_spectral_momentum_lower_bound(self):
        params = PhysicalParams(M=0.5, R=2.0, Omega=0.3, beta=1.0)
        spec = enumerate_spectrum(SPECTRAL, params, 4.5, 3)
        assert np.all(spec.p * params.R > spec.two_j / 2.0 + 0.5)

    def test_quantization_residuals(self):
        params = PhysicalParams(M=1.3, R=0.8, Omega=0.5, beta=1.0)
        for bc in (SPECTRAL, mit(-1)):
            spec = enumerate_spectrum(bc, params, 2.5, 3)
            resid = quantization_residual(bc, spec, params.R, params.M)
            assert resid.shape == (len(spec),) and np.all(resid <= 1e-10)

    def test_two_j_from(self):
        assert two_j_from(0.5) == 1
        assert two_j_from(10.5) == 21
        with pytest.raises(ValueError):
            two_j_from(1.0)
        for bad in (math.inf, -math.inf, math.nan, 1e308):
            with pytest.raises(ValueError, match="half-integer"):
                two_j_from(bad)


_COLUMN_CASES = [(bc, M, R, Omega) for bc in (SPECTRAL, mit(1), mit(-1))
                 for M, R, Omega in ((1.0, 1.0, 0.99), (2.0, 1.3, 0.5))]


class TestSpectrumColumns:
    """The column spectrum and its readers reproduce the per-mode references."""

    @pytest.mark.parametrize("bc, M, R, Omega", _COLUMN_CASES)
    def test_columns_match_reference(self, bc, M, R, Omega):
        params = PhysicalParams(M=M, R=R, Omega=Omega, beta=1.0)
        spec = enumerate_spectrum(bc, params, 6.5, 8)
        ref = _enumerate_spectrum_reference(bc, params, 6.5, 8)
        assert isinstance(spec, Spectrum) and len(spec) == len(ref) == 7 * 8 * 8 * 2 * 2
        for col in ("esign", "two_j", "two_mj", "kappa", "i"):
            assert getattr(spec, col).tolist() == [getattr(mo.qn, col) for mo in ref]
        for col in ("p", "E", "E_tilde", "C"):
            assert ([v.hex() for v in getattr(spec, col).tolist()]
                    == [getattr(mo, col).hex() for mo in ref])
        assert spec.modes() == ref
        mask = (spec.two_j <= 3) & (spec.i <= 2)
        assert spec.modes(mask) == [mo for mo in ref if mo.qn.two_j <= 3 and mo.qn.i <= 2]
        # Python scalars, not numpy ones, so printed labels and values keep their bytes
        first = spec.modes()[0]
        assert all(type(v) is int for v in vars(first.qn).values())
        assert all(type(v) is float for v in (first.p, first.E, first.E_tilde, first.C))
        assert spectrum_to_csv(spec, R) == _csv_reference(ref, R)
        assert spectrum_to_json(spec, R) == _json_reference(ref, R)

    @pytest.mark.parametrize("i_max", [1, 2, 20])
    @pytest.mark.parametrize("j_max", [0.5, 1.5, 12.5])
    def test_flat_columns_match_mode_loop(self, j_max, i_max):
        # every column, bits and dtype, against the per-mode loop: the labels
        # as numpy makes Python ints into an array, the values as floats
        for bc, (M, R, Omega) in itertools.product((SPECTRAL, mit(1), mit(-1)),
                                                   ((1.0, 1.0, 0.99), (0.0, 1.3, 0.5))):
            params = PhysicalParams(M=M, R=R, Omega=Omega, beta=1.0)
            spec = enumerate_spectrum(bc, params, j_max, i_max)
            ref = _enumerate_spectrum_reference(bc, params, j_max, i_max)
            assert len(spec) == len(ref) == 8 * i_max * sum(
                k0 for k0 in range(1, int(j_max + 1.5)))
            for f in dataclasses.fields(Spectrum):
                source = ((mo.qn for mo in ref) if f.name in ("esign", "two_j", "two_mj",
                                                              "kappa", "i") else ref)
                want, got = np.array([getattr(v, f.name) for v in source]), getattr(spec, f.name)
                assert (got.dtype, got.shape) == (want.dtype, want.shape), f.name
                assert got.tobytes() == want.tobytes(), f.name

    @pytest.mark.parametrize("j_max, i_max", [(4.5, 7), (12.5, 20)])
    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_shared_layout_matches_flat_construction(self, bc, j_max, i_max):
        params = PhysicalParams(M=1.0, R=1.3, Omega=0.7, beta=1.0)
        spec = enumerate_spectrum(bc, params, j_max, i_max)
        want = _enumerate_spectrum_flat_reference(bc, params, j_max, i_max)
        for f in dataclasses.fields(Spectrum):
            got, ref = getattr(spec, f.name), getattr(want, f.name)
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape), f.name
            assert got.tobytes() == ref.tobytes(), f.name
        # a second call, at another rotation rate, reads the same read-only
        # label arrays; p, E, E_tilde and C are its own
        again = enumerate_spectrum(bc, PhysicalParams(M=1.0, R=1.3, Omega=0.2, beta=1.0),
                                   j_max, i_max)
        for name in ("esign", "two_j", "two_mj", "kappa", "i"):
            col = getattr(spec, name)
            assert getattr(again, name) is col and not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = col[0]
        for name in ("p", "E", "E_tilde", "C"):
            col = getattr(again, name)
            assert col.flags.writeable and not np.shares_memory(col, getattr(spec, name))
        assert again.p.tobytes() == spec.p.tobytes()
        assert again.E_tilde.tobytes() != spec.E_tilde.tobytes()

    @pytest.mark.parametrize("bc, M, R, Omega", _COLUMN_CASES)
    def test_vacuum_and_residual_match_reference(self, bc, M, R, Omega):
        params = PhysicalParams(M=M, R=R, Omega=Omega, beta=1.0)
        spec = enumerate_spectrum(bc, params, 12.5, 6)
        ref = _enumerate_spectrum_reference(bc, params, 12.5, 6)
        # the physical rate, and a hypothetical Omega*R = 1.5 that has violations
        for omega in (Omega, 1.5 / R):
            got = verify_vacuum_equivalence(spec, omega, R)
            want = _verify_vacuum_equivalence_reference(ref, omega, R)
            assert got == want
            assert got.min_abs_corotating.hex() == want.min_abs_corotating.hex()
        assert not got.ok
        resid = quantization_residual(bc, spec, R, M)
        want = [_quantization_residual_reference(bc, mo, R, M) for mo in ref]
        assert [v.hex() for v in resid.tolist()] == [v.hex() for v in want]
        assert float(np.max(resid)).hex() == max(want).hex()


class TestVacuumEquivalence:
    def test_nonrotating_trivial(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.0, beta=1.0)
        spec = enumerate_spectrum(SPECTRAL, params, 2.5, 2)
        rep = verify_vacuum_equivalence(spec, 0.0, 1.0)
        assert rep.ok and rep.n_modes == len(spec)

    def test_high_rotation_ok(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.99, beta=1.0)
        spec = enumerate_spectrum(SPECTRAL, params, 6.5, 8)
        assert verify_vacuum_equivalence(spec, 0.99, 1.0).ok

    def test_hypothetical_superluminal_shows_violations(self):
        params = PhysicalParams(M=0.0, R=1.0, Omega=0.0, beta=1.0)
        spec = enumerate_spectrum(SPECTRAL, params, 10.5, 4)
        rep = verify_vacuum_equivalence(spec, 1.5, 1.0)
        assert not rep.ok
        assert all(abs(m.qn.two_mj) / 2.0 > 1.0 for m in rep.violations)

    def test_modes_built_only_for_violations(self, monkeypatch):
        params = PhysicalParams(M=0.0, R=1.0, Omega=0.0, beta=1.0)
        spec = enumerate_spectrum(SPECTRAL, params, 10.5, 4)
        built, real = [], Spectrum.modes

        def counting(self, mask=slice(None)):
            built.append(mask)
            return real(self, mask)

        monkeypatch.setattr(Spectrum, "modes", counting)
        assert verify_vacuum_equivalence(spec, 0.99, 1.0).ok and built == []
        rep = verify_vacuum_equivalence(spec, 1.5, 1.0)
        assert len(built) == 1 and rep.violations == [
            mo for mo in real(spec) if mo.E * (mo.E - 1.5 * mo.qn.two_mj / 2.0) <= 0.0]
        assert rep.violations

    def test_rejects_non_finite_omega(self):
        # E * E_tilde <= 0 is False for a NaN E_tilde, which would pass every mode
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.5, beta=1.0)
        spec = enumerate_spectrum(SPECTRAL, params, 2.5, 2)
        for omega in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="Omega must be finite"):
                verify_vacuum_equivalence(spec, omega, 1.0)


class TestOrthonormality:
    def test_norms_and_overlaps(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.2, beta=1.0)
        for bc in (SPECTRAL, mit(1)):
            modes = enumerate_spectrum(bc, params, 1.5, 3).modes()
            for mo in modes[::5]:
                assert quadrature_mode_norm(mo, params.M, params.R) == pytest.approx(
                    1.0, abs=1e-8)
            same = [m for m in modes
                    if (m.qn.two_j, m.qn.two_mj, m.qn.kappa, m.qn.esign) == (1, 1, 1, 1)]
            for a in same:
                for b in same:
                    if a.qn.i < b.qn.i:
                        assert abs(quadrature_mode_overlap(a, b, params.M,
                                                           params.R)) <= 1e-8


class TestBoundaryResiduals:
    def test_spectral_wall_components(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.3, beta=1.0)
        spec = enumerate_spectrum(SPECTRAL, params, 2.5, 2)
        comp, cond, dens = _wall_residuals(SPECTRAL, spec, params.R, params.M)
        assert np.all(comp <= 1e-10) and not np.any(cond) and not np.any(dens)
        rep = verify_boundary_residuals(SPECTRAL, spec, params.R, params.M)
        assert rep.ok and rep.n_modes == len(spec) == comp.size
        assert rep.max_component == float(np.max(comp))

    @pytest.mark.parametrize("vs", [1, -1])
    def test_mit_wall_condition(self, vs):
        params = PhysicalParams(M=0.8, R=1.0, Omega=0.3, beta=1.0)
        spec = enumerate_spectrum(mit(vs), params, 2.5, 2)
        comp, cond, dens = _wall_residuals(mit(vs), spec, params.R, params.M)
        assert not np.any(comp) and np.all(cond <= 1e-9) and np.all(dens <= 1e-9)
        rep = verify_boundary_residuals(mit(vs), spec, params.R, params.M)
        assert rep.ok and rep.n_modes == len(spec)
        assert (rep.max_condition, rep.max_density) == (float(np.max(cond)),
                                                         float(np.max(dens)))

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_small_sphere_scaled_to_field(self, bc):
        # C ~ R^(-3/2): at R = 1e-5 the raw wall residuals of right roots reach
        # 1e-8 (a spectral component) and 1.4 (|A+B|).  Scaled to the field
        # they pass, and roots moved by 1e-9 relative still fail.
        R = 1e-5
        spec = enumerate_spectrum(bc, PhysicalParams(M=1.0, R=R, Omega=0.0, beta=1.0), 1.5, 3)
        raw = _wall_residuals(bc, spec, R, 1.0).max(axis=1)
        rep = verify_boundary_residuals(bc, spec, R, 1.0)
        assert rep.ok and raw.max() > 1e-9
        assert [rep.max_component, rep.max_condition, rep.max_density] == [
            raw[0] * math.sqrt(R) * R, raw[1] * math.sqrt(R) * R, raw[2] * R * R * R]
        moved = verify_boundary_residuals(bc, dataclasses.replace(spec, p=spec.p * (1 + 1e-9)),
                                          R, 1.0)
        if bc.is_mit:
            assert moved.max_condition > 1e-9 and moved.max_density > 1e-9
        else:
            assert moved.max_component > 1e-10
        assert not moved.ok

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_empty_mode_list(self, bc):
        spec = enumerate_spectrum(bc, PhysicalParams(M=0.0, R=1.0, Omega=0.0, beta=1.0),
                                  1.5, 2)
        rep = verify_boundary_residuals(bc, spec[spec.i > 2], 1.0, 0.0)
        assert rep.n_modes == 0 and rep.ok
        assert (rep.max_component, rep.max_condition, rep.max_density) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_rejects_bad_mass_and_radius(self, bc):
        spec = enumerate_spectrum(bc, PhysicalParams(M=1.0, R=1.0, Omega=0.3, beta=1.0),
                                  1.5, 2)
        for M in (math.nan, -1.0, math.inf):
            with pytest.raises(ValueError, match="mass must be non-negative and finite"):
                verify_boundary_residuals(bc, spec, 1.0, M)
        with pytest.raises(ValueError, match="radius must be non-negative and finite"):
            verify_boundary_residuals(bc, spec, math.nan, 1.0)


class TestWallArrayPath:
    """The wall checks form each harmonic once per label of a run of up to
    _WALL_MODES consecutive modes; they must reproduce the per-mode,
    per-sample and per-block references."""

    @pytest.mark.parametrize("M", [0.0, 0.7, 1.0, 2.0])
    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_matches_per_sample_reference(self, bc, M):
        for R in (1.0, 1.3):
            params = PhysicalParams(M=M, R=R, Omega=0.5, beta=1.0)
            spec = enumerate_spectrum(bc, params, 4.5, 6)
            comp, cond, dens = _wall_residuals(bc, spec, R, M)
            modes = spec.modes()
            if bc.is_mit:
                want = [_mit_wall_reference(mo, R, M, bc.varsigma) for mo in modes]
                assert [v.hex() for v in cond.tolist()] == [w[0].hex() for w in want]
                assert [v.hex() for v in dens.tolist()] == [w[1].hex() for w in want]
                assert not np.any(comp)
                # the 4-component references, gamma^r and gamma^t on the whole
                # spinor, agree within the rounding of the two expressions
                bound_cond, bound_dens = _wall_rounding_bounds(spec, R, M)
                want = [_mit_condition_residual_reference(mo, R, M, bc.varsigma)
                        for mo in modes]
                assert np.all(np.abs(cond - want) <= bound_cond)
                want = [_mit_density_residual_reference(mo, R, M) for mo in modes]
                assert np.all(np.abs(dens - want) <= np.minimum(bound_dens, 1e-14))
            else:
                want = [_spectral_component_residual_reference(mo, R, M) for mo in modes]
                assert [v.hex() for v in comp.tolist()] == [v.hex() for v in want]
                assert not np.any(cond) and not np.any(dens)
            if R == 1.0 and M in (0.0, 1.0):
                for n, mo in enumerate(modes):
                    if bc.is_mit:
                        want = _mit_condition_reference(mo, R, M, bc.varsigma)
                        assert abs(cond[n] - want) <= bound_cond[n]
                        want = _mit_density_reference(mo, R, M)
                        assert abs(dens[n] - want) <= min(bound_dens[n], 1e-14)
                    else:
                        assert comp[n] == _spectral_component_reference(mo, R, M)

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_runs_match_block_reference(self, bc):
        # runs of _WALL_MODES consecutive modes give the bits of one call per
        # (j, kappa) block, and the spectral row those of one 4-component
        # assembly per block: on verify's subset (one run), on whole spectra
        # (at i_max = 20 a run is the j = 25/2 block; at 13 and 7 runs cut
        # blocks), and on a subset that is not a union of blocks
        cases = [((1.0, 1.0, 0.99), 12.5, 20), ((0.0, 1.3, 0.5), 12.5, 20),
                 ((2.0, 0.7, 1.2), 9.5, 13), ((0.6, 1.0, 0.3), 4.5, 7)]
        for (M, R, Omega), j_max, i_max in cases:
            spec = enumerate_spectrum(bc, PhysicalParams(M=M, R=R, Omega=Omega, beta=1.0),
                                      j_max, i_max)
            for sub in (spec[(spec.two_j <= 9) & (spec.i <= 6)], spec,
                        spec[(spec.i + spec.two_mj) % 3 != 0]):
                got = _wall_residuals(bc, sub, R, M)
                assert got.shape == (3, len(sub))
                assert _same_bits(got, _wall_residuals_per_block(bc, sub, R, M))
                ref = _wall_residuals_by_block(bc, sub, R, M)
                if bc.is_mit:
                    assert not np.any(got[0])
                    for row, bound in zip(got[1:] - ref[1:], _wall_rounding_bounds(sub, R, M)):
                        assert np.all(np.abs(row) <= bound)
                else:
                    assert _same_bits(got, ref)

    @pytest.mark.parametrize("vs", [1, -1])
    def test_mutated_wall_check_fails_on_right_spectrum(self, vs, monkeypatch):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.99, beta=1.0)
        spec = enumerate_spectrum(mit(vs), params, 4.5, 6)
        check = lambda: verify_boundary_residuals(mit(vs), spec, params.R, params.M)
        assert check().ok
        real = boundary._wall_harmonics

        def relabelled(upper, lower):  # the pairs read the labels of pairs upper, lower
            def harmonics(*args):
                rows, at = real(*args)
                return rows, at[[upper, lower]]
            return harmonics

        with monkeypatch.context() as m:  # sigma_r with its sign flipped, in a new table
            m.setattr(boundary, "_WALL_SIGMA_R", -_WALL_SIGMA_R)
            m.setattr(boundary, "_wall_table", [])
            rep = check()
            assert not rep.ok and rep.max_condition > 1.0
        with monkeypatch.context() as m:  # chi_a in place of chi_b
            m.setattr(boundary, "_wall_harmonics", relabelled(0, 0))
            rep = check()
            assert not rep.ok and rep.max_condition > 1.0
        # exchanging chi_a and chi_b throughout is no fault: sigma_r maps each
        # harmonic of (j, m_j) onto the other, so |chi_a| = |chi_b| pointwise,
        # and g S_a - varsigma f chi_b = (g - varsigma f) chi_b vanishes with
        # g S_b - varsigma f chi_a = (g - varsigma f) chi_a
        with monkeypatch.context() as m:
            m.setattr(boundary, "_wall_harmonics", relabelled(1, 0))
            assert check().ok

    def test_wall_table_rows(self, monkeypatch):
        # the table holds each label's spinor_harmonic bits, sigma_r chi and
        # |chi|^2 at the wall samples, in _label_key's rows, read-only; grown by
        # j prefixes from empty, it equals one build
        theta, phi = _WALL_THETA.ravel(), _WALL_PHI.ravel()
        spec = enumerate_spectrum(mit(1), PhysicalParams(M=1.0, R=1.0, Omega=0.5, beta=1.0),
                                  12.5, 2)
        built = {}
        for steps in ((9, 25), (25,)):
            monkeypatch.setattr(boundary, "_wall_table", [])
            for top in steps:
                rows, at = boundary._wall_harmonics(spec[spec.two_j <= top])
            built[steps] = rows
        assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
                   for a, b in zip(*built.values()))
        chi, S, n2 = rows
        assert chi.shape == S.shape == (2, 14 * 26, 15) and n2.shape == (14 * 26, 15)
        assert not any(v.flags.writeable for v in rows)
        sigma = gamma_radial(theta, phi)[:2, 2:]
        for tj in range(1, 26, 2):
            for tm in range(-tj, tj + 1, 2):
                for s in (-1, 1):
                    row = modes._label_key(tj, tm, s)
                    want = _spinor_harmonic_reference(tj, tm, s, theta, phi)
                    assert np.array_equal(chi[:, row], want)
                    assert np.array_equal(S[:, row], sigma[:, 0] * want[0] + sigma[:, 1] * want[1])
                    assert np.array_equal(n2[row], (want.real**2 + want.imag**2).sum(axis=0))
        # each mode's rows are those of its labels (j, m_j, +-sgn kappa)
        for n, (tj, tm, ka) in enumerate(zip(spec.two_j.tolist(), spec.two_mj.tolist(),
                                             spec.kappa.tolist())):
            assert at[:, n].tolist() == [modes._label_key(tj, tm, np.sign(ka)),
                                         modes._label_key(tj, tm, -np.sign(ka))]

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_runs_past_the_table_keep_the_bits(self, bc, monkeypatch):
        # the table serves every j: the runs of a j <= 45/2 spectrum grow it from
        # empty past j = 41/2, and their residuals have the bits of one call per
        # (j, kappa) block, each reading the grown table; its rows of j = 45/2
        # are spinor_harmonic's
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.5, beta=1.0)
        spec = enumerate_spectrum(bc, params, 22.5, 2)
        monkeypatch.setattr(boundary, "_wall_table", [])
        got = _wall_residuals(bc, spec, params.R, params.M)
        assert len(spec) > 4 * _WALL_MODES and spec.two_j[_WALL_MODES] < 41
        assert _same_bits(got, _wall_residuals_per_block(bc, spec, params.R, params.M))
        chi = boundary._wall_table[0]
        assert chi.shape[1] == modes._label_key(45, 45, 1) + 1 == 46 * 48 // 2
        theta, phi = _WALL_THETA.ravel(), _WALL_PHI.ravel()
        for tm, s in itertools.product(range(-45, 46, 2), (-1, 1)):
            assert np.array_equal(chi[:, modes._label_key(45, tm, s)],
                                  _spinor_harmonic_reference(45, tm, s, theta, phi))

    def test_memory_bounded_by_mode_budget(self):
        # the whole j <= 25/2, i <= 20 MIT spectrum, 14,560 modes: one
        # 4-component assembly of all of them peaked at about 35 MiB, of runs
        # of _WALL_MODES at about 4.4 MiB; the per-label runs peak at 2.5 MiB
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.99, beta=1.0)
        spec = enumerate_spectrum(mit(1), params, 12.5, 20)
        assert len(spec) == 14_560
        tracemalloc.start()
        try:
            assert verify_boundary_residuals(mit(1), spec, params.R, params.M).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_broadcast_equals_scalar_calls(self):
        params = PhysicalParams(M=0.7, R=1.3, Omega=0.5, beta=1.0)
        M, R = params.M, params.R
        spec = enumerate_spectrum(mit(1), params, 4.5, 2)
        for kappa in (-3, 3):  # both sign branches of the spinor harmonics
            block = spec[spec.kappa == kappa]
            u = assemble_spinor(block, block.p, M, R, _WALL_THETA, _WALL_PHI)
            rad = radial_pair(block, block.p, M, R)
            assert u.shape == (4, len(block)) + _WALL_THETA.shape
            for n, mo in enumerate(block.modes()):
                k = mo.qn
                args = (k, mo.p, M, R)
                want = _assemble_spinor_reference(*args, _WALL_THETA, _WALL_PHI)
                assert np.array_equal(u[:, n], want)
                assert np.array_equal(assemble_spinor(*args, _WALL_THETA, _WALL_PHI), want)
                ref = _radial_pair_reference(*args)
                assert (rad.f[n], rad.g_over_i[n]) == (ref.f, ref.g_over_i)
                dens = scalar_density(*args, _WALL_THETA, _WALL_PHI)
                assert np.array_equal(dens, _scalar_density_reference(*args, _WALL_THETA,
                                                                      _WALL_PHI))
                for s in (1, -1):
                    assert np.array_equal(
                        spinor_harmonic(k.two_j, k.two_mj, s, _WALL_THETA, _WALL_PHI),
                        _spinor_harmonic_reference(k.two_j, k.two_mj, s, _WALL_THETA, _WALL_PHI))
                for idx in np.ndindex(_WALL_THETA.shape):
                    th, ph = float(_WALL_THETA[idx]), float(_WALL_PHI[idx])
                    assert np.array_equal(assemble_spinor(*args, th, ph),
                                          _assemble_spinor_reference(*args, th, ph))
                    assert dens[idx] == pytest.approx(scalar_density(*args, th, ph),
                                                      rel=1e-12, abs=1e-15)
            # label columns broadcast against the angle axes
            chi = spinor_harmonic(block.two_j[:, None, None], block.two_mj[:, None, None], -1,
                                  _WALL_THETA, _WALL_PHI)
            assert chi.shape == (2, len(block)) + _WALL_THETA.shape
            for n, k in enumerate(zip(block.two_j.tolist(), block.two_mj.tolist())):
                assert np.array_equal(chi[:, n], _spinor_harmonic_reference(*k, -1, _WALL_THETA,
                                                                           _WALL_PHI))
        gam = gamma_radial(_WALL_THETA, _WALL_PHI)
        assert gam.shape == (4, 4) + _WALL_THETA.shape
        for idx in np.ndindex(_WALL_THETA.shape):
            assert np.array_equal(gam[(slice(None), slice(None)) + idx],
                                  gamma_radial(float(_WALL_THETA[idx]),
                                               float(_WALL_PHI[idx])))


class TestDistinctInputs:
    """The verify path evaluates each distinct input once: a spinor harmonic per
    (two_j, two_mj, +-sign kappa) and a quantization residual per root."""

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_wall_harmonics_once_per_label(self, bc, monkeypatch):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.99, beta=1.0)
        spec = enumerate_spectrum(bc, params, 12.5, 20)
        sizes = []

        def counting(l, m, theta, phi):
            sizes.append(np.broadcast(l, m, theta, phi).size)
            return sph_harm_y(l, m, theta, phi)

        monkeypatch.setattr(modes, "sph_harm_y", counting)
        monkeypatch.setattr(boundary, "_wall_table", [])  # a process's first wall check
        # a run grows the table by the labels of the j past its end, one
        # sph_harm_y call on both components of each: verify's wall subset, j <=
        # 9/2, is one run, the whole spectrum 14 (a run per 1,040 modes, the j =
        # 25/2 block), of which those that reach a new j call it; a wall check
        # that reads no new j calls nothing
        top, total = -1, 0
        for wall, n_runs in ((spec[(spec.two_j <= 9) & (spec.i <= 6)], 1), (spec, 14), (spec, 14)):
            sizes.clear()
            assert verify_boundary_residuals(bc, wall, params.R, params.M).ok
            want = []
            for lo in range(0, len(wall), _WALL_MODES):
                run_top = int(wall.two_j[lo:lo + _WALL_MODES].max())
                new = [(tj, tm, s) for tj in range(top + 2, run_top + 1, 2)
                       for tm in range(-tj, tj + 1, 2) for s in (1, -1)]
                if new:
                    want.append(2 * len(new) * _WALL_THETA.size)
                    top = run_top
            assert lo // _WALL_MODES + 1 == n_runs and sizes == want
            total += sum(sizes)
        # each label of the spectrum once
        labels = {(tj, tm, s * np.sign(ka)) for tj, tm, ka in
                  zip(spec.two_j.tolist(), spec.two_mj.tolist(), spec.kappa.tolist())
                  for s in (1, -1)}
        assert total == 2 * len(labels) * _WALL_THETA.size
        assert boundary._wall_table[0].shape[1] == len(labels) == 14 * 26

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_quantization_residual_once_per_root(self, bc):
        # quantization_residual evaluates every mode it is given (verify passes
        # one per root, test_top_m_j_holds_each_root_once): a root is fixed by
        # (kappa, esign, i) (MIT) or (n, i) (spectral), a quarter of the modes
        # or fewer, and each mode has the scalar reference's bits
        params = PhysicalParams(M=1.0, R=1.3, Omega=0.5, beta=1.0)
        spec = enumerate_spectrum(bc, params, 12.5, 20)
        if bc.is_mit:
            labels = (spec.kappa.tolist(), spec.esign.tolist())
        else:
            n = (spec.two_j + np.where(spec.two_mj * spec.kappa > 0, 1, -1)) // 2
            labels = (n.tolist(),)
        roots = set(zip(*labels, spec.i.tolist()))
        assert len(set(zip(*labels, spec.p.tolist()))) == len(roots) < len(spec) / 4
        want = [_quantization_residual_reference(bc, mo, params.R, params.M)
                for mo in spec.modes()]
        resid = quantization_residual(bc, spec, params.R, params.M)
        assert [v.hex() for v in resid.tolist()] == [v.hex() for v in want]
        # a mode whose momentum differs from that of its root has its own residual
        p = spec.p.copy()
        p[[7, len(p) // 2]] *= 1.0 + 1e-6
        moved = dataclasses.replace(spec, p=p)
        resid = quantization_residual(bc, moved, params.R, params.M)
        want = [_quantization_residual_reference(bc, mo, params.R, params.M)
                for mo in moved.modes()]
        assert [v.hex() for v in resid.tolist()] == [v.hex() for v in want]
        assert resid[7] > QUANT_TOL and resid[len(p) // 2] > QUANT_TOL

    @pytest.mark.parametrize("M", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_top_m_j_holds_each_root_once(self, bc, M):
        # verify checks the quantization of the modes with m_j = j only: one
        # mode per shell root (two_j, kappa, esign, i), which carries every
        # distinct input of the residual, the root and the labels (kappa,
        # esign) or n, so its maximum is the whole spectrum's
        params = PhysicalParams(M=M, R=1.0, Omega=0.99, beta=1.0)
        spec = enumerate_spectrum(bc, params, 12.5, 20)
        top = spec[spec.two_mj == spec.two_j]
        roots = set(zip(top.two_j.tolist(), top.kappa.tolist(), top.esign.tolist(),
                        top.i.tolist()))
        assert len(top) == len(roots) == 1040

        def inputs(s):
            if bc.is_mit:
                labels = (s.kappa, s.esign)
            else:
                labels = ((s.two_j + np.where(s.two_mj * s.kappa > 0, 1, -1)) // 2,)
            return set(zip(*(v.tolist() for v in labels), s.p.tolist()))

        assert inputs(top) == inputs(spec)
        got = float(np.max(quantization_residual(bc, top, params.R, M)))
        assert got.hex() == float(np.max(quantization_residual(bc, spec, params.R, M))).hex()
        assert got <= QUANT_TOL

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1)])
    def test_empty_spectrum(self, bc):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.5, beta=1.0)
        spec = enumerate_spectrum(bc, params, 1.5, 2)
        empty = spec[np.zeros(len(spec), bool)]
        assert quantization_residual(bc, empty, 1.0, 1.0).shape == (0,)
        assert assemble_spinor(empty, empty.p, 1.0, 1.0, _WALL_THETA, _WALL_PHI).shape == (
            (4, 0) + _WALL_THETA.shape)


class TestExport:
    def test_csv_header_and_roundtrip(self):
        params = PhysicalParams(M=1.0, R=2.0, Omega=0.25, beta=1.0)
        spec = enumerate_spectrum(SPECTRAL, params, 1.5, 2)
        csv_text = spectrum_to_csv(spec, params.R)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "esign,two_j,two_mj,kappa,i,pR,E,Etilde,C"
        assert len(lines) == len(spec) + 1
        first = lines[1].split(",")
        assert len(first) == 9

        rows = json.loads(spectrum_to_json(spec, params.R))
        assert len(rows) == len(spec)
        assert set(rows[0]) == {"esign", "two_j", "two_mj", "kappa", "i", "pR",
                                "E", "Etilde", "C"}
        for row, mo in zip(rows, spec.modes()):
            assert row["pR"] == mo.p * params.R
            assert row["C"] == mo.C

    def test_byte_identical_reruns(self):
        params = PhysicalParams(M=0.5, R=1.0, Omega=0.1, beta=1.0)
        spec = enumerate_spectrum(mit(1), params, 1.5, 2)
        again = enumerate_spectrum(mit(1), params, 1.5, 2)
        assert spectrum_to_csv(spec, params.R) == spectrum_to_csv(again, params.R)


class TestInputChecks:
    @pytest.mark.parametrize("call, error, name", [
        pytest.param(lambda: BoundaryKind("dirichlet"), ValueError, "'dirichlet'", id="kind"),
        pytest.param(lambda: BoundaryKind("mit", 0), ValueError, "varsigma", id="mit-varsigma"),
        pytest.param(lambda: BoundaryKind("mit"), ValueError, "varsigma", id="mit-no-varsigma"),
        pytest.param(lambda: BoundaryKind("spectral", 1), ValueError, "varsigma",
                     id="spectral-varsigma"),
        pytest.param(lambda: _mit_roots([1, 1], [-1, 1], [1, 0], 1.0, 1.0, 1, 3), ValueError,
                     "esign", id="roots-esign"),
        pytest.param(lambda: _mit_roots(1, -1, 1, 1.0, 1.0, 0, 3), ValueError, "varsigma",
                     id="roots-varsigma"),
    ])
    def test_rejects_and_names_the_input(self, call, error, name):
        with pytest.raises(Exception) as got:
            call()
        assert got.type is error and name in str(got.value)
