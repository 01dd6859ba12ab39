"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the production solution paths:
high-precision Bessel values come from mpmath, roots from dense sign scans
plus plain bisection, normalization constants from Gauss-Legendre
quadrature, and the condensate from the unreduced mode sum with an explicit
m_j loop and no symmetry folding.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import spherical_jn

from rotsphere import angular_density, assemble_spinor, bessel_orders
from rotsphere.modes import GAMMA_T, QuantumNumbers, spinor_harmonic


def mp_spherical_j(n: int, x, dps: int = 40) -> float:
    """j_n(x) via mpmath half-integer Bessel J; series-accurate reference."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        if xm == 0:
            return 1.0 if n == 0 else 0.0
        val = mp.sqrt(mp.pi / (2 * xm)) * mp.besselj(n + mp.mpf(1) / 2, xm)
        return float(val)


def bisect_root(f, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Plain bisection; requires a sign change on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("no sign change in bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def scan_roots(f, lo: float, hi: float, step: float, need: int | None = None,
               vec=None) -> list[float]:
    """Dense sign scan with fixed step followed by bisection refinement."""
    grid = np.arange(lo, hi + step, step)
    vals = vec(grid) if vec is not None else np.array([f(x) for x in grid])
    roots = []
    sign = np.sign(vals)
    for idx in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        roots.append(bisect_root(f, grid[idx], grid[idx + 1]))
        if need is not None and len(roots) >= need:
            break
    return roots


def scan_bessel_zeros(n: int, count: int, step: float = 1e-3) -> list[float]:
    """Zeros of j_n by dense scanning, independent of interlacing brackets."""
    hi = (count + n / 2.0 + 2.0) * math.pi
    f = lambda x: float(spherical_jn(n, x))
    vec = lambda xs: spherical_jn(n, xs)
    roots = scan_roots(f, max(step, n * 0.3), hi, step, need=count, vec=vec)
    while len(roots) < count:
        hi *= 1.5
        roots = scan_roots(f, max(step, n * 0.3), hi, step, need=count, vec=vec)
    return roots[:count]


# ---------------------------------------------------------------------------
# MIT momentum equation built from the wall relation between the two radial
# amplitudes rather than the production Bessel-ratio form.
# ---------------------------------------------------------------------------


def mit_wall_equation(x, two_j: int, kappa: int, esign: int, M: float, R: float,
                      varsigma: int):
    """g_over_i(R) - varsigma * f(R) expressed through x = p*R; same roots as
    the production quantization condition."""
    x = np.asarray(x, dtype=float)
    p = x / R
    E = esign * np.sqrt(p * p + M * M)
    lf, lg = bessel_orders(kappa)
    sgn_k = 1.0 if kappa > 0 else -1.0
    pref_f = np.sqrt((E + M) / (2.0 * E))
    pref_g = np.sqrt((E - M) / (2.0 * E))
    return (esign * sgn_k * pref_g * spherical_jn(lg, x)
            - varsigma * pref_f * spherical_jn(lf, x))


def mp_spherical_jn_list(n: int, x, dps: int = 50) -> list:
    """mpf values j_0(x) .. j_n(x), n >= 1, by upward recurrence from the
    closed forms of j_0 and j_1.  Below x = n the recurrence loses about
    log10((2n+1)!!^2 / x^(2n+1)) digits; those are added to the working
    precision, so each value keeps about dps digits."""
    lost = (2 * (math.lgamma(2 * n + 2) - n * math.log(2) - math.lgamma(n + 1))
            - (2 * n + 1) * math.log(x)) / math.log(10)
    with mp.workdps(dps + max(0, int(lost)) + 10):
        x = mp.mpf(x)
        js = [mp.sin(x) / x, mp.sin(x) / x**2 - mp.cos(x) / x]
        for k in range(1, n):
            js.append((2 * k + 1) / x * js[-1] - js[-2])
        return js


def mp_mit_sign_change(x: float, kappa: int, esign: int, rho: float, varsigma: int,
                       rel: float = 1e-14, dps: int = 50) -> bool:
    """Whether j_{l_f}(y) - sgn(kappa) varsigma y/(esign sqrt(y^2 + rho^2) + rho)
    j_{l_g}(y), the MIT equation at y = p R and rho = M R as written, changes
    sign between y = x(1 - rel) and x(1 + rel), evaluated at dps digits."""
    lf, lg = bessel_orders(kappa)
    vals = []
    with mp.workdps(dps):
        rho = mp.mpf(rho)
        for y in (mp.mpf(x) * (1 - mp.mpf(rel)), mp.mpf(x) * (1 + mp.mpf(rel))):
            js = mp_spherical_jn_list(max(lf, lg, 1), y, dps)
            coeff = y / (esign * mp.sqrt(y * y + rho * rho) + rho)
            vals.append(js[lf] - (1 if kappa > 0 else -1) * varsigma * coeff * js[lg])
    return vals[0] * vals[1] < 0


def mp_mit_norm(two_j: int, kappa: int, R: float, M: float, esign: int, varsigma: int,
                p: float, dps: int = 80) -> float:
    """The closed-form MIT normalization constant at the float momentum p,
    sqrt(2) / (R |j_n(p R)|) sqrt((E + M) / (2 E R - sgn(kappa) varsigma (2j + 1)
    + varsigma M / E)) with n = j + sgn(kappa)/2, evaluated at dps digits."""
    sgn_k = 1 if kappa > 0 else -1
    n = (two_j + sgn_k) // 2
    with mp.workdps(dps):
        p, R, M = mp.mpf(p), mp.mpf(R), mp.mpf(M)
        E = esign * mp.sqrt(p * p + M * M)
        jval = abs(mp_spherical_jn_list(max(n, 1), p * R, dps)[n])
        ratio = (E + M) / (2 * E * R - sgn_k * varsigma * (two_j + 1) + varsigma * M / E)
        return float(mp.sqrt(2) / (R * jval) * mp.sqrt(ratio))


def scan_mit_momenta(two_j: int, kappa: int, esign: int, R: float, M: float,
                     varsigma: int, count: int, step: float = 1e-3) -> list[float]:
    """MIT momenta from a dense 1e-3 sign scan of the wall relation."""
    lf, lg = bessel_orders(kappa)
    hi = (count + max(lf, lg) / 2.0 + 2.0) * math.pi
    f = lambda x: float(mit_wall_equation(x, two_j, kappa, esign, M, R, varsigma))
    vec = lambda xs: mit_wall_equation(xs, two_j, kappa, esign, M, R, varsigma)
    roots = scan_roots(f, step, hi, step, need=count, vec=vec)
    while len(roots) < count:
        hi *= 1.5
        roots = scan_roots(f, step, hi, step, need=count, vec=vec)
    return [r / R for r in roots[:count]]


# ---------------------------------------------------------------------------
# Quadrature-derived norms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _gauss_nodes(n: int):
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def radial_quadrature(func, R: float, nodes: int = 400) -> float:
    """int_0^R func(r) dr on a Gauss-Legendre grid."""
    x, w = _gauss_nodes(nodes)
    r = 0.5 * R * (x + 1.0)
    return float(np.sum(w * 0.5 * R * func(r)))


def oracle_radial_amplitudes(kappa: int, esign: int, p: float, M: float,
                             r) -> tuple[np.ndarray, np.ndarray]:
    """(f, g_over_i) evaluated on an array of radii."""
    r = np.asarray(r, dtype=float)
    E = esign * math.hypot(p, M)
    lf, lg = bessel_orders(kappa)
    sgn_k = 1.0 if kappa > 0 else -1.0
    f = math.sqrt((E + M) / (2.0 * E)) * spherical_jn(lf, p * r)
    g = esign * sgn_k * math.sqrt((E - M) / (2.0 * E)) * spherical_jn(lg, p * r)
    return f, g


@lru_cache(maxsize=None)
def angular_block_integrals(two_j: int, two_mj: int, kappa: int,
                            nodes: int = 64) -> tuple[float, float]:
    """2pi * int |chi_block|^2 sin(theta) dtheta for the upper/lower blocks,
    with the spinor harmonics assembled explicitly (both should be 1).
    Independent of the radial index, hence cached."""
    x, w = _gauss_nodes(nodes)
    thetas = np.arccos(x)
    up_sign = +1 if kappa > 0 else -1
    up = dn = 0.0
    for wi, th in zip(w, thetas):
        cu = spinor_harmonic(two_j, two_mj, up_sign, th, 0.0)
        cd = spinor_harmonic(two_j, two_mj, -up_sign, th, 0.0)
        up += wi * float(np.sum(np.abs(cu) ** 2))
        dn += wi * float(np.sum(np.abs(cd) ** 2))
    return 2.0 * math.pi * up, 2.0 * math.pi * dn


def quadrature_norm_constant(two_j: int, two_mj: int, kappa: int, esign: int,
                             p: float, M: float, R: float) -> float:
    """Normalization constant from numerical quadrature of the mode norm."""
    f2 = radial_quadrature(
        lambda r: r * r * oracle_radial_amplitudes(kappa, esign, p, M, r)[0] ** 2, R)
    g2 = radial_quadrature(
        lambda r: r * r * oracle_radial_amplitudes(kappa, esign, p, M, r)[1] ** 2, R)
    ang_up, ang_dn = angular_block_integrals(two_j, two_mj, kappa)
    return 1.0 / math.sqrt(f2 * ang_up + g2 * ang_dn)


def quadrature_mode_norm(mode, M: float, R: float, radial_nodes: int = 200,
                         angular_nodes: int = 100) -> float:
    """Full (r, theta) quadrature of the normalized mode density."""
    k = mode.qn
    x, w = _gauss_nodes(radial_nodes)
    r = 0.5 * R * (x + 1.0)
    wr = 0.5 * R * w
    xc, wc = _gauss_nodes(angular_nodes)
    thetas = np.arccos(xc)
    f, g = oracle_radial_amplitudes(k.kappa, k.esign, mode.p, M, r)
    rad_f = float(np.sum(wr * r * r * f * f))
    rad_g = float(np.sum(wr * r * r * g * g))
    d_up = np.empty(angular_nodes)
    d_dn = np.empty(angular_nodes)
    for idx, th in enumerate(thetas):
        dens = angular_density(k.two_j, k.two_mj, k.kappa, float(th))
        if k.kappa > 0:
            d_up[idx], d_dn[idx] = dens.d_plus, dens.d_minus
        else:
            d_up[idx], d_dn[idx] = dens.d_minus, dens.d_plus
    ang_up = float(np.sum(wc * d_up))
    ang_dn = float(np.sum(wc * d_dn))
    return 2.0 * math.pi * mode.C**2 * (rad_f * ang_up + rad_g * ang_dn)


def quadrature_mode_overlap(mode_a, mode_b, M: float, R: float,
                            radial_nodes: int = 200) -> float:
    """Inner product of two normalized same-(j, m_j, kappa, esign) modes;
    the angular integrals are unity, leaving the radial overlap."""
    ka = mode_a.qn
    x, w = _gauss_nodes(radial_nodes)
    r = 0.5 * R * (x + 1.0)
    wr = 0.5 * R * w
    fa, ga = oracle_radial_amplitudes(ka.kappa, ka.esign, mode_a.p, M, r)
    fb, gb = oracle_radial_amplitudes(ka.kappa, ka.esign, mode_b.p, M, r)
    return mode_a.C * mode_b.C * float(np.sum(wr * r * r * (fa * fb + ga * gb)))


# ---------------------------------------------------------------------------
# Brute-force condensate
# ---------------------------------------------------------------------------


def oracle_weight_subtracted(E_tilde: float, beta: float, mu: float) -> float:
    """Stable -[1/(1+e^(b(Et-mu))) + 1/(1+e^(b(Et+mu)))] for E > 0 modes."""
    def fermi(x):
        if x >= 0:
            z = math.exp(-x)
            return z / (1.0 + z)
        return 1.0 / (1.0 + math.exp(x))
    return -(fermi(beta * (E_tilde - mu)) + fermi(beta * (E_tilde + mu)))


def brute_force_modes(bc, params, j_max: float, i_max: int):
    """(qn, p, C) for all esign = +1 modes, with sign-scan momenta and
    quadrature normalization constants."""
    two_j_max = int(round(2 * j_max))
    M, R = params.M, params.R
    out = []
    for two_j in range(1, two_j_max + 1, 2):
        k0 = (two_j + 1) // 2
        for kappa in (-k0, k0):
            if bc.is_mit:
                p_all = scan_mit_momenta(two_j, kappa, 1, R, M, bc.varsigma, i_max)
                branches = {1: p_all, -1: p_all}
            else:
                branches = {
                    sign_mk: [z / R for z in scan_bessel_zeros(
                        (two_j + sign_mk) // 2, i_max)]
                    for sign_mk in (1, -1)
                }
            norm_cache = {}
            for two_mj in range(-two_j, two_j + 1, 2):
                sign_mk = 1 if two_mj * kappa > 0 else -1
                for i in range(1, i_max + 1):
                    p = branches[sign_mk][i - 1]
                    key = (sign_mk, i)
                    if key not in norm_cache:
                        norm_cache[key] = quadrature_norm_constant(
                            two_j, two_mj, kappa, 1, p, M, R)
                    qn = QuantumNumbers(1, two_j, two_mj, kappa, i)
                    out.append((qn, p, norm_cache[key]))
    return out


def brute_force_condensate(bc, params, r: float, theta: float, j_max: float,
                           i_max: int, modes=None, phi: float = 0.4) -> float:
    """Unreduced condensate sum: explicit loop over every (j, m_j, kappa, i)
    with E > 0, scalar density from the assembled 4-spinor."""
    if modes is None:
        modes = brute_force_modes(bc, params, j_max, i_max)
    total = 0.0
    for qn, p, C in modes:
        E = math.hypot(p, params.M)
        w = oracle_weight_subtracted(E - params.Omega * qn.two_mj / 2.0,
                                     params.beta, params.mu)
        u = assemble_spinor(qn, p, params.M, r, theta, phi)
        ubar_u = float((u.conj() @ GAMMA_T @ u).real)
        total += C * C * w * ubar_u
    return -total
