import itertools
import json
import math
from typing import Iterable

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import sph_harm_y

from rotsphere import (FasterThanLightError, PhysicalParams, QuantizedMode,
                       QuantumNumbers, SPECTRAL, Spectrum, VacuumReport,
                       density_terms, enumerate_spectrum, mit, mit_momenta, mit_norm,
                       quantization_residual, radial_integral_minus,
                       radial_integral_plus, spectral_momentum, spectral_norm,
                       spectrum_to_csv, spectrum_to_json, spherical_bessel_j,
                       verify_boundary_residuals, verify_vacuum_equivalence)
from rotsphere import boundary
from rotsphere.boundary import (QUANT_TOL, _SCAN_STEP, _WALL_GAMMA_R, _WALL_PHI,
                                _WALL_THETA, SolverError, _mit_equation, _mit_norms,
                                _mit_residual, _mit_roots, _wall_residuals, shell_rows,
                                shell_table, two_j_from)
from rotsphere.modes import (GAMMA_T, RadialPair, assemble_spinor, bessel_orders,
                             gamma_radial, radial_pair, scalar_density, spinor_harmonic)
from rotsphere.specfun import _ROOT_XTOL, I_MAX_DEFAULT, bessel_zeros, spherical_jn
from oracles import (bisect_root, mp_mit_norm, mp_mit_sign_change, quadrature_mode_norm,
                     quadrature_mode_overlap, radial_quadrature, scan_mit_momenta)

XI_1_1 = 4.493409457909064

# The scalar spinor assembly and the per-mode wall checks that the block
# path replaced, kept verbatim as references: one mode per assembly, and the
# MIT density assembled a second time through scalar_density.


def _energy_reference(esign: int, p: float, M: float) -> float:
    return esign * math.hypot(p, M)


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
    pref_f = math.sqrt((E + M) / (2.0 * E))
    pref_g = math.sqrt((E - M) / (2.0 * E))
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
    f = lambda x: _mit_equation(x, two_j, kappa, esign, rho, varsigma)

    need = count
    for _ in range(6):
        k_hi = min(need + 2, I_MAX_DEFAULT)
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
        return abs(float(_mit_equation(x, qn.two_j, qn.kappa, qn.esign, rho,
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

    # shells (1, -1) and (1, 1) read orders 0 and 1; shells (5, -3) and (5, 3)
    # read orders 2 and 3, whose tables the tests below cut short
    _BATCH = ([1, 1, 5, 5], [-1, 1, -3, 3])

    def _cut_tables(self, monkeypatch, keep):
        """Zero tables of orders 2 and 3 cut to their first keep(count) zeros;
        returns the (order, count) calls."""
        calls, real = [], boundary.bessel_zeros

        def cut(n, count):
            calls.append((n, count))
            return real(n, count)[:keep(count)] if n in (2, 3) else real(n, count)

        monkeypatch.setattr(boundary, "bessel_zeros", cut)
        return calls

    def test_short_scan_retries_that_shell_only(self, monkeypatch):
        # count 8 scans count + 2 = 10 zeros first; the cut scans find fewer
        # than 8 roots in shells (5, -3) and (5, 3), which rescan with 14
        calls = self._cut_tables(monkeypatch, lambda count: count - 4 if count == 10 else count)
        p = _mit_roots(*self._BATCH, 1, 1.3, 0.7, -1, 8)
        assert sorted(set(calls)) == [(0, 10), (1, 10), (2, 10), (2, 14), (3, 10), (3, 14)]
        assert calls.count((2, 14)) == calls.count((3, 14)) == 2  # one rescan per shell
        for row, two_j, kappa in zip(p, *self._BATCH):
            assert _same_bits(row, _mit_momenta_reference(two_j, kappa, 1, 1.3, 0.7, -1, 8))

    def test_roots_not_located_names_first_failing_shell(self, monkeypatch):
        self._cut_tables(monkeypatch, lambda count: 6)  # never enough for 8 roots
        with pytest.raises(SolverError) as got:
            _mit_roots(*self._BATCH, 1, 1.3, 0.7, -1, 8)
        assert str(got.value) == ("could not locate 8 momentum roots (two_j=5, kappa=-3, "
                                  "esign=1, M=0.7, varsigma=-1)")
        # the same shell solved alone by the reference, on the same cut tables
        monkeypatch.setitem(globals(), "bessel_zeros", boundary.bessel_zeros)
        with pytest.raises(SolverError) as want:
            _mit_momenta_reference(5, -3, 1, 1.3, 0.7, -1, 8)
        assert str(got.value) == str(want.value)

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
                          lambda f, a, b, cols: moved(real(f, a, b, cols), cols[0]))
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
        assert all(a is b for a, b in zip(small, grown))  # the prefix is kept, not re-solved
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
        for bad in (math.inf, -math.inf, math.nan):
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
    """The wall checks assemble a (j, kappa) block of modes in one call; they
    must reproduce the per-mode and per-sample references."""

    @pytest.mark.parametrize("M", [0.0, 0.7, 1.0, 2.0])
    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_matches_per_sample_reference(self, bc, M):
        for R in (1.0, 1.3):
            params = PhysicalParams(M=M, R=R, Omega=0.5, beta=1.0)
            spec = enumerate_spectrum(bc, params, 4.5, 6)
            comp, cond, dens = _wall_residuals(bc, spec, R, M)
            modes = spec.modes()
            if bc.is_mit:
                want = [_mit_condition_residual_reference(mo, R, M, bc.varsigma)
                        for mo in modes]
                assert [v.hex() for v in cond.tolist()] == [v.hex() for v in want]
                want = [_mit_density_residual_reference(mo, R, M) for mo in modes]
                assert np.all(np.abs(dens - want) <= 1e-14) and not np.any(comp)
                # the reference squares C with libm pow, which differs from C*C
                # in the last bit for some C; elsewhere the bits are equal
                same = [mo.C**2 == mo.C * mo.C for mo in modes]
                assert ([v.hex() for v, s in zip(dens.tolist(), same) if s]
                        == [v.hex() for v, s in zip(want, same) if s])
            else:
                want = [_spectral_component_residual_reference(mo, R, M) for mo in modes]
                assert [v.hex() for v in comp.tolist()] == [v.hex() for v in want]
                assert not np.any(cond) and not np.any(dens)
            if R == 1.0 and M in (0.0, 1.0):
                for n, mo in enumerate(modes):
                    if bc.is_mit:
                        assert cond[n] == _mit_condition_reference(mo, R, M, bc.varsigma)
                        assert abs(dens[n] - _mit_density_reference(mo, R, M)) <= 1e-14
                    else:
                        assert comp[n] == _spectral_component_reference(mo, R, M)

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
