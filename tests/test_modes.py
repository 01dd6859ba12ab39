import cmath
import itertools
import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotsphere import (QuantumNumbers, angular_density, assemble_spinor,
                       bessel_orders, conjugate_index, corotating_energy,
                       density_terms, radial_pair, scalar_density, spherical_bessel_j)
from rotsphere.modes import GAMMA_T, density_split, gamma_radial, spinor_harmonic
from oracles import mp_spherical_j


def random_qn(rng, two_j_max=9, i_max=6, esign=None):
    two_j = int(rng.choice(range(1, two_j_max + 1, 2)))
    two_mj = int(rng.choice(range(-two_j, two_j + 1, 2)))
    kappa = int(rng.choice([-1, 1])) * (two_j + 1) // 2
    es = esign if esign is not None else int(rng.choice([-1, 1]))
    return QuantumNumbers(es, two_j, two_mj, kappa, int(rng.integers(1, i_max + 1)))


class TestQuantumNumbers:
    def test_validation(self):
        QuantumNumbers(1, 3, -1, 2, 4)
        with pytest.raises(ValueError):
            QuantumNumbers(0, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            QuantumNumbers(1, 2, 1, 1, 1)  # integer j
        with pytest.raises(ValueError):
            QuantumNumbers(1, 3, 5, 2, 1)  # |m_j| > j
        with pytest.raises(ValueError):
            QuantumNumbers(1, 3, 2, 2, 1)  # m_j integer while j half-integer
        with pytest.raises(ValueError):
            QuantumNumbers(1, 3, 1, 1, 1)  # |kappa| != j + 1/2
        with pytest.raises(ValueError):
            QuantumNumbers(1, 1, 1, 1, 0)  # radial index starts at 1

    def test_conjugate_examples(self):
        k = QuantumNumbers(1, 1, 1, 1, 1)
        assert conjugate_index(k) == QuantumNumbers(-1, 1, -1, -1, 1)
        k = QuantumNumbers(-1, 3, -1, -2, 4)
        assert conjugate_index(k) == QuantumNumbers(1, 3, 1, 2, 4)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_conjugation_involution(self, data):
        two_j = data.draw(st.sampled_from([1, 3, 5, 7, 9]))
        two_mj = data.draw(st.sampled_from(list(range(-two_j, two_j + 1, 2))))
        kappa = data.draw(st.sampled_from([-1, 1])) * (two_j + 1) // 2
        esign = data.draw(st.sampled_from([-1, 1]))
        k = QuantumNumbers(esign, two_j, two_mj, kappa, 2)
        assert conjugate_index(conjugate_index(k)) == k


class TestCorotatingEnergy:
    def test_arithmetic(self):
        assert corotating_energy(2.0, 0.5, 0.0) == 2.0
        assert corotating_energy(2.0, 1.5, 0.4) == pytest.approx(1.4, abs=1e-15)
        assert corotating_energy(-2.0, -1.5, 0.4) == pytest.approx(-1.4, abs=1e-15)


class TestAngularDensity:
    def test_isotropic_j_half(self):
        for theta in (0.0, 0.7, 1.9, math.pi):
            d = angular_density(1, 1, 1, theta)
            assert d.d_plus == pytest.approx(1.0 / (4 * math.pi), rel=1e-13)

    def test_sum_rule_j_three_halves(self):
        total = sum(angular_density(3, two_mj, 2, 1.0).d_plus
                    for two_mj in (-3, -1, 1, 3))
        assert total == pytest.approx(1.0 / math.pi, abs=1e-13)

    def test_stretched_state_equals_y11(self):
        d = angular_density(3, 3, 2, math.pi / 2)
        assert d.d_plus == pytest.approx(3.0 / (8 * math.pi), rel=1e-13)

    def test_upper_equals_lower_pointwise(self):
        # chi- = (sigma.rhat) chi+ with a unitary matrix, so the densities agree
        rng = np.random.default_rng(3)
        for _ in range(25):
            k = random_qn(rng)
            theta = float(rng.uniform(0.0, math.pi))
            d = angular_density(k.two_j, k.two_mj, k.kappa, theta)
            assert d.d_plus == pytest.approx(d.d_minus, rel=1e-11, abs=1e-14)
            assert d.d_plus >= 0.0 and d.d_minus >= 0.0

    def test_sigma_r_maps_between_spinor_harmonics(self):
        rng = np.random.default_rng(4)
        from rotsphere.modes import _SIGMA
        for _ in range(20):
            k = random_qn(rng)
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            phi = float(rng.uniform(0, 2 * math.pi))
            nvec = (math.sin(theta) * math.cos(phi),
                    math.sin(theta) * math.sin(phi), math.cos(theta))
            sig_r = sum(c * s for c, s in zip(nvec, _SIGMA))
            chi_p = spinor_harmonic(k.two_j, k.two_mj, +1, theta, phi)
            chi_m = spinor_harmonic(k.two_j, k.two_mj, -1, theta, phi)
            assert np.allclose(sig_r @ chi_p, chi_m, atol=1e-12)
            assert np.allclose(sig_r @ chi_m, chi_p, atol=1e-12)


class TestRadialPair:
    def test_massless_prefactors(self):
        for esign in (-1, 1):
            k = QuantumNumbers(esign, 3, 1, -2, 1)
            rp = radial_pair(k, 2.0, 0.0, 1e-12)
            lf, _ = bessel_orders(k.kappa)
            # at tiny r the f amplitude reduces to its prefactor when l_f = 0
            if lf == 0:
                assert rp.f == pytest.approx(math.sqrt(0.5), rel=1e-12)

        k = QuantumNumbers(1, 1, 1, 1, 1)
        rp = radial_pair(k, 3.0, 0.0, 0.4)
        from rotsphere import spherical_bessel_j
        assert rp.f == pytest.approx(math.sqrt(0.5) * spherical_bessel_j(0, 1.2),
                                     rel=1e-13)
        assert rp.g_over_i == pytest.approx(
            math.sqrt(0.5) * spherical_bessel_j(1, 1.2), rel=1e-13)

    def test_origin_behavior(self):
        k = QuantumNumbers(1, 1, 1, 1, 1)
        E = math.hypot(math.pi, 1.0)
        rp = radial_pair(k, math.pi, 1.0, 0.0)
        assert rp.f == pytest.approx(math.sqrt((E + 1.0) / (2 * E)), rel=1e-14)
        assert rp.g_over_i == 0.0
        # f vanishes at the origin whenever its Bessel order is positive
        k2 = QuantumNumbers(1, 1, 1, -1, 1)
        assert radial_pair(k2, math.pi, 1.0, 0.0).f == 0.0

    def test_high_precision_oracle(self):
        k = QuantumNumbers(1, 1, 1, 1, 1)
        p, M, r = math.pi, 1.0, 0.5
        E = math.hypot(p, M)
        rp = radial_pair(k, p, M, r)
        assert rp.f == pytest.approx(
            math.sqrt((E + M) / (2 * E)) * mp_spherical_j(0, p * r), rel=1e-13)
        assert rp.g_over_i == pytest.approx(
            math.sqrt((E - M) / (2 * E)) * mp_spherical_j(1, p * r), rel=1e-13)

    @pytest.mark.parametrize("M", [1e9, 1e12])
    def test_near_threshold_against_mpmath(self, M):
        # at M R >> p R the factor E - M (E > 0) or E + M (E < 0) is about
        # p^2 / (2 M): formed from E itself it would keep no digit at 1e12
        p, r = 3.7, 1.0
        for esign, kappa in itertools.product((-1, 1), (-2, 2)):
            k = QuantumNumbers(esign, 3, 1, kappa, 1)
            rp = radial_pair(k, p, M, r)
            l_f, l_g = bessel_orders(kappa)
            with mp.workdps(50):
                E = esign * mp.sqrt(mp.mpf(p) ** 2 + mp.mpf(M) ** 2)
                f = mp.sqrt((E + M) / (2 * E)) * mp_spherical_j(l_f, p * r, dps=50)
                g = (esign * np.sign(kappa) * mp.sqrt((E - M) / (2 * E))
                     * mp_spherical_j(l_g, p * r, dps=50))
            assert rp.f == pytest.approx(float(f), rel=1e-13)
            assert rp.g_over_i == pytest.approx(float(g), rel=1e-13)

    def test_negative_energy_prefactors_real(self):
        k = QuantumNumbers(-1, 5, -3, 3, 2)
        rp = radial_pair(k, 1.3, 0.9, 0.7)
        assert math.isfinite(rp.f) and math.isfinite(rp.g_over_i)

    def test_rejects_nonpositive_momentum(self):
        k = QuantumNumbers(1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            radial_pair(k, 0.0, 1.0, 0.5)
        for p, r in ((math.nan, 0.5), (math.inf, 0.5), (2.0, math.nan), (2.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                radial_pair(k, p, 1.0, r)


    def test_label_columns(self):
        # esign and kappa columns broadcast with an array of momenta
        ks = [QuantumNumbers(es, 3, 1, kap, 1) for es in (-1, 1) for kap in (-2, 2)]
        cols = SimpleNamespace(esign=np.array([k.esign for k in ks]),
                               kappa=np.array([k.kappa for k in ks]))
        p = np.array([1.3, 2.0, 2.7, 4.1])
        rp = radial_pair(cols, p, 0.9, 0.7)
        for n, k in enumerate(ks):
            one = radial_pair(k, float(p[n]), 0.9, 0.7)
            assert (rp.f[n], rp.g_over_i[n]) == (one.f, one.g_over_i)
            # one label gives Python floats, as the annotations say
            assert type(one.f) is float and type(one.g_over_i) is float
            assert all(type(v) is float for v in density_terms(k, float(p[n]), 0.9, 0.7, 1.1))
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="momentum must be positive and finite"):
                radial_pair(cols, np.where(np.arange(4) == 2, bad, p), 0.9, 0.7)

    def test_rejects_bad_mass(self):
        k = QuantumNumbers(1, 3, 1, 2, 1)
        for M in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="mass must be non-negative and finite"):
                radial_pair(k, 2.0, M, 0.5)
            with pytest.raises(ValueError, match="mass must be non-negative and finite"):
                density_terms(k, 2.0, M, 0.5, 1.0)
        rp = radial_pair(k, 2.0, 0.0, 0.5)
        assert math.isfinite(rp.f) and math.isfinite(rp.g_over_i)


class TestDensityTerms:
    def test_massless_b_vanishes(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = random_qn(rng)
            _, B = density_terms(k, 2.2, 0.0, 0.4, 1.0)
            assert B == 0.0

    def test_b_sign_follows_energy(self):
        for esign in (-1, 1):
            k = QuantumNumbers(esign, 1, 1, 1, 1)
            _, B = density_terms(k, 2.0, 1.0, 0.3, 1.2)
            assert math.copysign(1.0, B) == esign

    def test_rejects_negative_radius(self):
        k = QuantumNumbers(1, 3, 1, 2, 1)
        with pytest.raises(ValueError, match="radius"):
            density_terms(k, 2.0, 1.0, -0.3, 1.0)
        for p, r in ((2.0, math.nan), (2.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                density_terms(k, p, 1.0, r, 1.0)
        assert all(math.isfinite(v) for v in density_terms(k, 2.0, 1.0, 0.0, 1.0))

    def test_matches_explicit_spinor(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            k = random_qn(rng)
            p = float(rng.uniform(0.5, 6.0))
            M = float(rng.uniform(0.0, 2.0))
            r = float(rng.uniform(0.01, 1.5))
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            A, B = density_terms(k, p, M, r, theta)
            direct = scalar_density(k, p, M, r, theta, phi=float(rng.uniform(0, 6)))
            assert A + B == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_full_mj_sum_closed_form(self):
        # m-independent momentum: the full m_j sums collapse by the addition
        # theorem to sgn(kappa)(2j+1)/(8 pi)(j-^2 - j+^2) for A and
        # (M/2E)(2j+1)/(4 pi)(j-^2 + j+^2) for B
        from rotsphere import spherical_bessel_j
        p, M, r, theta = 2.4, 0.8, 0.6, 1.1
        E = math.hypot(p, M)
        for two_j, kappa in ((1, 1), (3, 2), (3, -2), (7, 4), (7, -4)):
            pairs = [density_terms(QuantumNumbers(1, two_j, two_mj, kappa, 1),
                                   p, M, r, theta)
                     for two_mj in range(-two_j, two_j + 1, 2)]
            total_a = math.fsum(a for a, _ in pairs)
            total_b = math.fsum(b for _, b in pairs)
            n_lo = (two_j - 1) // 2
            jm2 = spherical_bessel_j(n_lo, p * r) ** 2
            jp2 = spherical_bessel_j(n_lo + 1, p * r) ** 2
            frak_a = (math.copysign(1.0, kappa) * (two_j + 1) / (8 * math.pi)
                      * (jm2 - jp2))
            frak_b = (M / (2 * E)) * (two_j + 1) / (4 * math.pi) * (jm2 + jp2)
            assert total_a == pytest.approx(frak_a, rel=1e-12, abs=1e-16)
            assert total_b == pytest.approx(frak_b, rel=1e-12, abs=1e-16)


def _density_split_parent(kappa, d_plus, d_minus, jm2, jp2, mass_ratio):
    """density_split as it was written before it formed each product once."""
    sgn_k = 1.0 if kappa > 0 else -1.0
    return (sgn_k * 0.5 * (jm2 * d_plus - jp2 * d_minus),
            mass_ratio * (jm2 * d_plus + jp2 * d_minus))


class TestDensitySplit:
    @pytest.mark.parametrize("seed", range(4))
    def test_bits_match_parent_expression(self, seed):
        # the kernel's call: both kappa shells of a j stacked along i, with a
        # kappa column; r runs down to 0, where the Bessel squares of higher
        # orders are subnormal or zero
        rng = np.random.default_rng(seed)
        i_max, two_j = 6, int(rng.choice([1, 5, 13]))
        k0 = (two_j + 1) // 2
        r = np.concatenate([[0.0], np.geomspace(1e-170, 1e-5, 400), rng.uniform(0, 1, 4)])
        p = np.sort(rng.uniform(1.0, 40.0, 2 * i_max))
        jm2, jp2 = (spherical_bessel_j(n, r[:, None] * p)[:, :, None] ** 2
                    for n in (k0 - 1, k0))
        d_plus, d_minus = rng.uniform(0, 0.5, (2, (two_j + 1) // 2))
        mass_ratio = rng.uniform(0, 0.5, 2 * i_max)[:, None]
        kappa = np.repeat((-k0, k0), i_max)[:, None]
        A, B = density_split(kappa, d_plus, d_minus, jm2, jp2, mass_ratio)
        for half, kap in ((slice(None, i_max), -k0), (slice(i_max, None), k0)):
            ref = _density_split_parent(kap, d_plus, d_minus, jm2[:, half], jp2[:, half],
                                        mass_ratio[half])
            for got, want in zip((A[:, half], B[:, half]), ref):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for sq in (jm2, jp2)[two_j == 1:]:  # j_0^2 is never subnormal
            assert np.any((sq > 0) & (sq < np.finfo(float).tiny))

    @given(st.sampled_from([-3, -1, 1, 2]), st.floats(0, 1), st.floats(0, 1),
           st.floats(0, 1), st.floats(0, 1), st.floats(-1, 1))
    @settings(max_examples=200, deadline=None)
    def test_scalar_bits_and_type(self, kappa, d_plus, d_minus, jm2, jp2, mass_ratio):
        # subnormal and zero inputs included; Python floats stay Python floats
        got = density_split(kappa, d_plus, d_minus, jm2, jp2, mass_ratio)
        want = _density_split_parent(kappa, d_plus, d_minus, jm2, jp2, mass_ratio)
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [v.hex() for v in want]


class TestChargeConjugationSpinor:
    def test_conjugate_mode_relation(self):
        # i gamma^2 u_k^* equals (-1)^(m_j + 1/2) i sgn(E) u_{conj(k)}
        gamma2 = np.zeros((4, 4), dtype=complex)
        gamma2[0, 3] = -1j
        gamma2[1, 2] = 1j
        gamma2[2, 1] = 1j
        gamma2[3, 0] = -1j
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = random_qn(rng)
            p = float(rng.uniform(0.5, 5.0))
            M = float(rng.uniform(0.0, 2.0))
            r = float(rng.uniform(0.05, 1.2))
            theta = float(rng.uniform(0.1, math.pi - 0.1))
            phi = float(rng.uniform(0, 2 * math.pi))
            u = assemble_spinor(k, p, M, r, theta, phi)
            v = 1j * (gamma2 @ u.conj())
            phase = (-1) ** ((k.two_mj + 1) // 2) * 1j * k.esign
            ubar = phase * assemble_spinor(conjugate_index(k), p, M, r, theta, phi)
            assert np.allclose(v, ubar, atol=1e-12)

    def test_gamma_radial_squares_to_minus_one(self):
        g = gamma_radial(0.9, 2.1)
        assert np.allclose(g @ g, -np.eye(4), atol=1e-14)
        assert np.allclose(GAMMA_T @ GAMMA_T, np.eye(4))
