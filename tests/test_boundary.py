import json
import math

import numpy as np
import pytest

from rotsphere import (FasterThanLightError, PhysicalParams, SPECTRAL,
                       enumerate_spectrum, mit, mit_momenta, mit_norm,
                       quantization_residual, radial_integral_minus,
                       radial_integral_plus, spectral_momentum, spectral_norm,
                       spectrum_to_csv, spectrum_to_json, spherical_bessel_j,
                       verify_vacuum_equivalence)
from rotsphere.boundary import (SolverError, mit_condition_residual,
                                mit_density_residual, spectral_component_residual,
                                two_j_from)
from oracles import (bisect_root, quadrature_mode_norm, quadrature_mode_overlap,
                     radial_quadrature, scan_mit_momenta)

XI_1_1 = 4.493409457909064


class TestSpectralMomentum:
    def test_examples(self):
        assert spectral_momentum(1, -1, 1, 1.0) == pytest.approx(math.pi, abs=1e-13)
        assert spectral_momentum(1, 1, 1, 1.0) == pytest.approx(XI_1_1, abs=1e-12)
        assert spectral_momentum(1, -1, 2, 2.0) == pytest.approx(math.pi, abs=1e-13)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            spectral_momentum(1, 0, 1, 1.0)
        for R in (0.0, -1.0):
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

    def test_against_sign_scan_oracle(self):
        got = mit_momenta(1, -1, 1, 1.0, 1.0, 1, 3)
        ref = scan_mit_momenta(1, -1, 1, 1.0, 1.0, 1, 3)
        assert np.allclose(got, ref, atol=1e-9)

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
        a = enumerate_spectrum(mit(1), params, 1.5, 2)
        b = enumerate_spectrum(mit(1), params, 1.5, 2)
        assert a == b
        keys = [(m.qn.two_j, m.qn.kappa, m.qn.i, m.qn.two_mj, m.qn.esign) for m in a]
        assert keys == sorted(keys)

    def test_all_corotating_products_positive(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.9, beta=1.0)
        for bc in (SPECTRAL, mit(1)):
            modes = enumerate_spectrum(bc, params, 4.5, 4)
            assert all(m.E * m.E_tilde > 0 for m in modes)

    def test_spectral_momentum_lower_bound(self):
        params = PhysicalParams(M=0.5, R=2.0, Omega=0.3, beta=1.0)
        modes = enumerate_spectrum(SPECTRAL, params, 4.5, 3)
        for m in modes:
            assert m.p * params.R > m.qn.two_j / 2.0 + 0.5

    def test_quantization_residuals(self):
        params = PhysicalParams(M=1.3, R=0.8, Omega=0.5, beta=1.0)
        for bc in (SPECTRAL, mit(-1)):
            for m in enumerate_spectrum(bc, params, 2.5, 3):
                assert quantization_residual(bc, m, params.R, params.M) <= 1e-10

    def test_two_j_from(self):
        assert two_j_from(0.5) == 1
        assert two_j_from(10.5) == 21
        with pytest.raises(ValueError):
            two_j_from(1.0)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="half-integer"):
                two_j_from(bad)


class TestVacuumEquivalence:
    def test_nonrotating_trivial(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.0, beta=1.0)
        modes = enumerate_spectrum(SPECTRAL, params, 2.5, 2)
        rep = verify_vacuum_equivalence(modes, 0.0, 1.0)
        assert rep.ok and rep.n_modes == len(modes)

    def test_high_rotation_ok(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.99, beta=1.0)
        modes = enumerate_spectrum(SPECTRAL, params, 6.5, 8)
        assert verify_vacuum_equivalence(modes, 0.99, 1.0).ok

    def test_hypothetical_superluminal_shows_violations(self):
        params = PhysicalParams(M=0.0, R=1.0, Omega=0.0, beta=1.0)
        modes = enumerate_spectrum(SPECTRAL, params, 10.5, 4)
        rep = verify_vacuum_equivalence(modes, 1.5, 1.0)
        assert not rep.ok
        assert all(abs(m.qn.two_mj) / 2.0 > 1.0 for m in rep.violations)


class TestOrthonormality:
    def test_norms_and_overlaps(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.2, beta=1.0)
        for bc in (SPECTRAL, mit(1)):
            modes = enumerate_spectrum(bc, params, 1.5, 3)
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
        modes = enumerate_spectrum(SPECTRAL, params, 2.5, 2)
        for mo in modes:
            assert spectral_component_residual(mo, params.R, params.M) <= 1e-10

    @pytest.mark.parametrize("vs", [1, -1])
    def test_mit_wall_condition(self, vs):
        params = PhysicalParams(M=0.8, R=1.0, Omega=0.3, beta=1.0)
        modes = enumerate_spectrum(mit(vs), params, 2.5, 2)
        for mo in modes:
            assert mit_condition_residual(mo, params.R, params.M, vs) <= 1e-9
            assert mit_density_residual(mo, params.R, params.M) <= 1e-9


class TestExport:
    def test_csv_header_and_roundtrip(self):
        params = PhysicalParams(M=1.0, R=2.0, Omega=0.25, beta=1.0)
        modes = enumerate_spectrum(SPECTRAL, params, 1.5, 2)
        csv_text = spectrum_to_csv(modes, params.R)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "esign,two_j,two_mj,kappa,i,pR,E,Etilde,C"
        assert len(lines) == len(modes) + 1
        first = lines[1].split(",")
        assert len(first) == 9

        rows = json.loads(spectrum_to_json(modes, params.R))
        assert len(rows) == len(modes)
        assert set(rows[0]) == {"esign", "two_j", "two_mj", "kappa", "i", "pR",
                                "E", "Etilde", "C"}
        for row, mo in zip(rows, modes):
            assert row["pR"] == mo.p * params.R
            assert row["C"] == mo.C

    def test_byte_identical_reruns(self):
        params = PhysicalParams(M=0.5, R=1.0, Omega=0.1, beta=1.0)
        modes = enumerate_spectrum(mit(1), params, 1.5, 2)
        again = enumerate_spectrum(mit(1), params, 1.5, 2)
        assert spectrum_to_csv(modes, params.R) == spectrum_to_csv(again, params.R)
