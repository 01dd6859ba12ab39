import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn

from rotsphere import (FasterThanLightError, PhysicalParams, SPECTRAL,
                       condensate_grid, condensate_nonrotating, condensate_point,
                       density_terms, enumerate_spectrum, grid_to_csv,
                       grid_to_json, mit, thermal_weight,
                       thermal_weight_subtracted)
from rotsphere.boundary import shell_table
from rotsphere.modes import density_split, spinor_densities
from rotsphere.specfun import legendre_density_table


def unreduced_sum(bc, params, r, theta, j_max, i_max, subtracted=True):
    """Quadruple sum over (j, m_j, kappa, i, esign) with production
    components but no m_j symmetry folding."""
    wfun = thermal_weight_subtracted if subtracted else thermal_weight
    total = []
    for mo in enumerate_spectrum(bc, params, j_max, i_max):
        w = wfun(mo.E_tilde, mo.qn.esign, params.beta, params.mu)
        if w == 0.0:
            continue
        A, B = density_terms(mo.qn, mo.p, params.M, r, theta)
        total.append(mo.C**2 * w * (A + B))
    return -math.fsum(total)


def _point_value_reference(bc, params, r, theta, two_j_max, i_max, subtracted):
    """The per-point kernel that the grid kernel replaced, kept verbatim as a
    bit-exact reference: (value, |last j-shell contribution|)."""
    M, R, Omega = params.M, params.R, params.Omega
    beta, mu = params.beta, params.mu
    weight = thermal_weight_subtracted if subtracted else thermal_weight

    l_max = (two_j_max + 1) // 2
    tab = legendre_density_table(l_max, math.cos(theta))

    blocks: list[np.ndarray] = []
    shell_slices: list[int] = []
    for two_j in range(1, two_j_max + 1, 2):
        two_m = np.arange(1, two_j + 1, 2)
        d_plus, d_minus = spinor_densities(two_j, two_m, tab)
        m_vals = two_m / 2.0
        k0 = (two_j + 1) // 2
        for kappa in (-k0, k0):
            p, E, C = shell_table(bc, two_j, kappa, 1, M, R, i_max)
            jm2 = spherical_jn(k0 - 1, p * r) ** 2
            jp2 = spherical_jn(k0, p * r) ** 2
            w_t = weight(E[:, None] - Omega * m_vals[None, :], 1, beta, mu)
            w_b = weight(E[:, None] + Omega * m_vals[None, :], 1, beta, mu)
            A, B = density_split(kappa, d_plus[None, :], d_minus[None, :], jm2[:, None],
                                 jp2[:, None], (M / (2.0 * E))[:, None])
            C2 = (C * C)[:, None]
            if bc.is_mit:
                T = C2 * (w_t + w_b) * (A + B)
            else:
                T = C2 * ((w_t - w_b) * A + (w_t + w_b) * B)
            blocks.append(T.ravel())  # canonical: i outer, m_j inner
        shell_slices.append(sum(b.size for b in blocks))

    terms = np.concatenate(blocks)
    value = -math.fsum(terms.tolist())
    last_start = shell_slices[-2] if len(shell_slices) > 1 else 0
    tail = abs(math.fsum(terms[last_start:].tolist()))
    return value, tail


class TestPhysicalParams:
    def test_validation(self):
        PhysicalParams(M=0.0, R=1.0, Omega=0.0, beta=1.0)
        with pytest.raises(FasterThanLightError):
            PhysicalParams(M=0.0, R=2.0, Omega=0.5, beta=1.0)
        with pytest.raises(FasterThanLightError):
            # the light-speed surface exactly on the wall is also rejected
            PhysicalParams(M=0.0, R=1.0, Omega=1.0, beta=1.0)
        with pytest.raises(ValueError):
            PhysicalParams(M=-1.0, R=1.0, Omega=0.0, beta=1.0)
        with pytest.raises(ValueError):
            PhysicalParams(M=0.0, R=0.0, Omega=0.0, beta=1.0)
        with pytest.raises(ValueError):
            PhysicalParams(M=0.0, R=1.0, Omega=0.0, beta=0.0)
        for bad in ({"M": math.nan}, {"Omega": math.nan}, {"mu": math.nan},
                    {"R": math.inf}, {"beta": math.inf}):
            with pytest.raises(ValueError, match="finite"):
                PhysicalParams(**{"M": 0.0, "R": 1.0, "Omega": 0.0, "beta": 1.0, **bad})


class TestThermalWeights:
    def test_saturation(self):
        assert thermal_weight(1.0, 1, 1e6, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_odd_at_zero(self):
        assert thermal_weight(0.0, 1, 3.7, 0.0) == 0.0

    def test_direct_formula(self):
        expected = 0.5 * (math.tanh(0.75) + math.tanh(1.25))
        assert thermal_weight(2.0, 1, 1.0, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_negative_energy_weight_zero(self):
        assert thermal_weight(1.0, -1, 2.0, 0.3) == 0.0
        assert thermal_weight_subtracted(1.0, -1, 2.0, 0.3) == 0.0

    def test_subtracted_at_zero(self):
        assert thermal_weight_subtracted(0.0, 1, 2.0, 0.0) == pytest.approx(-1.0)

    def test_boltzmann_tail(self):
        val = thermal_weight_subtracted(8.0, 1, 2.0, 0.0)
        assert val == pytest.approx(-2.0 * math.exp(-16.0), rel=1e-6)

    def test_overflow_safe(self):
        with np.errstate(over="raise"):
            assert thermal_weight_subtracted(1e6, 1, 1e3, 0.0) == 0.0
            assert thermal_weight_subtracted(-1e6, 1, 1e3, 0.0) == -2.0

    @given(st.floats(-30, 30), st.floats(0.05, 20), st.floats(-5, 5))
    @settings(max_examples=80, deadline=None)
    def test_subtraction_identity(self, et, beta, mu):
        w = thermal_weight(et, 1, beta, mu)
        wp = thermal_weight_subtracted(et, 1, beta, mu)
        assert wp - w + 1.0 == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(-20, 20), st.floats(0.1, 10), st.floats(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_even_in_mu(self, et, beta, mu):
        assert thermal_weight(et, 1, beta, mu) == pytest.approx(
            thermal_weight(et, 1, beta, -mu), abs=1e-14)
        assert thermal_weight_subtracted(et, 1, beta, mu) == pytest.approx(
            thermal_weight_subtracted(et, 1, beta, -mu), abs=1e-14)

    @given(st.floats(-20, 20), st.floats(0.1, 10))
    @settings(max_examples=60, deadline=None)
    def test_odd_in_corotating_energy(self, et, beta):
        assert thermal_weight(et, 1, beta, 0.0) == pytest.approx(
            -thermal_weight(-et, 1, beta, 0.0), abs=1e-13)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            thermal_weight(1.0, 1, 0.0, 0.0)
        with pytest.raises(ValueError):
            thermal_weight_subtracted(1.0, 1, -1.0, 0.0)


class TestCondensatePoint:
    def test_spectral_massless_nonrotating_zero(self):
        params = PhysicalParams(M=0.0, R=1.0, Omega=0.0, beta=1.0)
        for r in (0.0, 0.3, 0.9):
            assert condensate_point(SPECTRAL, params, r, 1.0, 5.5, 8) == 0.0

    def test_mit_vanishes_on_wall(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.6, beta=0.8)
        for vs in (1, -1):
            for theta in (0.4, math.pi / 2):
                val = condensate_point(mit(vs), params, 1.0, theta, 7.5, 12)
                assert abs(val) <= 1e-9

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_matches_unreduced_sum(self, bc):
        params = PhysicalParams(M=0.8, R=1.0, Omega=0.6, beta=1.1, mu=0.3)
        got = condensate_point(bc, params, 0.45, 1.1, 5.5, 10)
        ref = unreduced_sum(bc, params, 0.45, 1.1, 5.5, 10)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_deep_truncation_brute_force(self):
        # independent oracle (sign-scan roots, quadrature norms, explicit m_j
        # loop) at a deep truncation
        from oracles import brute_force_condensate
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.0, beta=1.0, mu=0.0)
        got = condensate_point(SPECTRAL, params, 0.5, math.pi / 2, 10.5, 40)
        ref = brute_force_condensate(SPECTRAL, params, 0.5, math.pi / 2, 10.5, 40)
        assert got == pytest.approx(ref, rel=1e-8)

    def test_matches_unreduced_sum_raw_weight(self):
        params = PhysicalParams(M=0.5, R=1.0, Omega=0.4, beta=2.0, mu=-0.2)
        got = condensate_point(SPECTRAL, params, 0.7, 0.8, 4.5, 6, subtracted=False)
        ref = unreduced_sum(SPECTRAL, params, 0.7, 0.8, 4.5, 6, subtracted=False)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_mu_sign_invariance(self):
        base = dict(M=1.0, R=1.0, Omega=0.5, beta=1.0)
        a = condensate_point(SPECTRAL, PhysicalParams(mu=0.7, **base), 0.5, 1.0,
                             5.5, 8)
        b = condensate_point(SPECTRAL, PhysicalParams(mu=-0.7, **base), 0.5, 1.0,
                             5.5, 8)
        assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_bad_truncation_and_domain(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.0, beta=1.0)
        with pytest.raises(ValueError):
            condensate_point(SPECTRAL, params, 0.5, 1.0, 0.5, 4)
        with pytest.raises(ValueError):
            condensate_point(SPECTRAL, params, 1.5, 1.0, 2.5, 4)
        with pytest.raises(ValueError):
            condensate_point(SPECTRAL, params, 0.5, 4.0, 2.5, 4)
        with pytest.raises(ValueError, match="half-integer"):
            condensate_point(SPECTRAL, params, 0.5, 1.0, math.inf, 4)
        for bc in (SPECTRAL, mit(1)):
            with pytest.raises(ValueError, match="i_max"):
                condensate_point(bc, params, 0.5, 1.0, 2.5, 0)
            with pytest.raises(ValueError, match="i_max"):
                condensate_grid(bc, params, [0.5], [1.0], 2.5, 0)
            with pytest.raises(ValueError, match="i_max"):
                condensate_nonrotating(bc, params, 0.5, 2.5, 0)


class TestNonrotating:
    def test_matches_general_path(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.0, beta=1.0)
        for bc in (SPECTRAL, mit(1)):
            closed = condensate_nonrotating(bc, params, 0.5, 10.5, 20)
            for theta in (0.3, 2.2):
                general = condensate_point(bc, params, 0.5, theta, 10.5, 20)
                assert closed == pytest.approx(general, rel=1e-10, abs=1e-13)

    def test_spectral_massless_zero(self):
        params = PhysicalParams(M=0.0, R=1.0, Omega=0.0, beta=0.7)
        assert condensate_nonrotating(SPECTRAL, params, 0.4, 6.5, 10) == 0.0

    def test_rejects_rotation(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.2, beta=1.0)
        with pytest.raises(ValueError):
            condensate_nonrotating(SPECTRAL, params, 0.4, 2.5, 4)


class TestCondensateGrid:
    def test_nonrotating_rows_identical(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.0, beta=1.0)
        grid = condensate_grid(SPECTRAL, params, np.linspace(0, 1, 6),
                               np.linspace(0.2, 2.8, 5), 6.5, 8)
        spread = grid.values.max(axis=1) - grid.values.min(axis=1)
        assert np.max(spread) <= 1e-10

    def test_mit_wall_column_zero(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.5, beta=1.0)
        grid = condensate_grid(mit(1), params, np.array([0.3, 1.0]),
                               np.linspace(0.1, 3.0, 4), 6.5, 10)
        assert np.max(np.abs(grid.values[-1])) <= 1e-9

    def test_truncation_self_convergence(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.4, beta=0.5)
        r = np.array([0.2, 0.6, 0.9])
        th = np.array([math.pi / 2])
        g20 = condensate_grid(SPECTRAL, params, r, th, 10.5, 20)
        g40 = condensate_grid(SPECTRAL, params, r, th, 10.5, 40)
        change = np.max(np.abs(g40.values - g20.values))
        assert change < g20.tail_estimate
        assert g20.tail_estimate >= 0.0

    def test_rejects_empty_grid(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.0, beta=1.0)
        with pytest.raises(ValueError):
            condensate_grid(SPECTRAL, params, [], [1.0], 2.5, 3)
        # a non-finite entry anywhere, not only first, is rejected
        for r_grid, th_grid in (([0.2, math.nan], [1.0]), ([0.2], [1.0, math.nan]),
                                ([0.2, math.inf], [1.0]), ([0.2], [1.0, -math.inf])):
            with pytest.raises(ValueError):
                condensate_grid(SPECTRAL, params, r_grid, th_grid, 2.5, 3)


class TestGridKernel:
    R = 1.2
    R_GRID = (0.0, 0.37, R)
    THETA_GRID = (0.0, 0.9, math.pi / 2, math.pi)

    @pytest.mark.parametrize("M", [0.0, 0.8])
    @pytest.mark.parametrize("subtracted", [True, False])
    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_bit_identical_to_point_reference(self, bc, subtracted, M):
        params = PhysicalParams(M=M, R=self.R, Omega=0.5, beta=1.3, mu=0.3)
        grid = condensate_grid(bc, params, self.R_GRID, self.THETA_GRID, 7.5, 10,
                               subtracted=subtracted)
        tails = []
        for ir, r in enumerate(self.R_GRID):
            for it, theta in enumerate(self.THETA_GRID):
                ref, tail = _point_value_reference(bc, params, r, theta, 15, 10,
                                                   subtracted)
                tails.append(tail)
                assert float(grid.values[ir, it]).hex() == ref.hex()
                point = condensate_point(bc, params, r, theta, 7.5, 10,
                                         subtracted=subtracted)
                assert point.hex() == ref.hex()
        assert grid.tail_estimate == max(tails)

    def test_memory_stays_below_term_matrix(self):
        # a 41-point curve at j_max = 41/2, i_max = 60 has 27,720 terms per
        # point; an (r, term) matrix of them alone would take 9.1 MB
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.5, beta=2.0, mu=0.2)
        args = (SPECTRAL, params, np.linspace(0.0, 1.0, 41), [math.pi / 2], 20.5, 60)
        condensate_grid(*args)  # warm the shell tables
        tracemalloc.start()
        try:
            condensate_grid(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestExport:
    def _grid(self):
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.3, beta=2.0, mu=0.1)
        return condensate_grid(SPECTRAL, params, np.array([0.0, 0.5]),
                               np.array([0.7, 1.2]), 2.5, 3)

    def test_csv_layout(self):
        grid = self._grid()
        text = grid_to_csv(grid)
        lines = text.strip().split("\n")
        header = [ln for ln in lines if ln.startswith("#")]
        assert any("M=1.0" in ln for ln in header)
        assert any("j_max=5/2" in ln for ln in header)
        assert any("tail_estimate=" in ln for ln in header)
        assert any("Omega=0.3" in ln for ln in header)
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == "r,theta,value"
        assert len(body) == 1 + 4
        r, th, val = body[1].split(",")
        assert float(r) == 0.0 and float(th) == 0.7

    def test_json_mirror(self):
        grid = self._grid()
        doc = json.loads(grid_to_json(grid))
        assert doc["boundary"] == "spectral"
        assert doc["i_max"] == 3
        assert len(doc["rows"]) == 4
        assert doc["rows"][0]["value"] == grid.values[0, 0]

    def test_byte_identical_output(self):
        a = grid_to_csv(self._grid())
        b = grid_to_csv(self._grid())
        assert a == b
