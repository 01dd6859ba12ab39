import json
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn

from rotsphere import (FasterThanLightError, PhysicalParams, SPECTRAL,
                       condensate_grid, condensate_nonrotating, condensate_point,
                       density_terms, enumerate_spectrum, grid_to_csv,
                       grid_to_json, mit, thermal_weight,
                       thermal_weight_subtracted)
from rotsphere import condensate as cnd
from rotsphere.boundary import shell_rows
from rotsphere.modes import corotating_energy, density_split, spinor_densities
from rotsphere.specfun import legendre_density_table
from rotsphere.specfun import spherical_jn as _spherical_jn
from oracles import fermi, shell_table, unbounded_axis_condensate


def unreduced_sum(bc, params, r, theta, j_max, i_max, subtracted=True):
    """Quadruple sum over (j, m_j, kappa, i, esign) with production
    components but no m_j symmetry folding."""
    wfun = thermal_weight_subtracted if subtracted else thermal_weight
    total = []
    for mo in enumerate_spectrum(bc, params, j_max, i_max).modes():
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

    def test_huge_beta_takes_limits_quietly(self):
        # beta (E_tilde -+ mu) past the largest double: the exact limits
        et = np.array([5.0, -5.0])
        with np.errstate(over="raise"):
            assert thermal_weight_subtracted(et, 1, 1e308, 0.3).tolist() == [-0.0, -2.0]
            assert thermal_weight(et, 1, 1e308, 0.3).tolist() == [1.0, -1.0]

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
            with pytest.raises(ValueError, match="i_max"):
                condensate_point(bc, params, 0.5, 1.0, 2.5, 501)

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1)])
    def test_float_i_max_rejected_cold_and_warm(self, bc):
        # the shell cache must not decide: 10.0 and 10 are equal keys to an
        # untyped lru_cache.  R = 0.93 is used by no other test, so the first
        # call meets a cold cache.
        params = PhysicalParams(M=1.0, R=0.93, Omega=0.5, beta=1.0)
        with pytest.raises(ValueError, match="i_max must be an integer"):
            condensate_point(bc, params, 0.5, math.pi / 2, 3.5, 10.0)
        value = condensate_point(bc, params, 0.5, math.pi / 2, 3.5, 10)
        assert math.isfinite(value)
        with pytest.raises(ValueError, match="i_max must be an integer"):
            condensate_point(bc, params, 0.5, math.pi / 2, 3.5, 10.0)
        with pytest.raises(ValueError, match="i_max must be an integer"):
            enumerate_spectrum(bc, params, 1.5, 2.5)


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

    def test_mit_past_j_83_half(self):
        # from j = 83/2 the root scan took underflowed Bessel values at its first
        # probe for a root p = 1e-6 / R, whose norm check then raised
        params = PhysicalParams(M=1.23, R=1.0, Omega=0.5, beta=1.0)
        grid = condensate_grid(mit(1), params, [0.5], [1.0], 99 / 2, 200)
        assert np.all(np.isfinite(grid.values))

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

    @staticmethod
    def _check_fallback(bc, params, r_grid, th_grid, two_j_max, i_max, monkeypatch):
        """Compare a grid with the point reference by .hex() and return its
        number of fallback points, asserting that math.fsum ran on all terms
        of exactly those points, once each, and otherwise only on last-block
        rows (the tail)."""
        refs = [[_point_value_reference(bc, params, r, th, two_j_max, i_max, True)
                 for th in th_grid] for r in r_grid]
        fsum, calls = math.fsum, []
        monkeypatch.setattr(math, "fsum", lambda v: calls.append(len(v)) or fsum(v))
        grid = condensate_grid(bc, params, r_grid, th_grid, two_j_max / 2, i_max)
        monkeypatch.undo()
        assert [[v.hex() for v in row] for row in grid.values.tolist()] == [
            [ref.hex() for ref, _ in row] for row in refs]
        assert grid.tail_estimate == max(tail for row in refs for _, tail in row)
        n_last = i_max * (two_j_max + 1)
        n_all = sum(i_max * (two_j + 1) for two_j in range(1, two_j_max + 1, 2))
        failing = int(np.sum(grid.values == 0.0))  # here, exactly the fallback points
        assert calls.count(n_all) == failing
        assert calls.count(n_last) <= grid.values.size
        assert len(calls) == calls.count(n_all) + calls.count(n_last)
        return failing

    @pytest.mark.parametrize("n_r", [1, 3, 41])
    def test_all_points_fall_back(self, n_r, monkeypatch):
        # M = 0 and Omega = 0: every spectral term is a signed zero, no sum can
        # be certified, and every point is math.fsum's -0.0
        params = PhysicalParams(M=0.0, R=1.0, Omega=0.0, beta=1.3, mu=0.3)
        r_grid = np.linspace(0.0, 1.0, n_r)
        failing = self._check_fallback(SPECTRAL, params, r_grid, [0.4, 2.0], 11, 4,
                                       monkeypatch)
        assert failing == 2 * n_r

    def test_mixed_certified_and_fallback_points(self, monkeypatch):
        # M = 0 and mu far above the j = 1/2 energies: w_t and w_b of those
        # shells both round to -1, so at r = 0, where only j = 1/2 has nonzero
        # Bessel factors, every term is a signed zero; elsewhere shells near mu
        # give certified sums
        params = PhysicalParams(M=0.0, R=1.0, Omega=0.5, beta=10.0, mu=20.0)
        failing = self._check_fallback(SPECTRAL, params, np.linspace(0.0, 1.0, 5),
                                       [0.4, 2.0], 11, 4, monkeypatch)
        assert failing == 2

    def test_memory_stays_below_term_matrix(self):
        # a 41-point curve at j_max = 41/2, i_max = 60 has 27,720 terms per
        # point; an (r, term) matrix of them alone would take 9.1 MB.  The
        # kernel forms and reduces one j block of every point at a time (the
        # last, largest one takes 0.8 MB per buffer), in place where it can
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


def _outcome(fn, *args):
    """The .hex() of each float fn returns, or the name of what it raised."""
    try:
        out = fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__
    return [float(v).hex() for v in np.atleast_1d(out)]


def _fsum_rows(buf):
    return [math.fsum(row.tolist()) for row in buf]


_MAX = np.finfo(float).max
# finite rows whose correctly rounded sum a pairwise tree finds, but on which
# math.fsum's running sum overflows, so that it raises OverflowError
_FSUM_OVERFLOWS = (
    [0.0, -8.988465674311579e+307, -8.98846567431158e+307, 4.9896007738368e+291],
    [0.0, 2.0**1023, 2.0**1023, -(2.0**1023), -(2.0**1023), 1.0],
)
# rows the certificate cannot accept: exact midpoint ties (one of them broken
# by a term far below, which fl(s + E) loses), heavy cancellation, subnormal
# sums, zeros, overflow, inf and nan
_FALLBACK_ROWS = (
    [1.0, 2.0**-53], [1.0, 2.0**-53, 0.0], [1.5, 2.0**-53, 2.0**-106],
    [1e16, 1.0, -1e16],
    [5e-324, 5e-324], [3e-320, -1e-320, 2e-321], [-0.0], [-0.0, -0.0],
    [0.0] * 7, [_MAX, 2.0**970], [_MAX, _MAX, -_MAX], [math.inf, 1.0],
    [-math.inf, -2.0, 3.0], [math.inf, -math.inf], [math.nan, 1.0],
    *_FSUM_OVERFLOWS,
)


# rows of any floats, inf and nan included
_FLOAT_ROWS = st.integers(1, 40).flatmap(lambda n: st.lists(
    st.lists(st.floats(), min_size=n, max_size=n), min_size=1, max_size=3))
# (n, rows, span, seed) of _spread_rows
_SPREAD_ARGS = (st.integers(1, 5000), st.integers(1, 3), st.integers(0, 1200),
                st.integers(0, 2**32 - 1))


def _spread_rows(n, rows, span, seed):
    """Random rows whose binary exponents spread over `span` octaves."""
    rng = np.random.default_rng(seed)
    exps = rng.integers(-span // 2, span - span // 2 + 1, size=(rows, n))
    return rng.standard_normal((rows, n)) * np.exp2(np.clip(exps, -1070, 960))


def _split_sums(buf, cuts):
    """The kernel's streamed reduction of each row cut at `cuts`: the .hex()
    of the certified sum, or None where the certificate fails."""
    trees = [cnd._tree_sums(chunk) for chunk in np.split(buf, cuts, axis=1)]
    r, _, certified = cnd._certified_sums(trees, buf.shape[1])
    return [v.hex() if ok else None for v, ok in zip(r.tolist(), certified.tolist())]


def _cuts(data, n):
    """Drawn cut points of a row of n terms; an @example, which has no data
    to draw from, cuts before every term."""
    if data is None:
        return list(range(1, n))
    return sorted(set(data.draw(st.lists(st.integers(1, n - 1), max_size=12)))) if n > 1 else []


class TestExactRowSums:
    """_exact_row_sums must return math.fsum's bits, or raise as it does."""

    @given(_FLOAT_ROWS)
    @example([_FSUM_OVERFLOWS[0]])
    @example([_FSUM_OVERFLOWS[1]])
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_floats(self, rows):
        # any float, inf and nan included; a row that raises is checked alone
        buf = np.array(rows)
        single = [_outcome(cnd._exact_row_sums, row[None, :]) for row in buf]
        assert single == [_outcome(_fsum_rows, row[None, :]) for row in buf]
        if all(isinstance(out, list) for out in single):
            assert _outcome(cnd._exact_row_sums, buf) == sum(single, [])

    @given(*_SPREAD_ARGS)
    @settings(max_examples=80, deadline=None)
    def test_random_arrays(self, n, rows, span, seed):
        # odd and even lengths, binary exponents spread over `span` octaves
        buf = _spread_rows(n, rows, span, seed)
        assert _outcome(cnd._exact_row_sums, buf) == _outcome(_fsum_rows, buf)

    @given(_FLOAT_ROWS, st.data())
    @example([_FSUM_OVERFLOWS[0]], None)
    @example([_FSUM_OVERFLOWS[1]], None)
    @settings(max_examples=300, deadline=None)
    def test_split_arbitrary_floats(self, rows, data):
        # a row cut into contiguous chunks, each tree-reduced, then combined:
        # a certified sum must be math.fsum's, and math.fsum must not raise
        buf = np.array(rows)
        got = _split_sums(buf, _cuts(data, buf.shape[1]))
        for row, hexed in zip(buf, got):
            if hexed is not None:
                assert _outcome(_fsum_rows, row[None, :]) == [hexed]

    @given(*_SPREAD_ARGS, st.data())
    @settings(max_examples=80, deadline=None)
    def test_split_random_arrays(self, n, rows, span, seed, data):
        buf = _spread_rows(n, rows, span, seed)
        got = _split_sums(buf, _cuts(data, n))
        for row, hexed in zip(buf, got):
            if hexed is not None:
                assert _outcome(_fsum_rows, row[None, :]) == [hexed]

    @pytest.mark.parametrize("row", _FSUM_OVERFLOWS, ids=repr)
    def test_split_never_certifies_where_fsum_raises(self, row):
        buf = np.array([row])
        assert _outcome(_fsum_rows, buf) == "OverflowError"
        for cuts in ([], [1], [2], [3], [1, 2, 3]):
            assert _split_sums(buf, cuts) == [None]

    def test_split_certifies_kernel_like_rows(self):
        # the certificate is not vacuous: rows like the kernel's, with
        # exponents over 600 octaves, certify however they are cut
        buf = _spread_rows(3000, 3, 600, 7)
        expected = [v.hex() for v in _fsum_rows(buf)]
        for cuts in ([], [1], [1500], [7, 8, 900, 2999], list(range(100, 3000, 100))):
            assert _split_sums(buf, cuts) == expected

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_kernel_buffers(self, bc, monkeypatch):
        # every reduction the kernel makes agrees with math.fsum on the same
        # terms: each point's value with math.fsum of its whole (j_max, i_max)
        # rectangle, of which the kernel forms the kept modes, each tail and the
        # nonrotating row with math.fsum of that buffer, and each j block's own
        # exact sum with math.fsum of it
        blocks, yielded, exact_bufs, tree_args = [], [], [], []
        j_blocks, exact, tree = cnd._j_blocks, cnd._exact_row_sums, cnd._tree_sums

        def capture_blocks(*args, **prune):
            for two_j, it, terms, dropped in j_blocks(*args, **prune):
                blocks.append((two_j, it, terms.copy(), prune))
                yielded.append(terms)
                yield two_j, it, terms, dropped

        monkeypatch.setattr(cnd, "_j_blocks", capture_blocks)
        monkeypatch.setattr(cnd, "_exact_row_sums",
                            lambda buf: exact_bufs.append(buf.copy()) or exact(buf))
        monkeypatch.setattr(cnd, "_tree_sums", lambda x: tree_args.append(x) or tree(x))
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.7, beta=2.0, mu=0.3)
        thetas, r_grid = [0.4, math.pi / 2], np.linspace(0.0, 1.0, 7)
        grid = condensate_grid(bc, params, r_grid, thetas, 10.5, 30)
        # 14 points: the kept modes of j = 1/2 .. 19/2, 8 to 10 of the 30 i
        # of each j, fill one buffer, then the last j, 12 to 14 of its 30 i,
        # comes alone; per buffer a block per theta, j-major.  MIT's value at
        # r = R, rounding noise on a zero, is redone at both thetas in a
        # second pass of that point alone, which it certifies
        first = [(two_j, it, terms) for two_j, it, terms, prune in blocks if not prune]
        kept, last = first[0][2].shape[1], first[2][2].shape[1]
        assert [(two_j, it, terms.shape) for two_j, it, terms in first] == [
            (19, 0, (7, kept)), (19, 1, (7, kept)), (21, 0, (7, last)), (21, 1, (7, last))]
        assert 8 * 110 <= kept <= 10 * 110 and 14 * 3300 <= cnd._BUFFER_TERMS
        assert 12 * 22 <= last <= 14 * 22
        retry = {"prune": cnd._PRUNE_REL}
        assert [(two_j, it, terms.shape[0], prune) for two_j, it, terms, prune in blocks
                if prune] == [(19, 0, 1, retry), (19, 1, 1, retry), (21, 0, 1, retry),
                              (21, 1, 1, retry)] * bc.is_mit
        # one TwoSum tree per block, the tail's included; the other trees
        # reduce the chunk partials: 2 per point for a value, 1 for a tail
        assert [sum(x is terms for x in tree_args) for terms in yielded] == [1] * len(blocks)
        assert sorted(x.shape for x in tree_args if not any(x is t for t in yielded)) == (
            [(1, 1), (1, 1), (1, 2), (1, 2)] * bc.is_mit + [(7, 1), (7, 1), (7, 2), (7, 2)])
        # the tails are certified from their blocks' trees, not by _exact_row_sums
        tails = [terms for two_j, _, terms in first if two_j == 21]
        assert exact_bufs == [] and len(tails) == 2
        tabs = [legendre_density_table(11, math.cos(th)) for th in thetas]
        full_blocks = list(j_blocks(bc, params, r_grid.tolist(), tabs, 21, 30,
                                    thermal_weight_subtracted, prune=False))
        for it in range(2):
            rows = np.concatenate([terms for _, i, terms, _ in full_blocks if i == it], axis=1)
            assert rows.shape[1] == 30 * 11 * 12
            assert [float(-v).hex() for v in grid.values[:, it]] == _outcome(_fsum_rows, rows)
        whole_tails = [terms for two_j, _, terms, _ in full_blocks if two_j == 21]
        assert [buf.shape for buf in whole_tails] == [(7, 660)] * 2
        assert grid.tail_estimate == max(abs(v) for buf in whole_tails for v in _fsum_rows(buf))
        condensate_nonrotating(bc, PhysicalParams(M=1.0, R=1.0, Omega=0.0, beta=0.9),
                               0.6, 10.5, 30)
        assert len(exact_bufs) == 1 and exact_bufs[-1].shape == (1, 30 * 11 * 2)
        for buf in exact_bufs + [terms for _, _, terms, _ in blocks]:
            assert _outcome(exact, buf) == _outcome(_fsum_rows, buf)

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_zero_tail_row_needs_no_fsum(self, bc, monkeypatch):
        # at r = 0 every term of the last j is 0 (j_n(0) = 0 for n >= 1): a
        # sum that never certifies.  Only |sum| enters tail_estimate, and that
        # row's sum, 0 to within its bound, stays below the certified ones, so
        # it takes no math.fsum, and the tail is still that of math.fsum of
        # each whole last j
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.6, beta=1.5, mu=0.2)
        r_vals, thetas, fsum, calls = [0.0, 0.5, 1.0], [0.3, math.pi / 2], math.fsum, []
        monkeypatch.setattr(math, "fsum", lambda v: calls.append(len(v)) or fsum(v))
        grid = condensate_grid(bc, params, r_vals, thetas, 10.5, 30)
        assert calls == []
        tabs = [legendre_density_table(11, math.cos(th)) for th in thetas]
        tails = [terms for two_j, _, terms, _ in cnd._j_blocks(
            bc, params, r_vals, tabs, 21, 30, thermal_weight_subtracted, prune=0.0)
            if two_j == 21]
        assert len(tails) == 2 and not any(terms[0].any() for terms in tails)
        assert all(terms[1:].any(axis=1).all() for terms in tails)
        assert grid.tail_estimate.hex() == max(abs(fsum(row)) for t in tails for row in t).hex()
        assert grid.tail_estimate > 0.0

    def test_refused_tail_row_skipped_only_within_bound(self, monkeypatch):
        # two tail rows made uncertified: the smallest |sum|, with its own
        # tight bound, cannot reach the largest certified |sum| and takes no
        # math.fsum; the next, its bound widened to that maximum, could, and
        # gets math.fsum of its whole last j, 2 x 30 x 11 terms
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.6, beta=1.5, mu=0.2)
        args = (SPECTRAL, params, [0.2, 0.5, 0.8], [0.7], 10.5, 30)
        want = condensate_grid(*args)
        certified_sums, fsum, calls = cnd._certified_sums, math.fsum, []

        def refusing(trees, n, *slack):
            r, err, ok = certified_sums(trees, n, *slack)
            if len(trees) == 1:  # a tail, not a value
                small, wide = np.argsort(np.abs(r))[:2]
                ok[[small, wide]] = False
                err[wide] = np.abs(r).max()
            return r, err, ok

        monkeypatch.setattr(cnd, "_certified_sums", refusing)
        monkeypatch.setattr(math, "fsum", lambda v: calls.append(len(v)) or fsum(v))
        got = condensate_grid(*args)
        assert calls == [660]
        assert got.values.tobytes() == want.values.tobytes()
        assert got.tail_estimate.hex() == want.tail_estimate.hex()

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_buffer_size_moves_no_bit(self, bc, monkeypatch):
        # 1 term: every j block reduced alone; 2^40: all j but the last in one
        # buffer; the default: several buffers.  Then the second r's values
        # made uncertified under each, in the grid and in its retry, so that
        # the retry and its math.fsum fallback, at both thetas, run from
        # buffers too.
        params = PhysicalParams(M=0.6, R=1.0, Omega=0.6, beta=0.8, mu=0.1)
        r_grid = np.linspace(0.1, 1.0, 4)
        certified_sums, j_blocks, calls = cnd._certified_sums, cnd._j_blocks, []

        def refusing(trees, n, *slack):
            r, err, ok = certified_sums(trees, n, *slack)
            r_vals = calls[-1][0]  # of the pass being reduced
            if len(trees) > 1 and r_grid[1] in r_vals:  # a value, not a tail
                ok[r_vals.index(r_grid[1])] = False
            return r, err, ok

        def recording(bc, params, r_vals, *rest, **prune):
            blocks = list(j_blocks(bc, params, r_vals, *rest, **prune))
            calls.append((r_vals, [two_j for two_j, it, *_ in blocks if it == 0]))
            return iter(blocks)

        def outcome():
            calls.clear()
            grid = condensate_grid(bc, params, r_grid, [0.7, math.pi / 2], 20.5, 60)
            return [v.hex() for v in grid.values.ravel().tolist()], grid.tail_estimate.hex()

        want = outcome()
        monkeypatch.setattr(cnd, "_j_blocks", recording)
        # (buffer size, buffers of the grid, of the retry and of a fallback
        # point): the grid forms 20 to 25 of the 60 i of each j but the last,
        # which fill 3 buffers where the whole rectangle filled 5; the retry
        # forms 31 to 36, a fallback point all.  MIT retries its value at
        # r = R too, and certifies it there.
        retried = [r_grid[1]] + [r_grid[3]] * bc.is_mit
        for size, n_grid, n_retry, n_point in ((1, 21, 21, 21), (cnd._BUFFER_TERMS, 3, 2, 2),
                                               (2**40, 2, 2, 2)):
            monkeypatch.setattr(cnd, "_BUFFER_TERMS", size)
            assert outcome() == want, size
            with monkeypatch.context() as m:
                m.setattr(cnd, "_certified_sums", refusing)
                assert outcome() == want, size
            assert [(r_vals, len(ends)) for r_vals, ends in calls] == [
                (r_grid.tolist(), n_grid), (retried, n_retry), ([r_grid[1]], n_point),
                ([r_grid[1]], n_point)]

    @pytest.mark.parametrize("row", _FALLBACK_ROWS, ids=repr)
    def test_fallback_inputs(self, row, monkeypatch):
        fsum = math.fsum
        buf = np.array([row])
        expected = _outcome(_fsum_rows, buf)
        calls = []

        def counting_fsum(values):
            calls.append(len(values))
            return fsum(values)

        monkeypatch.setattr(math, "fsum", counting_fsum)
        assert _outcome(cnd._exact_row_sums, buf) == expected
        assert calls == [len(row)]

    def test_fallback_only_on_failing_rows(self, monkeypatch):
        fsum = math.fsum
        calls = []
        monkeypatch.setattr(math, "fsum", lambda v: calls.append(1) or fsum(v))
        buf = np.array([[0.1, 0.2, 0.3], [1.0, 2.0**-53, 0.0], [0.5, -0.25, 3.0]])
        got = cnd._exact_row_sums(buf)
        assert [v.hex() for v in got.tolist()] == [fsum(r).hex() for r in buf.tolist()]
        assert len(calls) == 1


def _full_rows(bc, params, r_vals, th_vals, two_j_max, i_max, subtracted=True):
    """The terms of the whole (j_max, i_max) rectangle, formed with pruning
    off, a row per r in the canonical order, per theta; and the Legendre
    tables of th_vals."""
    weight = thermal_weight_subtracted if subtracted else thermal_weight
    tabs = [legendre_density_table((two_j_max + 1) // 2, math.cos(th)) for th in th_vals]
    rows = [[] for _ in th_vals]
    for _, it, terms, _ in cnd._j_blocks(bc, params, list(r_vals), tabs, two_j_max, i_max,
                                         weight, prune=False):
        rows[it].append(terms.copy())
    return [np.concatenate(r, axis=1) for r in rows], tabs


def _mode_bounds(bc, params, tabs, two_j, E, C):
    """The bound of each mode of the shells (p, E, C) of j, shape (kappa, i,
    m_j), with the subtracted weights w_t and w_b of its m_j and -m_j:
    C2 (|w_t - w_b|/2 + |w_t + w_b| M/(2E)) (d+ + d-), for MIT
    C2 |w_t + w_b| (1/2 + M/(2E)) (d+ + d-), with d+ + d- at its largest
    over the thetas, plus the (C2 + 1) 2^-1060 held for underflow."""
    two_m = np.arange(1, two_j + 1, 2)
    w_t, w_b = (thermal_weight_subtracted(E[:, None] - params.Omega * m_j, 1, params.beta,
                                          params.mu) for m_j in (two_m / 2.0, -two_m / 2.0))
    C2, ratio, w_d, w_s = (C * C)[:, None], (params.M / (2.0 * E))[:, None], w_t - w_b, w_t + w_b
    d = np.max([d_plus + d_minus for d_plus, d_minus in
                (spinor_densities(two_j, two_m, tab) for tab in tabs)], axis=0)
    amp = (np.abs(w_s) * (0.5 + ratio) if bc.is_mit
           else 0.5 * np.abs(w_d) + np.abs(w_s) * ratio)
    return (C2 * amp * d + (C2 + 1.0) * 2.0**-1060).reshape(2, E.size // 2, -1)


# The kernel that bound-first pruning replaced, kept verbatim as a bit-exact
# reference: it forms the weights of every mode and prunes on the exact b.
def _j_blocks_reference(bc, params, r_vals: list[float], tabs: list[np.ndarray],
                        two_j_max: int, i_max: int, weight, prune: bool = True):
    """Yield (two_j, it, terms, D) per buffer, then per theta tabs[it]: the
    terms of the j blocks up to two_j, a row per r in the order (j, kappa, i,
    m_j) over the kept modes, and D, which bounds the summed magnitudes of the
    terms dropped so far.  Consecutive j blocks fill a buffer while their
    terms over all points fit in cnd._BUFFER_TERMS; a larger block, and the last
    j, come alone, formed in place.

    Each term is C2 ((w_t - w_b) A + (w_t + w_b) B), or C2 (w_t + w_b)(A + B)
    for MIT, and 0 <= j_n^2 <= 1 (DLMF 10.54) with d+, d- >= 0 gives |A| <=
    (d+ + d-)/2 and |B| <= |M/(2E)| (d+ + d-): a bound b per (kappa, i, m_j)
    at every r, with d+ + d- at its largest over the thetas.  With prune,
    each j but the last, whose sum is the tail estimate, keeps the shortest
    i-prefix, shared by both kappa shells, whose dropped suffix bounds below
    cnd._PRUNE_REL times the block's; a nan or inf b is never dropped, nor is
    any mode of a j whose b sum to inf.  Each b carries (C2 + 1) 2^-1060,
    over 2^8 times what underflow can take from a formed term or from b, and
    D is twice their rounded sum: that covers the relative rounding of the
    terms, of the b and of their sum, below 2^-35 at 2^17 terms, and a
    computed |j_n| up to 1.4."""
    M, Omega, beta, mu = params.M, params.Omega, params.beta, params.mu
    r_col, points = np.array(r_vals)[:, None], len(r_vals) * len(tabs)
    cap = min(cnd._BUFFER_TERMS // points, i_max * (two_j_max**2 - 1) // 4)  # all j but the last
    buf, width, dropped = None, 0, 0.0  # the open buffer, filled up to width
    last = (np.empty(0), None)  # the previous +k0 shell's kept momenta and order-k0 squares
    rows = shell_rows(bc, 1, M, params.R, i_max, two_j_max)
    for two_j, (p, E, C) in zip(range(1, two_j_max + 1, 2), rows):
        two_m = np.arange(1, two_j + 1, 2)
        E, C2 = E.reshape(2, i_max, 1), (C * C).reshape(2, i_max, 1)  # (kappa, i, m_j)
        w_t, w_b = (weight(corotating_energy(E, m_j, Omega), 1, beta, mu)
                    for m_j in (two_m / 2.0, -two_m / 2.0))
        ratio, dens = M / (2.0 * E), [spinor_densities(two_j, two_m, tab) for tab in tabs]
        w_d, w_s = w_t - w_b, w_t + w_b
        keep = i_max
        if prune and two_j < two_j_max:
            d = np.max([d_plus + d_minus for d_plus, d_minus in dens], axis=0)
            amp = (np.abs(w_s) * (0.5 + ratio) if bc.is_mit
                   else 0.5 * np.abs(w_d) + np.abs(w_s) * ratio)
            with np.errstate(over="ignore"):  # an inf b keeps its mode
                b = (amp * d) * C2 + (C2 + 1.0) * 2.0**-1060
                tail = np.cumsum(b.sum(axis=(0, 2))[::-1])[::-1]
            total = tail[0] if np.isfinite(tail[0]) else np.nan  # nan: every mode is kept
            keep = int(np.count_nonzero(~(tail < cnd._PRUNE_REL * total)))
            dropped += float(tail[keep]) if keep < i_max else 0.0
        p = p.reshape(2, i_max)[:, :keep].ravel()
        C2, ratio, w_d, w_s = (v[:, :keep] for v in (C2, ratio, w_d, w_s))
        size = w_d.size  # terms per point
        if buf is not None and (two_j == two_j_max or points * (width + size) > cnd._BUFFER_TERMS):
            yield from ((two_j - 2, it, terms, 2.0 * dropped)
                        for it, terms in enumerate(buf[:, :, :width]))
            buf = None
        if buf is None and two_j < two_j_max and points * size <= cnd._BUFFER_TERMS:
            buf, width = np.empty((len(tabs), len(r_vals), cap)), 0
        k0 = (two_j + 1) // 2
        x = r_col * p
        x[x < 2.0**-1022] = 0.0  # subnormal x: scipy's j_n is nan there for n >= 1
        jp2 = _spherical_jn(k0, x) ** 2
        # spectral shells (j - 1, k0 - 1) and (j, -k0) share momenta, so the
        # order k0 - 1 squares of this -k0 shell are the last order-k0 squares
        # of the modes both kept
        shared = min(last[0].size, keep)
        if not np.array_equal(last[0][:shared], p[:shared]):
            shared = 0
        jm2 = _spherical_jn(k0 - 1, x[:, shared:]) ** 2
        if shared:
            jm2 = np.concatenate([last[1][:, :shared], jm2], axis=1)
        last = (p[keep:], jp2[:, keep:])
        jm2, jp2 = (v.reshape(len(r_vals), 2, keep, 1) for v in (jm2, jp2))
        kappa = np.array([-k0, k0])[:, None, None]
        for it, (d_plus, d_minus) in enumerate(dens):
            A, B = density_split(kappa, d_plus, d_minus, jm2, jp2, ratio)
            # MIT: (C2 (w_t + w_b)) (A + B); spectral: C2 ((w_t - w_b) A + (w_t + w_b) B)
            if not bc.is_mit:
                A *= w_d
                B *= w_s
            A += B
            del B  # free before the caller reduces A
            out = A if buf is None else buf[it, :, width:width + size].reshape(A.shape)
            np.multiply(A, C2 * w_s if bc.is_mit else C2, out=out)
            if buf is None:
                yield two_j, it, A.reshape(len(r_vals), -1), 2.0 * dropped
        width += size


# (M R, R, Omega R, beta / R, mu R): figure-like, hot (nothing is dropped),
# mu above the lowest energies, near the light cylinder, massless, and spheres
# far from R = 1
_PRUNE_CASES = [(1.0, 1.0, 0.5, 2.0, 0.3), (1.0, 1.0, 0.5, 0.05, 0.3),
                (1.0, 1.0, 0.5, 2.0, 9.0), (1.0, 1.0, 0.999, 1.0, 0.3),
                (0.0, 1.0, 0.7, 3.0, 0.0), (0.5, 1e-3, 0.9, 1.5, 0.2),
                (2.0, 40.0, 0.3, 1.0, 4.0), (0.0, 1e-3, 0.999, 3.0, 5.0)]


class TestThermalPruning:
    """The kernel forms only the modes whose summed bound is not negligible,
    and certifies each value as math.fsum of the whole rectangle."""

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_dropped_terms_within_bound(self, bc, monkeypatch):
        # every term of the whole rectangle within its mode's bound, and the
        # dropped ones, formed here with pruning off, within their j's D at
        # every point, the last j's, the tail certificate's slack, included.
        # With a buffer of 1 term every j block comes alone, with its own D,
        # and its width gives the kept i-prefix of that j.  With the default
        # buffer, each buffer's D covers the dropped terms of all its j.
        n_dropped, last_dropped, shared = 0, 0, 0
        for MR, R, omega_r, beta_r, mu_r in _PRUNE_CASES:
            params = PhysicalParams(M=MR / R, R=R, Omega=omega_r / R, beta=beta_r * R,
                                    mu=mu_r / R)
            r_vals = np.linspace(0.0, R, 6)
            rows, tabs = _full_rows(bc, params, r_vals, [0.3, math.pi / 2], 21, 30)
            buffers = [(two_j, dropped) for two_j, it, terms, dropped in
                       cnd._j_blocks(bc, params, list(r_vals), tabs, 21, 30,
                                     thermal_weight_subtracted) if it == 0]
            with monkeypatch.context() as m:
                m.setattr(cnd, "_BUFFER_TERMS", 1)
                blocks = [(two_j, terms.shape[1], dropped) for two_j, it, terms, dropped in
                          cnd._j_blocks(bc, params, list(r_vals), tabs, 21, 30,
                                        thermal_weight_subtracted) if it == 0]
            assert [two_j for two_j, *_ in blocks] == list(range(1, 22, 2))
            assert buffers[-1][0] == 21 and len(buffers) < len(blocks)
            shells = shell_rows(bc, 1, params.M, R, 30, 21)
            widths = [30 * (two_j + 1) for two_j in range(1, 22, 2)]
            for row in rows:
                gone = {}  # the dropped terms of each j
                for (two_j, kept, D), (_, E, C), block in zip(
                        blocks, shells, np.split(row, np.cumsum(widths)[:-1], axis=1)):
                    bound = _mode_bounds(bc, params, tabs, two_j, E, C)
                    block = np.abs(block).reshape(len(r_vals), *bound.shape)
                    assert np.all(block <= bound), (params, two_j)
                    keep = kept // (two_j + 1)  # kept i of each kappa shell
                    gone[two_j] = block[:, :, keep:].reshape(len(r_vals), -1)
                    assert all(math.fsum(terms) <= D for terms in gone[two_j].tolist()), params
                    assert (D > 0.0) == (gone[two_j].shape[1] > 0)
                    n_dropped += gone[two_j].shape[1]
                    last_dropped += gone[two_j].shape[1] * (two_j == 21)
                first = 1
                for two_j, D in buffers:
                    dropped = np.concatenate([gone[k] for k in range(first, two_j + 1, 2)], axis=1)
                    assert all(math.fsum(terms) <= D for terms in dropped.tolist()), params
                    shared += two_j > first
                    first = two_j + 2
        assert last_dropped > 0 and n_dropped > last_dropped and shared > 0

    @given(bc=st.sampled_from([SPECTRAL, mit(1), mit(-1)]), log_r=st.floats(-3.0, 1.7),
           MR=st.sampled_from([0.0, 0.3, 1.0, 2.5]), omega_r=st.floats(0.0, 0.999),
           log_beta_r=st.floats(math.log10(0.05), math.log10(30.0)),
           mu_r=st.floats(0.0, 6.0), subtracted=st.booleans(),
           r_frac=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           thetas=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=2),
           two_j_max=st.sampled_from([5, 11, 21]), i_max=st.sampled_from([4, 15, 30, 45]))
    @settings(max_examples=100, deadline=None)
    def test_matches_unpruned_kernel(self, bc, log_r, MR, omega_r, log_beta_r, mu_r,
                                     subtracted, r_frac, thetas, two_j_max, i_max):
        R = 10.0**log_r
        params = PhysicalParams(M=MR / R, R=R, Omega=omega_r / R,
                                beta=10.0**log_beta_r * R, mu=mu_r / R)
        r_vals = [min(f * R, R) for f in r_frac]
        grid = condensate_grid(bc, params, r_vals, thetas, two_j_max / 2, i_max,
                               subtracted=subtracted)
        rows, _ = _full_rows(bc, params, r_vals, thetas, two_j_max, i_max, subtracted)
        last = i_max * (two_j_max + 1)
        assert [[v.hex() for v in point] for point in grid.values.T.tolist()] == [
            [(-math.fsum(terms)).hex() for terms in row.tolist()] for row in rows]
        tail = 0.0  # reduced as the kernel does, which drops a nan tail
        for row in rows:
            tail = max(tail, float(np.abs([math.fsum(t) for t in row[:, -last:]]).max()))
        assert grid.tail_estimate.hex() == tail.hex()

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    def test_unsubtracted_massive_keeps_every_mode(self, bc, monkeypatch):
        # the raw weight tends to 1, not 0, at high energy, so with M > 0 the
        # B terms fall only like M/(2E), and no mode is negligible; the
        # subtracted weight at the same parameters drops most of them.  With
        # a buffer of 1 term every j block comes alone: its width over its
        # m_j count is the j's kept momenta, in the grid's pass (MIT's r = R
        # is retried in another)
        widths, j_blocks = [], cnd._j_blocks

        def recording(*args, **prune):
            blocks = list(j_blocks(*args, **prune))
            if not prune:
                widths.append([terms.shape[1] // ((two_j + 1) // 2)
                               for two_j, it, terms, _ in blocks if it == 0])
            return iter(blocks)

        monkeypatch.setattr(cnd, "_BUFFER_TERMS", 1)
        monkeypatch.setattr(cnd, "_j_blocks", recording)
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.5, beta=2.0, mu=0.3)
        for subtracted in (False, True):
            condensate_grid(bc, params, np.linspace(0.0, 1.0, 5), [1.0], 20.5, 60,
                            subtracted=subtracted)
        assert widths[0] == [120] * 21
        assert sum(widths[1]) < 21 * 120 // 2 and widths[1][-1] < 120 // 2

    def test_uncertified_point_forms_whole_rectangle(self, monkeypatch):
        # a point whose value the certificate refuses in the grid's pass, and
        # again in its retry, gets math.fsum of all 27,720 terms of its
        # rectangle at j_max = 41/2, i_max = 60, of which the grid formed under
        # a quarter and the retry under a third, and the same bits
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.8, beta=2.0, mu=0.0)  # fig1e
        args = (SPECTRAL, params, np.linspace(0.0, 1.0, 41), [math.pi / 2], 20.5, 60)
        want = condensate_grid(*args)
        certified_sums, fsum, calls, formed = cnd._certified_sums, math.fsum, [], []

        def refusing(trees, n, *slack):
            r, err, ok = certified_sums(trees, n, *slack)
            if len(trees) > 1:  # the values, not a tail: point 7, alone in the retry
                formed.append((ok.size, n))
                ok[7 % ok.size] = False
            return r, err, ok

        monkeypatch.setattr(cnd, "_certified_sums", refusing)
        monkeypatch.setattr(math, "fsum", lambda v: calls.append(len(v)) or fsum(v))
        got = condensate_grid(*args)
        assert 60 * sum(two_j + 1 for two_j in range(1, 42, 2)) == 27720
        assert [size for size, _ in formed] == [41, 1]
        assert formed[0][1] < 27720 // 4 and formed[0][1] < formed[1][1] < 27720 // 3
        assert calls.count(27720) == 1 and max(calls) == 27720
        assert got.values.tobytes() == want.values.tobytes()
        assert got.tail_estimate == want.tail_estimate


    @pytest.mark.parametrize("bc", [mit(1), mit(-1)])
    def test_mit_wall_point_alone_retried(self, bc, monkeypatch):
        # the MIT value at r = R is 0 in exact arithmetic (the bag condition),
        # so its sum is rounding noise, too small for the slack of the cut at
        # the request's scale: that point alone is redone at _PRUNE_REL,
        # which certifies it, and no math.fsum runs
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.4, beta=1.0, mu=0.2)
        args = (bc, params, np.linspace(0.0, 1.0, 41), [math.pi / 4], 20.5, 60)
        passes, j_blocks, fsum, calls = [], cnd._j_blocks, math.fsum, []

        def recording(*args, **prune):
            passes.append((args[2], prune))
            return j_blocks(*args, **prune)

        monkeypatch.setattr(cnd, "_j_blocks", recording)
        monkeypatch.setattr(math, "fsum", lambda v: calls.append(len(v)) or fsum(v))
        got = condensate_grid(*args)
        assert passes[1:] == [([1.0], {"prune": cnd._PRUNE_REL})] and calls == []
        assert abs(got.values[-1, 0]) < 1e-12 * abs(got.values).max()
        monkeypatch.setattr(cnd, "_j_blocks", _j_blocks_reference)
        want = condensate_grid(*args)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.tail_estimate.hex() == want.tail_estimate.hex()

    def test_retry_redoes_refused_points_only(self, monkeypatch):
        # points refused at (r 1, theta 0) and (r 2, theta 1) are redone in
        # one pass over those r and thetas, whose other two points are not
        # taken from it, and keep the grid's bits
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.6, beta=1.5, mu=0.2)
        args = (SPECTRAL, params, [0.1, 0.4, 0.7, 0.9], [0.5, 2.0], 10.5, 30)
        want = condensate_grid(*args)
        certified_sums, j_blocks, passes, seen = cnd._certified_sums, cnd._j_blocks, [], []

        def refusing(trees, n, *slack):
            r, err, ok = certified_sums(trees, n, *slack)
            if len(trees) > 1 and len(seen) < 2:  # the grid's values, theta by theta
                ok[1 + len(seen)] = False
                seen.append(1)
            return r, err, ok

        def recording(*args, **prune):
            passes.append((args[2], len(args[3]), prune))
            return j_blocks(*args, **prune)

        monkeypatch.setattr(cnd, "_certified_sums", refusing)
        monkeypatch.setattr(cnd, "_j_blocks", recording)
        got = condensate_grid(*args)
        assert passes[1:] == [([0.4, 0.7], 2, {"prune": cnd._PRUNE_REL})]
        assert got.values.tobytes() == want.values.tobytes()
        assert got.tail_estimate == want.tail_estimate


def _reference_row_b(bc, params, tabs, two_j, E, C, weight):
    """The b sum of each (kappa, i) row of j, shape (2, i), formed as
    _j_blocks_reference forms each mode's b."""
    M, Omega, beta, mu = params.M, params.Omega, params.beta, params.mu
    two_m = np.arange(1, two_j + 1, 2)
    E, C2 = E.reshape(2, -1, 1), (C * C).reshape(2, -1, 1)
    w_t, w_b = (weight(corotating_energy(E, m_j, Omega), 1, beta, mu)
                for m_j in (two_m / 2.0, -two_m / 2.0))
    ratio, w_d, w_s = M / (2.0 * E), w_t - w_b, w_t + w_b
    d = np.max([d_plus + d_minus for d_plus, d_minus in
                (spinor_densities(two_j, two_m, tab) for tab in tabs)], axis=0)
    amp = (np.abs(w_s) * (0.5 + ratio) if bc.is_mit
           else 0.5 * np.abs(w_d) + np.abs(w_s) * ratio)
    return ((amp * d) * C2 + (C2 + 1.0) * 2.0**-1060).sum(axis=2)


# (M, R, Omega, beta, mu, thetas, two_j_max): the axis at both poles, mu < 0,
# Omega R near the light cylinder, with beta Omega j near 1,000, the overflow
# edge M = 0, R = 0.01, Omega = 50, beta = 100, |C|^2 near 2^1000, weights that
# underflow, beta |mu| = 800, where cosh(beta mu) overflows, and beta E_tilde
# over 40 at every mode, where the MIT bound is its b sum to rounding
_BOUND_CASES = [(1.0, 1.0, 0.5, 2.0, 0.3, (0.0, math.pi), 21),
                (1.0, 1.0, 0.5, 2.0, -0.7, (math.pi / 2,), 21),
                (1.0, 1.0, 0.999, 1.0, 0.3, (0.4, math.pi / 2), 41),
                (1.0, 1.0, 0.999, 50.0, 2.0, (math.pi / 2,), 41),
                (0.0, 0.01, 50.0, 100.0, 0.0, (math.pi / 2, 0.0), 21),
                (0.0, 1e-101, 0.0, 1e-104, 0.0, (1.0,), 11),
                (1.0, 1.0, 0.5, 1e4, 0.0, (1.0,), 21),
                (2.0, 1.0, 0.3, 2.0, 400.0, (1.0,), 21),
                (2.0, 1.0, 0.3, 2.0, -400.0, (0.0,), 21),
                (500.0, 1e-3, 900.0, 1.5e-3, 200.0, (0.3,), 21),
                (2.0, 1.0, 0.5, 30.0, 0.0, (1.0,), 21)]


def _fig_sweep_curves(count=40, seed=23):
    """Fig-sweep-like curves: (bc, params, theta) with M in {0, 1, 2} and the
    boundaries in turn, spectral, MIT +1, spectral, MIT -1."""
    rng = random.Random(seed)
    cycle = [SPECTRAL, mit(1), SPECTRAL, mit(-1)]
    return [(cycle[k % 4], PhysicalParams(M=rng.choice((0.0, 1.0, 2.0)), R=1.0,
                                          Omega=rng.uniform(0.0, 0.95),
                                          beta=rng.uniform(0.3, 3.0), mu=rng.uniform(0.0, 1.0)),
             rng.uniform(0.1, math.pi / 2)) for k in range(count)]


class TestBoundFirstPruning:
    """The kernel decides each j's kept i-prefix from a bound per (j, kappa, i)
    row, before it forms any weight, and keeps the reference kernel's bits."""

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    @pytest.mark.parametrize("case", _BOUND_CASES)
    @pytest.mark.parametrize("subtracted", [True, False])
    def test_row_bound_covers_reference_b(self, bc, case, subtracted, monkeypatch):
        M, R, Omega, beta, mu, thetas, two_j_max = case
        params, i_max = PhysicalParams(M, R, Omega, beta, mu), 30
        weight = thermal_weight_subtracted if subtracted else thermal_weight
        tabs = [legendre_density_table((two_j_max + 1) // 2, math.cos(th)) for th in thetas]
        bounds, real = [], cnd._row_bounds
        monkeypatch.setattr(cnd, "_row_bounds", lambda *args: bounds.append(real(*args)) or
                            bounds[-1])
        list(cnd._j_blocks(bc, params, [0.5 * R], tabs, two_j_max, i_max, weight))
        (U,) = bounds
        rows = shell_rows(bc, 1, M, R, i_max, two_j_max)
        assert U.shape == ((two_j_max + 1) // 2, 2, i_max)  # every j, the last included
        assert not np.isnan(U).any()
        with np.errstate(over="ignore", invalid="ignore"):
            for two_j, (_, E, C), bound in zip(range(1, two_j_max + 1, 2), rows, U):
                b = _reference_row_b(bc, params, tabs, two_j, E, C, weight)
                assert np.all(bound >= b), (two_j, np.flatnonzero(~(bound >= b)))

    def test_values_match_reference_kernel(self, monkeypatch):
        # random grids over all three boundaries, subtracted or not, R from
        # 0.1 to 10, Omega R up to 0.999, mu R from -6 to 6 and the axis in
        # every grid: the same value and tail bits as the reference kernel
        rng = random.Random(2330)
        cases = []
        for _ in range(60):
            R = 10.0 ** rng.uniform(-1.0, 1.0)
            params = PhysicalParams(M=rng.choice((0.0, 0.3, 1.0, 2.5)) / R, R=R,
                                    Omega=rng.uniform(0.0, 0.999) / R,
                                    beta=10.0 ** rng.uniform(-1.3, 1.5) * R,
                                    mu=rng.uniform(-6.0, 6.0) / R)
            cases.append((rng.choice([SPECTRAL, mit(1), mit(-1)]), params,
                          [0.0] + [rng.uniform(0.0, R) for _ in range(rng.randrange(1, 4))],
                          [rng.uniform(0.0, math.pi) for _ in range(rng.randrange(1, 3))],
                          rng.randrange(3, 42, 2) / 2, rng.randrange(1, 61),
                          rng.random() > 0.15))

        def outcomes():
            return [(grid.values.tobytes(), grid.tail_estimate.hex())
                    for grid in (condensate_grid(*case) for case in cases)]

        want = outcomes()
        monkeypatch.setattr(cnd, "_j_blocks", _j_blocks_reference)
        assert outcomes() == want

    def test_fig_sweep_fsum_and_kept_terms(self, monkeypatch):
        # 40 fig-sweep-like 41-point curves: no math.fsum call, where the
        # reference kernel makes some, each on a last j's 2,520 terms, a tail
        # that does not certify; and at most 0.65 times its kept terms over
        # all points, retries included
        fsum, calls, kept, kernel_now = math.fsum, [], [], cnd._j_blocks
        monkeypatch.setattr(math, "fsum", lambda v: calls.append(1) or fsum(v))

        def run(kernel):
            def counting(*args, **prune):
                for block in kernel(*args, **prune):
                    kept.append(block[2].size * (block[1] == 0) * bool(prune.get("prune", 1)))
                    yield block

            calls.clear()
            kept.clear()
            monkeypatch.setattr(cnd, "_j_blocks", counting)
            for bc, params, theta in _fig_sweep_curves():
                condensate_grid(bc, params, np.linspace(0.0, 1.0, 41), [theta], 20.5, 60)
            return len(calls), sum(kept)

        ref_calls, ref_kept = run(_j_blocks_reference)
        got_calls, got_kept = run(kernel_now)
        assert ref_calls > 0 and got_calls == 0
        assert got_kept <= 0.65 * ref_kept


class TestEdgeInputs:
    """Inputs at the edges of the accepted domain give the finite answer."""

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    @pytest.mark.parametrize("subtracted", [True, False])
    def test_subnormal_r_gives_axis_bits(self, bc, subtracted):
        # scipy's j_n(x) is nan for n >= 1 at a subnormal x, and its square
        # there rounds to that at x = 0: every r whose p r is subnormal gets
        # the bits of r = 0, value and tail estimate
        cases = [(PhysicalParams(M=1.0, R=1.0, Omega=0.5, beta=1.0), math.pi / 2, 2),
                 (PhysicalParams(M=0.0, R=1.0, Omega=0.0, beta=1.0), 0.0, 1)]
        for params, theta, i_max in cases:
            axis = condensate_grid(bc, params, [0.0], [theta], 1.5, i_max, subtracted)
            grid = condensate_grid(bc, params, [0.0, 1e-300, 1e-310, 5e-324], [theta], 1.5,
                                   i_max, subtracted)
            assert [v.hex() for v in grid.values.ravel().tolist()] == [
                axis.values.item().hex()] * 4
            assert grid.tail_estimate.hex() == axis.tail_estimate.hex()
            if params.Omega == 0.0:  # the closed form's own r = 0 bits
                assert len({condensate_nonrotating(bc, params, r, 1.5, i_max, subtracted).hex()
                            for r in (0.0, 1e-310, 5e-324)}) == 1

    def test_mit_at_largest_imax(self):
        # MIT varsigma = -1 locates all 500 roots of each shell at M R = 5,
        # whose last root lies past the 500th zero of the Bessel orders
        bc, params = mit(-1), PhysicalParams(M=1.0, R=5.0, Omega=0.1, beta=1.0)
        grid = condensate_grid(bc, params, [0.0, 2.5, 5.0], [1.0], 1.5, 500)
        for r, value in zip(grid.r_values, grid.values.ravel()):
            want, _ = _point_value_reference(bc, params, r, 1.0, 3, 500, True)
            assert value.hex() == want.hex()
        assert math.isfinite(grid.tail_estimate)

    def test_overflowing_bound_keeps_every_mode(self, monkeypatch):
        # at R = 1e-101 the mode bounds of a j sum to inf: that j keeps every
        # mode, with no warning, and D stays 0.  The sums, near 2^1007, still
        # go to math.fsum, for which a pass without pruning forms the terms.
        formed, real = [], cnd._j_blocks

        def recording(*args, **kwargs):
            for block in real(*args, **kwargs):
                formed.append((kwargs.get("prune", True), block[2].shape[1], block[3]))
                yield block

        monkeypatch.setattr(cnd, "_j_blocks", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = condensate_grid(mit(1), PhysicalParams(0.0, 1e-101, 0.0, 1e-104), [5e-102],
                                   [1.0], 5.5, 60)
        assert grid.values.item().hex() == "0x1.2f9a42ec70797p+1007"
        assert grid.tail_estimate.hex() == "0x1.b5ccfc998ad22p+1007"
        pruned = [(n, D) for prune, n, D in formed if prune]
        assert sum(n for n, _ in pruned) == 60 * sum(range(2, 13, 2))  # the whole rectangle
        assert all(D == 0.0 for _, D in pruned)


    def test_overflowing_term_names_the_radius(self):
        # MIT +1, M = 0, R = 10^-101.5 with the raw weight: |C|^2 (w_t + w_b)
        # passes the largest double, so a term is inf, or nan where A = 0
        # (r = 0).  The sum would be inf, nan or fsum's own "-inf + inf"
        # ValueError; the grid names R and M instead, with no warning
        params = PhysicalParams(M=0.0, R=3.1622776601683792e-102, Omega=0.0,
                                beta=3.162277660168379e+101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^non-finite condensate term at "
                                                 r"R=3\.1622776601683792e-102, M=0\.0$"):
                condensate_grid(mit(1), params, [0.0, 5e-324, params.R], [0.0, math.pi], 1.5,
                                12, subtracted=False)

    def test_size_refused_point_skips_retry(self, monkeypatch):
        # near 2^1007 the tree refuses each sum for its size (n max|x| >=
        # 2^1000), which no slack can certify: the value and the tail go
        # straight to math.fsum of terms formed unpruned, in one pass, with
        # no retry pass
        passes, j_blocks = [], cnd._j_blocks

        def recording(*args, **prune):
            passes.append(prune)
            return j_blocks(*args, **prune)

        monkeypatch.setattr(cnd, "_j_blocks", recording)
        grid = condensate_grid(mit(1), PhysicalParams(0.0, 1e-101, 0.0, 1e-104), [5e-102],
                               [1.0], 5.5, 60)
        assert grid.values.item().hex() == "0x1.2f9a42ec70797p+1007"
        assert passes == [{}, {"prune": 0.0}]  # the grid, then its value and tail


# (M, Omega, beta, mu, R) with M R >= 15 and beta >= 1, where the wall moves
# the axis value by less than 1e-12 relative
_UNBOUNDED_CASES = [(1.0, 0.02, 1.0, 0.1, 20.0), (1.0, 0.03, 2.0, 0.0, 30.0),
                    (0.5, 0.03, 1.0, 0.5, 30.0), (2.0, 0.045, 1.0, 0.5, 20.0)]


class TestUnboundedLimit:
    """On the axis of a large sphere the condensate approaches that of
    unbounded space, a quadrature that knows no mode set."""

    @staticmethod
    def _gap(bc, M, Omega, beta, mu, R, zero_mode=True):
        value = condensate_point(bc, PhysicalParams(M, R, Omega, beta, mu), 0.0, 0.0, 1.5, 400)
        if not bc.is_mit and zero_mode:
            # the constant p = 0 spinor, E = M, m_j = 1/2, density 3/(4 pi R^3),
            # which the spectral spectrum leaves out
            value += 3.0 / (4.0 * math.pi * R**3) * (fermi(beta * (M - Omega / 2 - mu))
                                                    + fermi(beta * (M - Omega / 2 + mu)))
        want = unbounded_axis_condensate(M, Omega, beta, mu)
        return abs(value - want) / want

    @pytest.mark.parametrize("bc", [SPECTRAL, mit(1), mit(-1)])
    @pytest.mark.parametrize("case", _UNBOUNDED_CASES)
    def test_axis_matches_unbounded_space(self, bc, case):
        assert self._gap(bc, *case) < 1e-12

    def test_spectral_misses_the_zero_mode(self):
        # today's spectral spectrum has no p = 0 mode, and the quadrature sees it
        for case in _UNBOUNDED_CASES:
            assert self._gap(SPECTRAL, *case, zero_mode=False) > 1e-9

    @pytest.mark.parametrize("bc", [mit(1), mit(-1)])
    def test_off_axis_without_rotation(self, bc):
        # at Omega = 0 the unbounded value holds at every r, so the closed-form
        # angular sum checks the mode set off the axis: at r = 2 to 1e-12, while
        # at r = 5 the wall of the R = 20 sphere shows
        params = PhysicalParams(M=1.0, R=20.0, Omega=0.0, beta=1.0)
        want = unbounded_axis_condensate(1.0, 0.0, 1.0, 0.0)
        near, far = (abs(condensate_nonrotating(bc, params, r, 99.5, 300) - want) / want
                     for r in (2.0, 5.0))
        assert near < 1e-12 < far

    @pytest.mark.parametrize("bc", [mit(1), mit(-1)])
    def test_wall_shows_in_a_smaller_sphere(self, bc):
        # at M R = 10 the wall leaves more than the tolerance, and more than
        # at every M R >= 15 above
        near = self._gap(bc, 1.0, 0.02, 1.0, 0.1, 10.0)
        assert near > 1e-12 and near > max(self._gap(bc, *case) for case in _UNBOUNDED_CASES)


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


class TestInputChecks:
    _PARAMS = PhysicalParams(M=1.0, R=1.0, Omega=0.0, beta=1.0)

    @pytest.mark.parametrize("call, error, name", [
        pytest.param(lambda: thermal_weight(1.0, 0, 1.0, 0.0), ValueError, "esign",
                     id="weight-esign"),
        pytest.param(lambda: thermal_weight_subtracted(1.0, 2, 1.0, 0.0), ValueError, "esign",
                     id="subtracted-esign"),
        pytest.param(lambda: condensate_nonrotating(SPECTRAL, TestInputChecks._PARAMS, 1.5,
                                                    1.5, 2), ValueError, "r = 1.5",
                     id="nonrotating-r-past-R"),
        pytest.param(lambda: condensate_nonrotating(mit(1), TestInputChecks._PARAMS, -0.1,
                                                    1.5, 2), ValueError, "r = -0.1",
                     id="nonrotating-r-negative"),
        pytest.param(lambda: cnd.CondensateGrid(np.zeros(2), np.zeros(1), np.zeros((1, 2)), 1,
                                                1, 0.0, SPECTRAL, TestInputChecks._PARAMS),
                     ValueError, "values", id="grid-values-shape"),
        pytest.param(lambda: cnd.CondensateGrid(np.zeros(2), np.zeros(1), np.zeros((2, 1)), 1,
                                                1, -1.0, SPECTRAL, TestInputChecks._PARAMS),
                     ValueError, "tail_estimate", id="grid-tail-estimate"),
    ])
    def test_rejects_and_names_the_input(self, call, error, name):
        with pytest.raises(Exception) as got:
            call()
        assert got.type is error and name in str(got.value)
