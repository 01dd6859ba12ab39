import json
import math
import tracemalloc

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
from rotsphere.boundary import shell_table
from rotsphere.modes import density_split, spinor_densities
from rotsphere.specfun import legendre_density_table


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
    r, certified = cnd._certified_sums(trees, buf.shape[1])
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
        # terms: each point's value with math.fsum of its j blocks joined in
        # order, each tail and the nonrotating row with math.fsum of that
        # buffer, and each j block's own exact sum with math.fsum of it
        blocks, yielded, exact_calls, tree_args = [], [], [], []
        j_blocks, exact, tree = cnd._j_blocks, cnd._exact_row_sums, cnd._tree_sums

        def capture_blocks(*args):
            for two_j, it, terms in j_blocks(*args):
                blocks.append((two_j, it, terms.copy()))
                yielded.append(terms)
                yield two_j, it, terms

        monkeypatch.setattr(cnd, "_j_blocks", capture_blocks)
        monkeypatch.setattr(cnd, "_exact_row_sums", lambda buf, *given: (
            exact_calls.append((buf.copy(), given)) or exact(buf, *given)))
        monkeypatch.setattr(cnd, "_tree_sums", lambda x: tree_args.append(x) or tree(x))
        params = PhysicalParams(M=1.0, R=1.0, Omega=0.7, beta=0.9, mu=0.3)
        thetas = [0.4, math.pi / 2]
        grid = condensate_grid(bc, params, np.linspace(0.0, 1.0, 7), thetas, 10.5, 30)
        # j-major: a block per (j, theta), both thetas of a j before the next j
        assert [(two_j, it) for two_j, it, _ in blocks] == [
            (two_j, it) for two_j in range(1, 22, 2) for it in range(2)]
        # one TwoSum tree per block, the tail's included; the other trees
        # reduce the chunk partials: 11 per point for a value, 1 for a tail
        assert [sum(x is terms for x in tree_args) for terms in yielded] == [1] * 22
        assert sorted(x.shape for x in tree_args if not any(x is t for t in yielded)) == [
            (7, 1), (7, 1), (7, 11), (7, 11)]
        assert [len(given) for _, given in exact_calls] == [1, 1]  # the tails reuse a tree
        exact_bufs = [buf for buf, _ in exact_calls]
        assert all(terms.shape == (7, 30 * (two_j + 1)) for two_j, _, terms in blocks)
        for it in range(2):
            rows = np.concatenate([terms for _, i, terms in blocks if i == it], axis=1)
            assert rows.shape[1] == 30 * 11 * 12
            assert [float(-v).hex() for v in grid.values[:, it]] == _outcome(_fsum_rows, rows)
        assert len(exact_bufs) == 2  # the last j block of each theta, for the tail
        assert grid.tail_estimate == max(abs(v) for buf in exact_bufs for v in _fsum_rows(buf))
        monkeypatch.setattr(cnd, "_exact_row_sums",
                            lambda buf: exact_bufs.append(buf.copy()) or exact(buf))
        condensate_nonrotating(bc, PhysicalParams(M=1.0, R=1.0, Omega=0.0, beta=0.9),
                               0.6, 10.5, 30)
        assert len(exact_bufs) == 3 and exact_bufs[-1].shape == (1, 30 * 11 * 2)
        for buf in exact_bufs + [terms for *_, terms in blocks]:
            assert _outcome(exact, buf) == _outcome(_fsum_rows, buf)

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
