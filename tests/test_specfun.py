import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from rotsphere import boundary, condensate, modes, specfun
from rotsphere import (QuantumNumbers, UnsupportedOrderError, angular_density,
                       assoc_legendre_density, bessel_zeros, density_terms,
                       legendre_density_table, spherical_bessel_j,
                       spherical_bessel_j_prime, spherical_bessel_zero)
from rotsphere.specfun import (_ROOT_XTOL, I_MAX_DEFAULT, N_MAX_DEFAULT, SolverError,
                               _brentq_array, spherical_jn)
from oracles import mp_spherical_j, scan_bessel_zeros

# first zero of j_1, frozen from bisection over (pi, 2*pi); mpmath-confirmed below
XI_1_1 = 4.493409457909064


class TestSphericalBesselJ:
    def test_closed_form_j0(self):
        assert abs(spherical_bessel_j(0, math.pi)) < 1e-14
        assert spherical_bessel_j(0, 0.0) == 1.0
        assert spherical_bessel_j(1, 0.0) == 0.0
        x = 1.7
        assert spherical_bessel_j(0, x) == pytest.approx(math.sin(x) / x, rel=1e-14)

    def test_first_j1_zero_value(self):
        assert abs(spherical_bessel_j(1, XI_1_1)) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 25, 50, 100, 200])
    def test_against_mpmath(self, n):
        rng = np.random.default_rng(100 + n)
        # stay clear of the deep-underflow region x << n
        xs = rng.uniform(max(0.5, 0.4 * n), 10.0 * n + 30.0, size=8)
        for x in xs:
            ref = mp_spherical_j(n, x)
            got = spherical_bessel_j(n, float(x))
            assert abs(got - ref) <= 1e-13 * max(abs(ref), 1e-3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            spherical_bessel_j(0, -1.0)
        with pytest.raises(UnsupportedOrderError):
            spherical_bessel_j(-1, 1.0)
        with pytest.raises(UnsupportedOrderError):
            spherical_bessel_j(201, 1.0)
        with pytest.raises(ValueError):
            spherical_bessel_j(0, math.inf)


class TestUfuncBinding:
    def test_bit_identical_to_public_wrapper(self):
        x = np.concatenate([[0.0, -0.0, 5e-324], np.geomspace(1e-6, 3e3, 4001)]
                           + [bessel_zeros(n, 60) for n in (0, 1, 7, 40)])
        for n in range(specfun.N_MAX_DEFAULT + 1):
            got = np.asarray(specfun.spherical_jn(n, x), dtype=float)
            ref = np.asarray(scipy.special.spherical_jn(n, x), dtype=float)
            mismatch = np.nonzero(got.view(np.int64) != ref.view(np.int64))[0]
            assert mismatch.size == 0, (n, x[mismatch[:5]])

    def test_modules_share_the_binding(self):
        for mod in (boundary, modes, condensate):
            assert mod.spherical_jn is specfun.spherical_jn


class TestSphericalBesselPrime:
    def test_j0_prime_at_pi(self):
        # j'_0(x) = -j_1(x) and j_1(pi) = 1/pi
        assert spherical_bessel_j_prime(0, math.pi) == pytest.approx(-1.0 / math.pi,
                                                                     rel=1e-13)

    @pytest.mark.parametrize("x", [1.0, 2.0, 5.0])
    def test_recurrence_identity_n1(self, x):
        lhs = spherical_bessel_j_prime(1, x) + (2.0 / x) * spherical_bessel_j(1, x)
        assert lhs == pytest.approx(spherical_bessel_j(0, x), abs=1e-12)

    def test_finite_difference_oracle(self):
        h = 1e-6
        fd = (spherical_bessel_j(2, 3.0 + h) - spherical_bessel_j(2, 3.0 - h)) / (2 * h)
        assert spherical_bessel_j_prime(2, 3.0) == pytest.approx(fd, abs=1e-7)

    def test_both_recurrences_on_log_grid(self):
        # residuals measured against the largest term in each identity
        xs = np.geomspace(0.05, 300.0, 40)
        for n in (1, 3, 8, 20, 45):
            jn = spherical_bessel_j(n, xs)
            jprev = spherical_bessel_j(n - 1, xs)
            jnext = spherical_bessel_j(n + 1, xs)
            jp = spherical_bessel_j_prime(n, xs)
            floor = np.full_like(xs, 1e-300)
            scale1 = np.maximum.reduce([np.abs(jp), (n + 1) / xs * np.abs(jn),
                                        np.abs(jprev), floor])
            scale2 = np.maximum.reduce([np.abs(jp), n / xs * np.abs(jn),
                                        np.abs(jnext), floor])
            r1 = np.abs(jp + (n + 1) / xs * jn - jprev) / scale1
            r2 = np.abs(jp - n / xs * jn + jnext) / scale2
            assert np.max(r1) <= 1e-12
            assert np.max(r2) <= 1e-12

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            spherical_bessel_j_prime(1, 0.0)


class TestZeros:
    def test_order_zero_multiples_of_pi(self):
        for i in (1, 2, 7):
            assert spherical_bessel_zero(0, i) == pytest.approx(i * math.pi,
                                                                abs=1e-13)

    def test_first_j1_zero(self):
        assert spherical_bessel_zero(1, 1) == pytest.approx(XI_1_1, abs=1e-12)

    def test_frozen_value_against_mpmath(self):
        import mpmath as mp
        with mp.workdps(40):
            f = lambda x: mp.sqrt(mp.pi / (2 * x)) * mp.besselj(mp.mpf(3) / 2, x)
            ref = float(mp.findroot(f, mp.mpf("4.49341")))
        assert abs(XI_1_1 - ref) < 1e-13

    def test_zero_residuals(self):
        for n in (0, 3, 11, 30):
            for xi in bessel_zeros(n, 12):
                assert abs(spherical_bessel_j(n, float(xi))) <= 1e-11

    def test_rejects_non_integer_count(self):
        for count in (2.5, 3.0, 0, I_MAX_DEFAULT + 1):
            with pytest.raises(ValueError, match="count must be an integer"):
                bessel_zeros(4, count)

    def test_against_sign_scan(self):
        got = bessel_zeros(4, 6)
        ref = scan_bessel_zeros(4, 6)
        assert np.allclose(got, ref, atol=1e-10)

    def test_first_zero_bound_and_interlacing(self):
        count = 12
        tables = {n: bessel_zeros(n, count + 1) for n in range(0, 21)}
        for n in range(0, 21):
            assert tables[n][0] > n + 1
        # the MIT brackets rest on xi_{n,1} > n + 5/4, which the table checks
        assert all(bessel_zeros(n, 1)[0] > n + 1.25 for n in range(N_MAX_DEFAULT + 1))
        for n in range(0, 20):
            for i in range(count):
                assert tables[n][i] < tables[n + 1][i] < tables[n][i + 1]

    def test_bounds_checking(self):
        with pytest.raises(ValueError):
            bessel_zeros(0, 0)
        with pytest.raises(UnsupportedOrderError):
            bessel_zeros(500, 3)
        with pytest.raises(UnsupportedOrderError):
            bessel_zeros(201, 1)
        with pytest.raises(ValueError, match=r"\[1, 500\]"):
            bessel_zeros(0, 501)


# The scalar zero-table code that the array path replaced, kept verbatim as a
# reference: one scipy brentq call per interlacing bracket.


def _extend_zeros_reference(cache: dict, n: int, count: int) -> None:
    have = cache.setdefault(n, [])
    if len(have) >= count:
        return
    if n == 0:
        have[:] = [math.pi * k for k in range(1, count + 1)]
        return
    _extend_zeros_reference(cache, n - 1, count + 1)
    below = cache[n - 1]
    f = lambda x: spherical_jn(n, x)
    for i in range(len(have), count):
        root = brentq(f, below[i], below[i + 1], xtol=_ROOT_XTOL)
        have.append(root)
    # first-zero lower bound xi_{n,1} > n + 1
    if have[0] <= n + 1:
        raise RuntimeError(f"zero table inconsistent at order {n}: xi_1 = {have[0]}")


class TestZeroTableArrayPath:
    def test_incremental_tables_match_reference(self, monkeypatch):
        # an empty cache, grown by prefixes as the library grows it
        monkeypatch.setattr(specfun, "_zero_cache", {})
        ref: dict = {}
        for count in (20, 60, 200):
            for n in range(61):
                _extend_zeros_reference(ref, n, count)
                got = bessel_zeros(n, count)
                assert [x.hex() for x in got.tolist()] == [x.hex() for x in ref[n][:count]]
        # the library keeps whole blocks of zeros, and every one of them matches
        for n, zeros in specfun._zero_cache.items():
            _extend_zeros_reference(ref, n, len(zeros))
            assert [x.hex() for x in zeros] == [x.hex() for x in ref[n][:len(zeros)]]


# Smooth test functions, written with numpy ufuncs so that a scalar and an
# array evaluation give the same bits; sin, the cubic and exp make the
# solver take interpolation, extrapolation and bisection steps.
_SMOOTH = {
    "sin": lambda x: np.sin(x) - 0.3,
    "cubic": lambda x: x * x * x - 2.0 * x - 5.0,
    "exp": lambda x: np.exp(x) - 3.0,
    "tanh": lambda x: np.tanh(4.0 * (x - 0.7)),
    "atan": lambda x: np.arctan(1e6 * (x - 0.5)),
    "cbrt": lambda x: np.cbrt(x - 0.25),
    "tiny": lambda x: 1e-200 * (x - 1.0),
}


def _scalar(f):
    return lambda t: f(np.array([t]))[0]


class TestBrentqArray:
    """_brentq_array against scipy.optimize.brentq, bit for bit."""

    @pytest.mark.parametrize("name", _SMOOTH)
    def test_random_brackets_match_scipy(self, name):
        f = _SMOOTH[name]
        rng = np.random.default_rng(sorted(_SMOOTH).index(name))
        a, b = rng.uniform(-3.0, 1.0, 400), rng.uniform(1.0, 4.0, 400)
        keep = np.signbit(f(a)) != np.signbit(f(b))
        a, b = a[keep], b[keep]
        assert a.size > 50
        ref = [brentq(_scalar(f), x, y, xtol=_ROOT_XTOL) for x, y in zip(a, b)]
        assert [x.hex() for x in _brentq_array(f, a, b).tolist()] == [x.hex() for x in ref]

    @pytest.mark.parametrize("name", ["sin", "cubic", "exp"])
    def test_same_iterates_as_scipy(self, name):
        f = _SMOOTH[name]
        want, got = [], []
        brentq(lambda t: want.append(t) or _scalar(f)(t), -1.5, 2.5, xtol=_ROOT_XTOL)
        _brentq_array(lambda x: got.extend(x.tolist()) or f(x), [-1.5], [2.5])
        assert len(got) > 6 and got == want

    def test_parameter_columns_match_scipy(self):
        # j_n(x) - c near the first zero of j_n, over 300 (n, c) at once: the
        # columns must follow their brackets as those converge at different steps
        rng = np.random.default_rng(11)
        n, c = rng.integers(0, 30, 300), rng.uniform(-0.01, 0.01, 300)
        f = lambda x, n, c: spherical_jn(n, x) - c
        xi = np.array([bessel_zeros(k, 1)[0] for k in n.tolist()])
        a, b = xi - rng.uniform(0.1, 0.8, 300), xi + rng.uniform(0.1, 0.8, 300)
        keep = np.signbit(f(a, n, c)) != np.signbit(f(b, n, c))
        a, b, n, c = a[keep], b[keep], n[keep], c[keep]
        assert a.size > 250
        ref = [brentq(lambda t, k=k: f(np.array([t]), n[k], c[k])[0], a[k], b[k],
                      xtol=_ROOT_XTOL) for k in range(a.size)]
        got = _brentq_array(f, a, b, (n, c))
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in ref]

    @pytest.mark.parametrize("name", _SMOOTH)
    def test_given_end_values(self, name):
        # a scan that has f at the bracket ends passes them: the same bits, the
        # same calls but the two at the ends, and no call at an end
        f = _SMOOTH[name]
        rng = np.random.default_rng(40 + sorted(_SMOOTH).index(name))
        a, b = rng.uniform(-3.0, 1.0, 400), rng.uniform(1.0, 4.0, 400)
        keep = np.signbit(f(a)) != np.signbit(f(b))
        a, b = a[keep], b[keep]
        want, got = [], []
        ref = _brentq_array(lambda x: want.append(x.copy()) or f(x), a, b)
        out = _brentq_array(lambda x: got.append(x.copy()) or f(x), a, b, (), f(a), f(b))
        assert out.tobytes() == ref.tobytes()
        assert [x.tobytes() for x in want[:2]] == [a.tobytes(), b.tobytes()]
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want[2:]]
        assert not set(np.r_[a, b].tolist()) & set(np.concatenate(got).tolist())
        # an end at a zero of f is the root, with its value given as well
        f = lambda x: x - 1.0
        a, b = np.array([1.0, -2.0, 0.0]), np.array([3.0, 1.0, 2.0])
        assert _brentq_array(f, a, b, (), f(a), f(b)).tolist() == [1.0, 1.0, 1.0]

    def test_exact_zeros(self):
        f = lambda x: x - 1.0
        # endpoints at a zero, and a step that lands on the zero mid-iteration
        a, b = np.array([1.0, -2.0, 0.0, 0.0]), np.array([3.0, 1.0, 2.0, 1.5])
        got = _brentq_array(f, a, b)
        ref = [brentq(f, x, y, xtol=_ROOT_XTOL) for x, y in zip(a, b)]
        assert got.tolist() == ref == [1.0, 1.0, 1.0, 1.0]
        assert _brentq_array(f, np.array([]), np.array([])).size == 0

    def test_non_finite_value_raises(self):
        f = lambda x: np.where(np.abs(x - 1.0) < 0.4, np.nan, x - 1.0)
        with pytest.raises(ValueError):  # the first step lands on a NaN
            brentq(f, 0.0, 2.0, xtol=_ROOT_XTOL)
        with pytest.raises(SolverError, match="non-finite"):
            _brentq_array(f, np.array([0.0]), np.array([2.0]))
        with np.errstate(divide="ignore"), pytest.raises(SolverError, match="non-finite"):
            _brentq_array(lambda x: 1.0 / (x - 2.0), np.array([0.0]), np.array([2.0]))

    def test_no_convergence_raises(self):
        f = lambda x: (x - 1.3) * (x - 1.3) * (x - 1.3)
        with pytest.raises(RuntimeError, match="converge"):
            brentq(f, 0.0, 2.0, xtol=_ROOT_XTOL)
        with pytest.raises(SolverError, match="100 iterations"):
            _brentq_array(f, np.array([0.0]), np.array([2.0]))

    def test_same_sign_bracket_raises(self):
        with pytest.raises(SolverError, match="different signs"):
            _brentq_array(lambda x: x - 1.0, np.array([0.0, 2.0]), np.array([2.0, 3.0]))


class TestLegendreDensity:
    def test_y00_constant(self):
        for theta in (0.0, 0.4, 1.2, math.pi):
            assert assoc_legendre_density(0, 0, theta) == pytest.approx(
                1.0 / (4 * math.pi), rel=1e-14)

    def test_y10_at_pole(self):
        assert assoc_legendre_density(1, 0, 0.0) == pytest.approx(
            3.0 / (4 * math.pi), rel=1e-13)

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.5])
    @pytest.mark.parametrize("l", [1, 3, 10, 25, 40])
    def test_addition_theorem_sum_rule(self, l, theta):
        total = sum(assoc_legendre_density(l, m, theta) for m in range(-l, l + 1))
        assert total == pytest.approx((2 * l + 1) / (4 * math.pi), abs=1e-12)

    def test_against_scipy_harmonics(self):
        from scipy.special import sph_harm_y
        rng = np.random.default_rng(7)
        for _ in range(40):
            l = int(rng.integers(0, 30))
            m = int(rng.integers(-l, l + 1)) if l else 0
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            ref = abs(sph_harm_y(l, m, theta, 0.23)) ** 2
            assert assoc_legendre_density(l, m, theta) == pytest.approx(
                ref, rel=1e-11, abs=1e-15)
        # whole table rows, which the scalar density and the condensate both read
        for theta in (0.05, 0.77, 1.9, math.pi - 0.05):
            tab = legendre_density_table(40, math.cos(theta))
            for l in range(41):
                ref = np.abs(sph_harm_y(l, np.arange(l + 1), theta, 0.23)) ** 2
                assert tab[l, :l + 1] == pytest.approx(ref, rel=1e-11, abs=1e-15)
        # spinor-harmonic densities, including two_mj = -two_j where one
        # coefficient vanishes and |m| = l + 1
        from rotsphere import angular_density
        from rotsphere.modes import spinor_harmonic
        for two_j in (1, 3, 9, 25):
            kappa = (two_j + 1) // 2
            for theta in (0.3, 2.0):
                for two_mj in range(-two_j, two_j + 1, 2):
                    d = angular_density(two_j, two_mj, kappa, theta)
                    for sign, got in ((1, d.d_plus), (-1, d.d_minus)):
                        chi = spinor_harmonic(two_j, two_mj, sign, theta, 0.23)
                        assert got == pytest.approx(float(np.sum(np.abs(chi) ** 2)),
                                                    rel=1e-11, abs=1e-15)

    def test_invalid_degree_order(self):
        with pytest.raises(ValueError):
            assoc_legendre_density(1, 2, 0.5)
        with pytest.raises(ValueError):
            assoc_legendre_density(-1, 0, 0.5)

    def test_rejects_cos_theta_outside_unit_interval(self):
        for x in (math.nan, 2.0, -1.0000000000000002, math.inf, -math.inf):
            with pytest.raises(ValueError, match="cos_theta"):
                legendre_density_table(2, x)
        # every caller goes through the table: a NaN angle fails loudly
        k = QuantumNumbers(1, 3, 1, 2, 1)
        with pytest.raises(ValueError, match="cos_theta"):
            assoc_legendre_density(2, 1, math.nan)
        with pytest.raises(ValueError, match="cos_theta"):
            angular_density(3, 1, 2, math.nan)
        with pytest.raises(ValueError, match="cos_theta"):
            density_terms(k, 2.0, 1.0, 0.5, math.nan)
        for x in (-1.0, 1.0):
            assert np.all(np.isfinite(legendre_density_table(3, x)))

    def test_table_matches_scalar(self):
        theta = 0.77
        tab = legendre_density_table(12, math.cos(theta))
        for l in range(13):
            for m in range(l + 1):
                assert tab[l, m] == pytest.approx(
                    assoc_legendre_density(l, m, theta), rel=1e-12, abs=1e-300)
        assert tab[3, 5] == 0.0  # above-diagonal entries stay zero

    @given(st.floats(min_value=0.0, max_value=math.pi),
           st.integers(min_value=0, max_value=25))
    @settings(max_examples=60, deadline=None)
    def test_density_non_negative(self, theta, l):
        assert assoc_legendre_density(l, min(l, 2), theta) >= 0.0


class TestInputChecks:
    @pytest.mark.parametrize("call, error, name", [
        pytest.param(lambda: spherical_bessel_j(1.5, 0.5), UnsupportedOrderError, "order",
                     id="bessel-float-order"),
        pytest.param(lambda: bessel_zeros(np.float64(2.0), 3), UnsupportedOrderError, "order",
                     id="zeros-float-order"),
        pytest.param(lambda: assoc_legendre_density(1.5, 0, 0.3), ValueError, "(l, m)",
                     id="legendre-float-l"),
        pytest.param(lambda: assoc_legendre_density(2, 1.0, 0.3), ValueError, "(l, m)",
                     id="legendre-float-m"),
    ])
    def test_rejects_and_names_the_input(self, call, error, name):
        with pytest.raises(Exception) as got:
            call()
        assert got.type is error and name in str(got.value)
