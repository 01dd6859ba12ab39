"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

import rotsphere as rs
from oracles import (brute_force_condensate, brute_force_modes,
                     quadrature_mode_norm, quadrature_mode_overlap,
                     radial_quadrature)


def _report(num: int, description: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num}] {status} ({elapsed:.1f}s, budget {budget:.0f}s): "
          f"{description}")
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed < budget, (f"criterion {num} exceeded its runtime budget: "
                              f"{elapsed:.1f}s >= {budget:.0f}s")


def test_criterion_1_special_functions():
    t0 = time.time()
    ok = True
    # zeros of order 0 are exactly i*pi
    for i in range(1, 21):
        ok &= abs(rs.spherical_bessel_zero(0, i) - i * math.pi) <= 1e-12
    # first-zero bound and interlacing over the stated ranges
    tables = {n: rs.bessel_zeros(n, 101) for n in range(0, 51)}
    for n in range(0, 51):
        ok &= tables[n][0] > n + 1
    for n in range(0, 50):
        lo, hi = tables[n], tables[n + 1]
        ok &= bool(np.all(lo[:100] < hi[:100]) and np.all(hi[:100] < lo[1:101]))
    # recurrence residuals on a log-spaced grid, relative to the largest term
    # participating in each identity; points whose scale sits at the edge of
    # double-precision representability (< 1e-250) carry no relative meaning
    xs = np.geomspace(0.05, 2000.0, 60)
    for n in (1, 2, 5, 10, 20, 50, 100, 199):
        jn = rs.spherical_bessel_j(n, xs)
        jm = rs.spherical_bessel_j(n - 1, xs)
        jp = rs.spherical_bessel_j(n + 1, xs)
        jd = rs.spherical_bessel_j_prime(n, xs)
        scale1 = np.maximum.reduce([np.abs(jd), (n + 1) / xs * np.abs(jn),
                                    np.abs(jm)])
        scale2 = np.maximum.reduce([np.abs(jd), n / xs * np.abs(jn), np.abs(jp)])
        m1 = scale1 > 1e-250
        m2 = scale2 > 1e-250
        ok &= float(np.max(np.abs(jd + (n + 1) / xs * jn - jm)[m1]
                           / scale1[m1])) <= 1e-12
        ok &= float(np.max(np.abs(jd - n / xs * jn + jp)[m2]
                           / scale2[m2])) <= 1e-12
    _report(1, "Bessel zeros (i*pi, first-zero bound, interlacing) and "
               "recurrence residuals", ok, time.time() - t0, 5.0)


def test_criterion_2_radial_integrals():
    from scipy.special import spherical_jn
    t0 = time.time()
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(100):
        n = int(rng.integers(0, 21))
        R = float(rng.uniform(0.5, 2.0))
        pR = float(rng.uniform(0.2, 60.0))
        p = pR / R
        plus = radial_quadrature(
            lambda r: r * r * 0.5 * (spherical_jn(n, p * r) ** 2
                                     + spherical_jn(n + 1, p * r) ** 2), R, 400)
        minus = radial_quadrature(
            lambda r: r * r * 0.5 * (spherical_jn(n, p * r) ** 2
                                     - spherical_jn(n + 1, p * r) ** 2), R, 400)
        ok &= abs(rs.radial_integral_plus(n, p, R) - plus) <= 1e-10
        ok &= abs(rs.radial_integral_minus(n, p, R) - minus) <= 1e-10
    _report(2, "closed-form radial integrals vs 400-node quadrature "
               "(100 random samples)", ok, time.time() - t0, 10.0)


def _random_mode(rng, bc, M, R):
    two_j = int(rng.choice([1, 3, 5, 7, 9, 11]))
    two_mj = int(rng.choice(range(-two_j, two_j + 1, 2)))
    kappa = int(rng.choice([-1, 1])) * (two_j + 1) // 2
    i = int(rng.integers(1, 9))
    esign = int(rng.choice([-1, 1]))
    if bc.is_mit:
        p = float(rs.mit_momenta(two_j, kappa, esign, R, M, bc.varsigma, i)[i - 1])
        C = rs.mit_norm(two_j, kappa, i, R, M, esign, bc.varsigma, p)
    else:
        sign_mk = 1 if two_mj * kappa > 0 else -1
        p = rs.spectral_momentum(two_j, sign_mk, i, R)
        C = rs.spectral_norm(two_j, sign_mk, i, R)
    qn = rs.QuantumNumbers(esign, two_j, two_mj, kappa, i)
    E = esign * math.hypot(p, M)
    return rs.QuantizedMode(qn, p, E, E, C), M, R


def test_criterion_3_orthonormality():
    t0 = time.time()
    rng = np.random.default_rng(11)
    R = 1.0
    ok = True
    for bc in (rs.SPECTRAL, rs.mit(1)):
        for _ in range(25):
            M = float(rng.choice([0.0, 1.0, 3.0]))
            mode, M, R = _random_mode(rng, bc, M, R)
            norm = quadrature_mode_norm(mode, M, R)
            ok &= abs(norm - 1.0) <= 1e-8
        # same-(j, m_j, kappa) pairs with different radial index
        for M in (0.0, 1.0, 3.0):
            group = []
            for i in (1, 2, 3, 4):
                if bc.is_mit:
                    p = float(rs.mit_momenta(5, 3, 1, R, M, bc.varsigma, i)[i - 1])
                    C = rs.mit_norm(5, 3, i, R, M, 1, bc.varsigma, p)
                else:
                    p = rs.spectral_momentum(5, 1, i, R)
                    C = rs.spectral_norm(5, 1, i, R)
                qn = rs.QuantumNumbers(1, 5, 3, 3, i)
                group.append(rs.QuantizedMode(qn, p, math.hypot(p, M), 0.0, C))
            for a in group:
                for b in group:
                    if a.qn.i < b.qn.i:
                        ok &= abs(quadrature_mode_overlap(a, b, M, R)) <= 1e-8
    _report(3, "50 random modes: quadrature norm within 1e-8 and same-channel "
               "overlaps below 1e-8", ok, time.time() - t0, 30.0)


def test_criterion_4_boundary_residuals():
    t0 = time.time()
    ok = True
    R = 1.0
    for M in (0.0, 1.0):
        params = rs.PhysicalParams(M=M, R=R, Omega=0.5, beta=1.0)
        spem = rs.enumerate_spectrum(rs.SPECTRAL, params, 4.5, 4)
        worst = rs.verify_boundary_residuals(rs.SPECTRAL, spem, R, M).max_component
        ok &= worst <= 1e-10
        for vs in (1, -1):
            mits = rs.enumerate_spectrum(rs.mit(vs), params, 4.5, 4)
            rep = rs.verify_boundary_residuals(rs.mit(vs), mits, R, M)
            ok &= rep.max_condition <= 1e-9 and rep.max_density <= 1e-9
    _report(4, "wall residuals: spectral components <= 1e-10, MIT relation and "
               "scalar density <= 1e-9 for both chirality signs",
            ok, time.time() - t0, 30.0)


def test_criterion_5_vacuum_equivalence():
    t0 = time.time()
    ok = True
    R = 1.0
    worst_min = math.inf
    for omega_r in (0.0, 0.5, 0.9, 0.99):
        for M in (0.0, 1.0, 5.0):
            params = rs.PhysicalParams(M=M, R=R, Omega=omega_r / R, beta=1.0)
            for bc in (rs.SPECTRAL, rs.mit(1)):
                spectrum = rs.enumerate_spectrum(bc, params, 12.5, 20)
                rep = rs.verify_vacuum_equivalence(spectrum, params.Omega, R)
                ok &= rep.ok
                worst_min = min(worst_min, rep.min_abs_corotating)
    ok &= worst_min > 0.0
    _report(5, "no E*E_tilde <= 0 modes for Omega*R in {0, .5, .9, .99}, "
               "M in {0, 1, 5}, both boundaries, j <= 25/2, i <= 20",
            ok, time.time() - t0, 60.0)


def test_criterion_6_condensate_oracle():
    t0 = time.time()
    rng = np.random.default_rng(77)
    ok = True
    cases = []
    for set_idx in range(4):
        bc = rs.mit(int(rng.choice([-1, 1]))) if set_idx % 2 else rs.SPECTRAL
        params = rs.PhysicalParams(
            M=float(rng.uniform(0.3, 2.0)), R=1.0,
            Omega=float(rng.uniform(0.0, 0.8)),
            beta=float(rng.uniform(0.5, 2.0)),
            mu=float(rng.uniform(-0.5, 0.5)))
        n_pts = 3 if set_idx < 2 else 2
        pts = [(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.3, math.pi - 0.3)))
               for _ in range(n_pts)]
        cases.append((bc, params, pts))
    for bc, params, pts in cases:
        modes = brute_force_modes(bc, params, 5.5, 10)
        for r, theta in pts:
            ref = brute_force_condensate(bc, params, r, theta, 5.5, 10, modes=modes)
            got = rs.condensate_point(bc, params, r, theta, 5.5, 10)
            ok &= abs(got - ref) <= 1e-8 * max(abs(got), abs(ref))
    _report(6, "simplified sums equal the brute-force oracle (sign-scan roots, "
               "quadrature norms, explicit m_j loop) at 10 random points",
            ok, time.time() - t0, 120.0)


def test_criterion_7_exact_zeros():
    t0 = time.time()
    ok = True
    # spectral, massless, nonrotating: identically zero
    params = rs.PhysicalParams(M=0.0, R=1.0, Omega=0.0, beta=1.0)
    grid = rs.condensate_grid(rs.SPECTRAL, params, np.linspace(0, 1, 8),
                              np.linspace(0.1, 3.0, 5), 10.5, 20)
    ok &= float(np.max(np.abs(grid.values))) == 0.0
    # MIT: wall values vanish across a 20 x 10 grid
    params = rs.PhysicalParams(M=1.0, R=1.0, Omega=0.6, beta=1.0)
    grid = rs.condensate_grid(rs.mit(1), params, np.linspace(0.05, 1.0, 20),
                              np.linspace(0.1, math.pi - 0.1, 10), 10.5, 20)
    ok &= float(np.max(np.abs(grid.values[-1, :]))) <= 1e-9
    # nonrotating values are independent of theta
    params = rs.PhysicalParams(M=1.0, R=1.0, Omega=0.0, beta=1.0)
    grid = rs.condensate_grid(rs.SPECTRAL, params, np.linspace(0, 1, 6),
                              np.linspace(0.2, 2.9, 7), 10.5, 20)
    spread = float(np.max(grid.values.max(axis=1) - grid.values.min(axis=1)))
    ok &= spread <= 1e-10
    _report(7, "exact zeros: massless nonrotating spectral sum, MIT wall "
               "column, nonrotating theta-independence",
            ok, time.time() - t0, 120.0)


def test_criterion_8_figure_properties():
    t0 = time.time()
    ok = True
    JM, IM = 20.5, 60
    half_pi = math.pi / 2
    for bc in (rs.SPECTRAL, rs.mit(1)):
        # rotation increases the condensate at large radius
        v_rot = [rs.condensate_point(
            bc, rs.PhysicalParams(M=1.0, R=1.0, Omega=om, beta=2.0), 0.9,
            half_pi, JM, IM) for om in (0.0, 0.4, 0.8)]
        ok &= v_rot[0] < v_rot[1] < v_rot[2]
        # the subtracted condensate grows in magnitude as temperature rises
        v_temp = [rs.condensate_point(
            bc, rs.PhysicalParams(M=1.0, R=1.0, Omega=0.5, beta=be), 0.5,
            half_pi, JM, IM) for be in (2.0, 1.0, 0.5)]
        ok &= abs(v_temp[0]) < abs(v_temp[1]) < abs(v_temp[2])
        # rotation effect is stronger near the equatorial plane
        p_rot = rs.PhysicalParams(M=1.0, R=1.0, Omega=0.8, beta=2.0)
        p_sta = rs.PhysicalParams(M=1.0, R=1.0, Omega=0.0, beta=2.0)
        effects = [
            rs.condensate_point(bc, p_rot, 0.9, th, JM, IM)
            - rs.condensate_point(bc, p_sta, 0.9, th, JM, IM)
            for th in (math.pi / 8, half_pi)
        ]
        ok &= abs(effects[0]) < abs(effects[1])
    # the spectral condensate takes both signs at high temperature and rotation
    params = rs.PhysicalParams(M=1.0, R=1.0, Omega=0.8, beta=0.5)
    grid = rs.condensate_grid(rs.SPECTRAL, params, np.linspace(0.0, 0.99, 34),
                              np.linspace(0.15, math.pi - 0.15, 9), JM, IM)
    ok &= grid.values.min() < 0.0 < grid.values.max()
    _report(8, "figure-level properties at j_max=41/2, i_max=60: rotation and "
               "temperature monotonicity, theta sensitivity, spectral sign change",
            ok, time.time() - t0, 300.0)
