"""Thermal expectation value of the vacuum-subtracted fermion condensate.

The condensate at a point is a mode sum
    -sum_k |C_k|^2 w(E_tilde_k) (A_k + B_k)
restricted by the step function in w to positive Minkowski energy.  The
m_j -> -m_j symmetries of each boundary condition fold the sum over
m_j >= 1/2 with paired weights w(E_tilde) -+ w(E_bar), E_bar = E + Omega m_j.
Vacuum subtraction replaces w by w' = w - theta(E), removing the
temperature-independent divergent part; w' is the default.

One kernel evaluates points and grids, computing each factor on the axis
it depends on: the paired weights, |C|^2 and M/(2E) once per (j, kappa)
shell; the Bessel squares once per shell for all r in one call; the
Legendre table and spinor densities once per theta.  The terms of a few
points at a time are then formed elementwise into one buffer, a row per
point in the canonical order (ascending j, then kappa, i, m_j), and each row
is reduced by a certified exact sum that is bit-identical to math.fsum.
Every term is the same IEEE expression of the same operands wherever it is
computed, and the sum is correctly rounded, so the result does not depend on
how the terms are batched: points and grids give bit-identical values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .boundary import BoundaryKind, FasterThanLightError, shell_table, two_j_from
from .modes import density_split, spinor_densities
from .specfun import legendre_density_table, spherical_jn


@dataclass(frozen=True)
class PhysicalParams:
    """Physical inputs in natural units: mass M, radius R, angular velocity
    Omega, inverse temperature beta, chemical potential mu."""

    M: float
    R: float
    Omega: float
    beta: float
    mu: float = 0.0

    def __post_init__(self):  # every ValueError message must start with the field name
        for name in ("M", "R", "Omega", "beta", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.M < 0:
            raise ValueError(f"M must be >= 0, got {self.M}")
        if self.R <= 0:
            raise ValueError(f"R must be > 0, got {self.R}")
        if self.Omega < 0:
            raise ValueError(f"Omega must be >= 0, got {self.Omega}")
        if self.Omega * self.R >= 1.0:
            raise FasterThanLightError(
                f"Omega*R = {self.Omega * self.R} >= 1: boundary at or beyond "
                "the speed of light")
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")


def thermal_weight(E_tilde, esign: int, beta: float, mu: float):
    """Occupation-difference weight w = theta(E)/2 [tanh(b(Et-mu)/2) + tanh(b(Et+mu)/2)].

    Zero for negative Minkowski energy; odd in E_tilde at mu = 0.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    if esign not in (-1, 1):
        raise ValueError("esign must be +-1")
    et = np.asarray(E_tilde, dtype=float)
    if esign < 0:
        out = np.zeros_like(et)
    else:
        out = 0.5 * (np.tanh(0.5 * beta * (et - mu)) + np.tanh(0.5 * beta * (et + mu)))
    return float(out) if out.ndim == 0 else out


def thermal_weight_subtracted(E_tilde, esign: int, beta: float, mu: float):
    """Vacuum-subtracted weight w' = -theta(E) [f(E_tilde - mu) + f(E_tilde + mu)]
    with the Fermi factor f(x) = 1/(1 + e^(beta x)); identically w - theta(E)."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    if esign not in (-1, 1):
        raise ValueError("esign must be +-1")
    et = np.asarray(E_tilde, dtype=float)
    if esign < 0:
        out = np.zeros_like(et)
    else:
        out = -(expit(-beta * (et - mu)) + expit(-beta * (et + mu)))
    return float(out) if out.ndim == 0 else out


# points whose terms the kernel fills and reduces together: an (r, term)
# matrix of a whole curve costs memory, and the 4 MiB tracemalloc test of a
# 41-point curve sets this
_BLOCK_ROWS = 2


def _exact_row_sums(buf: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a 2-d float array, bit for bit.

    A pairwise TwoSum tree over contiguous halves turns each row of n terms
    into s plus n - 1 errors e, with the same exact sum (Ogita, Rump and
    Oishi, SIAM J. Sci. Comput. 26, 2005).  Any summation order computes
    E = fl(sum e) to within gamma_{n-2} sum|e|, which 2(n+2) 2^-53 fl(sum|e|)
    bounds, rounding of the bound included.  With r = fl(s + E) and t its
    TwoSum residual, the exact sum lies within |t| + bound of r.  If that is
    below half the smaller gap from r to its neighbouring doubles, r is the
    correctly rounded sum, which is what math.fsum returns (Shewchuk 1997).
    The test compares doubles, all multiples of 2^-1074, so a bound that
    underflows cannot pass it wrongly.

    Rows that fail the test are passed to math.fsum itself, which keeps its
    signed zeros, inf/nan results and OverflowError.  A zero or subnormal r
    always fails, as its half gap rounds to 0, and so does an inf or nan r,
    whose gap is nan.
    """
    rows, n = buf.shape
    x = buf
    e_sum = np.zeros(rows)
    e_abs = np.zeros(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        while x.shape[1] > 1:
            h = x.shape[1] // 2
            a, b = x[:, :h], x[:, h:2 * h]
            s = np.empty((rows, x.shape[1] - h))
            s[:, h:] = x[:, 2 * h:]  # an odd last term moves up a level
            sh = s[:, :h]
            np.add(a, b, out=sh)
            bv = sh - a
            err = sh - bv
            np.subtract(a, err, out=err)
            np.subtract(b, bv, out=bv)
            err += bv
            e_sum += err.sum(axis=1)
            e_abs += np.abs(err, out=err).sum(axis=1)
            x = s
        s = x[:, 0]
        r = s + e_sum
        bv = r - s
        t = (s - (r - bv)) + (e_sum - bv)
        bound = np.abs(t) + (2.0 * (n + 2) * 2.0**-53) * e_abs
        gap = np.minimum(r - np.nextafter(r, -np.inf), np.nextafter(r, np.inf) - r)
        certified = bound < 0.5 * gap
    for i in np.flatnonzero(~certified):
        r[i] = math.fsum(buf[i])
    return r


def _grid_values(bc: BoundaryKind, params: PhysicalParams, r_vals: list[float],
                 th_vals: list[float], two_j_max: int, i_max: int,
                 subtracted: bool) -> tuple[np.ndarray, float]:
    """Condensate over r_vals x th_vals and the largest |last j-shell
    contribution| over the points.  The m_j sums run over m_j > 0 only, with
    the paired weights of the module docstring, so every shell has esign = +1.
    """
    M, Omega, beta, mu = params.M, params.Omega, params.beta, params.mu
    weight = thermal_weight_subtracted if subtracted else thermal_weight
    r_col = np.array(r_vals)[:, None]

    # per (j, kappa) shell in canonical order: its weights, C^2 and M/(2E) on
    # the (i, m_j) block, and its Bessel squares for every r at once
    shells = []
    size = tail_start = 0
    for two_j in range(1, two_j_max + 1, 2):
        m_vals = np.arange(1, two_j + 1, 2) / 2.0
        k0 = (two_j + 1) // 2
        tail_start = size
        for kappa in (-k0, k0):
            p, E, C = shell_table(bc, two_j, kappa, 1, M, params.R, i_max)
            jm2, jp2 = (spherical_jn(n, r_col * p)[:, :, None] ** 2 for n in (k0 - 1, k0))
            w_t = weight(E[:, None] - Omega * m_vals[None, :], 1, beta, mu)
            w_b = weight(E[:, None] + Omega * m_vals[None, :], 1, beta, mu)
            C2 = (C * C)[:, None]
            # an MIT term is (C2 (w_t + w_b)) (A + B), so its first product is hoisted
            w = (C2 * (w_t + w_b),) if bc.is_mit else (w_t - w_b, w_t + w_b)
            shells.append((two_j, kappa, jm2, jp2, C2, (M / (2.0 * E))[:, None], w,
                           slice(size, size + w_t.size)))
            size += w_t.size

    values = np.empty((len(r_vals), len(th_vals)))
    tail = 0.0
    buf = np.empty((min(_BLOCK_ROWS, len(r_vals)), size))
    for it, theta in enumerate(th_vals):
        tab = legendre_density_table((two_j_max + 1) // 2, math.cos(theta))
        dens = {two_j: spinor_densities(two_j, np.arange(1, two_j + 1, 2), tab)
                for two_j in range(1, two_j_max + 1, 2)}
        for r0 in range(0, len(r_vals), _BLOCK_ROWS):
            rows = slice(r0, r0 + _BLOCK_ROWS)
            terms = buf[:len(r_vals[rows])]
            for two_j, kappa, jm2, jp2, C2, mass_ratio, w, block in shells:
                A, B = density_split(kappa, *dens[two_j], jm2[rows], jp2[rows], mass_ratio)
                out = terms[:, block].reshape(A.shape)  # point, then i, then m_j
                if bc.is_mit:
                    np.multiply(w[0], A + B, out=out)
                else:
                    np.multiply(C2, w[0] * A + w[1] * B, out=out)
            values[rows, it] = -_exact_row_sums(terms)
            tail = max(tail, float(np.abs(_exact_row_sums(terms[:, tail_start:])).max()))
    return values, tail


def _check_point_args(params: PhysicalParams, r: float, theta: float,
                      j_max: float) -> int:
    if params.Omega * params.R >= 1.0:
        raise FasterThanLightError(
            f"Omega*R = {params.Omega * params.R} >= 1")
    if not 0.0 <= r <= params.R:
        raise ValueError(f"r = {r} outside [0, R]")
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta = {theta} outside [0, pi]")
    two_j_max = two_j_from(j_max)
    if two_j_max < 3:
        raise ValueError("truncation below j_max = 3/2 is meaningless")
    return two_j_max


def condensate_point(bc: BoundaryKind, params: PhysicalParams, r: float,
                     theta: float, j_max: float, i_max: int,
                     subtracted: bool = True) -> float:
    """Vacuum-subtracted condensate at (r, theta), truncated at (j_max, i_max).

    Pass subtracted=False for the raw (divergent-sum) weight, which is only
    meaningful for truncation studies.
    """
    two_j_max = _check_point_args(params, r, theta, j_max)
    values, _ = _grid_values(bc, params, [r], [theta], two_j_max, i_max, subtracted)
    return float(values[0, 0])


def condensate_nonrotating(bc: BoundaryKind, params: PhysicalParams, r: float,
                           j_max: float, i_max: int,
                           subtracted: bool = True) -> float:
    """Closed-form angular sum for Omega = 0; depends on r only.

    The spinor-harmonic sum rule collapses each (j, kappa, i) shell to
    (2j+1)/(4 pi) times pure radial Bessel factors; for the spectral
    condition only the mass term survives.
    """
    if params.Omega != 0.0:
        raise ValueError("condensate_nonrotating requires Omega = 0")
    two_j_max = _check_point_args(params, r, math.pi / 2, j_max)
    M, R = params.M, params.R
    weight = thermal_weight_subtracted if subtracted else thermal_weight

    terms: list[np.ndarray] = []
    for two_j in range(1, two_j_max + 1, 2):
        shell_coeff = (two_j + 1) / (4.0 * math.pi)
        k0 = (two_j + 1) // 2
        for kappa in (-k0, k0):
            p, E, C = shell_table(bc, two_j, kappa, 1, M, R, i_max)
            C2 = C * C
            jm2 = spherical_jn(k0 - 1, p * r) ** 2
            jp2 = spherical_jn(k0, p * r) ** 2
            w = weight(E, 1, params.beta, params.mu)
            frak_b = (M / (2.0 * E)) * shell_coeff * (jm2 + jp2)
            if bc.is_mit:
                sgn_k = 1.0 if kappa > 0 else -1.0
                frak_a = sgn_k * shell_coeff * 0.5 * (jm2 - jp2)
                terms.append(C2 * w * (frak_a + frak_b))
            else:
                terms.append(C2 * w * frak_b)
    return -float(_exact_row_sums(np.concatenate(terms)[None, :])[0])


@dataclass
class CondensateGrid:
    """Condensate samples over an (r, theta) grid with truncation metadata."""

    r_values: np.ndarray
    theta_values: np.ndarray
    values: np.ndarray  # shape (len(r_values), len(theta_values))
    two_j_max: int
    i_max: int
    tail_estimate: float
    boundary: BoundaryKind
    params: PhysicalParams
    subtracted: bool = True

    def __post_init__(self):
        if self.values.shape != (len(self.r_values), len(self.theta_values)):
            raise ValueError("values shape inconsistent with grid axes")
        if self.tail_estimate < 0:
            raise ValueError("tail_estimate must be >= 0")

    @property
    def j_max(self) -> float:
        return self.two_j_max / 2.0


def condensate_grid(bc: BoundaryKind, params: PhysicalParams, r_grid, theta_grid,
                    j_max: float, i_max: int, subtracted: bool = True) -> CondensateGrid:
    """Evaluate the condensate over the product grid r_grid x theta_grid.

    tail_estimate is the largest magnitude over grid points of the highest
    retained j-shell's total contribution, a truncation-error proxy.
    """
    r_vals = np.asarray(r_grid, dtype=float)
    th_vals = np.asarray(theta_grid, dtype=float)
    if r_vals.ndim != 1 or th_vals.ndim != 1 or not len(r_vals) or not len(th_vals):
        raise ValueError("grids must be non-empty 1-d sequences")
    # written so that NaN entries fail too
    if not np.all((r_vals >= 0) & (r_vals <= params.R)):
        raise ValueError("r grid entries must lie in [0, R]")
    if not np.all((th_vals >= 0) & (th_vals <= math.pi)):
        raise ValueError("theta grid entries must lie in [0, pi]")
    two_j_max = _check_point_args(params, float(r_vals[0]), float(th_vals[0]), j_max)

    values, tail = _grid_values(bc, params, r_vals.tolist(), th_vals.tolist(),
                                two_j_max, i_max, subtracted)
    return CondensateGrid(r_vals, th_vals, values, two_j_max, i_max, tail,
                          bc, params, subtracted)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _grid_meta(grid: CondensateGrid) -> dict:
    return {
        "boundary": grid.boundary.kind,
        "varsigma": grid.boundary.varsigma,
        "M": grid.params.M,
        "R": grid.params.R,
        "Omega": grid.params.Omega,
        "beta": grid.params.beta,
        "mu": grid.params.mu,
        "j_max": f"{grid.two_j_max}/2",
        "i_max": grid.i_max,
        "subtracted": grid.subtracted,
        "tail_estimate": grid.tail_estimate,
    }


def grid_to_csv(grid: CondensateGrid) -> str:
    lines = [f"# {key}={value}" for key, value in _grid_meta(grid).items()]
    lines.append("r,theta,value")
    for ir, r in enumerate(grid.r_values):
        for it, th in enumerate(grid.theta_values):
            lines.append(f"{float(r)!r},{float(th)!r},{float(grid.values[ir, it])!r}")
    return "\n".join(lines) + "\n"


def grid_to_json(grid: CondensateGrid) -> str:
    doc = _grid_meta(grid)
    doc["rows"] = [
        {"r": float(r), "theta": float(th), "value": float(grid.values[ir, it])}
        for ir, r in enumerate(grid.r_values)
        for it, th in enumerate(grid.theta_values)
    ]
    return json.dumps(doc, indent=1) + "\n"
