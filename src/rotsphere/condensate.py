"""Thermal expectation value of the vacuum-subtracted fermion condensate.

The condensate at a point is a mode sum
    -sum_k |C_k|^2 w(E_tilde_k) (A_k + B_k)
restricted by the step function in w to positive Minkowski energy.  The
m_j -> -m_j symmetries of each boundary condition fold the sum over
m_j >= 1/2 with paired weights w(E_tilde) -+ w(E_bar), E_bar = E + Omega m_j.
Vacuum subtraction replaces w by w' = w - theta(E), removing the
temperature-independent divergent part; w' is the default.

Accumulation is exact (math.fsum) over terms generated in the canonical
order (ascending j, then kappa, i, m_j), so identical configurations
reproduce bit-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, spherical_jn

from .boundary import BoundaryKind, FasterThanLightError, shell_table, two_j_from
from .modes import density_split, spinor_densities
from .specfun import legendre_density_table


@dataclass(frozen=True)
class PhysicalParams:
    """Physical inputs in natural units: mass M, radius R, angular velocity
    Omega, inverse temperature beta, chemical potential mu."""

    M: float
    R: float
    Omega: float
    beta: float
    mu: float = 0.0

    def __post_init__(self):
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


def _point_value(bc: BoundaryKind, params: PhysicalParams, r: float, theta: float,
                 two_j_max: int, i_max: int, subtracted: bool) -> tuple[float, float]:
    """Condensate at one point; returns (value, |last j-shell contribution|).

    The m_j sums run over m_j > 0 only, with the paired weights of the
    module docstring, so every shell table read has esign = +1.
    """
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
    value, _ = _point_value(bc, params, r, theta, two_j_max, i_max, subtracted)
    return value


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

    terms: list[float] = []
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
                terms.extend((C2 * w * (frak_a + frak_b)).tolist())
            else:
                terms.extend((C2 * w * frak_b).tolist())
    return -math.fsum(terms)


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

    values = np.empty((len(r_vals), len(th_vals)))
    tail = 0.0
    for ir, r in enumerate(r_vals.tolist()):
        for it, theta in enumerate(th_vals.tolist()):
            values[ir, it], shell_tail = _point_value(bc, params, r, theta, two_j_max,
                                                      i_max, subtracted)
            tail = max(tail, shell_tail)
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
