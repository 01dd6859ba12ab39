"""Thermal expectation value of the vacuum-subtracted fermion condensate.

The condensate at a point is a mode sum
    -sum_k |C_k|^2 w(E_tilde_k) (A_k + B_k)
restricted by the step function in w to positive Minkowski energy.  The
m_j -> -m_j symmetries of each boundary condition fold the sum over
m_j >= 1/2 with paired weights w(E_tilde) -+ w(E_bar), E_bar = E + Omega m_j.
Vacuum subtraction replaces w by w' = w - theta(E), removing the
temperature-independent divergent part; w' is the default.

One kernel evaluates points and grids.  It runs over j, outermost, for all
points at once, with the two kappa shells of a j stacked along the radial
index: the paired weights, |C|^2, M/(2E) and the Bessel squares are formed
once per j, and a spectral j reuses the order-k0 squares of the shell before
it, whose momenta its -k0 shell shares.  The Legendre table is formed once
per theta.  The terms, a row per point in the canonical order (ascending j,
then kappa, i, m_j), are written j block by j block into a buffer of about
2^16 terms, which is reduced by one TwoSum tree per theta when full; a j
block too large for it, and the last j, whose sum is the tail estimate, are
reduced alone.  The partials are combined and certified once per point to
be the correctly rounded sum, math.fsum's bits, however the rows were cut.
Every term is the same IEEE expression of the same operands wherever it is
computed, so points and grids give bit-identical values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .boundary import BoundaryKind, _check_light_cylinder, shell_rows, two_j_from
from .modes import corotating_energy, density_split, spinor_densities
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
        _check_light_cylinder(self)
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")


def _weight_input(E_tilde, esign: int, beta: float) -> np.ndarray:
    if not beta > 0:
        raise ValueError("beta must be positive")
    if esign not in (-1, 1):
        raise ValueError("esign must be +-1")
    return np.asarray(E_tilde, dtype=float)


def thermal_weight(E_tilde, esign: int, beta: float, mu: float):
    """Occupation-difference weight w = theta(E)/2 [tanh(b(Et-mu)/2) + tanh(b(Et+mu)/2)].

    Zero for negative Minkowski energy; odd in E_tilde at mu = 0.
    """
    et = _weight_input(E_tilde, esign, beta)
    out = (np.zeros_like(et) if esign < 0
           else 0.5 * (np.tanh(0.5 * beta * (et - mu)) + np.tanh(0.5 * beta * (et + mu))))
    return float(out) if out.ndim == 0 else out


def thermal_weight_subtracted(E_tilde, esign: int, beta: float, mu: float):
    """Vacuum-subtracted weight w' = -theta(E) [f(E_tilde - mu) + f(E_tilde + mu)]
    with the Fermi factor f(x) = 1/(1 + e^(beta x)); identically w - theta(E)."""
    et = _weight_input(E_tilde, esign, beta)
    out = (np.zeros_like(et) if esign < 0
           else -(expit(-beta * (et - mu)) + expit(-beta * (et + mu))))
    return float(out) if out.ndim == 0 else out


# terms (points x terms) in one kernel buffer, reduced by one TwoSum tree per
# theta: large enough that a few-point grid pays for arithmetic, not for the
# numpy calls of a tree per j, and small (512 KB) against the j blocks
_BUFFER_TERMS = 2**16


def _tree_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise TwoSum tree over contiguous halves of each row: (s, e_sum,
    e_abs), where s plus the rounding errors e is the exact sum, e_sum =
    fl(sum e) and e_abs = fl(sum |e|), or inf where n max|x| >= 2^1000, as
    math.fsum, adding in another order, could then overflow and raise."""
    rows, n = x.shape
    e_sum, e_abs = np.zeros(rows), np.zeros(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        e_abs[~(n * np.maximum(x.max(axis=1), -x.min(axis=1)) < 2.0**1000)] = np.inf
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
    return x[:, 0], e_sum, e_abs


def _certified_sums(trees: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums r of rows of n terms cut into contiguous chunks, from each chunk's
    _tree_sums in order, and whether r is provably the correctly rounded sum,
    which is what math.fsum returns (Shewchuk 1997).

    The partials are reduced by the same tree and all errors added: at most
    n - 1 errors e however the rows are cut.  Any summation order computes
    E = fl(sum e) to within gamma_{n-2} sum|e|, which 2(n+2) 2^-53 fl(sum|e|)
    bounds, rounding included (Ogita, Rump and Oishi, SIAM J. Sci. Comput.
    26, 2005).  With t the TwoSum residual of r = fl(s + E), the exact sum is
    within |t| + bound of r, which is certified if that is below half the
    smaller gap from r to its neighbouring doubles.  Doubles are multiples of
    2^-1074, so an underflowing bound cannot pass wrongly.  A zero, subnormal,
    inf or nan r always fails: its half gap rounds to 0 or is nan.
    """
    s, e_sum, e_abs = _tree_sums(np.stack([tree[0] for tree in trees], axis=1))
    for _, es, ea in trees:
        e_sum += es
        e_abs += ea
    with np.errstate(over="ignore", invalid="ignore"):
        r = s + e_sum
        bv = r - s
        t = (s - (r - bv)) + (e_sum - bv)
        bound = np.abs(t) + (2.0 * (n + 2) * 2.0**-53) * e_abs
        gap = np.minimum(r - np.nextafter(r, -np.inf), np.nextafter(r, np.inf) - r)
        return r, bound < 0.5 * gap


def _exact_row_sums(buf: np.ndarray, tree: tuple | None = None) -> np.ndarray:
    """math.fsum of each row of a 2-d float array, bit for bit, from its
    _tree_sums if given: rows that fail the certificate go to math.fsum
    itself, which keeps its signed zeros, inf/nan results and OverflowError."""
    r, certified = _certified_sums([tree or _tree_sums(buf)], buf.shape[1])
    for i in np.flatnonzero(~certified):
        r[i] = math.fsum(buf[i])
    return r


def _j_blocks(bc: BoundaryKind, params: PhysicalParams, r_vals: list[float],
              tabs: list[np.ndarray], two_j_max: int, i_max: int, weight):
    """Yield (two_j, it, terms) per buffer, then per Legendre table tabs[it]:
    the terms of the j blocks up to two_j, a row per r in the order (j, kappa,
    i, m_j).  Consecutive j blocks fill a buffer of at most _BUFFER_TERMS
    terms over all points, each block written into its slice.  A j that
    shares no buffer, the last j always, is yielded alone, formed in place."""
    M, Omega, beta, mu = params.M, params.Omega, params.beta, params.mu
    r_col = np.array(r_vals)[:, None]
    points, end_j = len(r_vals) * len(tabs), 0
    last = (None, None)  # the previous +k0 shell's momenta and order-k0 squares
    rows = shell_rows(bc, 1, M, params.R, i_max, two_j_max)
    for two_j, (p, E, C) in zip(range(1, two_j_max + 1, 2), rows):
        if two_j > end_j:  # a new buffer: the j that fit, never the last j
            end_j, width = two_j, i_max * (two_j + 1)
            while (end_j + 2 < two_j_max
                   and points * (width + i_max * (end_j + 3)) <= _BUFFER_TERMS):
                end_j += 2
                width += i_max * (end_j + 1)
            buf = np.empty((len(tabs), len(r_vals), width)) if end_j > two_j else None
            start = 0
        two_m = np.arange(1, two_j + 1, 2)
        k0 = (two_j + 1) // 2
        x = r_col * p
        jp2 = spherical_jn(k0, x) ** 2
        # spectral shells (j - 1, k0 - 1) and (j, -k0) share momenta, so the
        # order k0 - 1 squares of this -k0 shell are the last order-k0 squares
        jm2 = (np.concatenate([last[1], spherical_jn(k0 - 1, x[:, i_max:]) ** 2], axis=1)
               if np.array_equal(last[0], p[:i_max]) else spherical_jn(k0 - 1, x) ** 2)
        last = (p[i_max:], jp2[:, i_max:])
        w_t, w_b = (weight(corotating_energy(E[:, None], m_j, Omega), 1, beta, mu)
                    for m_j in (two_m / 2.0, -two_m / 2.0))
        kappa, C2 = np.repeat((-k0, k0), i_max)[:, None], (C * C)[:, None]
        stop = start + i_max * (two_j + 1)
        for it, tab in enumerate(tabs):
            A, B = density_split(kappa, *spinor_densities(two_j, two_m, tab),
                                 jm2[:, :, None], jp2[:, :, None], (M / (2.0 * E))[:, None])
            # MIT: (C2 (w_t + w_b)) (A + B); spectral: C2 ((w_t - w_b) A + (w_t + w_b) B)
            if not bc.is_mit:
                A *= w_t - w_b
                B *= w_t + w_b
            A += B
            del B  # free before the caller reduces A
            out = A if buf is None else buf[it, :, start:stop].reshape(A.shape)
            np.multiply(A, C2 * (w_t + w_b) if bc.is_mit else C2, out=out)
            if buf is None:
                yield two_j, it, A.reshape(len(r_vals), -1)
        start = stop
        if buf is not None and two_j == end_j:
            yield from ((two_j, it, terms) for it, terms in enumerate(buf))


def _grid_values(bc: BoundaryKind, params: PhysicalParams, r_vals: list[float],
                 th_vals: list[float], two_j_max: int, i_max: int,
                 subtracted: bool) -> tuple[np.ndarray, float]:
    """Condensate over r_vals x th_vals and the largest |last j-shell
    contribution| over the points.  Each buffer _j_blocks yields is reduced
    once per theta.  A point whose sum is not certified has its terms formed
    again alone, by the same block code, for math.fsum."""
    weight = thermal_weight_subtracted if subtracted else thermal_weight
    tabs = [legendre_density_table((two_j_max + 1) // 2, math.cos(th)) for th in th_vals]
    trees: list[list] = [[] for _ in th_vals]
    n, tail = 0, 0.0
    for two_j, it, terms in _j_blocks(bc, params, r_vals, tabs, two_j_max, i_max, weight):
        trees[it].append(_tree_sums(terms))
        n += terms.shape[1] * (it == 0)  # terms per point
        if two_j == two_j_max:
            tail = max(tail, float(np.abs(_exact_row_sums(terms, trees[it][-1])).max()))
    values = np.empty((len(r_vals), len(th_vals)))
    for it, (total, certified) in enumerate(_certified_sums(tree, n) for tree in trees):
        for ir in np.flatnonzero(~certified):
            point = _j_blocks(bc, params, [r_vals[ir]], [tabs[it]], two_j_max, i_max, weight)
            total[ir] = math.fsum(np.concatenate([t[0] for *_, t in point]))
        values[:, it] = -total
    return values, tail


def _two_j_max(j_max: float) -> int:
    two_j_max = two_j_from(j_max)
    if two_j_max < 3:
        raise ValueError("truncation below j_max = 3/2 is meaningless")
    return two_j_max


def condensate_point(bc: BoundaryKind, params: PhysicalParams, r: float,
                     theta: float, j_max: float, i_max: int,
                     subtracted: bool = True) -> float:
    """Vacuum-subtracted condensate at (r, theta), truncated at (j_max, i_max).

    A one-point condensate_grid.  Pass subtracted=False for the raw
    (divergent-sum) weight, which is only meaningful for truncation studies.
    """
    return condensate_grid(bc, params, [r], [theta], j_max, i_max, subtracted).values.item()


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
    if not 0.0 <= r <= params.R:
        raise ValueError(f"r = {r} outside [0, R]")
    two_j_max = _two_j_max(j_max)
    M, R = params.M, params.R
    weight = thermal_weight_subtracted if subtracted else thermal_weight

    terms: list[np.ndarray] = []
    rows = shell_rows(bc, 1, M, R, i_max, two_j_max)
    for two_j, (p, E, C) in zip(range(1, two_j_max + 1, 2), rows):
        shell_coeff = (two_j + 1) / (4.0 * math.pi)
        k0 = (two_j + 1) // 2
        jm2, jp2 = (spherical_jn(n, p * r) ** 2 for n in (k0 - 1, k0))
        frak = (M / (2.0 * E)) * shell_coeff * (jm2 + jp2)
        if bc.is_mit:  # the spectral sum keeps only the mass term; sgn(kappa) per shell
            frak = np.repeat((-1.0, 1.0), i_max) * shell_coeff * 0.5 * (jm2 - jp2) + frak
        terms.append(C * C * weight(E, 1, params.beta, params.mu) * frak)
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
    _check_light_cylinder(params)
    r_vals = np.asarray(r_grid, dtype=float)
    th_vals = np.asarray(theta_grid, dtype=float)
    if r_vals.ndim != 1 or th_vals.ndim != 1 or not len(r_vals) or not len(th_vals):
        raise ValueError("grids must be non-empty 1-d sequences")
    # written so that NaN entries fail too
    if not np.all((r_vals >= 0) & (r_vals <= params.R)):
        raise ValueError("r grid entries must lie in [0, R]")
    if not np.all((th_vals >= 0) & (th_vals <= math.pi)):
        raise ValueError("theta grid entries must lie in [0, pi]")
    two_j_max = _two_j_max(j_max)

    values, tail = _grid_values(bc, params, r_vals.tolist(), th_vals.tolist(),
                                two_j_max, i_max, subtracted)
    return CondensateGrid(r_vals, th_vals, values, two_j_max, i_max, tail,
                          bc, params, subtracted)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _grid_meta(grid: CondensateGrid) -> dict:
    return {"boundary": grid.boundary.kind, "varsigma": grid.boundary.varsigma,
            **vars(grid.params), "j_max": f"{grid.two_j_max}/2", "i_max": grid.i_max,
            "subtracted": grid.subtracted, "tail_estimate": grid.tail_estimate}


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
