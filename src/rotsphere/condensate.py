"""Thermal expectation value of the vacuum-subtracted fermion condensate.

The condensate at a point is a mode sum
    -sum_k |C_k|^2 w(E_tilde_k) (A_k + B_k)
restricted by the step function in w to positive Minkowski energy.  The
m_j -> -m_j symmetries of each boundary condition fold the sum over
m_j >= 1/2 with paired weights w(E_tilde) -+ w(E_bar), E_bar = E + Omega m_j.
Vacuum subtraction replaces w by w' = w - theta(E), removing the
temperature-independent divergent part; w' is the default.

One kernel evaluates points and grids.  It walks j once, outermost, for all
points at once, with the two kappa shells of a j stacked along the radial
index.  Each mode's |term| at any r is bounded from its weights, |C|^2 and
M/(2E): |A| <= (d+ + d-)/2 and |B| <= M/(2E) (d+ + d-), as 0 <= j_n^2 <= 1.
The weights fall like exp(-beta (E_tilde - |mu|)), so before it forms any
weight the kernel bounds each (j, kappa, i) row's sum over m_j from the
densities' sums over m_j, for all j at once.  Each j but the last keeps only
the i-prefix whose dropped suffix bounds below 2^-80 of the request's summed
bound over those j, shared out equally among them, as a value needs its
dropped terms small against itself, not against its j; the last j, whose
sum is the tail estimate, keeps the prefix whose dropped suffix bounds below
2^-120 of its own bound.  The weights, |C|^2 and M/(2E) are formed on the
kept rows only; a spectral j
reuses the order-k0 Bessel squares of the shell before it, whose momenta its
-k0 shell shares.  The Legendre table and the densities of all (j, m_j) pairs
are formed once per theta.  The terms, a row per point in the
canonical order (ascending j, then kappa, i, m_j), fill a buffer of about
2^16 terms j block by j block, reduced by one TwoSum tree per theta; a j
block too large for it, and the last j, whose sum is the tail estimate, are
reduced alone.  The partials are certified once per point, with the dropped
terms' bound as slack, to be the correctly rounded sum of the whole (j_max,
i_max) rectangle, math.fsum's bits, however the rows were cut.  The points
that fail, mostly MIT values at r = R, zero but for rounding, are redone
together in one pass that cuts at 2^-120 in place of 2^-80, and a point
that fails again gets math.fsum of all its terms.  A tail estimate
takes math.fsum of a whole last j only where an uncertified sum could raise
it.  Every term is the same IEEE expression of the same operands wherever it
is formed, so points and grids give bit-identical values.
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

    Zero for negative Minkowski energy; odd in E_tilde at mu = 0.  A product
    beta (E_tilde -+ mu) past the largest double is an exact +-inf here.
    """
    et = _weight_input(E_tilde, esign, beta)
    with np.errstate(over="ignore"):
        out = (np.zeros_like(et) if esign < 0
               else 0.5 * (np.tanh(0.5 * beta * (et - mu)) + np.tanh(0.5 * beta * (et + mu))))
    return float(out) if out.ndim == 0 else out


def thermal_weight_subtracted(E_tilde, esign: int, beta: float, mu: float):
    """Vacuum-subtracted weight w' = -theta(E) [f(E_tilde - mu) + f(E_tilde + mu)]
    with the Fermi factor f(x) = 1/(1 + e^(beta x)); identically w - theta(E).
    A product beta (E_tilde -+ mu) past the largest double is an exact +-inf
    here, where f is 0 or 1."""
    et = _weight_input(E_tilde, esign, beta)
    with np.errstate(over="ignore"):
        out = (np.zeros_like(et) if esign < 0
               else -(expit(-beta * (et - mu)) + expit(-beta * (et + mu))))
    return float(out) if out.ndim == 0 else out


# terms (points x terms) in one kernel buffer, reduced by one TwoSum tree per
# theta: large enough that a few-point grid pays for arithmetic, not for the
# numpy calls of a tree per j, and small (512 KB) against the j blocks
_BUFFER_TERMS = 2**16
# each of the n j but the last drops the i-suffix whose summed term bound is
# below this share of the request's total bound T over those j, over n: a
# value stays certified unless it is below about 2^-25 T, which 98.8% of the
# fig-sweep points are not (2^-17 T and more); the others are redone together
# with _PRUNE_REL in its place
_PRUNE_REQUEST = 2.0**-80
# the last j drops the i-suffix whose summed term bound is below this share
# of its own; a retried point stays certified unless its sum cancels to
# about 2^-65 T
_PRUNE_REL = 2.0**-120


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


def _certified_sums(trees: list, n: int,
                    slack: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sums r of rows of n terms cut into contiguous chunks, from each chunk's
    _tree_sums in order, a bound err on the distance from r to the exact sum
    of the n terms plus terms never formed whose magnitudes sum to at most
    slack, to within the rounding of err's own sum, and whether r is provably
    the correctly rounded sum, which is what math.fsum returns (Shewchuk
    1997), of those terms.

    The partials are reduced by the same tree and all errors added: at most
    n - 1 errors e however the rows are cut.  Any summation order computes
    E = fl(sum e) to within gamma_{n-2} sum|e|, which 2(n+2) 2^-53 fl(sum|e|)
    bounds, rounding included (Ogita, Rump and Oishi, SIAM J. Sci. Comput.
    26, 2005).  With t the TwoSum residual of r = fl(s + E), the exact sum
    of the whole row is within |t| + bound + slack of r, which is certified
    if that is below half the smaller gap from r to its neighbouring doubles.
    Doubles are multiples of 2^-1074, so an underflowing bound cannot pass
    wrongly.  A zero, subnormal, inf or nan r always fails: its half gap
    rounds to 0 or is nan.  So does a slack of 2^970 or more, which keeps
    math.fsum of the whole row from overflowing where r is certified.
    """
    s, e_sum, e_abs = _tree_sums(np.stack([tree[0] for tree in trees], axis=1))
    for _, es, ea in trees:
        e_sum += es
        e_abs += ea
    with np.errstate(over="ignore", invalid="ignore"):
        r = s + e_sum
        bv = r - s
        t = (s - (r - bv)) + (e_sum - bv)
        bound = np.abs(t) + (2.0 * (n + 2) * 2.0**-53) * e_abs + slack
        gap = np.minimum(r - np.nextafter(r, -np.inf), np.nextafter(r, np.inf) - r)
        return r, bound, bound < 0.5 * gap


def _exact_row_sums(buf: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a 2-d float array, bit for bit: rows that
    fail the certificate go to math.fsum itself, which keeps its signed
    zeros, inf/nan results and OverflowError."""
    r, _, certified = _certified_sums([_tree_sums(buf)], buf.shape[1])
    for i in np.flatnonzero(~certified):
        r[i] = math.fsum(buf[i])
    return r


def _row_bounds(params: PhysicalParams, rows: list, d: np.ndarray, two_m: np.ndarray,
                starts: np.ndarray, i_max: int, subtracted: bool) -> np.ndarray:
    """A bound U, shape (j, kappa, i), on each row's sum over m_j of the b of
    _j_blocks, formed before any weight; d holds d+ + d- of the (j, m_j)
    pairs, each j's from starts on, and two_m their doubled m_j.

    f(x) = 1/(1 + e^(beta x)) <= min(1, e^(-beta x)) bounds a subtracted weight
    by min(2, 2 cosh(beta mu) e^(-beta E_tilde)), a raw one by 1, and amp <=
    (|w_t| + |w_b|)(1/2 + M/(2E)).  With w_t at E - Omega m_j and w_b at E +
    Omega m_j, a row's b sum to at most C2 (1/2 + M/(2E)) min(4 D, 2 cosh(beta
    mu) e^(-beta E) S), D = sum d and S = sum d (e^(beta Omega m_j) +
    e^(-beta Omega m_j)).  e^(-beta E) S is formed as e^(a - beta E) s, with
    a = max log(d e^(beta Omega m_j)) and 1 <= s <= 2 (2j + 1), so nothing
    overflows or underflows to hide a pair; an inf or nan there gives 4 D.  U
    adds the (C2 + 1) 2^-1060 of each mode twice, over what underflow takes
    from a weight, then 2^-36 of itself and beta (E + Omega j + |mu|) 2^-48 to
    its exponents, over what rounding moves: U is at least the rounded b sum."""
    M, Omega, beta, mu = params.M, params.Omega, params.beta, params.mu
    E = np.array([E for _, E, _ in rows]).reshape(-1, 2, i_max)  # (j, kappa, i)
    C2 = np.array([C for *_, C in rows]).reshape(E.shape) ** 2
    k0 = (np.arange(len(E)) + 1)[:, None, None]  # the m_j > 0 of each j
    bound = 4.0 * np.add.reduceat(d, starts)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if subtracted:
            a = np.log(d) + (beta * Omega / 2.0) * two_m
            top = np.maximum.reduceat(a, starts)
            s = np.add.reduceat(np.exp(a - np.repeat(top, k0.ravel()))
                                * (1.0 + np.exp((-beta * Omega) * two_m)), starts)
            x = top[:, None, None] + (beta * (E + Omega * k0 + abs(mu))) * 2.0**-48
            exp = (np.exp(x - beta * (E - mu)) + np.exp(x - beta * (E + mu))) * s[:, None, None]
            bound = np.fmin(bound, exp)
        return ((C2 * (0.5 + M / (2.0 * E)) * bound + k0 * (C2 + 1.0) * 2.0**-1059)
                * (1.0 + 2.0**-36))


def _j_blocks(bc: BoundaryKind, params: PhysicalParams, r_vals: list[float],
              tabs: list[np.ndarray], two_j_max: int, i_max: int, weight,
              prune: float = _PRUNE_REQUEST):
    """Yield (two_j, it, terms, D) per buffer, then per theta tabs[it]: the
    terms of the j blocks up to two_j, a row per r in the order (j, kappa, i,
    m_j) over the kept modes, and D, which bounds the summed magnitudes of the
    terms dropped from that buffer's j blocks.  Consecutive j blocks fill a
    buffer while their terms over all points fit in _BUFFER_TERMS; a larger
    block, and the last j, come alone, formed in place.

    Each term is C2 ((w_t - w_b) A + (w_t + w_b) B), or C2 (w_t + w_b)(A + B)
    for MIT, and 0 <= j_n^2 <= 1 (DLMF 10.54) with d+, d- >= 0 gives |A| <=
    (d+ + d-)/2 and |B| <= |M/(2E)| (d+ + d-): a bound b per (kappa, i, m_j)
    at every r, with d+ + d- at its largest over the thetas, plus (C2 + 1)
    2^-1060, over 2^8 times what underflow can take from a formed term.  With
    T the summed _row_bounds of all j but the last, each of those n j keeps
    the shortest i-prefix, shared by both kappa shells, whose dropped suffix
    of _row_bounds bounds below prune T / n; the last j, whose sum is the tail
    estimate, keeps its prefix by _PRUNE_REL of its own bound.  An inf bound
    is never dropped, and a non-finite T or last-j bound keeps every row of
    those j; prune = 0 keeps every mode.  D is twice the rounded sum of the
    dropped rows' bounds: that covers the relative rounding of the terms and
    of the sum, below 2^-35 at 2^17 terms, and a computed |j_n| up to 1.4.
    Weights, |C|^2 and M/(2E) are formed on kept rows only."""
    M, Omega, beta, mu = params.M, params.Omega, params.beta, params.mu
    r_col, points = np.array(r_vals)[:, None], len(r_vals) * len(tabs)
    cap = min(_BUFFER_TERMS // points, i_max * (two_j_max**2 - 1) // 4)  # all j but the last
    buf, width, held = None, 0, 0.0  # the open buffer, filled up to width, and its dropped bound
    last = (np.empty(0), None)  # the previous +k0 shell's kept momenta and order-k0 squares
    rows = shell_rows(bc, 1, M, params.R, i_max, two_j_max)
    k0s = np.arange(1, len(rows) + 1)  # the m_j > 0 of each j
    starts = np.cumsum(k0s) - k0s  # each j's first (j, m_j) pair
    two_m = 2 * (np.arange(starts[-1] + k0s[-1]) - np.repeat(starts, k0s)) + 1
    dens = [spinor_densities(np.repeat(2 * k0s - 1, k0s), two_m, tab) for tab in tabs]
    keep, dropped = np.full(len(rows), i_max), np.zeros(len(rows))
    if prune:
        n = len(rows) - 1  # the j but the last, of which two_j_max >= 3 leaves one
        d = np.max([d_plus + d_minus for d_plus, d_minus in dens], axis=0)
        U = _row_bounds(params, rows, d, two_m, starts, i_max,
                        weight is thermal_weight_subtracted)
        with np.errstate(over="ignore"):  # an inf U keeps its row
            tail = np.cumsum(U.sum(axis=1)[:, ::-1], axis=1)[:, ::-1]
            cut = np.r_[np.full(n, prune * tail[:n, 0].sum() / n), _PRUNE_REL * tail[n, 0]]
        cut[~np.isfinite(cut)] = np.nan  # nan: all kept
        keep = np.count_nonzero(~(tail < cut[:, None]), axis=1)
        dropped = np.c_[tail, np.zeros(n + 1)][np.arange(n + 1), keep]
    for two_j, (p, E, C), kept, lo, drop in zip(range(1, two_j_max + 1, 2), rows,
                                                keep.tolist(), starts.tolist(),
                                                dropped.tolist()):
        k0 = (two_j + 1) // 2
        pairs = slice(lo, lo + k0)  # the (j, m_j) pairs of j
        m_j = two_m[pairs] / 2.0
        E, C = (v.reshape(2, i_max, 1)[:, :kept] for v in (E, C))  # (kappa, i, m_j)
        C2, ratio = C * C, M / (2.0 * E)
        w_t, w_b = (weight(corotating_energy(E, m, Omega), 1, beta, mu) for m in (m_j, -m_j))
        w_s = w_t + w_b
        w_d = None if bc.is_mit else w_t - w_b  # MIT terms read w_s alone
        p = p.reshape(2, i_max)[:, :kept].ravel()
        size = w_s.size  # terms per point
        if buf is not None and (two_j == two_j_max or points * (width + size) > _BUFFER_TERMS):
            yield from ((two_j - 2, it, terms, 2.0 * held)
                        for it, terms in enumerate(buf[:, :, :width]))
            buf = None
        if buf is None and two_j < two_j_max and points * size <= _BUFFER_TERMS:
            buf, width, held = np.empty((len(tabs), len(r_vals), cap)), 0, 0.0
        x = r_col * p
        x[x < 2.0**-1022] = 0.0  # subnormal x: scipy's j_n is nan there for n >= 1
        jp2 = spherical_jn(k0, x) ** 2
        # spectral shells (j - 1, k0 - 1) and (j, -k0) share momenta, so the
        # order k0 - 1 squares of this -k0 shell are the last order-k0 squares
        # of the modes both kept
        shared = min(last[0].size, kept)
        if not np.array_equal(last[0][:shared], p[:shared]):
            shared = 0
        jm2 = spherical_jn(k0 - 1, x[:, shared:]) ** 2
        if shared:
            jm2 = np.concatenate([last[1][:, :shared], jm2], axis=1)
        last = (p[kept:], jp2[:, kept:])
        jm2, jp2 = (v.reshape(len(r_vals), 2, kept, 1) for v in (jm2, jp2))
        kappa = np.array([-k0, k0])[:, None, None]
        for it, (d_plus, d_minus) in enumerate(dens):
            A, B = density_split(kappa, d_plus[pairs], d_minus[pairs], jm2, jp2, ratio)
            # MIT: (C2 (w_t + w_b)) (A + B); spectral: C2 ((w_t - w_b) A + (w_t + w_b) B)
            if not bc.is_mit:
                A *= w_d
                B *= w_s
            A += B
            del B  # free before the caller reduces A
            out = A if buf is None else buf[it, :, width:width + size].reshape(A.shape)
            with np.errstate(over="ignore", invalid="ignore"):  # _grid_values rejects it
                np.multiply(A, C2 * w_s if bc.is_mit else C2, out=out)
            if buf is None:
                yield two_j, it, A.reshape(len(r_vals), -1), 2.0 * drop
        if buf is not None:
            width, held = width + size, held + drop


def _reduce(blocks, thetas: int, two_j_max: int):
    """Reduce a _j_blocks stream: (r, err, ok) of each point, shape (r,
    theta), from _certified_sums of its whole (j_max, i_max) rectangle with
    the summed D of all buffers as slack; and per theta that of its last j,
    with that j's own D as slack."""
    trees, n, slack, last = [[] for _ in range(thetas)], 0, 0.0, []
    for two_j, it, terms, D in blocks:
        trees[it].append(_tree_sums(terms))
        if it == 0:
            n, slack = n + terms.shape[1], slack + D
        if two_j == two_j_max:
            last.append(_certified_sums(trees[it][-1:], terms.shape[1], D))
    sums = zip(*(_certified_sums(tree, n, slack) for tree in trees))
    return [np.stack(v, axis=1) for v in sums], last


def _grid_values(bc: BoundaryKind, params: PhysicalParams, r_vals: list[float],
                 th_vals: list[float], two_j_max: int, i_max: int,
                 subtracted: bool) -> tuple[np.ndarray, float]:
    """Condensate over r_vals x th_vals and the largest |last j-shell
    contribution| over the points, each math.fsum's bits.

    One _j_blocks pass at the request's scale gives every value, certified
    as math.fsum of its whole (j_max, i_max) rectangle.  The points it
    refuses are redone together in one pass at _PRUNE_REL, and the points
    refused again get all their terms formed, by _j_blocks with pruning off,
    for math.fsum; so do at once those whose bound is not finite, as the tree
    refuses rows that could overflow, which no slack certifies; a term that
    overflowed (|C|^2 w near the largest double, from R of about 1e-102)
    raises ValueError there.  A last j row
    that does not certify changes no maximum if its |sum| plus twice its
    bound (over the rounding of the bound's own sum) stays within the largest
    certified one, and otherwise gets math.fsum of its whole last j, from the
    same formation as its point's value where that needs one too."""
    weight = thermal_weight_subtracted if subtracted else thermal_weight
    tabs = [legendre_density_table((two_j_max + 1) // 2, math.cos(th)) for th in th_vals]
    (r, err, ok), last = _reduce(_j_blocks(bc, params, r_vals, tabs, two_j_max, i_max, weight),
                                 len(tabs), two_j_max)
    retry = ~ok & np.isfinite(err)
    if retry.any():
        rs, ts = np.flatnonzero(retry.any(axis=1)), np.flatnonzero(retry.any(axis=0))
        (r2, _, ok2), _ = _reduce(_j_blocks(bc, params, [r_vals[k] for k in rs],
                                            [tabs[k] for k in ts], two_j_max, i_max, weight,
                                            prune=_PRUNE_REL), len(ts), two_j_max)
        sub = np.ix_(rs, ts)
        done = retry[sub] & ok2
        r[sub], ok[sub] = np.where(done, r2, r[sub]), ok[sub] | done

    def whole(ir, it):  # every j block of point (ir, it), unpruned, and its value if due
        blocks = [terms[0] for *_, terms, _ in _j_blocks(
            bc, params, [r_vals[ir]], [tabs[it]], two_j_max, i_max, weight, prune=0.0)]
        if not all(np.isfinite(terms).all() for terms in blocks):
            raise ValueError(f"non-finite condensate term at R={params.R}, M={params.M}")
        if not ok[ir, it]:
            r[ir, it], ok[ir, it] = math.fsum(np.concatenate(blocks)), True
        return blocks

    tail = 0.0
    for it, (s, e, good) in enumerate(last):  # |sum| only
        top = max(tail, float(np.abs(s[good]).max(initial=0.0)))
        for ir in np.flatnonzero(~good & ~(np.abs(s) + 2.0 * e <= top)):
            s[ir] = math.fsum(whole(ir, it)[-1])
        tail = max(tail, float(np.abs(s).max()))
    for ir, it in zip(*np.nonzero(~ok)):
        whole(ir, it)
    return -r, tail


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
        x = np.where(p * r < 2.0**-1022, 0.0, p * r)  # as in _j_blocks
        jm2, jp2 = (spherical_jn(n, x) ** 2 for n in (k0 - 1, k0))
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
