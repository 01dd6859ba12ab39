"""Special functions: spherical Bessel functions, their zeros, and
normalized associated Legendre values.

Spherical Bessel evaluation is delegated to scipy (accurate to ~1e-14
relative across the supported order/argument range).  Every module calls
the `spherical_jn` bound here: scipy's ufunc, whose public Python wrapper
costs ~25x more per scalar call and changes no bit for x >= 0; its order may
be an array.  Zeros are found by array Brent refinement inside guaranteed
interlacing intervals, so no zero can be missed or duplicated; the same
solver, given per-bracket parameter columns, refines the MIT momenta of many
shells in one call.  Associated Legendre values use the fully normalized
(l, m) recurrence, which stays bounded and avoids the factorial overflow of
the unnormalized functions above l ~ 20.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import spherical_jn as _spherical_jn_public

# The ufunc name is private to scipy.  For real z >= 0 the public wrapper does
# nothing but call it (it reflects only z < 0), so the bits are the same; the
# library only passes z >= 0.
try:
    from scipy.special._ufuncs import _spherical_jn as spherical_jn
except ImportError:  # pragma: no cover - scipy moved or renamed the ufunc
    spherical_jn = _spherical_jn_public

N_MAX_DEFAULT = 200
I_MAX_DEFAULT = 500

# ~machine precision; rtol and the iteration limit are scipy brentq's defaults
_ROOT_XTOL, _ROOT_RTOL, _ROOT_MAXITER = 1e-14, 4 * np.finfo(float).eps, 100


class SolverError(RuntimeError):
    """Root solving failed or produced an inconsistent momentum/energy pair."""


class UnsupportedOrderError(ValueError):
    """Requested Bessel order outside the supported range."""


def _check_order(n):
    if not isinstance(n, (int, np.integer)):
        raise UnsupportedOrderError(f"order must be an integer, got {n!r}")
    if n < 0 or n > N_MAX_DEFAULT:
        raise UnsupportedOrderError(f"order n={n} outside supported range [0, {N_MAX_DEFAULT}]")


def _checked_call(f, n, x, positive: bool):
    """f(n, x) for finite x >= 0, or > 0 if positive; a float for a scalar x."""
    _check_order(n)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    if np.any(arr <= 0 if positive else arr < 0):
        raise ValueError("x must be " + ("positive" if positive else "non-negative"))
    out = f(n, arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def spherical_bessel_j(n: int, x):
    """Spherical Bessel function j_n(x) for integer n >= 0.

    Accepts a scalar or ndarray argument; x must be >= 0 and finite.
    j_0(0) = 1 and j_n(0) = 0 for n >= 1.
    """
    return _checked_call(spherical_jn, n, x, positive=False)


def spherical_bessel_j_prime(n: int, x):
    """Derivative j'_n(x) for x > 0.

    Satisfies the recurrences j'_n + (n+1)/x * j_n = j_{n-1} and
    j'_n - n/x * j_n = -j_{n+1}.
    """
    return _checked_call(lambda n, x: _spherical_jn_public(n, x, derivative=True), n, x,
                         positive=True)


def _finite(v: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise SolverError("non-finite function value in root refinement")
    return v


def _brentq_array(f, a, b, cols=(), fa=None, fb=None) -> np.ndarray:
    """Roots of the elementwise function f in the brackets [a_k, b_k], all at once.

    scipy's brentq.c, branch for branch, on arrays from which each bracket
    leaves when it converges: each root has the bits of
    scipy.optimize.brentq(f, a_k, b_k, xtol=_ROOT_XTOL).  f gets the per-bracket
    parameter arrays cols of the brackets it evaluates: f(x, *cols).  fa and fb,
    if given, are f at a and b (finite), which f is then not called for.  Raises
    SolverError on a non-finite f, a bracket without a sign change, or no
    convergence.
    """
    xpre, xcur = np.array(a, dtype=float), np.array(b, dtype=float)
    fpre = _finite(f(xpre, *cols)) if fa is None else fa
    fcur = _finite(f(xcur, *cols)) if fb is None else fb
    root = np.where(fpre == 0, xpre, xcur)  # an endpoint at a zero is the root
    act = np.flatnonzero((fpre != 0) & (fcur != 0))
    xpre, xcur, fpre, fcur, *cols = (v[act] for v in (xpre, xcur, fpre, fcur, *cols))
    if np.any(np.signbit(fpre) == np.signbit(fcur)):
        raise SolverError("f must have different signs at the ends of each bracket")
    xblk = fblk = spre = scur = np.zeros_like(xcur)
    for _ in range(_ROOT_MAXITER):
        new = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(new, xpre, xblk), np.where(new, fpre, fblk)
        spre, scur = (np.where(new, xcur - xpre, s) for s in (spre, scur))
        # xcur becomes the end with the smaller |f|
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, fpre = np.where(swap, xcur, xpre), np.where(swap, fcur, fpre)
        xcur, fcur = np.where(swap, xblk, xcur), np.where(swap, fblk, fcur)
        xblk, fblk = np.where(swap, xpre, xblk), np.where(swap, fpre, fblk)
        delta, sbis = (_ROOT_XTOL + _ROOT_RTOL * np.abs(xcur)) / 2, (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        root[act[done]] = xcur[done]
        if done.all():
            return root
        act, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis, *cols = (
            v[~done] for v in (act, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta,
                               sbis, *cols))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),  # interpolate
                            -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
        # take the interpolation step if it is short enough, else bisect
        good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = _finite(f(xcur, *cols))
    raise SolverError(f"root refinement did not converge in {_ROOT_MAXITER} iterations")


# ---------------------------------------------------------------------------
# Zeros of j_n
# ---------------------------------------------------------------------------
#
# The zeros of consecutive orders interlace:
#     xi_{n-1,i} < xi_{n,i} < xi_{n-1,i+1}
# so the i-th zero of order n is bracketed by two consecutive zeros of order
# n-1, starting from the exact xi_{0,i} = i*pi.  The cache grows on demand
# and only ever by whole prefixes.

_zero_cache: dict[int, list[float]] = {}


def _extend_zeros(n: int, count: int) -> None:
    have = _zero_cache.setdefault(n, [])
    if len(have) >= count:
        return
    if n == 0:
        have[:] = [math.pi * k for k in range(1, count + 1)]
        return
    _extend_zeros(n - 1, count + 1)
    edges = np.array(_zero_cache[n - 1][len(have):count + 1])
    have += _brentq_array(lambda x: spherical_jn(n, x), edges[:-1], edges[1:]).tolist()
    # first-zero lower bound xi_{n,1} > n + 5/4, on which the MIT brackets rest
    if have[0] <= n + 1.25:
        raise RuntimeError(f"zero table inconsistent at order {n}: xi_1 = {have[0]}")


def _zero_table(n: int, count: int) -> np.ndarray:
    """bessel_zeros for any count >= 1: the MIT root scan reads past I_MAX_DEFAULT."""
    # round order 0's count + n zeros up to blocks of 32, so that orders asked
    # for in turn at one count do not each extend every lower table by one
    _extend_zeros(n, -(-(count + n) // 32) * 32 - n)
    return np.array(_zero_cache[n][:count])


def bessel_zeros(n: int, count: int) -> np.ndarray:
    """First `count` positive zeros xi_{n,1} < ... < xi_{n,count} of j_n."""
    _check_order(n)
    if not isinstance(count, (int, np.integer)) or not 1 <= count <= I_MAX_DEFAULT:
        raise ValueError(f"count must be an integer in [1, {I_MAX_DEFAULT}], got {count!r}")
    return _zero_table(n, count)


def spherical_bessel_zero(n: int, i: int) -> float:
    """The i-th positive zero xi_{n,i} of j_n (i starts at 1)."""
    return float(bessel_zeros(n, i)[i - 1])


# ---------------------------------------------------------------------------
# Normalized associated Legendre / spherical harmonic densities
# ---------------------------------------------------------------------------


def assoc_legendre_density(l: int, m: int, theta: float) -> float:
    """|Y_{l,m}(theta, .)|^2, which is independent of the azimuth.

    Equals (2l+1)/(4 pi) * (l-|m|)!/(l+|m|)! * P_l^{|m|}(cos theta)^2.
    """
    if not isinstance(l, (int, np.integer)) or not isinstance(m, (int, np.integer)):
        raise ValueError(f"(l, m) must be integers, got ({l!r}, {m!r})")
    if l < 0 or abs(m) > l:
        raise ValueError(f"invalid degree/order (l={l}, m={m})")
    return float(legendre_density_table(int(l), math.cos(theta))[l, abs(int(m))])


def legendre_density_table(l_max: int, cos_theta: float) -> np.ndarray:
    """Triangle of |Y_{l,m}|^2 values for 0 <= m <= l <= l_max at fixed angle.

    Entry [l, m] holds |Y_{l,m}(theta,.)|^2; entries with m > l are zero,
    which makes vanishing-coefficient lookups in spinor-harmonic sums safe.
    Raises ValueError unless cos_theta lies in [-1, 1] (NaN included).
    """
    x = float(cos_theta)
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"cos_theta must be in [-1, 1], got {x}")
    sx = math.sqrt(1.0 - x * x)
    tab = np.zeros((l_max + 1, l_max + 1))
    pmm = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(0, l_max + 1):
        if m > 0:
            pmm *= -math.sqrt((2 * m + 1) / (2.0 * m)) * sx
        tab[m, m] = pmm * pmm
        if m == l_max:
            break
        p_prev, p_cur = pmm, x * math.sqrt(2.0 * m + 3.0) * pmm
        tab[m + 1, m] = p_cur * p_cur
        for ll in range(m + 2, l_max + 1):
            a = math.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
            b = math.sqrt(((ll - 1.0) ** 2 - m * m) / (4.0 * (ll - 1.0) ** 2 - 1.0))
            p_prev, p_cur = p_cur, a * (x * p_cur - b * p_prev)
            tab[ll, m] = p_cur * p_cur
    return tab
