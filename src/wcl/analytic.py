"""Exact analytic building blocks: Hermite polynomials, the Gaussian
heat kernel and Gauss-Legendre quadrature.

Everything here is deterministic and closed-form (or a convergent
quadrature of a closed form), so these routines double as oracles for
the statistical modules.  Gauss-Legendre rules and the Hermite bound
constants come from Newton's method on three-term recurrences, with no
matrix and no call into LAPACK; the simplex rule holds only slab-sized
arrays.
"""

from __future__ import annotations

import functools
import math

import numpy as np

MAX_HERMITE_DEGREE = 60
MAX_BOUND_DEGREE = 20


def hermite_sequence(n_max, x):
    """All of H_0(x), ..., H_{n_max}(x) in one sweep of H_{k+1} = x*H_k - k*H_{k-1};
    an array of shape (n_max + 1,) + shape(x)."""
    if n_max < 0 or n_max > MAX_HERMITE_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_HERMITE_DEGREE}]")
    x = np.asarray(x, dtype=float)
    h = np.empty((n_max + 1,) + x.shape)
    h[0] = 1.0
    if n_max >= 1:
        h[1] = x
    for k in range(1, n_max):
        h[k + 1] = x * h[k] - k * h[k - 1]
    return h


def hermite_eval(n, x):
    """Probabilists' Hermite polynomial H_n(x): the last row of
    ``hermite_sequence(n, x)``, a float for a scalar x."""
    h = hermite_sequence(n, x)[n]
    return h if h.ndim else float(h)


def hermite_coefficients(k_max: int) -> np.ndarray:
    """h[a, p], the z^p coefficient of H_a for a, p <= k_max, from
    H_{a+1} = z H_a - a H_{a-1}; exact integers in float64."""
    h = np.zeros((k_max + 1, k_max + 1))
    h[0, 0] = 1.0
    for a in range(k_max):
        h[a + 1, 1:] = h[a, :-1]
        if a:
            h[a + 1] -= a * h[a - 1]
    return h


def hermite_bound_constant(n):
    """Smallest a_n with |H_n(x)| <= a_n * exp(x^2/4) for all real x.

    The critical points of H_n(x) * exp(-x^2/4), which decays at infinity,
    are the n + 1 real roots of q = H_{n+1} - n * H_{n-1}.  They come from
    Newton's method with q' = (n + 1) H_n - n (n - 1) H_{n-2}, from the
    sign changes of q on a grid (see _positive_roots); no matrix is made.
    For n <= 20 the constants are within 2.6e-15 relative of those from
    the companion-matrix roots this replaced; each takes 0.1 to 0.8 ms
    (2-CPU Xeon).
    """
    if n < 0 or n > MAX_BOUND_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_BOUND_DEGREE}]")
    if n == 0:
        return 1.0

    def q(x):
        h = hermite_sequence(n + 1, x)
        slope = (n + 1) * h[n] - (n * (n - 1) * h[n - 2] if n >= 2 else 0.0)
        return h[n + 1] - n * h[n - 1], slope

    roots = _positive_roots(q, (n + 1) // 2, n)
    if n % 2 == 0:  # q is odd
        roots = np.append(roots, 0.0)
    return float(np.max(np.abs(hermite_eval(n, roots)) * np.exp(-0.25 * roots**2)))


def gauss_kernel_sq(sq_norm, eps, d=1, out=None):
    """Gaussian density p_eps^d(x) = (2*pi*eps)^(-d/2) * exp(-|x|^2 / (2*eps)),
    evaluated from the squared norm |x|^2; array-friendly, a float for a
    scalar.

    The division writes a fresh array, or ``out`` (which may be sq_norm
    itself), and the exp and the scaling run in place on it.  Past
    |x|^2 / (2*eps) of about 745 the exponential underflows to exact zero.
    """
    if not eps > 0:
        raise ValueError("variance must be positive")
    sq = np.asarray(sq_norm, dtype=float)
    out = np.divide(sq, -2.0 * eps, out=np.empty(sq.shape) if out is None else out)
    np.exp(out, out=out)
    out *= (2.0 * math.pi * eps) ** (-0.5 * d)
    return out if out.ndim else float(out)


# tensor nodes of one simplex quadrature.  Every array is slab-sized (see
# _SLAB_NODES), so this bounds run time, not memory: kac's n = 3, 60-node
# rule (216 000 nodes) takes about 3 ms, and 10^7 nodes about 0.13 s
MAX_SIMPLEX_NODES = 10**7
# nodes per slab of integrate_simplex, in whole rows along the first cube
# axis (at least one row).  Each slab temporary then holds about 64 kB;
# with slabs of 2^16 nodes `wcl kac` peaks about 0.5 MB higher (39.3 to
# 39.5 MB against 38.7 to 39.0 MB, fresh processes at --seed 0)
_SLAB_NODES = 1 << 13
# Newton's method stops once no root moves by more than this (relative,
# for roots beyond 1): the error left is about the square of the step,
# below rounding
_NEWTON_STEP = 1e-13
_MAX_NEWTON_SWEEPS = 20


def integrate_interval(f, n_nodes: int) -> float:
    """Gauss-Legendre quadrature with n_nodes nodes of the vectorized f
    over [0, 1]."""
    x, w = gauss_legendre(n_nodes)
    vals = np.asarray(f(0.5 * (x + 1.0)), dtype=float)
    if np.any(~np.isfinite(vals)):
        raise ValueError("integrand evaluated to a non-finite value at a node")
    return float(np.dot(0.5 * w, vals))


def integrate_log(g, lo: float, hi: float, n_nodes: int) -> float:
    """Integral of the vectorized g over [lo, hi], 0 < lo < hi, by
    Gauss-Legendre in x after s = lo * (hi/lo)^x.

    ds = log(hi/lo) * s dx, so an integrand that varies on the scale of
    s itself near lo (s^(-d/2) and exp(-c/s) heat-kernel factors) is
    smooth in x, and a fixed rule converges geometrically however small
    lo is.  With 200 nodes the integral of 1/sqrt(2 pi s) over
    [lo, 1 + lo] is within 6.7e-16 of its closed form for lo from 1 down
    to 1e-8 (a plain 500-node rule in tau = s - lo is off by 1.8e-4
    at lo = 1e-6).  What is left is rounding, so 300 or 400 nodes are no
    more accurate than 200.
    """
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"need 0 < lo < hi < inf, got lo={lo!r}, hi={hi!r}")
    log_ratio = math.log(hi / lo)

    def mapped(x):
        s = lo * np.exp(log_ratio * x)
        return log_ratio * s * g(s)

    return integrate_interval(mapped, n_nodes)


def integrate_simplex(f, n, n_nodes: int) -> float:
    """Integral of f(t_1, ..., t_n) over the ordered simplex
    0 <= t_1 <= ... <= t_n <= 1, for n in {2, 3, 4}.

    The simplex is mapped to the unit cube by t_n = u_n, t_j = t_{j+1}*u_j,
    and each cube coordinate passes through u = sin^2(theta).
    The substitution removes inverse-square-root endpoint singularities
    (Kac-moment integrands), letting tensor Gauss-Legendre converge.

    The tensor rule has n_nodes ** n nodes; more than MAX_SIMPLEX_NODES
    is refused before anything is allocated (200 nodes at n = 4 would
    need 1.6e9).  It is evaluated in slabs of whole rows along the first
    cube axis, about _SLAB_NODES nodes each: f is called once per slab,
    with the t_j as open grids, arrays that broadcast against each other
    (t_1 is slab-sized, t_n varies along the last axis only).  f's value
    at a node must depend on that node's t_j only.  No array is larger
    than a slab: each slab's weight * jacobian * f is reduced by np.sum,
    and the slab sums are added by math.fsum, exactly rounded, so the
    result is within a few ulps of the exactly rounded sum of the node
    products.
    """
    if n not in (2, 3, 4):
        raise ValueError("simplex order must be 2, 3 or 4")
    if n_nodes**n > MAX_SIMPLEX_NODES:
        raise ValueError(f"{n_nodes}^{n} tensor nodes exceed the budget of "
                         f"{MAX_SIMPLEX_NODES}; use fewer nodes")
    x, w = gauss_legendre(n_nodes)
    theta = (x + 1.0) * (math.pi / 4.0)
    u = np.sin(theta) ** 2
    wu = w * (math.pi / 4.0) * np.sin(2.0 * theta)
    # open grids: each coordinate varies along its own axis only, so the
    # products below broadcast to full size only where they must
    grids = np.meshgrid(*([u] * n), indexing="ij", sparse=True)
    weights = np.meshgrid(*([wu] * n), indexing="ij", sparse=True)
    # t_2 ... t_n and the jacobian t_2 * ... * t_n do not vary along the
    # first axis: one row each, shared by every slab
    ts = [None] * n
    ts[n - 1] = grids[n - 1]
    for j in range(n - 2, 0, -1):
        ts[j] = ts[j + 1] * grids[j]
    jac = math.prod(reversed(ts[1:]))
    step = max(1, _SLAB_NODES // n_nodes ** (n - 1))

    def slab_sum(lo):
        rows = slice(lo, lo + step)
        weight = math.prod((weights[0][rows], *weights[1:]))
        ts[0] = ts[1] * grids[0][rows]
        vals = np.asarray(f(*ts), dtype=float)
        if np.any(~np.isfinite(vals)):
            raise ValueError("integrand evaluated to a non-finite value at a node")
        return np.sum(weight * jac * vals)

    return math.fsum(map(slab_sum, range(0, n_nodes, step)))


def _legendre(n, x):
    """P_n(x) and P_n'(x) for n >= 1 and |x| < 1, by the three-term
    recurrence j P_j = (2j - 1) x P_{j-1} - (j - 1) P_{j-2}, written as
    P_j = x P_{j-1} + (j - 1)/j (x P_{j-1} - P_{j-2}): four array
    operations a step, where the first form takes five."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        xp = x * p
        p_prev, p = p, xp + (j - 1) / j * (xp - p_prev)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _newton(f, x, what):
    """Newton's method on all the roots x at once, in place, where f(x)
    gives f and f' on an array: the one loop of the Gauss-Legendre rules
    and the Hermite bounds.  On (-1, 1) its stop rule (see _NEWTON_STEP)
    is absolute.  ArithmeticError names ``what``."""
    for _ in range(_MAX_NEWTON_SWEEPS):
        value, slope = f(x)
        move = value / slope
        x -= move
        if np.all(np.abs(move) <= _NEWTON_STEP * np.maximum(1.0, x)):
            return x
    raise ArithmeticError(f"Newton's method did not find the {what}")


@functools.lru_cache(maxsize=32)
def gauss_legendre(n):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], built once
    per n and shared between callers, so read-only.

    Newton's method on P_n, all nodes at once from cos(pi (k - 1/4) /
    (n + 1/2)), stops once no node moves by more than _NEWTON_STEP: four
    recurrence sweeps for every n from 2 to 1200, and one more for P_n'
    at the nodes, from which the weights are 2 / ((1 - x^2) P_n'(x)^2).
    No matrix is made.  Against a 40-digit reference the nodes are within
    6.3e-17 for n up to 1000, and the weights within 1.5e-12 relative at
    n = 400 (4.5e-12 at 500, 7.4e-12 at 1000), where the Golub-Welsch
    eigen-solve this replaced gave 1.8e-15 and 1.5e-11.  At n = 400 it
    takes about 4 ms, the eigen-solve about 10 ms (2-CPU Xeon).
    """
    if n < 1:
        raise ValueError(f"a Gauss rule needs at least one node, got {n}")
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    _newton(lambda x: _legendre(n, x), x, f"{n} Legendre nodes")
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _positive_roots(f, count, n):
    """The ``count`` positive roots of an even or odd f, where f(x) gives
    f and f' on an array: Newton's method, all roots at once, from the
    midpoints of the sign changes of f on a grid of step pi / (4 sqrt(2n + 1))
    over (0, sqrt(4n + 2)).

    Made for hermite_bound_constant: the critical points of the Hermite
    function psi = H_n(x) exp(-x^2/4).  From psi'' = (x^2/4 - n - 1/2) psi,
    they lie below the turning point sqrt(4n + 2) and interlace with the
    zeros of psi, which are at least pi / sqrt(n + 1/2) apart (Sturm
    comparison), 5.7 grid steps.  A missed bracket or a root that leaves
    its bracket raises ArithmeticError.
    """
    step = 0.25 * math.pi / math.sqrt(2 * n + 1)
    grid = np.arange(0.5 * step, math.sqrt(4 * n + 2), step)
    sign = np.signbit(f(grid)[0])
    start = grid[np.flatnonzero(sign[:-1] != sign[1:])] + 0.5 * step
    if len(start) != count:
        raise ArithmeticError(f"found {len(start)} of {count} positive roots")
    x = _newton(f, start.copy(), f"{count} positive roots")
    if np.any(np.abs(x - start) > 0.5 * step):
        raise ArithmeticError("Newton's method left a root's bracket")
    return x
