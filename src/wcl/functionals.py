"""Approximating functionals on sampled paths: smoothed local time at a
level, offset local time, smoothed self-intersection local time, the
endpoint kernel, band-occupation local time, upcrossing counts, the
local-time field and the occupation-formula identity.  Each takes a batch
of path values (N, n+1, d) and returns one result per path.

Time integrals use node values with trapezoid weights; the triangle
{s < t} uses the product-trapezoid weights of the square restricted to
the strict upper triangle plus half the diagonal, so a constant
integrand integrates to exactly 1/2 and the occupation identity is an
exact Fubini swap at the shared discretization.

``eval_family_many`` evaluates a whole eps family at once, (n_eps, N).
For LocalTime and SelfIntersection it runs an eps-grid kernel that
computes the eps-free work once: the squared node values, or at each lag
of G_eps the differences and |dv - u|^2.  Only the eps-dependent steps
run per eps, in the same order as for one eps, and a single eps is a
one-row call of the same kernel, so each row is bit for bit the
``eval_functional_many`` value.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analytic import gauss_kernel_sq


@dataclass(frozen=True)
class LocalTime:
    """Phi_eps(f) = int_0^1 p_eps(f(t)) dt; scalar paths only."""

    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")


@dataclass(frozen=True)
class OffsetLocalTime:
    """F_eps(f) = int_0^1 p_eps^d(f(t) - u) dt."""

    eps: float
    u: tuple

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        _warn_zero_offset(self.u)


@dataclass(frozen=True)
class SelfIntersection:
    """G_eps(f) = int_{s<t} p_eps^d(f(t) - f(s) - u) ds dt."""

    eps: float
    u: tuple

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        _warn_zero_offset(self.u)


@dataclass(frozen=True)
class EndpointKernel:
    """Phi_eps(f) = p_eps(f(1)); scalar paths only."""

    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")


FunctionalSpec = LocalTime | OffsetLocalTime | SelfIntersection | EndpointKernel


def _warn_zero_offset(u):
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("offset u must be a 1-D vector")
    if len(u) > 1 and np.all(u == 0.0):
        warnings.warn(
            "offset u = 0 with d > 1: the localized functional has no "
            "finite limit; results are valid for fixed eps only",
            stacklevel=3,
        )


@functools.lru_cache(maxsize=16)
def interval_weights(n_steps: int) -> np.ndarray:
    """Trapezoid weights over the n_steps + 1 grid nodes; sum to 1."""
    w = np.full(n_steps + 1, 1.0 / n_steps)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@functools.lru_cache(maxsize=8)
def triangle_rule(n_steps: int):
    """Per-lag rule for the triangle {0 <= s <= t <= 1}.

    Returns (tau, weights).  weights[L] holds the weights of the node
    pairs (i, i + L), i = 0..n_steps - L, whose time gap is
    tau[L] = L / n_steps: products of trapezoid weights, halved on the
    diagonal L = 0, summing to exactly 1/2 over all lags.  Read-only,
    since the cache shares them.
    """
    w1 = interval_weights(n_steps)
    weights = [w1[: n_steps + 1 - lag] * w1[lag:] for lag in range(n_steps + 1)]
    weights[0] = 0.5 * weights[0]
    tau = np.arange(n_steps + 1) / n_steps
    for a in (tau, *weights):
        a.flags.writeable = False
    return tau, tuple(weights)


# Paths per block of the pair kernels times nodes per path.  A per-lag
# temporary then holds at most 512 kB per coordinate and Hermite order,
# so a block stays in cache while its lags are swept.  Timed at 2^13 to
# 2^18 and n_steps = 256 to 2048, 2^15 to 2^17 were the fastest.
_BLOCK_ELEMENTS = 1 << 16


def lag_blocks(values: np.ndarray):
    """Yield (lo, coords) over consecutive blocks of paths, coords being a
    contiguous (d, block, n+1) copy so that every lag slice
    coords[j, :, L:] - coords[j, :, :-L] walks memory in order.

    Each path's value depends on its own row only, never on the block it
    lands in.
    """
    n_paths, n_nodes, _ = values.shape
    step = max(1, _BLOCK_ELEMENTS // n_nodes)
    coords = np.moveaxis(values, 2, 0)
    for lo in range(0, n_paths, step):
        yield lo, np.ascontiguousarray(coords[:, lo : lo + step], dtype=float)


def _check_dim(spec: FunctionalSpec, values: np.ndarray) -> None:
    d = values.shape[2]
    want = 1 if isinstance(spec, (LocalTime, EndpointKernel)) else len(np.asarray(spec.u))
    if d != want:
        raise ValueError(f"path dimension {d} does not match the functional ({want})")


def eval_functional_many(spec: FunctionalSpec, values: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over a batch of paths of shape (N, n+1, d)."""
    _check_dim(spec, values)
    n_steps = values.shape[1] - 1
    d = values.shape[2]
    if isinstance(spec, EndpointKernel):
        return gauss_kernel_sq(values[:, -1, 0] ** 2, spec.eps, d=1)
    if isinstance(spec, LocalTime):
        return _local_time_many(values, (spec.eps,))[0]
    if isinstance(spec, OffsetLocalTime):
        w = interval_weights(n_steps)
        u = np.asarray(spec.u, dtype=float)
        sq = np.sum((values - u[None, None, :]) ** 2, axis=2)
        return gauss_kernel_sq(sq, spec.eps, d=d) @ w
    if isinstance(spec, SelfIntersection):
        return _self_intersection_many(values, (spec.eps,), np.asarray(spec.u, dtype=float))[0]
    raise TypeError(f"unknown functional spec {spec!r}")


def eval_family_many(family, eps_grid, values: np.ndarray) -> np.ndarray:
    """Phi_eps = family(eps) for every eps of ``eps_grid`` over a batch of
    paths (N, n+1, d); shape (n_eps, N).

    A LocalTime or SelfIntersection family whose members differ only in
    eps goes through one pass of its eps-grid kernel, which computes the
    eps-free part once; any other family is one single-eps call per eps.
    Either way, every row is bit for bit its single-eps value.
    """
    specs = [family(eps) for eps in eps_grid]
    if not specs:
        raise ValueError("need at least one eps")
    first = specs[0]
    eps = [s.eps for s in specs]
    if all(type(s) is LocalTime for s in specs):
        _check_dim(first, values)
        return _local_time_many(values, eps)
    if all(type(s) is SelfIntersection and tuple(s.u) == tuple(first.u) for s in specs):
        _check_dim(first, values)
        return _self_intersection_many(values, eps, np.asarray(first.u, dtype=float))
    return np.stack([eval_functional_many(s, values) for s in specs])


def _local_time_many(values, eps_grid):
    """LocalTime for every eps of ``eps_grid``, (n_eps, N): the squared
    node values are computed once."""
    sq = values[:, :, 0] ** 2
    w = interval_weights(values.shape[1] - 1)
    out = np.empty((len(eps_grid), values.shape[0]))
    for e, eps in enumerate(eps_grid):
        out[e] = gauss_kernel_sq(sq, eps, d=1) @ w
    return out


def _self_intersection_many(values, eps_grid, u):
    """G_eps per path for every eps of ``eps_grid``, (n_eps, N), summed
    lag by lag in float64.

    Lag L adds exp(-|v[i+L] - v[i] - u|^2 / 2 eps) against the lag-L
    weights of ``triangle_rule``.  The squared distances are computed
    once per lag; only the scaling, exp and weighted sum run per eps,
    with the same operations as for a single eps, so each row does not
    depend on the other eps of the grid.  Measured against a long-double
    sum over node pairs, the relative error is below 5e-15 for d = 1, 2,
    n_steps = 256 to 2048 and eps = 0.01 to 1.
    """
    _, n_nodes, d = values.shape
    _, weights = triangle_rule(n_nodes - 1)
    factors = [-0.5 / eps for eps in eps_grid]
    out = np.empty((len(eps_grid), values.shape[0]))
    for lo, v in lag_blocks(values):
        acc = np.zeros((len(eps_grid), v.shape[1]))
        for lag, w in enumerate(weights):
            diff = v[:, :, lag:] - v[:, :, : n_nodes - lag]
            diff -= u[:, None, None]
            diff *= diff
            sq = np.sum(diff, axis=0)
            kern = np.empty_like(sq)
            for row, c in zip(acc, factors):
                np.multiply(sq, c, out=kern)
                np.exp(kern, out=kern)
                row += kern @ w
        out[:, lo : lo + acc.shape[1]] = acc
    norms = [(2.0 * math.pi * eps) ** (-0.5 * d) for eps in eps_grid]
    return out * np.array(norms)[:, None]


def _scalar_paths(values: np.ndarray) -> np.ndarray:
    """The (N, n+1) node values of a batch of scalar paths (N, n+1, 1)."""
    d = values.shape[2]
    if d != 1:
        raise ValueError(f"operation requires scalar paths (d = 1), got d = {d}")
    return values[:, :, 0]


def indicator_local_time_many(values: np.ndarray, x: float, eps: float) -> np.ndarray:
    """Batched band-occupation average (1/2 eps) * time spent in
    [x-eps, x+eps] over scalar paths (N, n+1, 1), time measured by
    trapezoid weights of the node values."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    v = _scalar_paths(values)
    w = interval_weights(v.shape[1] - 1)
    inside = np.abs(v - x) <= eps
    return (inside @ w) / (2.0 * eps)


def upcrossing_count_many(values: np.ndarray, level: float) -> np.ndarray:
    """Per scalar path (N, n+1, 1), the number of grid intervals with
    value[k] < level <= value[k+1]."""
    v = _scalar_paths(values)
    return np.sum((v[:, :-1] < level) & (v[:, 1:] >= level), axis=1)


def local_time_field(values: np.ndarray, eps: float, x_grid) -> np.ndarray:
    """Smoothed field ell_eps(x) = int_0^1 p_eps(f(t) - x) dt of each
    scalar path (N, n+1, 1) on x_grid; shape (N, len(x_grid))."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    v = _scalar_paths(values)
    w = interval_weights(v.shape[1] - 1)
    x_grid = np.asarray(x_grid, dtype=float)
    sq = (v[:, None, :] - x_grid[None, :, None]) ** 2
    return gauss_kernel_sq(sq, eps, d=1) @ w


# raw moments of the standard normal, E Z^k for k = 0..4
_GAUSS_MOMENTS = np.array([1.0, 0.0, 1.0, 0.0, 3.0])
MAX_OCCUPATION_DEGREE = 4


def _smoothed_poly_coeffs(coeffs, eps):
    """Coefficients of g(m) = E f(m + sqrt(eps) Z) for polynomial f."""
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros_like(coeffs)
    for j, c in enumerate(coeffs):
        if c == 0.0:
            continue
        for i in range(0, j + 1, 2):
            out[j - i] += c * math.comb(j, i) * _GAUSS_MOMENTS[i] * eps ** (i / 2)
    return out


def occupation_identity(values: np.ndarray, eps: float, coeffs):
    """Both sides of the occupation identity for a polynomial test
    function f given by ``coeffs`` (degree <= 4, ascending powers), one
    value per scalar path (N, n+1, 1).

    lhs integrates f against the local-time field, with the x-integral
    done analytically node by node; rhs integrates the Gaussian-smoothed
    polynomial along the path.  Equality is exact Fubini at the shared
    time discretization.  Returns (lhs, rhs), two arrays of shape (N,).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if len(coeffs) > MAX_OCCUPATION_DEGREE + 1:
        raise ValueError(f"polynomial degree must be <= {MAX_OCCUPATION_DEGREE}")
    if not eps > 0:
        raise ValueError("eps must be positive")
    v = _scalar_paths(values)
    w = interval_weights(v.shape[1] - 1)
    # lhs: per node m, int f(x) p_eps(m - x) dx via central moments of N(m, eps)
    s = math.sqrt(eps)
    lhs_node = np.zeros_like(v)
    for j, c in enumerate(coeffs):
        if c == 0.0:
            continue
        moment_j = np.zeros_like(v)
        for i in range(0, j + 1, 2):
            moment_j += math.comb(j, i) * _GAUSS_MOMENTS[i] * s**i * v ** (j - i)
        lhs_node += c * moment_j
    lhs = lhs_node @ w
    # rhs: evaluate the smoothed polynomial along the path
    g = _smoothed_poly_coeffs(coeffs, eps)
    rhs = np.polynomial.polynomial.polyval(v, g) @ w
    return lhs, rhs
