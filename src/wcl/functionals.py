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
For LocalTime and SelfIntersection it runs an eps-grid kernel: one pass
over the row blocks, and for G_eps the eps-free work of each lag, the
differences and |dv - u|^2, done once.  The eps-dependent steps run per
eps, in the same order as for one eps, and a single eps is a one-row
call of the same kernel, so each row is bit for bit the
``eval_functional_many`` value.

Local time, the band and upcrossings run over the ~512 kB row blocks of
``processes.row_blocks`` with reused temporaries and give the bits of
their whole-array formulas, local time's and the band's on arrays padded
to 8-row groups.
Offset local time, the local-time field and the occupation identity end
in one whole-array product, its rows padded to 8-row groups the same way,
so none of these values depends on the batch.

The pair kernels, G_eps here and the chaos terms in ``chaos``, work on
the time-major blocks of ``lag_blocks``: the paths of a row block copied
to (d, n+1, P), P padded to whole groups of 8 paths, so that each lag
slice is one contiguous run and the lag work goes into per-block buffers
that are reused.  Each path's value is then bit for bit the same
whatever batch, caller split or block computes it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analytic import gauss_kernel_sq
from .processes import _ROW_GROUP, block_buffer, row_blocks


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


def lag_blocks(values: np.ndarray):
    """Yield (rows, v) over the ``row_blocks`` of the paths (N, n+1, d).

    v is a zero-filled, time-major (d, n+1, P) copy of the paths of
    ``rows``, P being their count rounded up to a multiple of
    ``processes._ROW_GROUP``; its first len(rows) columns are the paths,
    the rest padding, which the pair kernels compute and then drop.
    Every lag slice v[j, L:] or v[j, :n+1-L] is one contiguous run of
    (n+1-L) * P elements, and a per-lag temporary holds about 512 kB.

    Each pair kernel ends a lag in a vector-matrix product w @ K over a
    (n+1-L, P) matrix K, which OpenBLAS's dgemv works through in SIMD
    groups of path columns.  With P a multiple of 8 every column gets the
    same bits, so a path's value does not depend on the batch, caller
    split or block that holds it; with 1-3 or 5-7 columns left over it
    would.
    """
    n_paths, n_nodes, d = values.shape
    for rows in row_blocks(n_paths, n_nodes):
        nb = rows.stop - rows.start
        v = np.zeros((d, n_nodes, -(-nb // _ROW_GROUP) * _ROW_GROUP))
        v[:, :, :nb] = values[rows].transpose(2, 1, 0)
        yield rows, v


def leading_view(buf: np.ndarray, *shape) -> np.ndarray:
    """The leading elements of the flat buffer ``buf`` as a contiguous
    array of ``shape``: one buffer serves every lag's shorter slices."""
    return buf[: math.prod(shape)].reshape(shape)


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
        return grouped_matvec(gauss_kernel_sq(sq, spec.eps, d=d), w)
    if isinstance(spec, SelfIntersection):
        return _self_intersection_many(values, (spec.eps,), np.asarray(spec.u, dtype=float))[0]
    raise TypeError(f"unknown functional spec {spec!r}")


def eval_family_many(family, eps_grid, values: np.ndarray) -> np.ndarray:
    """Phi_eps = family(eps) for every eps of ``eps_grid`` over a batch of
    paths (N, n+1, d); shape (n_eps, N).

    A LocalTime or SelfIntersection family whose members differ only in
    eps goes through one pass of its eps-grid kernel; any other family is
    one single-eps call per eps.
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
    """LocalTime for every eps of ``eps_grid``, (n_eps, N): per row block
    and eps, the squared node values and then their kernel are formed in
    place in one reused buffer.

    That buffer is the call's only block-sized temporary.  With a second
    one, both freed at every return, glibc gives the top of the heap back
    to the system and faults it in again on the next call: streamed
    through the engine's 8-row blocks at n_steps = 4096, that was 96 page
    faults per block, 122 000 in one ``wcl sweep`` run at its defaults.
    """
    v = values[:, :, 0]
    w = interval_weights(v.shape[1] - 1)
    out = np.empty((len(eps_grid), v.shape[0]))
    blocks = row_blocks(*v.shape)
    buf = block_buffer(blocks, v.shape[1])
    for rows in blocks:
        nb = rows.stop - rows.start
        for e, eps in enumerate(eps_grid):
            kern = _padded_rows(buf, nb)
            np.square(v[rows], out=kern[:nb])
            out[e, rows] = (gauss_kernel_sq(kern, eps, d=1, out=kern) @ w)[:nb]
    return out


def _padded_rows(buf: np.ndarray, nb: int) -> np.ndarray:
    """The leading rows of ``buf`` for a block of nb paths, rounded up to
    whole _ROW_GROUP groups, with the rows past nb zeroed.  A product of
    these rows with a weight vector goes through dgemv's grouped kernel,
    so each path has the bits it has in any batch; alone it would go
    through numpy's one-row product (ddot), and in a ragged tail through
    dgemv's one-row tail."""
    padded = buf[: -(-nb // _ROW_GROUP) * _ROW_GROUP]
    padded[nb:] = 0.0
    return padded


def grouped_matvec(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w over the last axis of a, with its rows stacked and zero-padded
    to whole _ROW_GROUP groups, so that every row goes through dgemv's
    grouped kernel and has the bits it has in any batch; alone or in a
    ragged tail it would go through ddot or dgemv's one-row tail, and in
    a matrix-matrix product through dgemm, whose bits depend on the row
    count.  A stack w (K, m) gives one product per row of w, shape
    (K,) + a.shape[:-1], from the one padded copy."""
    rows = a.reshape(-1, a.shape[-1])
    padded = np.zeros((-(-len(rows) // _ROW_GROUP) * _ROW_GROUP, rows.shape[1]))
    padded[: len(rows)] = rows
    out = np.stack([padded @ wk for wk in np.atleast_2d(w)])[:, : len(rows)]
    return out.reshape(w.shape[:-1] + a.shape[:-1])


def _self_intersection_many(values, eps_grid, u):
    """G_eps per path for every eps of ``eps_grid``, (n_eps, N), summed
    lag by lag in float64.

    Lag L adds exp(-|v[i+L] - v[i] - u|^2 / 2 eps) against the lag-L
    weights of ``triangle_rule``.  The squared distances are computed
    once per lag; only the scaling, exp and weighted sum run per eps,
    with the same operations as for a single eps, so each row does not
    depend on the other eps of the grid.  The work of a lag goes into
    three (n+1) * P buffers per ``lag_blocks`` block, allocated once.
    Measured against a long-double sum over node pairs, the relative
    error is at most 4.8e-15 for d = 1, 2, n_steps = 256 to 2048 and
    eps = 0.01, 0.1, 1.
    """
    _, n_nodes, d = values.shape
    _, weights = triangle_rule(n_nodes - 1)
    factors = [-0.5 / eps for eps in eps_grid]
    out = np.empty((len(eps_grid), values.shape[0]))
    for rows, v in lag_blocks(values):
        n_cols = v.shape[2]
        acc = np.zeros((len(eps_grid), n_cols))
        bufs = np.empty((3, n_nodes * n_cols))  # diff, sq, kern: reused per lag
        for lag, w in enumerate(weights):
            diff, sq, kern = (leading_view(b, n_nodes - lag, n_cols) for b in bufs)
            for j in range(d):
                dj = diff if j else sq
                np.subtract(v[j, lag:], v[j, : n_nodes - lag], out=dj)
                dj -= u[j]
                dj *= dj
                if j:
                    sq += diff
            for row, c in zip(acc, factors):
                np.multiply(sq, c, out=kern)
                np.exp(kern, out=kern)
                row += w @ kern
        out[:, rows] = acc[:, : rows.stop - rows.start]
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
    out = np.empty(v.shape[0])
    blocks = row_blocks(*v.shape)
    buf = block_buffer(blocks, v.shape[1])
    for rows in blocks:
        nb = rows.stop - rows.start
        padded = _padded_rows(buf, nb)
        # the 0.0 / 1.0 mask of |v - x| <= eps, built in place
        inside = np.subtract(v[rows], x, out=padded[:nb])
        np.abs(inside, out=inside)
        np.less_equal(inside, eps, out=inside)
        out[rows] = (padded @ w)[:nb]
    out /= 2.0 * eps
    return out


def upcrossing_count_many(values: np.ndarray, level: float) -> np.ndarray:
    """Per scalar path (N, n+1, 1), the number of grid intervals with
    value[k] < level <= value[k+1]."""
    v = _scalar_paths(values)
    out = np.empty(v.shape[0], dtype=int)
    for rows in row_blocks(*v.shape):
        below = v[rows] < level
        out[rows] = np.count_nonzero(below[:, :-1] & ~below[:, 1:], axis=1)
    return out


def local_time_field(values: np.ndarray, eps: float, x_grid) -> np.ndarray:
    """Smoothed field ell_eps(x) = int_0^1 p_eps(f(t) - x) dt of each
    scalar path (N, n+1, 1) on x_grid; shape (N, len(x_grid))."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    v = _scalar_paths(values)
    w = interval_weights(v.shape[1] - 1)
    x_grid = np.asarray(x_grid, dtype=float)
    sq = (v[:, None, :] - x_grid[None, :, None]) ** 2
    return grouped_matvec(gauss_kernel_sq(sq, eps, d=1), w)


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
    lhs = grouped_matvec(lhs_node, w)
    # rhs: evaluate the smoothed polynomial along the path
    g = _smoothed_poly_coeffs(coeffs, eps)
    rhs = grouped_matvec(np.polynomial.polynomial.polyval(v, g), w)
    return lhs, rhs
