"""Approximating functionals on sampled paths (N, n+1, d), one value per
path: smoothed local time at a level, smoothed self-intersection local
time, the endpoint kernel, band-occupation local time, upcrossing counts
and the local-time field.  ``eval_family_many`` evaluates a whole eps
family at once, (n_eps, N), each row bit for bit its single-eps value.

Every time integral of a node function, sum_k w_k g(f(t_k)) with the
trapezoid weights w, is made by ``node_sums``: local time, the band, the
local-time field and ``fac``'s KL projections.  Per ``processes.row_blocks``
block, each fill writes g into one reused buffer, whose rows are
zero-padded to whole 8-row groups before the product with w, so no path's
value depends on its batch and no chunk-sized temporary is made.

The pair kernels, G_eps here and the chaos terms in ``chaos``, integrate
over the triangle {s < t} with the product-trapezoid weights of the
square restricted to the strict upper triangle plus half the diagonal,
so a constant integrand integrates to exactly 1/2.  They work on the
time-major blocks of ``lag_blocks``: the paths of a row block copied to
(d, n+1, P), P padded to whole groups of 8 paths, so that each lag slice
is one contiguous run and the lag work goes into per-block buffers that
are reused.  G_eps does the eps-free work of each lag, the differences
and |dv - u|^2, once for the whole eps grid.  Each path's value is then
bit for bit the same whatever batch, caller split or block computes it.
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
class _Smoothed:
    """A functional smoothed at scale eps > 0."""

    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")


@dataclass(frozen=True)
class LocalTime(_Smoothed):
    """Phi_eps(f) = int_0^1 p_eps(f(t)) dt; scalar paths only."""


@dataclass(frozen=True)
class SelfIntersection(_Smoothed):
    """G_eps(f) = int_{s<t} p_eps^d(f(t) - f(s) - u) ds dt."""

    u: tuple

    def __post_init__(self):
        super().__post_init__()
        _warn_zero_offset(self.u)


@dataclass(frozen=True)
class EndpointKernel(_Smoothed):
    """Phi_eps(f) = p_eps(f(1)); scalar paths only."""


FunctionalSpec = LocalTime | SelfIntersection | EndpointKernel


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
    """Trapezoid weights over the n_steps + 1 grid nodes; sum to 1.  Built
    once per n_steps and shared between callers, so read-only."""
    w = np.full(n_steps + 1, 1.0 / n_steps)
    w[0] *= 0.5
    w[-1] *= 0.5
    w.flags.writeable = False
    return w


def triangle_rule(n_steps: int):
    """Per-lag rule for the triangle {0 <= s <= t <= 1}.

    Yields, for L = 0..n_steps, the weights of the node pairs (i, i + L),
    i = 0..n_steps - L, whose time gap is L / n_steps: products of
    trapezoid weights, halved on the diagonal L = 0, summing to exactly
    1/2 over all lags.  Each lag's weights are made when it is reached;
    the whole rule would be (n+1)(n+2)/2 floats, 268 MB at 2^13 steps.
    """
    w1 = interval_weights(n_steps)
    yield 0.5 * (w1 * w1)
    for lag in range(1, n_steps + 1):
        yield w1[: n_steps + 1 - lag] * w1[lag:]


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
    want = len(spec.u) if isinstance(spec, SelfIntersection) else 1
    if d != want:
        raise ValueError(f"path dimension {d} does not match the functional ({want})")


def eval_functional_many(spec: FunctionalSpec, values: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over a batch of paths of shape (N, n+1, d)."""
    return eval_family_many(lambda eps: spec, (spec.eps,), values)[0]


def eval_family_many(family, eps_grid, values: np.ndarray) -> np.ndarray:
    """Phi_eps = family(eps) for every eps of ``eps_grid`` over a batch of
    paths (N, n+1, d); shape (n_eps, N).

    The members must differ only in eps, and go through one eps-grid pass:
    the endpoint kernel squares the end values once, LocalTime makes one
    ``node_sums`` pass with one fill per eps, and G_eps runs its eps-grid
    kernel.  Every row is bit for bit its single-eps value.
    """
    specs = [family(eps) for eps in eps_grid]
    if not specs:
        raise ValueError("need at least one eps")
    first = specs[0]
    key = lambda s: (type(s), tuple(getattr(s, "u", ())))
    if any(key(s) != key(first) for s in specs):
        raise ValueError("the members of a family may differ in eps only")
    _check_dim(first, values)
    eps = [s.eps for s in specs]
    kind = type(first)
    if kind is EndpointKernel:
        sq = values[:, -1, 0] ** 2
        return np.stack([gauss_kernel_sq(sq, e, d=1) for e in eps])
    if kind is SelfIntersection:
        return _self_intersection_many(values, eps, np.asarray(first.u, dtype=float))
    if kind is LocalTime:
        return node_sums(values[:, :, 0], interval_weights(values.shape[1] - 1), [
            lambda b, out, e=e: gauss_kernel_sq(np.square(b, out=out), e, out=out)
            for e in eps])
    raise TypeError(f"unknown functional spec {first!r}")


def node_sums(values: np.ndarray, w: np.ndarray, fills) -> np.ndarray:
    """Weighted node sums sum_i w[i] g(t_i) over the paths (N, n+1, ...),
    one per fill, path and weight vector: shape (len(fills), N), or
    (len(fills), K, N) for a stack w of K weight vectors (K, n+1).

    For each ``row_blocks`` block of the paths, ``fill(block, out)`` writes
    the node values g of the block's nb paths into ``out``, the leading
    (nb, n+1) rows of one reused buffer.  The rows are zero-padded to
    whole _ROW_GROUP groups and multiplied by each weight vector, so every
    row goes through dgemv's grouped kernel and has the bits it has in any
    batch.  Alone it would go through numpy's one-row product (ddot), in a
    ragged tail through dgemv's one-row tail, and in a matrix-matrix
    product through dgemm, whose bits depend on the row count.

    The buffer is the call's only block-sized temporary, and a fill that
    works in place in ``out`` keeps it so.  With a second one, both freed
    at every return, glibc gives the top of the heap back to the system
    and faults it in again on the next call: streamed through the engine's
    8-row blocks at n_steps = 4096, that was 96 page faults per block,
    122 000 in one ``wcl sweep`` run at its defaults.
    """
    n_paths, n_nodes = values.shape[:2]
    stack = np.atleast_2d(w)
    out = np.empty((len(fills), len(stack), n_paths))
    blocks = row_blocks(n_paths, n_nodes)
    buf = block_buffer(blocks, n_nodes)
    for rows in blocks:
        nb = rows.stop - rows.start
        padded = buf[: -(-nb // _ROW_GROUP) * _ROW_GROUP]
        padded[nb:] = 0.0
        for f, fill in enumerate(fills):
            fill(values[rows], padded[:nb])
            for k, wk in enumerate(stack):
                out[f, k, rows] = (padded @ wk)[:nb]
    return out if np.ndim(w) > 1 else out[:, 0]


def _self_intersection_many(values, eps_grid, u):
    """G_eps per path for every eps of ``eps_grid``, (n_eps, N), summed
    lag by lag in float64.

    Lag L adds exp(-|v[i+L] - v[i] - u|^2 / 2 eps) against the lag-L
    weights of ``triangle_rule``.  The squared distances are computed
    once per lag; only the scaling, exp and weighted sum run per eps,
    with the same operations as for a single eps, so each row does not
    depend on the other eps of the grid.  The work of a lag goes into
    two (n+1) * P buffers per ``lag_blocks`` block, allocated once: the
    squared distances, and the differences, then the kernel values.
    Measured against a long-double sum over node pairs, the relative
    error is at most 4.8e-15 for d = 1, 2, n_steps = 256 to 2048 and
    eps = 0.01, 0.1, 1.
    """
    _, n_nodes, d = values.shape
    factors = [-0.5 / eps for eps in eps_grid]
    out = np.empty((len(eps_grid), values.shape[0]))
    for rows, v in lag_blocks(values):
        n_cols = v.shape[2]
        acc = np.zeros((len(eps_grid), n_cols))
        bufs = np.empty((2, n_nodes * n_cols))  # diff (then kern) and sq, reused per lag
        for lag, w in enumerate(triangle_rule(n_nodes - 1)):
            diff, sq = (leading_view(b, n_nodes - lag, n_cols) for b in bufs)
            for j in range(d):
                dj = diff if j else sq
                np.subtract(v[j, lag:], v[j, : n_nodes - lag], out=dj)
                dj -= u[j]
                dj *= dj
                if j:
                    sq += diff
            kern = diff  # the differences are spent once sq is formed
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

    def inside(block, out):  # the 0.0 / 1.0 mask of |v - x| <= eps, built in place
        np.abs(np.subtract(block, x, out=out), out=out)
        np.less_equal(out, eps, out=out)

    [out] = node_sums(v, interval_weights(v.shape[1] - 1), [inside])
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
    fills = [lambda b, out, x=x: gauss_kernel_sq(np.square(np.subtract(b, x, out=out), out=out),
                                                 eps, out=out)
             for x in np.asarray(x_grid, dtype=float)]
    return node_sums(v, interval_weights(v.shape[1] - 1), fills).T
