"""Gaussian process models on a uniform grid of [0,1].

Four models: Brownian motion, Gaussian integrators X(t) driven by a
bounded invertible operator acting on step functions, a smooth
stationary sinusoidal process (for level-crossing counts) and the
degenerate line t*xi.

All node-level covariances are exact finite-dimensional linear algebra:
increments are sampled exactly, and an integrator acts through its node
images (``node_image_matrix``) under the h-weighted inner product
<u,v> = h * sum(u_i v_i), so statistical tests downstream carry no
discretization bias at the nodes.

Paths have one representation: a values array of shape
(paths, n_steps + 1, d), with values[p, k, j] = X_j(t_k) of path p;
values[:, 0] = 0 for every model but the smooth stationary one, which
starts at xi_1.  A single path is a batch of one.

Every model is a linear image of i.i.d. standard normals, and
``sample_blocks`` is one loop for all: per row block of
``row_blocks(n_paths, n_steps + 1)`` it maps the block's normals into one
reused block buffer, so no chunk-sized temporary is made.  The draws of
one Generator split into consecutive calls are the same stream, so every
path is bit for bit the one an unblocked draw gives.  ``sample_values``
copies the blocks into one array.

``mc_moments`` is the package's one Monte Carlo engine: every estimate
samples its replica chunks through it, and each chunk streams through
the statistic block by block, never as a whole array of paths.  The
blocks are those of ``functionals.lag_blocks`` too, so a pair kernel
called on an engine block runs on the same block it would cut itself.
Chunks run at the same time, one per CPU, and merge in replica order;
``mc_moments`` says what that asks of a statistic.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

_MIN_SINGULAR_VALUE = 1e-10
# paths per replica chunk of every Monte Carlo estimate (see mc_moments)
MC_CHUNK = 1000
# the engine keeps one (k,) sums array per chunk, 9 MB at k = 104 (fac's
# study), and the (k, k) co-moments of about 2 x CPUs chunks not yet merged
MAX_SAMPLES = 10**7
# Rows times columns per row block of every blocked kernel: sampling, the
# O(n) path functionals and the pair kernels.  ``row_blocks`` rounds the
# rows down to whole groups of _ROW_GROUP, so a float64 block temporary
# holds 256 to 512 KiB up to 8192 columns, and stays in cache while it is
# worked on: 498 KiB at 256 steps (248 rows), 384 KiB at 2048 (24 rows,
# where 31 would fit) and 256 KiB at 4096 (8 rows, where 15 would fit).
# Past 8192 columns a block has 8 rows and is larger.
# Timed on the time-major pair kernels at 2^13 to 2^18 and n_steps = 256
# and 1024, 2^15 to 2^17 were the fastest.
_BLOCK_ELEMENTS = 1 << 16
# The rows of every block come in whole groups of 8.  OpenBLAS's dgemv
# takes the rows of a row-major matrix four at a time and the last n % 4
# one at a time, so blocks of whole 8-row groups, the last block keeping
# the array's own remainder, give every row of a matrix-vector product
# the bits of the unblocked product.  Local time and the pair kernels
# also pad their blocks to whole 8-path groups (``functionals.lag_blocks``).
_ROW_GROUP = 8


def row_blocks(n_rows: int, n_cols: int) -> list:
    """Consecutive row slices covering range(n_rows), in order.

    Each holds _BLOCK_ELEMENTS // n_cols rows rounded down to a multiple
    of _ROW_GROUP (at least _ROW_GROUP); the last also takes a remainder
    of fewer than _ROW_GROUP rows.  Each row's result must depend on its
    own row only; that holds for a matrix-vector product of the block
    too.
    """
    step = max(_ROW_GROUP, _BLOCK_ELEMENTS // n_cols // _ROW_GROUP * _ROW_GROUP)
    blocks = []
    lo = 0
    while lo < n_rows:
        hi = lo + step if n_rows - lo - step >= _ROW_GROUP else n_rows
        blocks.append(slice(lo, hi))
        lo = hi
    return blocks


def block_buffer(blocks: list, *shape) -> np.ndarray:
    """An empty float64 array with room for the longest of ``blocks``,
    rounded up to whole _ROW_GROUP groups, each row of the given shape;
    views of its leading rows serve every block."""
    rows = max((b.stop - b.start for b in blocks), default=0)
    return np.empty((-(-rows // _ROW_GROUP) * _ROW_GROUP, *shape))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = 1 with n_steps cells."""

    n_steps: int

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError("need at least 2 steps")

    @property
    def h(self) -> float:
        return 1.0 / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_steps + 1)

    def index_of(self, t: float) -> int:
        k = round(t * self.n_steps)
        if abs(k * self.h - t) > 1e-12:
            raise ValueError(f"time {t} is not a grid node")
        return int(k)


class IntegratorOperator:
    """Matrix representation of a bounded invertible operator on
    L2([0,1]) restricted to step functions on the grid cells.

    The matrix acts on cell-coefficient vectors; norms and inner
    products carry the h-weight of the cells.
    """

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("operator matrix must be finite")
        self.matrix = matrix
        self.n_cells = matrix.shape[0]
        diagonal = np.diagonal(matrix)
        if np.count_nonzero(matrix) == np.count_nonzero(diagonal):
            # a diagonal matrix's singular values are its sorted |entries|:
            # no O(n^3) SVD for from_profile's multiplication operators
            self.singular_values = np.sort(np.abs(diagonal))[::-1]
        else:
            self.singular_values = np.linalg.svd(matrix, compute_uv=False)
        if self.singular_values[-1] <= _MIN_SINGULAR_VALUE:
            raise ValueError("operator matrix is numerically singular")

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @classmethod
    def from_profile(cls, g, n_cells):
        """Multiplication operator (Af)(s) = g(s) f(s), g sampled at cell
        midpoints."""
        s = (np.arange(n_cells) + 0.5) / n_cells
        return cls(np.diag(np.asarray([g(si) for si in s], dtype=float)))

    def node_image_matrix(self):
        """(n_cells, n_cells + 1); column k is M applied to the indicator
        coefficients of [0, t_k], the sum of M's first k columns."""
        images = np.zeros((self.n_cells, self.n_cells + 1))
        np.cumsum(self.matrix, axis=1, out=images[:, 1:])
        return images


@dataclass(frozen=True)
class BrownianMotion:
    d: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")


@dataclass(frozen=True)
class Integrator:
    operator: IntegratorOperator
    d: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")


@dataclass(frozen=True)
class SmoothStationary:
    """xi(t) = xi_1 cos(omega t) + xi_2 sin(omega t); unit variance,
    derivative variance omega^2."""

    omega: float
    d = 1  # scalar paths only; unannotated, so not a dataclass field

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError("angular frequency must be positive")


@dataclass(frozen=True)
class DegenerateLine:
    """eta(t) = t * xi with xi standard Gaussian; all mass on lines."""

    d = 1  # scalar paths only; unannotated, so not a dataclass field


ProcessModel = BrownianMotion | Integrator | SmoothStationary | DegenerateLine


def replica_seed(master_seed: int, replica: int):
    """Derived seed for one replica; order-independent across replicas."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(replica,))


def sample_blocks(model: ProcessModel, grid: TimeGrid, seed, n_paths=1):
    """Sample n_paths paths block by block: yields (rows, values) for each
    ``row_blocks(n_paths, n_steps + 1)`` block, values being the
    (len(rows), n_steps + 1, d) paths of ``rows``.

    Per block, the block's standard normals are drawn into one reused
    buffer in path order, and a linear map per model writes the paths:
    Brownian increments sqrt(h) z summed along the path; an integrator's
    increments times its node images, one matrix product per block;
    xi_1 cos(omega t) + xi_2 sin(omega t); xi t.  ``values`` is a view of
    one buffer that the next block overwrites, so a caller copies what it
    keeps.  ``seed`` may be an int or a numpy SeedSequence.

    An integrator's path still depends in the last bit on its batch, as
    dgemm rounds a row by the row count, even with rows padded to groups
    of 8.  ``test_integrator_batch_error_is_bounded`` in
    tests/test_processes.py states that error and holds it under 1e-14 of
    the path's largest value.
    """
    n = grid.n_steps
    blocks = row_blocks(n_paths, n + 1)
    root_h = math.sqrt(grid.h)
    if isinstance(model, BrownianMotion):
        z = block_buffer(blocks, n, model.d)

        def fill(z, out):
            # one 1-D running sum per path and coordinate: numpy holds the
            # GIL through an accumulate along an axis of a 2-D or 3-D
            # array, but not through a 1-D one, so engine threads overlap.
            # The calls cost: a 248-path block at 256 steps and d = 2 (496
            # calls) takes 3.2-4.4 ms to sample, 1.0-1.5 ms of it this fill
            # (one cumsum: 0.5 ms); an 8-path block at 4096 steps, d = 1,
            # takes 0.6-0.7 ms, 0.14 ms of it the fill, as with one cumsum
            z *= root_h
            out[:, 0] = 0.0
            for z_path, out_path in zip(z, out[:, 1:]):
                for c in range(model.d):
                    np.add.accumulate(z_path[:, c], out=out_path[:, c])
    elif isinstance(model, Integrator):
        images = model.operator.node_image_matrix()
        if len(images) != n:
            raise ValueError(f"operator has {len(images)} cells but the grid has {n} steps")
        z = block_buffer(blocks, n, model.d)

        def fill(z, out):  # one (nb * d, n) @ (n, n + 1) product
            z *= root_h
            out[...] = np.tensordot(z, images, axes=(1, 0)).transpose(0, 2, 1)
    elif isinstance(model, SmoothStationary):
        c, s = np.cos(model.omega * grid.times), np.sin(model.omega * grid.times)
        z = block_buffer(blocks, 2)
        term = block_buffer(blocks, n + 1)

        def fill(z, out):
            v = out[:, :, 0]
            np.multiply(z[:, :1], c, out=v)
            v += np.multiply(z[:, 1:], s, out=term[: len(z)])
    elif isinstance(model, DegenerateLine):
        z = block_buffer(blocks, 1)

        def fill(z, out):
            np.multiply(z, grid.times, out=out[:, :, 0])
    else:
        raise TypeError(f"unknown model {model!r}")
    rng = np.random.default_rng(seed)
    buf = block_buffer(blocks, n + 1, model.d)
    for rows in blocks:
        nb = rows.stop - rows.start
        rng.standard_normal(out=z[:nb])
        fill(z[:nb], buf[:nb])
        yield rows, buf[:nb]


def sample_values(model: ProcessModel, grid: TimeGrid, seed, n_paths=1):
    """Sample n_paths paths at once; returns values of shape
    (n_paths, n_steps + 1, d) and None, for every model: the blocks of
    ``sample_blocks`` copied into one array.

    ``seed`` may be an int or a numpy SeedSequence.
    """
    values = np.empty((n_paths, grid.n_steps + 1, model.d))
    for rows, block in sample_blocks(model, grid, seed, n_paths):
        values[rows] = block
    return values, None


def mc_moments(model: ProcessModel, grid: TimeGrid, seed, n_samples: int, fn):
    """Monte Carlo means of k per-path statistics and their covariance.

    Replica chunk r holds the paths r * MC_CHUNK onwards, at most
    ``MC_CHUNK`` of them, drawn once from ``replica_seed(seed, r)``.
    Chunks run at the same time, one per CPU, and about 2 x CPUs of them
    are held until they are reduced, in replica order (``_in_order``), so
    ``fn`` must not touch shared mutable state.  A chunk streams through
    ``fn`` in the row blocks of ``sample_blocks``: ``fn(values)``
    maps a block (paths, n_steps + 1, d) to a (k, paths) array, or
    (paths,) for k = 1, whose columns fill the chunk's C-ordered table,
    so no chunk-sized array of paths is made and no sum depends on the
    layout ``fn`` returns.  A path's statistic must not depend on the
    other paths of the call, to the bit, for the result to be that of one
    whole-chunk call.  ``fn`` may return a view of ``values``, which is
    copied at once, but may not keep it: the next block overwrites it.

    Each mean is the compensated sum (``math.fsum``) of the per-chunk
    sums over n.  The chunks' (k, k) co-moments C merge by the update of
    Chan, Golub & LeVeque (Am. Stat. 1983), C_a + C_b + delta delta^T
    n_a n_b / n, which does not cancel when a mean is large against the
    spread, as E[xy] - E[x] E[y] does.  Returns (mean, cov): the (k,)
    means and their (k, k) covariance C / n^2; see ``delta_se``.
    """
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"need 1 to {MAX_SAMPLES} samples, got {n_samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")

    def run(r):
        nb, table = min(MC_CHUNK, n_samples - r * MC_CHUNK), None
        for rows, values in sample_blocks(model, grid, replica_seed(seed, r), nb):
            x = np.atleast_2d(np.asarray(fn(values), dtype=float))
            if x.ndim != 2 or x.shape[1] != len(values):
                raise ValueError(f"fn must return (k, {len(values)}) statistics, "
                                 f"got {x.shape}")
            if table is None:
                table = np.empty((len(x), nb))
            # copied out now: x may be a view of the buffer the next block reuses
            table[:, rows] = x
        return _chunk_moments(table)

    return _merge_chunks(_in_order(run, -(-n_samples // MC_CHUNK)))


def _in_order(job, n_jobs):
    """job(0), ..., job(n_jobs - 1), yielded in order.  The caller and
    min(n_jobs, CPUs) - 1 helper threads start the next job while fewer
    than 2 x workers are started and not yielded.  An error stops new jobs
    and is raised here, in job order, once the helpers have joined."""
    # the CPUs this process may run on; macOS and Windows have no affinity call
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(n_jobs, cpus or 1)
    cond, done = threading.Condition(), {}
    taken = merged = 0

    def work(stop):  # runs jobs until stop() holds, waiting while none may start
        nonlocal taken
        while True:
            with cond:
                while not stop() and (taken == n_jobs or taken - merged >= 2 * workers):
                    cond.wait()
                if stop():
                    return
                r, taken = taken, taken + 1
            try:
                result = job(r)
            except BaseException as exc:  # the caller raises it
                result = exc
            with cond:
                done[r] = result
                taken = n_jobs if isinstance(result, BaseException) else taken
                cond.notify_all()

    helpers = [threading.Thread(target=work, args=(lambda: taken == n_jobs,))
               for _ in range(workers - 1)]
    for thread in helpers:
        thread.start()
    try:
        while merged < n_jobs:
            work(lambda: merged in done)
            with cond:
                result = done.pop(merged)
                merged += 1
                cond.notify_all()
            if isinstance(result, BaseException):
                raise result
            yield result
    finally:
        with cond:
            taken = n_jobs
            cond.notify_all()
        for thread in helpers:
            thread.join()


def _chunk_moments(x):
    """(count, sums, co-moments) of one chunk's (k, paths) statistics."""
    nb = x.shape[1]
    s = np.sum(x, axis=1)
    c = x - (s / nb)[:, None]
    # c @ c.T is exactly symmetric (syrk), but its diagonal is not the rows'
    # sums of squares to the bit; those give a row the bits of its own pass
    m2 = c @ c.T
    np.fill_diagonal(m2, np.sum(c**2, axis=1))
    return nb, s, m2


def _merge_chunks(parts):
    """(mean, cov) from per-chunk (count, sums, co-moments) in replica order."""
    # from zero: the first chunk's mean and co-moments come through exactly
    sums, n, running, m2 = [], 0, 0.0, 0.0
    for nb, s, m2_chunk in parts:
        delta = s / nb - running
        running = running + delta * (nb / (n + nb))
        m2 = m2 + m2_chunk + np.outer(delta, delta) * (n * nb / (n + nb))
        sums.append(s)
        n += nb
    mean = np.array([math.fsum(col) for col in zip(*sums)]) / n
    return mean, m2 / n / n


def delta_se(cov, jac):
    """Delta-method standard errors sqrt(J C J^T) of smooth functions of the
    means of ``mc_moments``, C = ``cov``, with gradients ``jac`` (..., k).
    Clamped at 0: C of path-free means (chaos order 0) is rounding noise, so J C J^T can be < 0."""
    return np.sqrt(np.maximum(np.einsum("...i,ij,...j->...", jac, cov, jac), 0.0))


def covariance(model: ProcessModel, s: float, t: float) -> np.ndarray:
    """Exact d x d covariance matrix Cov(X(s), X(t)) at grid times."""
    if isinstance(model, BrownianMotion):
        return min(s, t) * np.eye(model.d)
    if isinstance(model, Integrator):
        op = model.operator
        grid = TimeGrid(op.n_cells)
        images = op.node_image_matrix()
        a, b = images[:, grid.index_of(s)], images[:, grid.index_of(t)]
        return op.h * float(np.dot(a, b)) * np.eye(model.d)
    if isinstance(model, SmoothStationary):
        return np.array([[math.cos(model.omega * (t - s))]])
    if isinstance(model, DegenerateLine):
        return np.array([[s * t]])
    raise TypeError(f"unknown model {model!r}")


def sigma_interval(op: IntegratorOperator, s: float, t: float) -> float:
    """sigma(s, t) = ||M 1_{[s,t]}|| under the h-weighted inner product."""
    if s > t:
        raise ValueError("need s <= t")
    grid = TimeGrid(op.n_cells)
    images = op.node_image_matrix()
    image = images[:, grid.index_of(t)] - images[:, grid.index_of(s)]
    return math.sqrt(op.h * float(np.dot(image, image)))


def operator_bounds(op: IntegratorOperator):
    """(m, M_up): extreme squared singular values of the operator.

    These bracket sigma^2: m*(t-s) <= sigma(s,t)^2 <= M_up*(t-s) for all
    grid s <= t.  The h-weights cancel in the Rayleigh quotient, so the
    plain singular values of the matrix apply.
    """
    sv = op.singular_values
    return float(sv[-1] ** 2), float(sv[0] ** 2)


def integrator_inequality(op: IntegratorOperator, partition, coeffs):
    """Exact both sides of the defining L2-boundedness inequality for
    the increments of the integrator.

    lhs = E[sum a_k (X(t_{k+1}) - X(t_k))]^2 = ||M c||^2 with c the cell
    coefficients of sum a_k 1_{[t_k, t_{k+1}]}; rhs_bound uses the
    largest squared singular value.
    """
    partition = np.asarray(partition, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    if np.any(np.diff(partition) <= 0):
        raise ValueError("partition must be strictly increasing")
    if len(coeffs) != len(partition) - 1:
        raise ValueError("need one coefficient per partition interval")
    grid = TimeGrid(op.n_cells)
    c = np.zeros(op.n_cells)
    for a_k, lo, hi in zip(coeffs, partition[:-1], partition[1:]):
        c[grid.index_of(lo):grid.index_of(hi)] += a_k
    image = op.matrix @ c
    lhs = op.h * float(np.dot(image, image))
    _, big = operator_bounds(op)
    rhs = big * float(np.sum(coeffs**2 * np.diff(partition)))
    return lhs, rhs
