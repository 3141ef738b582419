"""Gaussian process models on a uniform grid of [0,1].

Four models: Brownian motion, Gaussian integrators X(t) driven by a
bounded invertible operator acting on step functions, a smooth
stationary sinusoidal process (for level-crossing counts) and the
degenerate line t*xi.

All node-level covariances are exact finite-dimensional linear algebra:
increments are sampled exactly, the operator acts on cell coefficients
under the h-weighted inner product <u,v> = h * sum(u_i v_i), so
statistical tests downstream carry no discretization bias at the nodes.

Paths have one representation: the values array of ``sample_values``,
shape (paths, n_steps + 1, d), with values[p, k, j] = X_j(t_k) of path p
and values[:, 0] = 0.  A single path is a batch of one.

``mc_moments`` is the package's one Monte Carlo engine: every estimate
samples its replica chunks through it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

_MIN_SINGULAR_VALUE = 1e-10
# paths per replica chunk of every Monte Carlo estimate (see mc_moments)
MC_CHUNK = 1000


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
        self.matrix = matrix
        self.n_cells = matrix.shape[0]
        self._singular_values = np.linalg.svd(matrix, compute_uv=False)
        if self._singular_values[-1] <= _MIN_SINGULAR_VALUE:
            raise ValueError("operator matrix is numerically singular")

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @property
    def singular_values(self) -> np.ndarray:
        return self._singular_values

    @classmethod
    def identity(cls, n_cells):
        return cls(np.eye(n_cells))

    @classmethod
    def from_profile(cls, g, n_cells):
        """Multiplication operator (Af)(s) = g(s) f(s), g sampled at cell
        midpoints."""
        s = (np.arange(n_cells) + 0.5) / n_cells
        return cls(np.diag(np.asarray([g(si) for si in s], dtype=float)))

    def indicator_coefficients(self, i, j):
        """Cell-coefficient vector of the indicator of [t_i, t_j]."""
        v = np.zeros(self.n_cells)
        v[i:j] = 1.0
        return v

    def weighted_norm(self, coeffs) -> float:
        return math.sqrt(self.h * float(np.dot(coeffs, coeffs)))

    def node_image_matrix(self):
        """Column k is M applied to the indicator coefficients of [0, t_k]."""
        # column k has ones in the first k cells
        cum = (np.arange(self.n_cells)[:, None] < np.arange(self.n_cells + 1)[None, :]).astype(float)
        return self.matrix @ cum


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

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError("angular frequency must be positive")


@dataclass(frozen=True)
class DegenerateLine:
    """eta(t) = t * xi with xi standard Gaussian; all mass on lines."""


ProcessModel = BrownianMotion | Integrator | SmoothStationary | DegenerateLine


def model_dimension(model: ProcessModel) -> int:
    if isinstance(model, (BrownianMotion, Integrator)):
        return model.d
    return 1


def replica_seed(master_seed: int, replica: int):
    """Derived seed for one replica; order-independent across replicas."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(replica,))


def _increments(rng, h, shape):
    """N(0, h) draws, bit for bit those of rng.normal(0, sqrt(h), shape),
    which spends a quarter of its time on per-draw loc/scale arithmetic."""
    dw = rng.standard_normal(size=shape)
    dw *= math.sqrt(h)
    return dw


def sample_values(model: ProcessModel, grid: TimeGrid, seed, n_paths=1):
    """Sample n_paths paths at once; returns values of shape
    (n_paths, n_steps + 1, d) plus derivative (or None).

    ``seed`` may be an int or a numpy SeedSequence.
    """
    rng = np.random.default_rng(seed)
    n = grid.n_steps
    h = grid.h
    if isinstance(model, BrownianMotion):
        dw = _increments(rng, h, (n_paths, n, model.d))
        values = np.empty((n_paths, n + 1, model.d))
        values[:, 0] = 0.0
        np.cumsum(dw, axis=1, out=values[:, 1:])
        return values, None
    if isinstance(model, Integrator):
        op = model.operator
        if op.n_cells != n:
            raise ValueError(
                f"operator has {op.n_cells} cells but the grid has {n} steps"
            )
        basis = op.node_image_matrix()  # (n, n+1)
        dw = _increments(rng, h, (n_paths, n, model.d))
        # one BLAS product for all paths and coordinates: (N*d, n) @ (n, n+1)
        values = np.tensordot(dw, basis, axes=(1, 0)).transpose(0, 2, 1)
        return np.ascontiguousarray(values), None
    if isinstance(model, SmoothStationary):
        xi = rng.normal(size=(n_paths, 2))
        t = grid.times
        c, s = np.cos(model.omega * t), np.sin(model.omega * t)
        values = (xi[:, :1] * c[None, :] + xi[:, 1:] * s[None, :])[:, :, None]
        deriv = (
            -xi[:, :1] * model.omega * s[None, :] + xi[:, 1:] * model.omega * c[None, :]
        )[:, :, None]
        return values, deriv
    if isinstance(model, DegenerateLine):
        xi = rng.normal(size=(n_paths, 1))
        values = (xi * grid.times[None, :])[:, :, None]
        return values, None
    raise TypeError(f"unknown model {model!r}")


def thread_cap() -> int:
    """Worker cap from the WCL_THREADS environment variable (default 1).

    Raises ValueError unless the variable is unset or a positive integer.
    """
    raw = os.environ.get("WCL_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"WCL_THREADS must be a positive integer, got {raw!r}")
    return cap


def mc_moments(model: ProcessModel, grid: TimeGrid, seed, n_samples: int, fn):
    """Monte Carlo means and standard errors of k per-path statistics.

    Replica chunk r holds the paths r * MC_CHUNK onwards, at most
    ``MC_CHUNK`` of them, drawn once from ``replica_seed(seed, r)``.
    ``fn(values)`` maps a chunk of values (paths, n_steps + 1, d) to a
    (k, paths) array, or (paths,) for k = 1, of statistics of the same
    paths.  Chunks run on ``thread_cap()`` threads but are reduced in
    replica order, so the result does not depend on the thread count.

    Each mean is the compensated sum (``math.fsum``) of the per-chunk
    sums over n.  Variances merge the per-chunk (count, mean, M2) by the
    update of Chan, Golub & LeVeque (Am. Stat. 1983), which does not
    cancel when the mean is large against the spread, as E[x^2] - mean^2
    does.  Returns (mean, std_error), two arrays of shape (k,).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    jobs = [(r, min(MC_CHUNK, n_samples - lo))
            for r, lo in enumerate(range(0, n_samples, MC_CHUNK))]

    def run(job):
        r, nb = job
        values, _ = sample_values(model, grid, replica_seed(seed, r), n_paths=nb)
        x = np.atleast_2d(np.asarray(fn(values), dtype=float))
        if x.ndim != 2 or x.shape[1] != nb:
            raise ValueError(f"fn must return (k, {nb}) statistics, got {x.shape}")
        return _chunk_moments(x)

    workers = min(thread_cap(), len(jobs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return _merge_chunks(pool.map(run, jobs))
    return _merge_chunks(map(run, jobs))


def _chunk_moments(x):
    """(count, sums, M2) of one chunk's (k, paths) statistics."""
    nb = x.shape[1]
    s = np.sum(x, axis=1)
    return nb, s, np.sum((x - (s / nb)[:, None]) ** 2, axis=1)


def _merge_chunks(parts):
    """(mean, std_error) from per-chunk (count, sums, M2) in replica order."""
    sums = []
    n = 0
    for nb, s, m2_chunk in parts:
        mean_chunk = s / nb
        if n == 0:
            running, m2 = mean_chunk, m2_chunk
        else:
            delta = mean_chunk - running
            running = running + delta * (nb / (n + nb))
            m2 = m2 + m2_chunk + delta**2 * (n * nb / (n + nb))
        sums.append(s)
        n += nb
    mean = np.array([math.fsum(col) for col in zip(*sums)]) / n
    return mean, np.sqrt(m2 / n / n)


def covariance(model: ProcessModel, s: float, t: float) -> np.ndarray:
    """Exact d x d covariance matrix Cov(X(s), X(t)) at grid times."""
    if isinstance(model, BrownianMotion):
        return min(s, t) * np.eye(model.d)
    if isinstance(model, Integrator):
        op = model.operator
        grid = TimeGrid(op.n_cells)
        i, j = grid.index_of(s), grid.index_of(t)
        a = op.matrix @ op.indicator_coefficients(0, i)
        b = op.matrix @ op.indicator_coefficients(0, j)
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
    i, j = grid.index_of(s), grid.index_of(t)
    return op.weighted_norm(op.matrix @ op.indicator_coefficients(i, j))


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
    lhs = op.weighted_norm(op.matrix @ c) ** 2
    _, big = operator_bounds(op)
    rhs = big * float(np.sum(coeffs**2 * np.diff(partition)))
    return lhs, rhs
