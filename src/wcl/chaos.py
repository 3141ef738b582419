"""Chaos-expansion machinery for the smoothed self-intersection
functional and the endpoint-kernel family.

The order-k term of the expansion of G_eps is a double time integral of
products of Hermite factors.  Its path factor is
(tau/(tau+eps))^(n/2) * H_n(dw / sqrt(tau)), a pure order-n element of
the Wiener chaos, so partial sums are orthogonal projections and
residual second moments decrease in the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import hermite_eval, hermite_sequence, integrate_interval
from .functionals import lag_blocks, triangle_rule
from .processes import ProcessModel, TimeGrid, mc_moments
from .processes import sample_values  # noqa: F401  (perfbench wraps each binding)

MAX_TERM_ORDER = 30
MAX_BRIDGE_ORDER = 40

_FACTORIALS = np.array([math.factorial(n) for n in range(MAX_BRIDGE_ORDER + 1)], dtype=float)


def chaos_terms_many(values: np.ndarray, k_max: int, eps: float, u) -> np.ndarray:
    """Terms of order 0..k_max for a batch of paths.

    values: (N, n+1, d); returns an array of shape (k_max + 1, N).

    Summed lag by lag in float64.  At lag L the time gap tau = L/n, the
    kernel p^d_{tau+eps}(u), rho^(k/2) with rho = tau/(tau+eps) and the
    level factors H_n(u_j / sqrt(tau+eps)) are scalars; only the path
    factors H_n(dw_j / sqrt(tau)) are arrays, (k+1, block, n+1-L) per
    coordinate.  Measured against a long-double sum over node pairs, the
    error is below 2e-15 of the largest term of each order for d = 1, 2,
    n_steps = 256, 512, k_max = 6 and eps = 0.01, 0.1.
    """
    if k_max < 0 or k_max > MAX_TERM_ORDER:
        raise ValueError(f"order must be in [0, {MAX_TERM_ORDER}]")
    if not eps > 0:
        raise ValueError("eps must be positive")
    n_paths, n_nodes, d = values.shape
    u = np.asarray(u, dtype=float)
    if len(u) != d:
        raise ValueError("offset dimension must match the path dimension")
    tau, weights = triangle_rule(n_nodes - 1)
    s = tau + eps
    orders = np.arange(k_max + 1)
    # per-lag scalars: kernel * rho^(k/2), (n+1, k+1), and the level factors
    # H_k(u_j / sqrt(s)) / k!, (n+1, k+1, d); at tau = 0 only order 0 is used
    kernel = (2.0 * math.pi * s) ** (-0.5 * d) * np.exp(-float(np.dot(u, u)) / (2.0 * s))
    scale = kernel[:, None] * (tau / s)[:, None] ** (0.5 * orders)
    level = hermite_sequence(k_max, u[None, :] / np.sqrt(s)[:, None]).transpose(1, 0, 2)
    level /= _FACTORIALS[: k_max + 1, None]
    out = np.empty((k_max + 1, n_paths))
    # order 0 is H_0 = 1 on every path, and the only order the diagonal
    # tau = 0 feeds: one value for all paths
    out[0] = math.fsum(c * math.fsum(w) for c, w in zip(scale[:, 0], weights))
    for lo, v in lag_blocks(values):
        nb = v.shape[1]
        raw = np.zeros((n_nodes, k_max, nb))  # orders 1..k_max per lag, unscaled
        for lag in range(1, n_nodes):
            z = v[:, :, lag:] - v[:, :, : n_nodes - lag]
            z /= math.sqrt(tau[lag])
            h = hermite_sequence(k_max, z)  # (k+1, d, nb, n+1-L)
            h *= level[lag, :, :, None, None]
            poly = h[:, 0]
            for j in range(1, d):
                # poly[k]: over the multi-indices of order k in coordinates
                # 0..j, the sum of their weighted Hermite products
                poly = _order_product(poly, h[:, j])
            np.matmul(poly[1:], weights[lag], out=raw[lag])
        out[1:, lo : lo + nb] = np.einsum("lk,lkp->kp", scale[:, 1:], raw)
    return out


def _order_product(a, b):
    """Cauchy product over the leading order axis, truncated at its
    length: c[k] = sum_{r <= k} a[k - r] * b[r]."""
    c = np.zeros_like(a)
    for k in range(len(a)):
        for r in range(k + 1):
            c[k] += a[k - r] * b[r]
    return c


def bridge_term(end_value: float, n: int) -> float:
    """Order-n term of the endpoint-kernel limit expansion:
    H_n(0) * H_n(end_value) / (n! * sqrt(2 pi))."""
    if n < 0 or n > MAX_BRIDGE_ORDER:
        raise ValueError(f"order must be in [0, {MAX_BRIDGE_ORDER}]")
    return hermite_eval(n, 0.0) * hermite_eval(n, end_value) / (
        _FACTORIALS[n] * math.sqrt(2.0 * math.pi)
    )


def bridge_term_variance(n: int) -> float:
    """Second moment H_n(0)^2 / (2 pi n!) of the order-n bridge term
    under a standard Gaussian endpoint.

    For n = 0 the term is the constant 1/sqrt(2 pi); the value stored
    here is its squared mean, which is what enters the norm sum at k=0.
    """
    if n < 0 or n > MAX_BRIDGE_ORDER:
        raise ValueError(f"order must be in [0, {MAX_BRIDGE_ORDER}]")
    return hermite_eval(n, 0.0) ** 2 / (2.0 * math.pi * _FACTORIALS[n])


def sobolev_partial_norm(term_second_moments, gamma: float, k_max: int) -> float:
    """Partial sum sum_{k<=k_max} (k+1)^gamma * m_k of the weighted
    second moments."""
    m = np.asarray(term_second_moments, dtype=float)
    if len(m) < k_max + 1:
        raise ValueError("need a second moment for every order up to k_max")
    if np.any(m[: k_max + 1] < 0):
        raise ValueError("second moments must be non-negative")
    k = np.arange(k_max + 1, dtype=float)
    return float(np.sum((k + 1.0) ** gamma * m[: k_max + 1]))


@dataclass(frozen=True)
class ChaosTermEstimate:
    """Monte Carlo estimate of E[term_k^2] with its sampling error."""

    k: int
    mean: float
    std_error: float
    n_samples: int


def chaos_term_table(model: ProcessModel, k_max: int, eps_grid, u,
                     n_samples: int, seed: int, grid: TimeGrid):
    """Second-moment estimates for every order 0..k_max and every eps of
    ``eps_grid`` from one sampling pass; returns one list of
    ChaosTermEstimate per eps."""
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    means, se = mc_moments(model, grid, seed, n_samples, lambda v: np.concatenate(
        [chaos_terms_many(v, k_max, eps, u) ** 2 for eps in eps_grid]))
    m = k_max + 1
    return [
        [ChaosTermEstimate(k, float(means[i * m + k]), float(se[i * m + k]), n_samples)
         for k in range(m)]
        for i in range(len(eps_grid))
    ]


@dataclass(frozen=True)
class ExpansionStudy:
    """Joint MC summary of G_eps against its expansion partial sums."""

    mean_g: float
    var_g: float
    se_mean_g: float
    residual_moments: tuple  # E[(G - S_K)^2] for K = 0..k_max
    residual_std_errors: tuple
    cross_cov: np.ndarray  # sample covariances of distinct-order terms
    cross_cov_std_errors: np.ndarray
    n_samples: int


def expansion_study_mc(model: ProcessModel, k_max: int, eps: float, u,
                       n_samples: int, seed: int, grid: TimeGrid) -> ExpansionStudy:
    """Sample G_eps and its expansion terms jointly: residual second
    moments per cutoff and cross-order term covariances."""
    from .functionals import SelfIntersection, eval_functional_many

    u = np.asarray(u, dtype=float)
    spec = SelfIntersection(eps, tuple(u))
    m = k_max + 1

    def stats(values):
        g = eval_functional_many(spec, values)
        terms = chaos_terms_many(values, k_max, eps, u)
        res = (g - np.cumsum(terms, axis=0)) ** 2
        return np.concatenate([g[None], res, terms,
                               (terms[:, None, :] * terms).reshape(m * m, -1)])

    mean, se = mc_moments(model, grid, seed, n_samples, stats)
    t_mean = mean[1 + m : 1 + 2 * m]
    return ExpansionStudy(
        mean_g=float(mean[0]),
        var_g=float(se[0] ** 2 * n_samples),
        se_mean_g=float(se[0]),
        residual_moments=tuple(float(x) for x in mean[1 : 1 + m]),
        residual_std_errors=tuple(float(x) for x in se[1 : 1 + m]),
        cross_cov=mean[1 + 2 * m :].reshape(m, m) - np.outer(t_mean, t_mean),
        cross_cov_std_errors=se[1 + 2 * m :].reshape(m, m),
        n_samples=n_samples,
    )


def self_intersection_mean_quadrature(eps: float, u, d: int, n_nodes: int = 4000) -> float:
    """1-D quadrature oracle for E G_eps over Brownian motion:
    int_0^1 (1 - tau) p^d_{tau+eps}(u) dtau."""
    u = np.asarray(u, dtype=float)
    sq = float(np.dot(u, u))

    def integrand(tau):
        s = tau + eps
        return (1.0 - tau) * (2.0 * math.pi * s) ** (-0.5 * d) * np.exp(-sq / (2.0 * s))

    return integrate_interval(integrand, n_nodes)
