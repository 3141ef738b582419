"""Chaos-expansion machinery for the smoothed self-intersection
functional and the endpoint-kernel family.

The order-k term of the expansion of G_eps is a double time integral of
products of Hermite factors.  Its path factor is
(tau/(tau+eps))^(n/2) * H_n(dw / sqrt(tau)), a pure order-n element of
the Wiener chaos, so partial sums are orthogonal projections and
residual second moments decrease in the cutoff.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .analytic import gauss_legendre, hermite_eval, hermite_sequence
from .functionals import lag_blocks, triangle_rule
from .processes import Path, ProcessModel, TimeGrid, replica_seed, sample_values

MAX_TERM_ORDER = 30
MAX_PARTIAL_ORDER = 12
MAX_BRIDGE_ORDER = 40
MAX_DIMENSION = 8

_FACTORIALS = np.array([math.factorial(n) for n in range(MAX_BRIDGE_ORDER + 1)], dtype=float)


def multi_indices(k: int, d: int):
    """All d-tuples of non-negative integers summing to k."""
    if k < 0 or k > MAX_TERM_ORDER:
        raise ValueError(f"order must be in [0, {MAX_TERM_ORDER}]")
    if d < 1 or d > MAX_DIMENSION:
        raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}]")
    if d == 1:
        return [(k,)]
    out = []
    for first in range(k, -1, -1):
        for rest in multi_indices(k - first, d - 1):
            out.append((first,) + rest)
    return out


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


def chaos_term_eval(path: Path, k: int, eps: float, u) -> float:
    """Order-k expansion term evaluated on one path.

    Order 0 is path-independent and equals
    int_0^1 (1 - tau) p^d_{tau+eps}(u) dtau at the grid discretization.
    """
    return float(chaos_terms_many(path.values[None, :, :], k, eps, u)[k, 0])


def chaos_partial_sum(path: Path, k_max: int, eps: float, u) -> float:
    """Sum of the expansion terms of order 0..k_max on one path."""
    if k_max > MAX_PARTIAL_ORDER:
        raise ValueError(f"partial-sum order must be <= {MAX_PARTIAL_ORDER}")
    return float(np.sum(chaos_terms_many(path.values[None, :, :], k_max, eps, u)[:, 0]))


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
    variance: float
    std_error: float
    n_samples: int


def chaos_term_table(model: ProcessModel, k_max: int, eps: float, u,
                     n_samples: int, seed: int, grid: TimeGrid):
    """Second-moment estimates for every order 0..k_max from one
    sampling pass; returns a list of ChaosTermEstimate."""
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    chunk = 1000
    sums = np.zeros(k_max + 1)
    sq_sums = np.zeros(k_max + 1)
    n = 0
    for r, lo in enumerate(range(0, n_samples, chunk)):
        nb = min(chunk, n_samples - lo)
        values, _ = sample_values(model, grid, replica_seed(seed, r), n_paths=nb)
        t2 = chaos_terms_many(values, k_max, eps, u) ** 2
        sums += np.sum(t2, axis=1)
        sq_sums += np.sum(t2**2, axis=1)
        n += nb
    means = sums / n
    variances = np.maximum(sq_sums / n - means**2, 0.0)
    return [
        ChaosTermEstimate(k, float(means[k]), float(variances[k]),
                          float(np.sqrt(variances[k] / n)), n)
        for k in range(k_max + 1)
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
    chunk = 1000
    m = k_max + 1
    sum_g = sum_g2 = 0.0
    sum_res = np.zeros(m)
    sum_res2 = np.zeros(m)
    sum_t = np.zeros(m)
    sum_tt = np.zeros((m, m))
    sum_tt2 = np.zeros((m, m))
    n = 0
    for r, lo in enumerate(range(0, n_samples, chunk)):
        nb = min(chunk, n_samples - lo)
        values, _ = sample_values(model, grid, replica_seed(seed, r), n_paths=nb)
        g = eval_functional_many(spec, values)
        terms = chaos_terms_many(values, k_max, eps, u)
        sum_g += float(np.sum(g))
        sum_g2 += float(np.sum(g**2))
        partial = np.cumsum(terms, axis=0)
        res = (g[None, :] - partial) ** 2
        sum_res += np.sum(res, axis=1)
        sum_res2 += np.sum(res**2, axis=1)
        sum_t += np.sum(terms, axis=1)
        sum_tt += terms @ terms.T
        sum_tt2 += terms**2 @ (terms**2).T
        n += nb
    mean_g = sum_g / n
    var_g = max(sum_g2 / n - mean_g**2, 0.0)
    res_mean = sum_res / n
    res_se = np.sqrt(np.maximum(sum_res2 / n - res_mean**2, 0.0) / n)
    t_mean = sum_t / n
    prod_mean = sum_tt / n
    cov = prod_mean - np.outer(t_mean, t_mean)
    prod_var = np.maximum(sum_tt2 / n - prod_mean**2, 0.0)
    cov_se = np.sqrt(prod_var / n)
    return ExpansionStudy(
        mean_g=mean_g,
        var_g=var_g,
        se_mean_g=math.sqrt(var_g / n),
        residual_moments=tuple(float(x) for x in res_mean),
        residual_std_errors=tuple(float(x) for x in res_se),
        cross_cov=cov,
        cross_cov_std_errors=cov_se,
        n_samples=n,
    )


def self_intersection_mean_quadrature(eps: float, u, d: int, n_nodes: int = 4000) -> float:
    """1-D quadrature oracle for E G_eps over Brownian motion:
    int_0^1 (1 - tau) p^d_{tau+eps}(u) dtau."""
    u = np.asarray(u, dtype=float)
    x, w = gauss_legendre(n_nodes)
    tau = 0.5 * (x + 1.0)
    s = tau + eps
    vals = (1.0 - tau) * (2.0 * math.pi * s) ** (-0.5 * d) * np.exp(
        -float(np.dot(u, u)) / (2.0 * s)
    )
    return float(np.dot(0.5 * w, vals))


def term_table_to_csv(path, estimates, eps, u, gamma):
    """Write a chaos-term table; one row per order."""
    u = np.asarray(u, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "estimate", "std_error", "n_samples", "eps", "u", "d",
                         "gamma_weighted"])
        for est in estimates:
            writer.writerow([
                est.k,
                f"{est.mean:.12g}",
                f"{est.std_error:.12g}",
                est.n_samples,
                f"{eps:.12g}",
                " ".join(f"{x:.12g}" for x in u),
                len(u),
                f"{(est.k + 1.0) ** gamma * est.mean:.12g}",
            ])
