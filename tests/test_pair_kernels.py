"""The two lag-major pair kernels, G_eps and the chaos terms, against
plain double loops over node pairs i <= j, their independence from how a
batch of paths is split, and their eps grids: each row of a grid call is
its one-eps call, whatever else is on the grid."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e

from wcl import functionals
from wcl.chaos import chaos_terms_many
from wcl.functionals import (
    EndpointKernel,
    LocalTime,
    OffsetLocalTime,
    SelfIntersection,
    eval_family_many,
    eval_functional_many,
)
from wcl.processes import BrownianMotion, TimeGrid, sample_values

CASES = [(d, n) for d in (1, 2) for n in (8, 33)]
OFFSETS = {1: (0.5,), 2: (0.4, 0.3)}
EPS_GRID = (1.0, 0.1, 0.01)
EPS_POOL = (2.0, 1.0, 0.5, 0.1, 0.05, 0.01)


def trapezoid(n):
    return [0.5 / n] + [1.0 / n] * (n - 1) + [0.5 / n]


def g_reference(path, eps, u):
    """G_eps of one path (n+1, d) by a double loop over node pairs."""
    n, d = len(path) - 1, len(u)
    w = trapezoid(n)
    terms = []
    for i in range(n + 1):
        for j in range(i, n + 1):
            sq = sum((path[j, a] - path[i, a] - u[a]) ** 2 for a in range(d))
            weight = w[i] * w[j] * (0.5 if i == j else 1.0)
            terms.append(weight * math.exp(-sq / (2.0 * eps)))
    return (2.0 * math.pi * eps) ** (-0.5 * d) * math.fsum(terms)


def chaos_reference(path, k_max, eps, u):
    """Chaos terms of order 0..k_max of one path by a double loop over
    node pairs and multi-indices; Hermite values from numpy's HermiteE."""
    n, d = len(path) - 1, len(u)
    w = trapezoid(n)
    unit = np.eye(k_max + 1)
    terms = [[] for _ in range(k_max + 1)]
    for i in range(n + 1):
        for j in range(i, n + 1):
            tau = (j - i) / n
            s = tau + eps
            weight = w[i] * w[j] * (0.5 if i == j else 1.0)
            kernel = (2.0 * math.pi * s) ** (-0.5 * d) * math.exp(
                -sum(x * x for x in u) / (2.0 * s))
            if i == j:  # tau = 0: only the constant term survives
                terms[0].append(weight * kernel)
                continue
            level = [hermite_e.hermeval(u[a] / math.sqrt(s), unit) for a in range(d)]
            step = [hermite_e.hermeval((path[j, a] - path[i, a]) / math.sqrt(tau), unit)
                    for a in range(d)]
            for idx in itertools.product(range(k_max + 1), repeat=d):
                k = sum(idx)
                if k > k_max:
                    continue
                factor = (tau / s) ** (0.5 * k)
                for a, m in enumerate(idx):
                    factor *= step[a][m] * level[a][m] / math.factorial(m)
                terms[k].append(weight * kernel * factor)
    return np.array([math.fsum(t) for t in terms])


def brownian(d, n, seed, n_paths):
    values, _ = sample_values(BrownianMotion(d), TimeGrid(n), seed, n_paths=n_paths)
    return values


@pytest.mark.parametrize("d,n", CASES)
def test_self_intersection_matches_double_loop(d, n):
    u = OFFSETS[d]
    values = brownian(d, n, 40 + n, 4)
    for eps in (0.01, 0.2):
        got = eval_functional_many(SelfIntersection(eps, u), values)
        ref = [g_reference(v, eps, u) for v in values]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d,n", CASES)
def test_chaos_terms_match_double_loop(d, n):
    u = OFFSETS[d]
    values = brownian(d, n, 50 + n, 3)
    k_max = 4
    got = chaos_terms_many(values, k_max, EPS_GRID, u)
    ref = np.stack([np.stack([chaos_reference(v, k_max, eps, u) for v in values], axis=1)
                    for eps in EPS_GRID])
    # terms of one order change sign between paths; measure against the
    # largest of them
    scale = np.max(np.abs(ref), axis=2, keepdims=True)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([1, 2]), n_paths=st.integers(1, 9),
       cuts=st.lists(st.integers(1, 8), max_size=3),
       block_elements=st.integers(1, 200), seed=st.integers(0, 2**16))
def test_value_does_not_depend_on_batch_split(d, n_paths, cuts, block_elements, seed):
    # the caller's split and the kernels' own path blocks both vary
    u = OFFSETS[d]
    values = brownian(d, 16, seed, n_paths)
    spec = SelfIntersection(0.05, u)
    parts = np.split(values, sorted({c for c in cuts if c < n_paths}))
    with mock.patch.object(functionals, "_BLOCK_ELEMENTS", block_elements):
        g_single = [eval_functional_many(spec, v[None])[0] for v in values]
        g_split = np.concatenate([eval_functional_many(spec, p) for p in parts])
        t_single = np.stack([chaos_terms_many(v[None], 3, [0.05], u)[0, :, 0]
                             for v in values], axis=1)
        t_split = np.concatenate([chaos_terms_many(p, 3, [0.05], u)[0] for p in parts], axis=1)
    g_whole = eval_functional_many(spec, values)
    t_whole = chaos_terms_many(values, 3, [0.05], u)[0]
    for g in (g_split, g_whole):
        np.testing.assert_allclose(g, g_single, rtol=1e-12, atol=0.0)
    scale = np.max(np.abs(t_single), axis=1, keepdims=True)
    for t in (t_split, t_whole):
        assert np.all(np.abs(t - t_single) <= 1e-12 * scale)


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([1, 2]), n_paths=st.integers(1, 9),
       cuts=st.lists(st.integers(1, 8), max_size=3),
       eps_grid=st.lists(st.sampled_from(EPS_POOL), min_size=1, max_size=6, unique=True),
       block_elements=st.integers(1, 200), seed=st.integers(0, 2**16))
def test_grid_rows_are_single_eps_calls(d, n_paths, cuts, eps_grid, block_elements, seed):
    # any subset of eps in any order, on every part of any batch split
    u = OFFSETS[d]
    values = brownian(d, 16, seed, n_paths)
    with mock.patch.object(functionals, "_BLOCK_ELEMENTS", block_elements):
        for part in np.split(values, sorted({c for c in cuts if c < n_paths})):
            g = eval_family_many(lambda eps: SelfIntersection(eps, u), eps_grid, part)
            assert g.shape == (len(eps_grid), len(part))
            for row, eps in zip(g, eps_grid):
                assert np.array_equal(row, eval_functional_many(SelfIntersection(eps, u), part))
            if d == 1:
                lt = eval_family_many(LocalTime, eps_grid, part)
                for row, eps in zip(lt, eps_grid):
                    assert np.array_equal(row, eval_functional_many(LocalTime(eps), part))


@settings(max_examples=15, deadline=None)
@given(d=st.sampled_from([1, 2]), n_paths=st.integers(1, 6),
       eps_grid=st.lists(st.sampled_from(EPS_POOL), min_size=1, max_size=6, unique=True),
       seed=st.integers(0, 2**16))
def test_chaos_row_does_not_depend_on_the_rest_of_the_grid(d, n_paths, eps_grid, seed):
    u = OFFSETS[d]
    values = brownian(d, 16, seed, n_paths)
    terms = chaos_terms_many(values, 4, eps_grid, u)
    assert terms.shape == (len(eps_grid), 5, n_paths)
    for row, eps in zip(terms, eps_grid):
        assert np.array_equal(row, chaos_terms_many(values, 4, [eps], u)[0])


def test_other_families_stack_single_eps_calls():
    values = brownian(1, 16, 3, 4)
    for family in (EndpointKernel, lambda eps: OffsetLocalTime(eps, (0.2,)),
                   lambda eps: SelfIntersection(eps, (eps,))):
        got = eval_family_many(family, EPS_GRID, values)
        want = np.stack([eval_functional_many(family(eps), values) for eps in EPS_GRID])
        assert np.array_equal(got, want)
