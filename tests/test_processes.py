import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcl import processes
from wcl.analytic import gauss_kernel_sq
from wcl.experiments import bridge_weighted_second_moment_quadrature
from wcl.fac import MCConfig, tail_moment_diagnostic
from wcl.functionals import EndpointKernel, upcrossing_count_many
from wcl.processes import (
    BrownianMotion,
    DegenerateLine,
    Integrator,
    IntegratorOperator,
    SmoothStationary,
    TimeGrid,
    covariance,
    integrator_inequality,
    mc_moments,
    operator_bounds,
    replica_seed,
    sample_values,
    sigma_interval,
)


class TestTimeGrid:
    def test_basic_properties(self):
        grid = TimeGrid(8)
        assert grid.h == 0.125
        assert grid.times[0] == 0.0
        assert grid.times[-1] == 1.0
        assert len(grid.times) == 9

    def test_index_of(self):
        grid = TimeGrid(8)
        assert grid.index_of(0.5) == 4
        with pytest.raises(ValueError):
            grid.index_of(0.3)

    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            TimeGrid(1)


class TestSampling:
    def test_paths_start_at_zero(self):
        grid = TimeGrid(64)
        for model in (BrownianMotion(2), Integrator(IntegratorOperator(np.eye(64))),
                      DegenerateLine()):
            values, _ = sample_values(model, grid, 1, n_paths=3)
            assert np.all(values[:, 0, :] == 0.0)

    def test_shapes(self):
        grid = TimeGrid(32)
        values, deriv = sample_values(BrownianMotion(3), grid, 5, n_paths=7)
        assert values.shape == (7, 33, 3)
        assert deriv is None
        values, deriv = sample_values(SmoothStationary(2.0), grid, 5, n_paths=4)
        assert values.shape == (4, 33, 1)
        assert deriv is None

    def test_deterministic_given_seed(self):
        grid = TimeGrid(32)
        a, _ = sample_values(BrownianMotion(1), grid, 42, n_paths=5)
        b, _ = sample_values(BrownianMotion(1), grid, 42, n_paths=5)
        assert np.array_equal(a, b)

    def test_replica_seeds_differ(self):
        grid = TimeGrid(32)
        a, _ = sample_values(BrownianMotion(1), grid, replica_seed(42, 0), n_paths=2)
        b, _ = sample_values(BrownianMotion(1), grid, replica_seed(42, 1), n_paths=2)
        assert not np.array_equal(a, b)

    def test_bm_increment_variance(self):
        grid = TimeGrid(16)
        values, _ = sample_values(BrownianMotion(1), grid, 3, n_paths=50000)
        incr = np.diff(values[:, :, 0], axis=1)
        assert np.var(incr) == pytest.approx(grid.h, rel=0.02)
        # disjoint increments uncorrelated: |sample corr| <= 4/sqrt(N)
        corr = np.corrcoef(incr[:, 0], incr[:, 7])[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(50000)

    def test_identity_integrator_matches_bm_law(self):
        grid = TimeGrid(16)
        model = Integrator(IntegratorOperator(np.eye(16)))
        values, _ = sample_values(model, grid, 11, n_paths=40000)
        assert np.var(values[:, -1, 0]) == pytest.approx(1.0, rel=0.03)

    def test_integrator_matmul_matches_einsum(self):
        grid = TimeGrid(32)
        op = IntegratorOperator.from_profile(lambda s: 1.0 + s, 32)
        values, _ = sample_values(Integrator(op, d=2), grid, 5, n_paths=7)
        # the same draws, contracted index by index
        dw = np.random.default_rng(5).normal(0.0, math.sqrt(grid.h), size=(7, 32, 2))
        expect = np.einsum("pij,ik->pkj", dw, op.node_image_matrix())
        np.testing.assert_allclose(values, expect, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_integrator_batch_error_is_bounded(self, d):
        # an integrator path's bits depend on its batch (dgemm rounds a row
        # by the row count); the gap to the path alone stays at rounding
        # level.  On OpenBLAS's SkylakeX core path 0 differed at 9 of these
        # 9 sizes (d = 1) and 6 (d = 2), by at most 1.3e-15 of its largest
        # value; on Haswell and Sandybridge at none
        n = 256
        rng = np.random.default_rng(5)
        model = Integrator(IntegratorOperator(np.eye(n) + 0.3 * rng.standard_normal((n, n))
                                              / math.sqrt(n)), d)
        grid = TimeGrid(n)
        alone = sample_values(model, grid, 0)[0][0]
        for n_paths in (2, 3, 7, 8, 9, 16, 64, 247, 1003):
            path = sample_values(model, grid, 0, n_paths)[0][0]
            assert np.max(np.abs(path - alone)) <= 1e-14 * np.max(np.abs(alone)), n_paths

    def test_integrator_grid_mismatch(self):
        with pytest.raises(ValueError):
            sample_values(Integrator(IntegratorOperator(np.eye(8))), TimeGrid(16), 0)

    def test_degenerate_line_is_linear(self):
        grid = TimeGrid(10)
        values, _ = sample_values(DegenerateLine(), grid, 4, n_paths=1)
        xi = values[0, -1, 0]
        assert np.allclose(values[0, :, 0], xi * grid.times)

    def test_smooth_stationary_solves_its_oscillator_equation(self):
        # xi'' = -omega^2 xi: the second central difference of the values
        # approximates it to O(h^2 omega^4)
        grid = TimeGrid(4096)
        omega = 2.0 * math.pi
        values, _ = sample_values(SmoothStationary(omega), grid, 9, n_paths=1)
        v = values[0, :, 0]
        second = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / grid.h**2
        assert np.max(np.abs(second + omega**2 * v[1:-1])) < 1e-4 * omega**2 * np.max(np.abs(v))


class TestMonteCarloEngine:
    grid = TimeGrid(16)

    def per_path(self, fn, seed, n_samples):
        """fn's statistics of all paths, drawn chunk by chunk as the engine does."""
        parts = []
        for r, lo in enumerate(range(0, n_samples, 1000)):
            values, _ = sample_values(DegenerateLine(), self.grid, replica_seed(seed, r),
                                      n_paths=min(1000, n_samples - lo))
            parts.append(np.atleast_2d(fn(values)))
        return parts

    def test_mean_is_compensated_sum_of_chunk_sums(self):
        def fn(v):
            return np.stack([v[:, -1, 0], v[:, -1, 0] ** 2])

        mean, cov = mc_moments(DegenerateLine(), self.grid, 3, 2500, fn)
        parts = self.per_path(fn, 3, 2500)
        x = np.concatenate(parts, axis=1)
        assert np.array_equal(cov, cov.T)
        for k in range(2):
            assert mean[k] == math.fsum(np.sum(p[k]) for p in parts) / 2500
            assert math.sqrt(cov[k, k]) == pytest.approx(np.std(x[k]) / math.sqrt(2500),
                                                         rel=1e-12)
            # a row's variance has the bits of a pass over that row alone
            _, (var,) = mc_moments(DegenerateLine(), self.grid, 3, 2500, lambda v: fn(v)[k])
            assert cov[k, k] == var

    def test_merged_variance_does_not_cancel(self):
        # a mean of 1e8 against a unit spread: E[x^2] - mean^2 loses the
        # variance to cancellation, the merged (count, mean, M2) keeps it
        def fn(v):
            return 1e8 + v[:, -1, 0]

        n = 2500
        (mean,), ((var,),) = mc_moments(DegenerateLine(), self.grid, 11, n, fn)
        se = math.sqrt(var)
        x = np.concatenate(self.per_path(fn, 11, n), axis=1)[0]
        expect = np.std(x) / math.sqrt(n)
        naive_var = math.fsum(x**2) / n - mean**2
        naive = math.sqrt(max(naive_var, 0.0) / n)
        assert abs(naive - expect) > 0.1 * expect
        assert se == pytest.approx(expect, rel=1e-9)

    # three statistics of 200 paths; the middle row sits at a 1e8 offset
    _stats = np.random.default_rng(29).standard_normal((3, 200)) + [[0.0], [1e8], [3.0]]

    @settings(max_examples=60, deadline=None)
    @given(cuts=st.lists(st.integers(1, 199), unique=True, max_size=199))
    def test_merge_does_not_depend_on_chunking(self, cuts):
        x = self._stats
        n = x.shape[1]
        bounds = [0, *sorted(cuts), n]
        mean, cov = processes._merge_chunks(
            processes._chunk_moments(x[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
        expect_mean = np.array([math.fsum(row) for row in x]) / n
        spread = np.std(x, axis=1)
        np.testing.assert_allclose(mean, expect_mean, rtol=1e-12, atol=0.0)
        # a chunk mean is rounded to about eps * |mean|, which against the
        # spread bounds how well any merge recovers the variance
        rtol = 1e-12 + 4.0 * np.finfo(float).eps * np.abs(expect_mean) / spread
        se = np.sqrt(np.diag(cov))
        assert np.all(np.abs(se / (spread / math.sqrt(n)) - 1.0) <= rtol)
        # each covariance relative to the spreads of its two rows
        scale = np.outer(spread, spread) / n
        assert np.all(np.abs(cov - np.cov(x, bias=True) / n)
                      <= np.maximum.outer(rtol, rtol) * scale)

    def test_one_statistic_and_shape_check(self):
        one = mc_moments(DegenerateLine(), self.grid, 5, 300, lambda v: v[:, -1, 0])
        two = mc_moments(DegenerateLine(), self.grid, 5, 300, lambda v: v[None, :, -1, 0])
        assert one[0].shape == (1,) and one[1].shape == (1, 1)
        assert np.array_equal(one[0], two[0]) and np.array_equal(one[1], two[1])
        with pytest.raises(ValueError):
            mc_moments(DegenerateLine(), self.grid, 5, 300, lambda v: v[:5, -1, 0])
        with pytest.raises(ValueError):
            mc_moments(DegenerateLine(), self.grid, 5, 0, lambda v: v[:, -1, 0])


class TestWorkers:
    """The engine's chunks run on the caller and one helper thread per
    further CPU; ``os.sched_getaffinity`` is patched, so every case runs
    on a 1-CPU host too."""

    grid = TimeGrid(64)
    dense = np.eye(64) + 0.3 * np.random.default_rng(5).standard_normal((64, 64)) / 8.0
    models = {"bm1": BrownianMotion(1), "bm2": BrownianMotion(2),
              "smooth": SmoothStationary(7.0),
              "integrator": Integrator(IntegratorOperator(dense))}

    @staticmethod
    def stat(v):
        return np.stack([v[:, -1].sum(axis=1), (v**2).sum(axis=(1, 2)), np.abs(v).max(axis=(1, 2))])

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @pytest.fixture
    def started(self, monkeypatch):
        """Every thread started while the test runs."""
        threads = []
        start = threading.Thread.start

        def spy(thread):
            threads.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        return threads

    @pytest.mark.parametrize("n_samples", [1, 999, 1000, 1001, 2500, 4000])
    @pytest.mark.parametrize("name", sorted(models))
    def test_two_workers_give_the_bits_of_one(self, monkeypatch, started, name, n_samples):
        got = []
        for n_cpus in (1, 2):
            self.cpus(monkeypatch, n_cpus)
            got.append(mc_moments(self.models[name], self.grid, 7, n_samples, self.stat))
            # one helper for a second CPU and a second chunk, none otherwise
            assert len(started) == (n_samples > 1000 and n_cpus == 2)
        (mean1, cov1), (mean2, cov2) = got
        assert np.array_equal(mean1, mean2) and np.array_equal(cov1, cov2)

    def test_chunks_done_out_of_order_merge_in_replica_order(self, monkeypatch, started):
        # the caller sleeps in each block, so the helper runs most chunks
        # and finishes some before chunks the caller holds
        ran = set()

        def slow(v):
            ran.add(threading.get_ident())
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.02)
            return self.stat(v)

        self.cpus(monkeypatch, 1)
        mean1, cov1 = mc_moments(BrownianMotion(2), self.grid, 3, 6500, self.stat)
        self.cpus(monkeypatch, 2)
        mean2, cov2 = mc_moments(BrownianMotion(2), self.grid, 3, 6500, slow)
        assert len(ran) == 2 and len(started) == 1
        assert np.array_equal(mean1, mean2) and np.array_equal(cov1, cov2)

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_error_in_a_chunk_is_raised_and_no_thread_is_left(self, monkeypatch, n_cpus):
        # chunk 2's first path of the line t * xi ends at its first normal;
        # a chunk of the line at 64 steps is one block, so one call of fn
        xi = np.random.default_rng(replica_seed(5, 2)).standard_normal()
        calls = []

        def fn(v):
            calls.append(None)
            if v[0, -1, 0] == xi:
                raise ValueError("chunk 2")
            return v[:, -1, 0]

        self.cpus(monkeypatch, n_cpus)
        before = threading.active_count()
        with pytest.raises(ValueError, match="chunk 2"):
            mc_moments(DegenerateLine(), self.grid, 5, 20000, fn)
        assert threading.active_count() == before
        # of 20 chunks, none starts once chunk 2 has failed: at most the
        # 2 x 2 taken while chunks 0 and 1 were not yet merged
        assert len(calls) <= 6

    def test_at_most_two_results_per_worker_wait(self, monkeypatch):
        # the consumer is slow, so the helper runs ahead until it is held
        self.cpus(monkeypatch, 2)
        yielded, ahead = [0], []

        def job(r):
            ahead.append(r - yielded[0])
            return r

        for r in processes._in_order(job, 40):
            assert r == yielded[0]
            yielded[0] += 1
            time.sleep(0.005)
        # a job starts while fewer than 2 x 2 jobs are taken and not
        # yielded, so at most 3 ahead of those yielded, and the helper
        # reaches that bound while the consumer sleeps
        assert max(ahead) == 3

    def test_cpu_count_where_there_is_no_affinity_call(self, monkeypatch, started):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for n_cpus, helpers in ((None, 0), (1, 0), (2, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: n_cpus)
            assert list(processes._in_order(lambda r: r, 3)) == [0, 1, 2]
            assert len(started) == helpers
            started.clear()

    def test_each_job_runs_once_under_stress(self, monkeypatch):
        # eight workers on this host's CPUs, switching threads every
        # microsecond: a lost update of the shared job counter would run a
        # job twice or skip one
        self.cpus(monkeypatch, 8)
        runs, out = [], []

        def consume():
            out.extend(processes._in_order(lambda r: runs.append(r) or r, 2000))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=consume)
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert out == list(range(2000)) and sorted(runs) == out


class TestDeltaMethod:
    def test_z_scores_are_calibrated(self):
        # Over 40 seeds at a fixed budget, the sd of z = (estimate - oracle)
        # / se of two ratio estimates is about 1 with the delta-method se:
        # 0.923 for the bridge ratio (0.673 from r * hypot(se_A / A,
        # se_B / B), which leaves out Cov(A, B)) and 0.993 for the weighted
        # KL first tail (1.159 from se_A / B, which leaves out Var B).  The
        # band holds the sd of an sd from 40 draws, about 0.11.
        def sd_of_z(estimates):
            z = [(est - oracle) / se for est, se, oracle in estimates]
            return float(np.std(z, ddof=1))

        eps = 0.01  # bridge: E[w(1/2)^2 p_eps(w(1))] / E[p_eps(w(1))], 4000 paths

        def bridge(seed):
            mean, cov = mc_moments(BrownianMotion(1), TimeGrid(2), seed, 4000, lambda v: (
                gauss_kernel_sq(v[:, -1, 0] ** 2, eps) * np.stack([np.ones(len(v)),
                                                                  v[:, 1, 0] ** 2])))
            ratio = mean[1] / mean[0]
            se = processes.delta_se(cov, np.array([-ratio, 1.0]) / mean[0])
            return ratio, se, bridge_weighted_second_moment_quadrature(eps)

        assert 0.75 <= sd_of_z(map(bridge, range(40))) <= 1.25
        # the first KL tail, 8 terms, under the endpoint kernel at eps = 1, 4000
        # paths of 64 steps, against its grid-exact value (tests/test_fac.py)
        n, size = 64, 8
        t = np.linspace(0.0, 1.0, n + 1)
        w = np.full(n + 1, 1.0 / n)
        w[[0, -1]] /= 2.0
        a = np.stack([math.sqrt(2.0) * np.sin((k - 0.5) * math.pi * t) * w
                      for k in range(1, size + 1)])
        var = np.einsum("ki,ij,kj->k", a, np.minimum.outer(t, t), a)
        oracle = float(np.sum(var - (a @ t) ** 2 / 2.0))

        def kl_tail(seed):
            diag = tail_moment_diagnostic(BrownianMotion(1), EndpointKernel, [1.0], size,
                                          MCConfig(4000, seed), TimeGrid(n))
            return diag.tail_sums[0][0], diag.tail_std_errors[0][0], oracle

        assert 0.75 <= sd_of_z(map(kl_tail, range(40))) <= 1.25


class TestCovariance:
    def test_bm(self):
        c = covariance(BrownianMotion(2), 0.25, 0.75)
        assert np.allclose(c, 0.25 * np.eye(2))

    def test_smooth_stationary(self):
        m = SmoothStationary(3.0)
        assert covariance(m, 0.2, 0.2)[0, 0] == pytest.approx(1.0)
        assert covariance(m, 0.0, 0.5)[0, 0] == pytest.approx(math.cos(1.5))

    def test_degenerate(self):
        assert covariance(DegenerateLine(), 0.5, 1.0)[0, 0] == 0.5

    def test_identity_integrator_matches_bm(self):
        model = Integrator(IntegratorOperator(np.eye(8)))
        for s, t in ((0.25, 0.5), (0.5, 0.5), (0.125, 1.0)):
            assert covariance(model, s, t)[0, 0] == pytest.approx(min(s, t), rel=1e-14)

    def test_sample_covariance_matches(self):
        op = IntegratorOperator.from_profile(lambda s: 1.0 + s, 16)
        model = Integrator(op)
        grid = TimeGrid(16)
        values, _ = sample_values(model, grid, 21, n_paths=100000)
        for s, t in ((0.25, 0.5), (0.5, 0.75), (0.125, 1.0), (1.0, 1.0), (0.25, 0.25)):
            i, j = grid.index_of(s), grid.index_of(t)
            x, y = values[:, i, 0], values[:, j, 0]
            est = float(np.mean(x * y))
            se = float(np.std(x * y)) / math.sqrt(len(x))
            assert abs(est - covariance(model, s, t)[0, 0]) <= 4.0 * se


class TestOperator:
    def test_identity_bounds(self):
        m, big = operator_bounds(IntegratorOperator(np.eye(8)))
        assert m == pytest.approx(1.0)
        assert big == pytest.approx(1.0)

    def test_profile_bounds(self):
        # multiplication by g has singular values |g| at the cells
        op = IntegratorOperator.from_profile(lambda s: 1.0 + s, 64)
        m, big = operator_bounds(op)
        assert 1.0 <= m < 1.02
        assert 3.9 < big <= 4.0

    @pytest.mark.parametrize("n", [8, 512])
    def test_diagonal_singular_values_match_svd(self, n):
        # a diagonal matrix skips the dense SVD; its sorted |entries| are
        # bit for bit LAPACK's singular values, signs and ties included
        ramp = IntegratorOperator.from_profile(lambda s: 1.0 + 0.5 * s, n)
        signed = np.random.default_rng(n).standard_normal(n)
        signed[1] = -signed[0]
        for matrix in (ramp.matrix, np.diag(signed)):
            op = IntegratorOperator(matrix)
            assert np.array_equal(op.singular_values,
                                  np.linalg.svd(matrix, compute_uv=False))
        dense = np.diag(signed)
        dense[0, 1] = 0.5  # one off-diagonal entry: the dense path
        assert np.array_equal(IntegratorOperator(dense).singular_values,
                              np.linalg.svd(dense, compute_uv=False))

    @staticmethod
    def dense_images(matrix):
        """M @ cum, cum[i, k] = 1 for the cells i < k of [0, t_k]."""
        n = len(matrix)
        return matrix @ (np.arange(n)[:, None] < np.arange(n + 1)[None, :]).astype(float)

    @pytest.mark.parametrize("n", [8, 2048])
    def test_profile_node_images_are_the_dense_product(self, n):
        # column k sums M's first k columns: for a multiplication operator
        # those sums add zeros only, as the product does
        op = IntegratorOperator.from_profile(lambda s: 1.0 + 0.5 * s, n)
        assert np.array_equal(op.node_image_matrix(), self.dense_images(op.matrix))

    def test_dense_node_images_match_the_dense_product(self):
        matrix = np.eye(256) + 0.3 * np.random.default_rng(8).standard_normal((256, 256))
        images = IntegratorOperator(matrix).node_image_matrix()
        np.testing.assert_allclose(images, self.dense_images(matrix), rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(images)))

    def test_non_finite_matrix_rejected(self):
        for bad in (math.nan, math.inf):
            matrix = np.eye(4)
            matrix[2, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                IntegratorOperator(matrix)

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            IntegratorOperator(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            IntegratorOperator(np.ones((2, 3)))

    def test_sigma_interval_identity(self):
        op = IntegratorOperator(np.eye(8))
        assert sigma_interval(op, 0.25, 0.75) == pytest.approx(math.sqrt(0.5), rel=1e-14)
        assert sigma_interval(op, 0.5, 0.5) == 0.0
        with pytest.raises(ValueError):
            sigma_interval(op, 0.75, 0.25)
        with pytest.raises(ValueError):
            sigma_interval(op, 0.1, 0.9)

    def test_sigma_squared_bracketed_by_bounds(self):
        rng = np.random.default_rng(5)
        op = IntegratorOperator(np.eye(16) + 0.1 * rng.standard_normal((16, 16)))
        m, big = operator_bounds(op)
        for _ in range(100):
            i, j = sorted(rng.integers(0, 17, size=2))
            s, t = i / 16, j / 16
            sig2 = sigma_interval(op, s, t) ** 2
            assert m * (t - s) - 1e-12 <= sig2 <= big * (t - s) + 1e-12


class TestIntegratorInequality:
    def test_identity_exact(self):
        op = IntegratorOperator(np.eye(8))
        partition = [0.0, 0.25, 0.5, 1.0]
        coeffs = [1.0, -2.0, 0.5]
        lhs, rhs = integrator_inequality(op, partition, coeffs)
        expect = 1.0 * 0.25 + 4.0 * 0.25 + 0.25 * 0.5
        assert lhs == pytest.approx(expect, rel=1e-12)
        assert rhs == pytest.approx(expect, rel=1e-12)

    def test_zero_coefficients(self):
        op = IntegratorOperator(np.eye(4))
        lhs, rhs = integrator_inequality(op, [0.0, 0.5, 1.0], [0.0, 0.0])
        assert lhs == 0.0 and rhs == 0.0

    def test_holds_for_random_triples(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(4, 17))
            op = IntegratorOperator(np.eye(n) + 0.3 * rng.standard_normal((n, n)))
            k = int(rng.integers(1, n))
            cuts = np.sort(rng.choice(np.arange(1, n), size=k, replace=False))
            partition = np.concatenate([[0.0], cuts / n, [1.0]])
            coeffs = rng.standard_normal(len(partition) - 1)
            lhs, rhs = integrator_inequality(op, partition, coeffs)
            assert lhs <= rhs * (1.0 + 1e-10) + 1e-300

    def test_tight_at_top_singular_vector(self):
        rng = np.random.default_rng(3)
        n = 8
        op = IntegratorOperator(np.eye(n) + 0.3 * rng.standard_normal((n, n)))
        _, _, vt = np.linalg.svd(op.matrix)
        coeffs = vt[0]  # top right-singular direction, one value per cell
        partition = np.arange(n + 1) / n
        lhs, rhs = integrator_inequality(op, partition, coeffs)
        assert lhs / rhs >= 1.0 - 1e-8

    def test_bad_partition_rejected(self):
        op = IntegratorOperator(np.eye(4))
        with pytest.raises(ValueError):
            integrator_inequality(op, [0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            integrator_inequality(op, [0.0, 0.5, 1.0], [1.0])
        with pytest.raises(ValueError):
            integrator_inequality(op, [0.0, 0.3, 1.0], [1.0, 1.0])


class TestUpcrossings:
    def test_constant_below_level(self):
        grid = TimeGrid(16)
        values, _ = sample_values(SmoothStationary(1.0), grid, 0, n_paths=1)
        values[:, :, 0] = -1.0
        assert upcrossing_count_many(values, 0.0)[0] == 0

    def test_sine_has_one_upcrossing(self):
        grid = TimeGrid(1024)
        values, _ = sample_values(SmoothStationary(1.0), grid, 0, n_paths=1)
        v = np.sin(2.0 * math.pi * grid.times)
        v[np.abs(v) < 1e-12] = 0.0  # sin(2 pi) in exact arithmetic
        values[0, :, 0] = v
        assert upcrossing_count_many(values, 0.0)[0] == 1

    def test_requires_scalar_path(self):
        grid = TimeGrid(8)
        values, _ = sample_values(BrownianMotion(2), grid, 0, n_paths=1)
        with pytest.raises(ValueError):
            upcrossing_count_many(values, 0.0)


class TestModelValidation:
    def test_dimension_guards(self):
        with pytest.raises(ValueError):
            BrownianMotion(0)
        with pytest.raises(ValueError):
            Integrator(IntegratorOperator(np.eye(4)), 0)
        with pytest.raises(ValueError):
            SmoothStationary(0.0)

