"""The row-blocked layer against its unblocked formulas, bit for bit.

``sample_blocks``, the Monte Carlo engine that streams its blocks and
the O(n) path functionals work in the row blocks of
``processes.row_blocks``.  Each case below compares them with the
whole-array expression they replace, at path counts on both sides of a
block boundary, and checks that no chunk-sized temporary is made.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wcl import chaos, experiments, fac, processes
from wcl.experiments import DRIVERS, ExperimentConfig
from wcl.functionals import (
    LocalTime,
    eval_family_many,
    indicator_local_time_many,
    interval_weights,
    local_time_field,
    upcrossing_count_many,
)
from wcl.processes import (
    MC_CHUNK,
    BrownianMotion,
    DegenerateLine,
    Integrator,
    IntegratorOperator,
    SmoothStationary,
    TimeGrid,
    mc_moments,
    replica_seed,
    row_blocks,
    sample_blocks,
    sample_values,
)

N_STEPS = (2, 8, 256, 4096)
PATH_COUNTS = ("one", "block - 1", "block", "block + 1", "chunk")
EPS_GRID = (1.0, 0.1, 0.01)
MB = 1 << 20


def n_paths_for(kind, n_cols):
    """1, a block's rows - 1, + 0, + 1, or a whole replica chunk."""
    block = row_blocks(2 * (65536 // n_cols + 4), n_cols)[0].stop
    return {"one": 1, "block - 1": block - 1, "block": block,
            "block + 1": block + 1, "chunk": MC_CHUNK}[kind]


def brownian_reference(seed, n_steps, n_paths, d):
    """One standard_normal call for all increments, scaled, then summed."""
    rng = np.random.default_rng(seed)
    dw = rng.standard_normal(size=(n_paths, n_steps, d))
    dw *= math.sqrt(1.0 / n_steps)
    values = np.zeros((n_paths, n_steps + 1, d))
    np.cumsum(dw, axis=1, out=values[:, 1:])
    return values


def sinusoid_reference(seed, omega, n_steps, n_paths):
    """The closed expression of the values."""
    xi = np.random.default_rng(seed).normal(size=(n_paths, 2))
    t = TimeGrid(n_steps).times
    c, s = np.cos(omega * t), np.sin(omega * t)
    return (xi[:, :1] * c[None, :] + xi[:, 1:] * s[None, :])[:, :, None]


def kl_weights(n_steps):
    """The fac driver's KL basis times the trapezoid weights, (8, n+1)."""
    basis = np.stack([fac.kl_basis(k, TimeGrid(n_steps).times) for k in range(1, 9)])
    return basis * interval_weights(n_steps)


# each caller of functionals.node_sums as (path dimension, paths -> an
# array with one row per path).  Projected by dgemm instead, 7437 to 7474
# of the 8000 KL values of 1000 BM(2) paths at n = 512 had other bits
# (up to 1.3e-13 relative) alone or in batches of 7 to 128
NODE_SUMS_CALLERS = {
    "local_time": (1, lambda v: eval_family_many(LocalTime, EPS_GRID, v).T),
    "band": (1, lambda v: indicator_local_time_many(v, 0.2, 0.1)),
    "field": (1, lambda v: local_time_field(v, 0.1, [-0.2, 0.0, 0.3])),
    "kl_projections": (2, lambda v: fac._kl_squares(v, kl_weights(v.shape[1] - 1)).T),
}


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestRowBlocks:
    @given(n_rows=st.integers(0, 300), n_cols=st.integers(1, 70000))
    def test_blocks_partition_rows_in_whole_groups(self, n_rows, n_cols):
        blocks = row_blocks(n_rows, n_cols)
        assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
        assert sum(b.stop - b.start for b in blocks) == n_rows
        if blocks:
            assert blocks[0].start == 0 and blocks[-1].stop == n_rows
        step = max(8, 65536 // n_cols // 8 * 8)
        for b in blocks[:-1]:
            assert b.stop - b.start == step
        if len(blocks) > 1:
            # the last block keeps the array's own remainder of < 8 rows
            assert 8 <= blocks[-1].stop - blocks[-1].start < step + 8


class TestBlockedSampling:
    @settings(max_examples=40, deadline=None)
    @given(n_steps=st.sampled_from(N_STEPS), d=st.sampled_from([1, 2, 3]),
           kind=st.sampled_from(PATH_COUNTS), seed=st.integers(0, 2**32 - 1))
    def test_brownian_matches_one_draw(self, n_steps, d, kind, seed):
        n_paths = n_paths_for(kind, n_steps + 1)
        values, deriv = sample_values(BrownianMotion(d), TimeGrid(n_steps), seed, n_paths)
        assert deriv is None
        assert_same_bits(values, brownian_reference(seed, n_steps, n_paths, d))

    @settings(max_examples=25, deadline=None)
    @given(n_steps=st.sampled_from(N_STEPS), kind=st.sampled_from(PATH_COUNTS),
           omega=st.sampled_from([2.0 * math.pi, 0.37, 55.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_smooth_stationary_matches_closed_form(self, n_steps, kind, omega, seed):
        n_paths = n_paths_for(kind, n_steps + 1)
        values, deriv = sample_values(SmoothStationary(omega), TimeGrid(n_steps), seed,
                                      n_paths)
        assert deriv is None
        assert_same_bits(values, sinusoid_reference(seed, omega, n_steps, n_paths))


class TestSampleBlocks:
    """``sample_values`` is the concatenation of ``sample_blocks``, whose
    blocks are those of ``row_blocks`` for every model, and both are the
    whole-array draw of every model, an integrator's increments mapped
    one row block at a time."""

    grid = TimeGrid(256)
    models = {
        "bm1": BrownianMotion(1),
        "bm3": BrownianMotion(3),
        "sinusoid": SmoothStationary(0.37),
        "line": DegenerateLine(),
        "integrator": Integrator(IntegratorOperator.from_profile(lambda s: 1.0 + s, 256), 2),
    }

    def reference(self, name, seed, n_paths):
        n = self.grid.n_steps
        if name.startswith("bm"):
            return brownian_reference(seed, n, n_paths, self.models[name].d)
        if name == "sinusoid":
            return sinusoid_reference(seed, 0.37, n, n_paths)
        if name == "line":
            xi = np.random.default_rng(seed).normal(size=(n_paths, 1))
            return (xi * self.grid.times)[:, :, None]
        # the increments of all paths, mapped by one product per row block
        dw = np.random.default_rng(seed).standard_normal(size=(n_paths, n, 2))
        dw *= math.sqrt(self.grid.h)
        images = self.models[name].operator.node_image_matrix()
        blocked = [np.tensordot(dw[rows], images, axes=(1, 0)).transpose(0, 2, 1)
                   for rows in row_blocks(n_paths, n + 1)]
        # a block's dgemm rounds like the whole batch's only to the last bits
        whole = np.tensordot(dw, images, axes=(1, 0)).transpose(0, 2, 1)
        values = np.concatenate(blocked)
        np.testing.assert_allclose(values, whole, rtol=1e-12, atol=1e-12 * np.max(np.abs(whole)))
        return values

    @pytest.mark.parametrize("name", sorted(models))
    @pytest.mark.parametrize("n_paths", [1, 7, 8, 9, 247, 249, 1000, 1003])
    def test_blocks_concatenate_to_sample_values(self, name, n_paths):
        # 248 rows make one block at 257 nodes; 247 and 249 sit either side
        seed = 11 + n_paths
        blocks = [(rows, v.copy())
                  for rows, v in sample_blocks(self.models[name], self.grid, seed, n_paths)]
        assert [rows for rows, _ in blocks] == row_blocks(n_paths, self.grid.n_steps + 1)
        assert all(len(v) == rows.stop - rows.start for rows, v in blocks)
        whole = self.reference(name, seed, n_paths)
        assert_same_bits(np.concatenate([v for _, v in blocks]), whole)
        values, deriv = sample_values(self.models[name], self.grid, seed, n_paths)
        assert deriv is None
        assert_same_bits(values, whole)


class TestStreamedEngine:
    """``mc_moments`` streams each chunk through the statistic block by
    block; for every driver's statistic the result has the bits of one
    call per whole chunk."""

    @staticmethod
    def whole_chunk_moments(model, grid, seed, n_samples, fn):
        parts = []
        for r, lo in enumerate(range(0, n_samples, MC_CHUNK)):
            values, _ = sample_values(model, grid, replica_seed(seed, r),
                                      min(MC_CHUNK, n_samples - lo))
            # a C-ordered table, as the engine's: numpy sums a strided
            # (k, paths) view in another order
            x = np.ascontiguousarray(np.atleast_2d(fn(values)), dtype=float)
            parts.append(processes._chunk_moments(x))
        return processes._merge_chunks(parts)

    @pytest.mark.parametrize("name, passes", [("rice", 1), ("kac", 1), ("bridge", 2),
                                              ("sweep", 1), ("fac", 4), ("chaos", 1)])
    def test_driver_statistics_match_whole_chunks(self, tmp_path, monkeypatch, name, passes):
        # at 256 steps a chunk of 1000 paths streams as 5 blocks; the second
        # chunk of 100 paths as one.  fac: the endpoint ratios, the study
        # and both diagnostics; bridge: Brownian and degenerate-line paths
        calls = []

        def recorded(*args):
            result = mc_moments(*args)
            calls.append((args, result))
            return result

        for module in (experiments, fac, chaos):
            monkeypatch.setattr(module, "mc_moments", recorded)
        DRIVERS[name](ExperimentConfig(name, n_steps=256, n_samples=1100,
                                       out_dir=str(tmp_path)))
        assert len(calls) == passes
        for args, (mean, cov) in calls:
            want_mean, want_cov = self.whole_chunk_moments(*args)
            assert_same_bits(mean, want_mean)
            assert_same_bits(cov, want_cov)

    @settings(max_examples=12, deadline=None)
    @given(n_samples=st.integers(1, 4 * MC_CHUNK), seed=st.integers(0, 2**32 - 1))
    def test_any_sample_count_matches_whole_chunks(self, n_samples, seed):
        # one to four replica chunks, the last one possibly partial, each of
        # one to five blocks
        args = (BrownianMotion(1), TimeGrid(256), seed, n_samples,
                lambda v: np.stack([v[:, -1, 0], np.max(v[:, :, 0], axis=1)]))
        mean, cov = mc_moments(*args)
        want_mean, want_cov = self.whole_chunk_moments(*args)
        assert_same_bits(mean, want_mean)
        assert_same_bits(cov, want_cov)

    @pytest.mark.parametrize("model", [BrownianMotion(2), SmoothStationary(3.0), DegenerateLine()],
                             ids=["bm2", "smooth", "line"])
    @pytest.mark.parametrize("fn", [lambda v: v[:, -1, 0], lambda v: v[None, :, -1, 0],
                                    lambda v: v[:, ::64, 0].T],
                             ids=["endpoint", "endpoint-row", "strided-nodes"])
    def test_statistics_that_are_views_of_the_block(self, model, fn):
        # each of these returns a view of the reused block buffer; at 256
        # steps a chunk of 1000 paths streams as 5 blocks, so a block's
        # statistics must be copied out before the next block is drawn
        grid = TimeGrid(256)
        assert len(row_blocks(MC_CHUNK, grid.n_steps + 1)) > 1
        args = (model, grid, 11, MC_CHUNK + 3, fn)
        mean, cov = mc_moments(*args)
        want_mean, want_cov = self.whole_chunk_moments(*args)
        assert_same_bits(mean, want_mean)
        assert_same_bits(cov, want_cov)


class TestBlockedFunctionals:
    """Each O(n) functional equals its whole-array formula, including
    levels and band edges that sit exactly on node values, and each node
    sum has the same bits in any batch."""

    @settings(max_examples=40, deadline=None)
    @given(n_steps=st.sampled_from(N_STEPS), kind=st.sampled_from(PATH_COUNTS),
           seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 2**32 - 1),
           eps=st.sampled_from([0.01, 0.5]))
    def test_functionals_match_whole_array_formulas(self, n_steps, kind, seed, pick, eps):
        n_paths = n_paths_for(kind, n_steps + 1)
        values = brownian_reference(seed, n_steps, n_paths, 1)
        v = values[:, :, 0]
        w = interval_weights(n_steps)
        node = float(v.flat[pick % v.size])  # 0.0 at t = 0 or a drawn value

        # zero rows pad the paths to whole groups of 8, as the kernel pads
        # its blocks: a lone row would go through ddot, and the last n % 4
        # rows through dgemv's one-row tail, each with other bits
        pad = np.zeros((-n_paths % 8, n_steps + 1))
        sq = np.concatenate([v, pad]) ** 2
        want = np.stack([((2.0 * math.pi * e) ** -0.5 * np.exp(sq / (-2.0 * e))) @ w
                         for e in EPS_GRID])[:, :n_paths]
        assert_same_bits(eval_family_many(LocalTime, EPS_GRID, values), want)

        # |v - x| == eps on the node itself when x = 0 and eps = |node|
        for x, e in ((0.0, abs(node) or eps), (node, eps), (0.0, eps)):
            want = (np.concatenate([np.abs(v - x) <= e, pad]) @ w)[:n_paths] / (2.0 * e)
            assert_same_bits(indicator_local_time_many(values, x, e), want)

        for level in (node, 0.0, -node):
            want = np.sum((v[:, :-1] < level) & (v[:, 1:] >= level), axis=1)
            assert_same_bits(upcrossing_count_many(values, level), want)

    @pytest.mark.parametrize("name", sorted(NODE_SUMS_CALLERS))
    @settings(max_examples=15, deadline=None)
    @given(n_steps=st.sampled_from([2, 8, 256, 1000]),
           n_paths=st.sampled_from([1, 7, 9, 256, 1003]), batch=st.sampled_from([1, 3, 5, 8]),
           block_elements=st.sampled_from([300, 5000]), seed=st.integers(0, 2**32 - 1))
    @example(n_steps=1000, n_paths=1003, batch=3, block_elements=300, seed=0)
    def test_same_bits_in_any_batch(self, name, n_steps, n_paths, batch, block_elements,
                                    seed):
        # every caller of node_sums: alone, in small batches and in other
        # row blocks, each path's value is that of the whole-chunk call.  At 1000 steps the trapezoid
        # weights are not powers of two, so a sum's bits depend on the order
        # dgemv adds in: an unpadded band product gave 276 of these 1003
        # paths other bits in batches of 3
        d, f = NODE_SUMS_CALLERS[name]
        values = brownian_reference(seed, n_steps, n_paths, d)
        whole = f(values)
        parts = [f(values[i : i + batch]) for i in range(0, n_paths, batch)]
        assert_same_bits(np.concatenate(parts), whole)
        with mock.patch.object(processes, "_BLOCK_ELEMENTS", block_elements):
            assert_same_bits(f(values), whole)


class TestNoChunkTemporaries:
    """tracemalloc peaks of one replica chunk: BM(1), 4096 steps, 1000 paths."""

    grid = TimeGrid(4096)

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def chunk(self):
        return sample_values(BrownianMotion(1), self.grid, 5, MC_CHUNK)[0]

    def test_sampling_peak_is_the_values_array(self):
        (values, _), peak = self.peak(
            lambda: sample_values(BrownianMotion(1), self.grid, 5, MC_CHUNK))
        assert peak <= values.nbytes + 2 * MB

    def test_engine_peak_is_block_sized(self):
        # the kac driver's statistic over one chunk, whose values array
        # would be 32.8 MB: the engine holds 8-row blocks of 262 kB, and
        # the peak measured 0.81 MB
        def kac(values):
            band = indicator_local_time_many(values, 0.0, 0.01)
            return np.stack([band**n for n in (1, 2, 3)])

        run = lambda: mc_moments(BrownianMotion(1), self.grid, 5, MC_CHUNK, kac)
        run()  # the first draw imports parts of numpy.random
        _, peak = self.peak(run)
        assert peak <= 2 * MB

    @pytest.mark.parametrize("name", ["local_time", "band", "upcrossings", "field",
                                      "kl_projections"])
    def test_functional_peaks(self, chunk, name):
        # the chunk's values array is 32.8 MB; a whole padded copy of it, as
        # node sums made before they streamed, would be as large
        basis = kl_weights(self.grid.n_steps)
        fn = {"local_time": lambda: eval_family_many(LocalTime, [1, 0.1, 0.01], chunk),
              "band": lambda: indicator_local_time_many(chunk, 0.0, 0.01),
              "upcrossings": lambda: upcrossing_count_many(chunk, 0.0),
              "field": lambda: local_time_field(chunk, 0.1, [-0.2, 0.0, 0.3]),
              "kl_projections": lambda: fac._kl_squares(chunk, basis)}[name]
        _, peak = self.peak(fn)
        assert peak <= 2 * MB
