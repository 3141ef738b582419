"""The row-blocked layer against its unblocked formulas, bit for bit.

``sample_values`` (Brownian motion, smooth stationary) and the O(n) path
functionals work in the row blocks of ``processes.row_blocks``.  Each
case below compares them with the whole-array expression they replace,
at path counts on both sides of a block boundary, and checks that no
chunk-sized temporary is made.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcl import processes
from wcl.functionals import (
    LocalTime,
    OffsetLocalTime,
    eval_family_many,
    eval_functional_many,
    indicator_local_time_many,
    interval_weights,
    local_time_field,
    occupation_identity,
    upcrossing_count_many,
)
from wcl.processes import (
    MC_CHUNK,
    BrownianMotion,
    SmoothStationary,
    TimeGrid,
    row_blocks,
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
        n_paths = n_paths_for(kind, n_steps * d)
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


class TestBlockedFunctionals:
    """Each O(n) functional equals its whole-array formula, including
    levels and band edges that sit exactly on node values."""

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
        sq = np.concatenate([v, np.zeros((-n_paths % 8, n_steps + 1))]) ** 2
        want = np.stack([((2.0 * math.pi * e) ** -0.5 * np.exp(sq / (-2.0 * e))) @ w
                         for e in EPS_GRID])[:, :n_paths]
        assert_same_bits(eval_family_many(LocalTime, EPS_GRID, values), want)

        # |v - x| == eps on the node itself when x = 0 and eps = |node|
        for x, e in ((0.0, abs(node) or eps), (node, eps), (0.0, eps)):
            want = ((np.abs(v - x) <= e) @ w) / (2.0 * e)
            assert_same_bits(indicator_local_time_many(values, x, e), want)

        for level in (node, 0.0, -node):
            want = np.sum((v[:, :-1] < level) & (v[:, 1:] >= level), axis=1)
            assert_same_bits(upcrossing_count_many(values, level), want)

    @settings(max_examples=30, deadline=None)
    @given(n_steps=st.sampled_from(N_STEPS), n_paths=st.sampled_from([1, 7, 9, 256, 1000, 1003]),
           batch=st.sampled_from([1, 3, 5, 8]), block_elements=st.sampled_from([300, 5000]),
           seed=st.integers(0, 2**32 - 1))
    def test_local_time_has_the_same_bits_in_any_batch(self, n_steps, n_paths, batch,
                                                       block_elements, seed):
        # alone, in small batches and in other row blocks, each path's
        # LocalTime is that of the whole-chunk call
        values = brownian_reference(seed, n_steps, n_paths, 1)
        whole = eval_family_many(LocalTime, EPS_GRID, values)
        parts = [eval_family_many(LocalTime, EPS_GRID, values[i : i + batch])
                 for i in range(0, n_paths, batch)]
        assert_same_bits(np.concatenate(parts, axis=1), whole)
        with mock.patch.object(processes, "_BLOCK_ELEMENTS", block_elements):
            assert_same_bits(eval_family_many(LocalTime, EPS_GRID, values), whole)

    @settings(max_examples=30, deadline=None)
    @given(n_steps=st.sampled_from([2, 8, 256]), n_paths=st.sampled_from([1, 7, 9, 256, 1003]),
           batch=st.sampled_from([1, 3, 5, 8]), seed=st.integers(0, 2**32 - 1))
    def test_whole_array_functionals_have_the_same_bits_in_any_batch(self, n_steps, n_paths,
                                                                     batch, seed):
        # offset local time, the local-time field and both sides of the
        # occupation identity, alone and in small batches
        scalar = brownian_reference(seed, n_steps, n_paths, 1)
        planar = brownian_reference(seed + 1, n_steps, n_paths, 2)
        cases = [
            (planar, lambda v: eval_functional_many(OffsetLocalTime(0.1, (0.4, 0.3)), v)),
            (scalar, lambda v: local_time_field(v, 0.1, [-0.2, 0.0, 0.3])),
            (scalar, lambda v: np.stack(occupation_identity(v, 0.01, [0.3, 1.0, -0.5, 0.2, 0.1]),
                                        axis=1)),
        ]
        for values, f in cases:
            parts = [f(values[i : i + batch]) for i in range(0, n_paths, batch)]
            assert_same_bits(np.concatenate(parts), f(values))


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

    @pytest.mark.parametrize("name", ["local_time", "band", "upcrossings"])
    def test_functional_peaks(self, chunk, name):
        fn = {"local_time": lambda: eval_family_many(LocalTime, [1, 0.1, 0.01], chunk),
              "band": lambda: indicator_local_time_many(chunk, 0.0, 0.01),
              "upcrossings": lambda: upcrossing_count_many(chunk, 0.0)}[name]
        _, peak = self.peak(fn)
        assert peak <= 2 * MB
