import math

import numpy as np
import pytest
from density_reference import deposit_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digcrowd.density import DEFAULT_SIGMA_FLOOR, MASS_QUANTUM
from digcrowd.density import _deposit_gaussians as deposit_gaussians
from digcrowd.partition import ASSIGN_BLOCK
from digcrowd.partition import _assign_windows as assign_windows


def _assign_oracle(depth, feat, cpx, cpy, ratio2, win, start=None):
    """Per pixel, the minimum D^2 over every center whose window covers it.

    ``start`` is a (best_d2, best_id) pair the pass begins from, as in
    ``cluster_depth``'s iterations; a center that only ties it loses.
    """
    height, width = depth.shape
    if start is None:
        best_d2 = np.full(depth.shape, np.inf)
        best_id = np.full(depth.shape, -1, dtype=np.int32)
    else:
        best_d2, best_id = start[0].copy(), start[1].astype(np.int32)
    for r in range(height):
        for c in range(width):
            for k in range(feat.shape[0]):
                covers = (
                    math.floor(cpx[k] - win) <= c <= math.ceil(cpx[k] + win)
                    and math.floor(cpy[k] - win) <= r <= math.ceil(cpy[k] + win)
                )
                if not covers:
                    continue
                df = float(depth[r, c]) - float(feat[k])
                dx = c - float(cpx[k])
                dy = r - float(cpy[k])
                d2 = df * df + ratio2 * (dx * dx + dy * dy)
                if d2 < best_d2[r, c]:  # ids rise, so ties keep the smallest
                    best_d2[r, c] = d2
                    best_id[r, c] = k
    return best_d2, best_id


class TestAssignWindowsOracle:
    id_dtype = np.int32  # what tests and public callers pass

    def _assign(self, depth, feat, cpx, cpy, ratio2, win, start=None):
        if start is None:
            d2 = np.full(depth.shape, np.inf)
            ids = np.full(depth.shape, -1, dtype=self.id_dtype)
        else:
            d2, ids = start[0].copy(), start[1].astype(self.id_dtype)
        assign_windows(depth, feat, cpx, cpy, ratio2, win, d2, ids)
        return d2, ids

    def _check(self, depth, feat, cpx, cpy, ratio2, win, start=None):
        got_d2, got_id = self._assign(depth, feat, cpx, cpy, ratio2, win, start)
        want_d2, want_id = _assign_oracle(depth, feat, cpx, cpy, ratio2, win, start)
        assert np.array_equal(got_id, want_id)
        assert np.array_equal(got_d2.view(np.uint64), want_d2.view(np.uint64))
        return got_d2, got_id

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_exhaustive_loop(self, seed):
        rng = np.random.default_rng(seed)
        depth = rng.random((24, 32))
        k = 9
        feat = rng.random(k)
        # some centers sit off the grid, so their windows are clipped or empty
        cpx = rng.uniform(-12, 44, k)
        cpy = rng.uniform(-12, 36, k)
        got_d2, got_id = self._assign(depth, feat, cpx, cpy, 1e-3, 6.0)
        want_d2, want_id = _assign_oracle(depth, feat, cpx, cpy, 1e-3, 6.0)
        assert np.array_equal(got_id, want_id)
        assert np.array_equal(got_d2, want_d2)

    def test_ties_keep_smallest_id(self):
        depth = np.full((16, 16), 0.5)
        feat = np.full(4, 0.5)
        cpx = np.array([4.0, 12.0, 4.0, 12.0])
        cpy = np.array([4.0, 4.0, 12.0, 12.0])
        got_d2, got_id = self._assign(depth, feat, cpx, cpy, 2.5e-4, 8.0)
        want_d2, want_id = _assign_oracle(depth, feat, cpx, cpy, 2.5e-4, 8.0)
        assert np.array_equal(got_id, want_id)
        assert np.array_equal(got_d2, want_d2)
        assert got_id[8, 8] == 0  # equidistant from all four centers

    @pytest.mark.parametrize("seed", [3, 4])
    def test_centres_span_several_blocks(self, seed):
        rng = np.random.default_rng(seed)
        k = 70
        assert k > 2 * ASSIGN_BLOCK and k % ASSIGN_BLOCK
        depth = rng.random((30, 40))
        feat = rng.random(k)
        cpx = rng.uniform(-4, 44, k)
        cpy = rng.uniform(-4, 34, k)
        self._check(depth, feat, cpx, cpy, 2e-3, 4.5)

    def test_windows_clipped_at_every_edge_and_empty(self):
        rng = np.random.default_rng(11)
        height, width, win = 20, 28, 3.5
        # left, right, top and bottom edges, the four corners, then windows
        # that miss the grid on each side, mixed with interior centres so the
        # empty ones sit inside blocks and on block boundaries
        edge_x = [-2.0, width + 1.5, 10.0, 12.25, -3.0, width + 2.0, -1.0, width + 3.0]
        edge_y = [8.0, 9.0, -2.5, height + 1.0, -3.0, -1.5, height + 2.5, height + 3.0]
        gone_x = [-4.75, width + 4.0, 14.0, 5.0, -50.0, width + 50.0]
        gone_y = [9.0, 4.0, -4.75, height + 3.75, -50.0, height + 50.0]
        cpx = np.concatenate([edge_x, gone_x, rng.uniform(0, width, 26)])
        cpy = np.concatenate([edge_y, gone_y, rng.uniform(0, height, 26)])
        order = rng.permutation(cpx.size)
        cpx, cpy = cpx[order], cpy[order]
        feat = rng.random(cpx.size)
        depth = rng.random((height, width))
        got_d2, got_id = self._check(depth, feat, cpx, cpy, 1e-2, win)
        for k in order.argsort()[len(edge_x) : len(edge_x) + len(gone_x)]:
            assert not (got_id == k).any()  # its window misses the grid

    def test_prefilled_tie_keeps_the_holder(self):
        depth = np.full((16, 20), 0.5)
        feat = np.full(40, 0.5)
        rng = np.random.default_rng(5)
        cpx = rng.uniform(0, 20, 40)
        cpy = rng.uniform(0, 16, 40)
        cpx[33], cpy[33] = 9.0, 7.0
        ratio2 = 1e-3
        # every pixel starts at exactly center 33's D^2, held by a foreign id
        rows, cols = np.mgrid[0:16, 0:20].astype(np.float64)
        df = depth - feat[33]
        dx = cols - cpx[33]
        dy = rows - cpy[33]
        start = (df * df + ratio2 * (dx * dx + dy * dy), np.full(depth.shape, 99))
        got_d2, got_id = self._check(depth, feat, cpx, cpy, ratio2, 4.0, start)
        assert got_d2[7, 9] == 0.0 and got_id[7, 9] == 99

    @pytest.mark.parametrize("seed", [6, 7])
    def test_prefilled_start_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = 70
        depth = rng.random((24, 36))
        feat = rng.random(k)
        cpx = rng.uniform(-3, 39, k)
        cpy = rng.uniform(-3, 27, k)
        start = (rng.random(depth.shape) * 0.2, rng.integers(0, k, depth.shape))
        start[0][::5, ::3] = np.inf  # some pixels still unheld
        self._check(depth, feat, cpx, cpy, 1e-3, 4.0, start)

    @pytest.mark.parametrize("prefilled", [False, True])
    def test_duplicate_centres_tie_within_and_across_blocks(self, prefilled):
        rng = np.random.default_rng(13)
        height, width, win = 20, 24, 4.0  # side 11: blocks of ASSIGN_BLOCK centres
        k = 2 * ASSIGN_BLOCK + 6
        depth = rng.random((height, width))
        cpx = rng.uniform(0, width, k)
        cpy = rng.uniform(0, height, k)
        feat = rng.random(k)
        # ids 3 and 4 share a block, ids 5 and 5 + ASSIGN_BLOCK do not; each
        # pair is one centre twice, on a pixel whose depth is its feature
        pairs = [(3, 4, (6, 7)), (5, 5 + ASSIGN_BLOCK, (13, 16))]
        for a, b, (r, c) in pairs:
            cpx[[a, b]], cpy[[a, b]], feat[[a, b]] = c, r, depth[r, c]
        start = None
        if prefilled:
            # foreign holders, so any pixel of b's would be one its window won
            start = (rng.random(depth.shape) * 0.2, rng.integers(k, 2 * k, depth.shape))
            start[0][::4, ::3] = np.inf
            for _, _, cell in pairs:  # the centre's own D^2, 0, held by a foreign id
                start[0][cell], start[1][cell] = 0.0, 2 * k
        got_d2, got_id = self._check(depth, feat, cpx, cpy, 1e-3, win, start)
        for a, b, cell in pairs:
            assert got_d2[cell] == 0.0
            assert got_id[cell] == (2 * k if prefilled else a)
            assert not (got_id == b).any()  # a covers every pixel b does, at equal D^2
            assert (got_id == a).sum() > 1


class TestAssignWindowsOracleIntp(TestAssignWindowsOracle):
    id_dtype = np.intp  # what cluster_depth passes


def _gaussian_oracle(x, y, sigma, trunc, valid):
    """Unquantized weights normalized over the valid truncation disc."""
    height, width = valid.shape
    w = np.zeros(valid.shape)
    nearest, nearest_d2 = None, math.inf
    for r in range(height):
        for c in range(width):
            d2 = (r + 0.5 - y) ** 2 + (c + 0.5 - x) ** 2
            if valid[r, c] and d2 <= (trunc * sigma) ** 2:
                w[r, c] = math.exp(-d2 / (2.0 * sigma * sigma))
                if d2 < nearest_d2:
                    nearest, nearest_d2 = (r, c), d2
    return w / w.sum(), nearest


def _heads(rng, n, width, height):
    xs = rng.uniform(0, width, n)
    ys = rng.uniform(0, height, n)
    return xs, ys, rng.uniform(0.6, 4.0, n)


class TestDepositGaussiansOracle:
    @pytest.mark.parametrize("masked", [False, True])
    def test_each_head_within_half_a_quantum(self, masked):
        rng = np.random.default_rng(5 + masked)
        h, w, n = 30, 40, 12
        valid = np.ones((h, w), dtype=np.uint8)
        if masked:
            valid[h // 2 :] = 0
        xs, ys, sigmas = _heads(rng, n, w, h // 2 if masked else h)
        for trunc in (1.0, 2.0, 3.0):
            total = np.zeros((h, w))
            for i in range(n):
                field = np.zeros((h, w))
                deposit_gaussians(field, xs[i : i + 1], ys[i : i + 1], sigmas[i : i + 1],
                                  trunc, valid)
                want, nearest = _gaussian_oracle(xs[i], ys[i], sigmas[i], trunc, valid)
                assert field.sum() == 1.0
                assert not field[valid == 0].any()
                assert not field[want == 0.0].any()
                err = np.abs(field - want)
                # every rounding error lands on the nearest pixel as the residual
                assert err[nearest] <= np.count_nonzero(want) * MASS_QUANTUM
                err[nearest] = 0.0
                # round to nearest quantum; the slack covers the weight sum's order
                assert err.max() <= 0.501 * MASS_QUANTUM
                total += field
            # dyadic values on the 2^-40 lattice add exactly, in any order
            together = np.zeros((h, w))
            deposit_gaussians(together, xs, ys, sigmas, trunc, valid)
            assert np.array_equal(together, total)
            assert together.sum() == float(n)

    @pytest.mark.parametrize(
        "x, y, sigma, trunc, valid_side, cell",
        [
            (3.0, 3.0, 0.05, 1.0, 8, (2, 2)),  # truncation disc holds no pixel center
            (6.5, 6.5, 1.0, 3.0, 2, (1, 1)),  # disc misses the valid 2x2 corner
        ],
    )
    def test_nearest_valid_pixel_fallback(self, x, y, sigma, trunc, valid_side, cell):
        valid = np.zeros((8, 8), dtype=np.uint8)
        valid[:valid_side, :valid_side] = 1
        field = np.zeros((8, 8))
        deposit_gaussians(field, np.array([x]), np.array([y]), np.array([sigma]), trunc, valid)
        assert field.sum() == 1.0
        assert field[cell] == 1.0


@st.composite
def _deposit_cases(draw):
    """A small grid, a support mask and heads that stress the residual's pixel.

    Coordinates are often integers or half-integers, where pixel centers tie
    for the nearest; masks may cut each head's own pixel; sigmas reach down
    to the floor and below, where the disc can hold no pixel center at all.
    """
    height = draw(st.integers(1, 14))
    width = draw(st.integers(1, 14))

    def coord(size):
        return st.one_of(
            st.integers(0, size - 1).map(float),
            st.integers(0, 2 * size - 1).map(lambda k: k / 2.0),
            st.floats(0.0, size, exclude_max=True, allow_subnormal=False),
        )

    n = draw(st.integers(1, 6))
    xs = draw(st.lists(coord(width), min_size=n, max_size=n))
    ys = draw(st.lists(coord(height), min_size=n, max_size=n))
    sigmas = draw(st.lists(st.one_of(st.just(DEFAULT_SIGMA_FLOOR), st.floats(0.05, 6.0)),
                           min_size=n, max_size=n))
    trunc = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    valid = rng.random((height, width)) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    if draw(st.booleans()):  # cut every head's own pixel out of the support
        valid[np.asarray(ys, dtype=int), np.asarray(xs, dtype=int)] = False
    valid.flat[draw(st.integers(0, height * width - 1))] = True  # never empty
    dtype = draw(st.sampled_from([np.uint8, np.bool_]))
    return np.array(xs), np.array(ys), np.array(sigmas), trunc, valid.astype(dtype)


def _ones(height, width, cut=None):
    valid = np.ones((height, width), dtype=np.uint8)
    if cut is not None:
        valid[cut] = 0
    return valid


@settings(max_examples=300, deadline=None)
@given(_deposit_cases())
# own pixel cut from the support: four neighbours tie; with the whole 3x3
# block cut the nearest pixel lies outside it
@example((np.array([2.5]), np.array([2.5]), np.array([2.0]), 3.0, _ones(6, 6, (2, 2))))
@example((np.array([2.5]), np.array([2.5]), np.array([2.0]), 3.0,
          _ones(6, 6, (slice(1, 4), slice(1, 4)))))
# integer coordinates: four pixel centers tie, the row-major first wins
@example((np.array([3.0, 0.0, 5.0]), np.array([2.0, 0.0, 4.0]), np.array([1.0, 1.0, 1.0]), 3.0,
          _ones(5, 6)))
# windows clipped at every edge of a 3x3 grid
@example((np.array([0.2, 2.9, 1.5]), np.array([0.1, 2.95, 1.5]), np.array([4.0, 4.0, 6.0]), 3.0,
          _ones(3, 3)))
# empty disc (sigma 0.05 off every pixel center) and a disc with no valid pixel
@example((np.array([3.0, 6.5]), np.array([3.0, 6.5]), np.array([0.05, 1.0]), 1.0,
          np.pad(np.ones((2, 2), dtype=np.uint8), ((0, 6), (0, 6)))))
def test_deposit_matches_reference_bits(case):
    xs, ys, sigmas, trunc, valid = case
    field = np.zeros(valid.shape)
    want = np.zeros(valid.shape)
    deposit_gaussians(field, xs, ys, sigmas, trunc, valid)
    deposit_reference(want, xs, ys, sigmas, trunc, valid)
    assert np.array_equal(field.view(np.uint64), want.view(np.uint64))
