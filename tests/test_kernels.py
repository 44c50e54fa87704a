import math

import numpy as np
import pytest

from digcrowd._kernels import MASS_QUANTUM, assign_windows, deposit_gaussians


def _assign_oracle(depth, feat, cpx, cpy, ratio2, win):
    """Per pixel, the minimum D^2 over every center whose window covers it."""
    height, width = depth.shape
    best_d2 = np.full(depth.shape, np.inf)
    best_id = np.full(depth.shape, -1, dtype=np.int32)
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

    def _assign(self, depth, feat, cpx, cpy, ratio2, win):
        d2 = np.full(depth.shape, np.inf)
        ids = np.full(depth.shape, -1, dtype=self.id_dtype)
        assign_windows(depth, feat, cpx, cpy, ratio2, win, d2, ids)
        return d2, ids

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
