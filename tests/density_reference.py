"""Per-head kernel-width path kept as a reference oracle for the array path.

``sigmas_reference`` computes every head's sigma the way the per-head code
did before heads became one (N, 2) array: one mean per head over its own row
of neighbor distances, then ``max(beta * mean, floor)`` in Python floats, with
the floor for a head that has no neighbors or a non-finite mean.
``knn_mean_distance`` + ``adaptive_sigma`` must match it bit for bit.

``deposit_reference`` is Gaussian deposition as it was before its in-place
rewrite, with its two helpers, kept verbatim: a full-window argmin for the
residual's pixel and a fresh array per step. ``density._deposit_gaussians``
must leave the same bit pattern in every pixel.
"""

import math

import numpy as np
from scipy.spatial import cKDTree


def sigmas_reference(heads, k, beta, sigma_floor=1.0):
    pts = np.asarray(heads, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    m = min(k, n - 1)
    if m == 0:
        means = [math.nan]
    else:
        dists, _ = cKDTree(pts).query(pts, k=m + 1)
        dists = np.atleast_2d(dists)[:, 1:]
        means = [float(dists[i].mean()) for i in range(n)]
    sigmas = []
    for mean in means:
        if m > 0 and math.isfinite(mean):
            sigmas.append(max(beta * mean, sigma_floor))
        else:
            sigmas.append(sigma_floor)
    return np.array(sigmas, dtype=np.float64)


MASS_SCALE = float(2**40)
MASS_SCALE_INT = 2**40
MASS_QUANTUM = 1.0 / MASS_SCALE


def _window_bounds(x, y, radius, width, height):
    c_lo = max(0, int(math.ceil(x - radius - 0.5)))
    c_hi = min(width - 1, int(math.floor(x + radius - 0.5)))
    r_lo = max(0, int(math.ceil(y - radius - 0.5)))
    r_hi = min(height - 1, int(math.floor(y + radius - 0.5)))
    return c_lo, c_hi, r_lo, r_hi


def _nearest_valid(x, y, valid):
    height, width = valid.shape
    cols = np.arange(width, dtype=np.float64) + 0.5 - x
    rows = np.arange(height, dtype=np.float64) + 0.5 - y
    d2 = rows[:, None] ** 2 + cols[None, :] ** 2
    d2 = np.where(valid != 0, d2, np.inf)
    flat = int(np.argmin(d2))
    if not np.isfinite(d2.flat[flat]):
        raise ValueError("density support mask has no valid pixels")
    return flat // width, flat % width


def deposit_reference(field, xs, ys, sigmas, trunc, valid):
    """Accumulate one exactly-unit-mass truncated Gaussian per head.

    Head i's support reaches ``trunc * sigmas[i]`` from its center.
    """
    height, width = field.shape
    for x, y, sig in zip(xs, ys, sigmas):
        radius = trunc * sig
        r2 = radius * radius
        inv2s = 1.0 / (2.0 * sig * sig)
        c_lo, c_hi, r_lo, r_hi = _window_bounds(x, y, radius, width, height)
        if c_lo > c_hi or r_lo > r_hi:
            br, bc = _nearest_valid(x, y, valid)
            field[br, bc] += 1.0
            continue
        dx = np.arange(c_lo, c_hi + 1, dtype=np.float64) + 0.5 - x
        dy = np.arange(r_lo, r_hi + 1, dtype=np.float64) + 0.5 - y
        d2 = dy[:, None] * dy[:, None] + dx[None, :] * dx[None, :]
        ok = (d2 <= r2) & (valid[r_lo : r_hi + 1, c_lo : c_hi + 1] != 0)
        if not ok.any():
            br, bc = _nearest_valid(x, y, valid)
            field[br, bc] += 1.0
            continue
        w = np.where(ok, np.exp(-d2 * inv2s), 0.0)
        s = float(w.sum())
        quanta = np.floor(w / s * MASS_SCALE + 0.5)
        total = int(quanta.sum())
        nearest = int(np.argmin(np.where(ok, d2, np.inf)))
        nr = r_lo + nearest // (c_hi - c_lo + 1)
        nc = c_lo + nearest % (c_hi - c_lo + 1)
        field[r_lo : r_hi + 1, c_lo : c_hi + 1] += quanta * MASS_QUANTUM
        field[nr, nc] += (MASS_SCALE_INT - total) * MASS_QUANTUM
