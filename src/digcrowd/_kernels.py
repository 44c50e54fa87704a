"""Hot numeric kernels: superpixel assignment and Gaussian deposition.

Gaussian deposition quantizes normalized kernel weights onto multiples of
2**-40 and pushes the rounding residual onto the pixel nearest the head.
Every head therefore deposits a total mass of exactly 1.0, and because all
pixel values are dyadic rationals on that lattice, float64 sums over any
pixel subset are exact and independent of summation order (totals stay far
below the 2**13 bound where 53-bit significands would start dropping
quanta).
"""

from __future__ import annotations

import math

import numpy as np

MASS_QUANTUM_BITS = 40
MASS_SCALE = float(2**MASS_QUANTUM_BITS)
MASS_SCALE_INT = 2**MASS_QUANTUM_BITS
MASS_QUANTUM = 1.0 / MASS_SCALE


# ---------------------------------------------------------------------------
# Superpixel assignment: one pass of windowed minimum-distance labeling.
# D^2 = (depth - feature)^2 + ratio2 * (dx^2 + dy^2); centers are visited in
# id order and strict < keeps the smallest cluster id on exact ties.
# ---------------------------------------------------------------------------

def assign_windows(depth, feat, cpx, cpy, ratio2, win, best_d2, best_id):
    """Update (best_d2, best_id) in place with every center's 2*win window.

    Each window's D^2 is built in reused buffers and merged with masked
    copies; the arithmetic is the formula above, operation for operation.
    """
    height, width = depth.shape
    cols = np.arange(width, dtype=np.float64)
    rows = np.arange(height, dtype=np.float64)
    side = int(2.0 * win) + 3  # ceil(c + win) - floor(c - win) + 1 never exceeds it
    area = min(height, side) * min(width, side)
    d2_buf = np.empty(area)
    sp_buf = np.empty(area)
    better_buf = np.empty(area, dtype=bool)
    for k in range(feat.shape[0]):
        c_lo = max(0, int(math.floor(cpx[k] - win)))
        c_hi = min(width - 1, int(math.ceil(cpx[k] + win)))
        r_lo = max(0, int(math.floor(cpy[k] - win)))
        r_hi = min(height - 1, int(math.ceil(cpy[k] + win)))
        if c_lo > c_hi or r_lo > r_hi:
            continue
        shape = (r_hi - r_lo + 1, c_hi - c_lo + 1)
        size = shape[0] * shape[1]
        d2 = d2_buf[:size].reshape(shape)
        sp = sp_buf[:size].reshape(shape)
        better = better_buf[:size].reshape(shape)
        dx = cols[c_lo : c_hi + 1] - cpx[k]
        dy = rows[r_lo : r_hi + 1] - cpy[k]
        np.subtract(depth[r_lo : r_hi + 1, c_lo : c_hi + 1], feat[k], out=d2)
        np.multiply(d2, d2, out=d2)
        np.copyto(sp, dx * dx)  # broadcast rows, then add dy^2: faster than one outer add
        np.add(sp, (dy * dy)[:, None], out=sp)
        np.multiply(sp, ratio2, out=sp)
        np.add(d2, sp, out=d2)
        sub_d2 = best_d2[r_lo : r_hi + 1, c_lo : c_hi + 1]
        np.less(d2, sub_d2, out=better)
        np.copyto(sub_d2, d2, where=better)
        np.copyto(best_id[r_lo : r_hi + 1, c_lo : c_hi + 1], k, where=better)


# ---------------------------------------------------------------------------
# Gaussian deposition with exact unit mass per head.
# ---------------------------------------------------------------------------

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


def deposit_gaussians(field, xs, ys, sigmas, trunc, valid):
    """Accumulate one exactly-unit-mass truncated Gaussian per head.

    Head i's support reaches ``trunc * sigmas[i]`` from its center.
    """
    height, width = field.shape
    for i in range(xs.shape[0]):
        x = xs[i]
        y = ys[i]
        sig = sigmas[i]
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
