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
    """Update (best_d2, best_id) in place with every center's 2*win window."""
    height, width = depth.shape
    cols = np.arange(width, dtype=np.float64)
    rows = np.arange(height, dtype=np.float64)
    for k in range(feat.shape[0]):
        c_lo = max(0, int(math.floor(cpx[k] - win)))
        c_hi = min(width - 1, int(math.ceil(cpx[k] + win)))
        r_lo = max(0, int(math.floor(cpy[k] - win)))
        r_hi = min(height - 1, int(math.ceil(cpy[k] + win)))
        if c_lo > c_hi or r_lo > r_hi:
            continue
        df = depth[r_lo : r_hi + 1, c_lo : c_hi + 1] - feat[k]
        dx = cols[c_lo : c_hi + 1] - cpx[k]
        dy = rows[r_lo : r_hi + 1] - cpy[k]
        d2 = df * df + ratio2 * (dx[None, :] * dx[None, :] + dy[:, None] * dy[:, None])
        sub_d2 = best_d2[r_lo : r_hi + 1, c_lo : c_hi + 1]
        sub_id = best_id[r_lo : r_hi + 1, c_lo : c_hi + 1]
        better = d2 < sub_d2
        sub_d2[better] = d2[better]
        sub_id[better] = k


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


def deposit_gaussians(field, xs, ys, sigmas, truncs, valid):
    """Accumulate one exactly-unit-mass truncated Gaussian per head."""
    height, width = field.shape
    for i in range(xs.shape[0]):
        x = xs[i]
        y = ys[i]
        sig = sigmas[i]
        radius = truncs[i] * sig
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
        quanta[~ok] = 0.0
        total = int(quanta.sum())
        nearest = int(np.argmin(np.where(ok, d2, np.inf)))
        nr = r_lo + nearest // (c_hi - c_lo + 1)
        nc = c_lo + nearest % (c_hi - c_lo + 1)
        field[r_lo : r_hi + 1, c_lo : c_hi + 1] += quanta * MASS_QUANTUM
        field[nr, nc] += (MASS_SCALE_INT - total) * MASS_QUANTUM
