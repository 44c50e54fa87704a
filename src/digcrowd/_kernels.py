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

ASSIGN_BLOCK = 32  # centers whose windows are built together


def assign_windows(depth, feat, cpx, cpy, ratio2, win, best_d2, best_id):
    """Update (best_d2, best_id) in place with every center's 2*win window.

    Windows are built ``ASSIGN_BLOCK`` centers at a time: one gather from
    the depth map gives a (block, side, side) stack, with row and column
    indices clipped at the image edge, and D^2 is the formula above,
    operation for operation. Each window is then merged in id order with
    masked copies; the clipped cells lie outside the part that is merged.
    A block's temporaries are about 58 KB on a 120x80 grid and none is kept;
    a whole pass peaks at about 0.6 MB there, 1.6 MB on 270x180.
    """
    height, width = depth.shape
    side = int(2.0 * win) + 3  # ceil(c + win) - floor(c - win) + 1 never exceeds it
    c0 = np.floor(cpx - win)
    r0 = np.floor(cpy - win)
    c_lo = np.maximum(c0, 0.0)
    r_lo = np.maximum(r0, 0.0)
    c_hi = np.minimum(np.ceil(cpx + win), width - 1.0)
    r_hi = np.minimum(np.ceil(cpy + win), height - 1.0)
    live = np.flatnonzero((c_lo <= c_hi) & (r_lo <= r_hi))
    if live.size == 0:
        return
    # A live window starts at most side - 1 cells before the image, so its
    # start is a small integer.
    c0, r0 = c0[live], r0[live]
    steps = np.arange(side, dtype=np.float64)
    cols = c0[:, None] + steps
    rows = r0[:, None] + steps
    col_idx = np.clip(cols, 0, width - 1).astype(np.intp)
    row_idx = np.clip(rows, 0, height - 1).astype(np.intp) * width
    dx2 = (cols - cpx[live, None]) ** 2
    dy2 = (rows - cpy[live, None]) ** 2
    f = feat[live]
    flat = depth.ravel()
    bounds = list(zip(
        live.tolist(),
        r_lo[live].astype(np.intp).tolist(),
        (r_hi[live] + 1).astype(np.intp).tolist(),
        c_lo[live].astype(np.intp).tolist(),
        (c_hi[live] + 1).astype(np.intp).tolist(),
        r0.astype(np.intp).tolist(),
        c0.astype(np.intp).tolist(),
    ))

    for start in range(0, live.size, ASSIGN_BLOCK):
        part = slice(start, start + ASSIGN_BLOCK)
        idx = row_idx[part, :, None] + col_idx[part, None, :]
        sp = (dx2[part, None, :] + dy2[part, :, None]) * ratio2
        d2 = (flat[idx] - f[part, None, None]) ** 2 + sp
        for j, (k, rl, rh, cl, ch, top, left) in enumerate(bounds[part]):
            sub_d2 = best_d2[rl:rh, cl:ch]
            window = d2[j, rl - top : rh - top, cl - left : ch - left]
            better = window < sub_d2
            np.copyto(sub_d2, window, where=better)
            np.copyto(best_id[rl:rh, cl:ch], k, where=better)


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

    Head i's support reaches ``trunc * sigmas[i]`` from its center. The
    residual goes to the support pixel nearest the head, the first in
    row-major order on a tie. When the head's own pixel is in the support,
    that pixel is at most 0.5**0.5 px away and every pixel outside the 3x3
    block around it at least 1.5 px, so the block alone is searched.
    """
    height, width = field.shape
    for x, y, sig in zip(xs.tolist(), ys.tolist(), sigmas.tolist()):
        radius = trunc * sig
        r2 = radius * radius
        inv2s = 1.0 / (2.0 * sig * sig)
        c_lo, c_hi, r_lo, r_hi = _window_bounds(x, y, radius, width, height)
        if c_lo > c_hi or r_lo > r_hi:
            br, bc = _nearest_valid(x, y, valid)
            field[br, bc] += 1.0
            continue
        dx = np.arange(c_lo + 0.5, c_hi + 1) - x  # pixel centers are exact
        dy = np.arange(r_lo + 0.5, r_hi + 1) - y
        d2 = np.add.outer(dy * dy, dx * dx)
        ok = d2 <= r2
        np.logical_and(ok, valid[r_lo : r_hi + 1, c_lo : c_hi + 1], out=ok)
        row, col = int(y) - r_lo, int(x) - c_lo  # the head's own pixel
        own = 0 <= row < ok.shape[0] and 0 <= col < ok.shape[1] and bool(ok[row, col])
        if not (own or ok.any()):
            br, bc = _nearest_valid(x, y, valid)
            field[br, bc] += 1.0
            continue
        # Outside the support d2 becomes inf, so exp gives the 0 weight there
        # and argmin never picks it. The weights are quantized in place.
        np.copyto(d2, np.inf, where=~ok)
        w = np.multiply(d2, -inv2s)
        np.exp(w, out=w)
        w /= float(w.sum())
        w *= MASS_SCALE
        w += 0.5
        np.floor(w, out=w)
        total = int(w.sum())
        top, left = (max(row - 1, 0), max(col - 1, 0)) if own else (0, 0)
        near = d2[top : row + 2, left : col + 2] if own else d2
        nr, nc = divmod(int(np.argmin(near)), near.shape[1])
        w *= MASS_QUANTUM
        field[r_lo : r_hi + 1, c_lo : c_hi + 1] += w
        field[r_lo + top + nr, c_lo + left + nc] += (MASS_SCALE_INT - total) * MASS_QUANTUM
