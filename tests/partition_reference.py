"""Reference implementations of depth clustering, classification and polyline extraction.

These are the straightforward versions that ``digcrowd.partition``, its
window pass ``_assign_windows`` included, replaced with in-place, incremental
numpy. The oracle tests in ``test_partition.py`` require the library to
return exactly what these return, bit for bit: the same labels, centres
and energies from ``cluster_depth``, the same automatic threshold from
``classify_clusters``, and the same polyline and warnings from
``extract_polyline`` without its full-resolution refinement, and the same
boundary rows from that refinement. Cluster mean
depths are computed as ``classify_clusters`` once computed them: fresh
pixel counts and depth sums over the final labels.
"""

import math

import numpy as np
from scipy import ndimage

from digcrowd import ConfigError, PartitionError, Polyline
from digcrowd.partition import (
    CENTER_RESIDUAL_TOL,
    ENERGY_RTOL,
    ClusterLabels,
    ClusterState,
    _attach_orphans,
    _douglas_peucker,
)


def assign_windows_reference(depth, feat, cpx, cpy, ratio2, win, best_d2, best_id):
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


def seed_grid_reference(depth, target):
    height, width = depth.shape
    nx = int(np.clip(round(np.sqrt(target * width / height)), 1, min(width, target)))
    ny = int(np.clip(round(target / nx), 1, height))
    if nx * ny < 2:
        if height >= 2:
            ny = 2
        else:
            nx = 2
    gy, gx = np.gradient(depth)
    grad = np.sqrt(gx * gx + gy * gy)
    feat, cpx, cpy = [], [], []
    for j in range(ny):
        for i in range(nx):
            cx = int(round((i + 0.5) * width / nx - 0.5))
            cy = int(round((j + 0.5) * height / ny - 0.5))
            c_lo, c_hi = max(0, cx - 1), min(width - 1, cx + 1)
            r_lo, r_hi = max(0, cy - 1), min(height - 1, cy + 1)
            patch = grad[r_lo : r_hi + 1, c_lo : c_hi + 1]
            flat = int(np.argmin(patch))
            py = r_lo + flat // patch.shape[1]
            px = c_lo + flat % patch.shape[1]
            feat.append(depth[py, px])
            cpx.append(float(px))
            cpy.append(float(py))
    return (
        np.asarray(feat, dtype=np.float64),
        np.asarray(cpx, dtype=np.float64),
        np.asarray(cpy, dtype=np.float64),
    )


def _current_distance_reference(depth, assign, feat, cpx, cpy, ratio2, cols, rows):
    df = depth - feat[assign]
    dx = cols - cpx[assign]
    dy = rows - cpy[assign]
    return df * df + ratio2 * (dx * dx + dy * dy)


def cluster_depth_reference(depth, target_cluster_count=256, compactness=0.1, max_iters=10):
    grid = np.asarray(depth.values, dtype=np.float64)
    height, width = grid.shape
    n = height * width
    if n < 2:
        raise ConfigError("cannot cluster a single-pixel grid")
    if not (2 <= target_cluster_count <= n):
        raise ConfigError(f"target cluster count {target_cluster_count} outside [2, {n}]")
    if not (compactness > 0.0):
        raise ConfigError("compactness must be positive")
    if max_iters < 0:
        raise ConfigError("max_iters must be >= 0")

    step = float(np.sqrt(n / target_cluster_count))
    ratio2 = (compactness / step) ** 2
    feat, cpx, cpy = seed_grid_reference(grid, target_cluster_count)
    k_count = feat.shape[0]

    cols2d, rows2d = np.meshgrid(
        np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64)
    )
    cols = cols2d.ravel()
    rows = rows2d.ravel()
    flat_depth = grid.ravel()

    best_d2 = np.full((height, width), np.inf)
    best_id = np.full((height, width), -1, dtype=np.int32)
    assign_windows_reference(grid, feat, cpx, cpy, ratio2, step, best_d2, best_id)
    bd = best_d2.ravel()
    bi = best_id.ravel()
    _attach_orphans(flat_depth, feat, cpx, cpy, ratio2, cols, rows, bd, bi)
    assign = bi.copy()
    energies = [float(bd.sum())]

    for _ in range(max_iters):
        counts = np.bincount(assign, minlength=k_count).astype(np.float64)
        sum_f = np.bincount(assign, weights=flat_depth, minlength=k_count)
        sum_x = np.bincount(assign, weights=cols, minlength=k_count)
        sum_y = np.bincount(assign, weights=rows, minlength=k_count)
        nz = counts > 0
        new_feat = np.where(nz, sum_f / np.maximum(counts, 1.0), feat)
        new_px = np.where(nz, sum_x / np.maximum(counts, 1.0), cpx)
        new_py = np.where(nz, sum_y / np.maximum(counts, 1.0), cpy)
        residual = float(
            np.sqrt((new_feat - feat) ** 2 + (new_px - cpx) ** 2 + (new_py - cpy) ** 2).max()
        )
        feat, cpx, cpy = new_feat, new_px, new_py

        best_d2 = _current_distance_reference(
            flat_depth, assign, feat, cpx, cpy, ratio2, cols, rows
        ).reshape(height, width)
        best_id = assign.reshape(height, width).astype(np.int32).copy()
        assign_windows_reference(grid, feat, cpx, cpy, ratio2, step, best_d2, best_id)
        assign = best_id.ravel().copy()
        energies.append(float(best_d2.sum()))
        if (
            residual < CENTER_RESIDUAL_TOL
            or energies[-2] - energies[-1] <= ENERGY_RTOL * energies[-2]
        ):
            break

    counts = np.bincount(assign, minlength=k_count)
    keep = counts > 0
    if not keep.all():
        remap = np.full(k_count, -1, dtype=np.int32)
        remap[keep] = np.arange(int(keep.sum()), dtype=np.int32)
        assign = remap[assign]
        feat, cpx, cpy = feat[keep], cpx[keep], cpy[keep]

    k_kept = feat.shape[0]
    pixel_counts = np.bincount(assign, minlength=k_kept).astype(np.float64)
    depth_sums = np.bincount(assign, weights=depth.values.ravel(), minlength=k_kept)
    return ClusterState(
        assignments=assign.reshape(height, width).astype(np.int32),
        feature=feat,
        px=cpx,
        py=cpy,
        mean_depths=depth_sums / np.maximum(pixel_counts, 1.0),
        grid_step=step,
        energy_history=tuple(energies),
    )


def classify_clusters_reference(state, threshold=None):
    """Automatic threshold by a scan of every midpoint between sorted distinct means."""
    means = state.mean_depths
    if threshold is None:
        uniq = np.unique(means)
        if uniq.size < 2:
            raise PartitionError(
                "cluster mean depths show no contrast; supply a manual polyline"
            )
        candidates = (uniq[:-1] + uniq[1:]) / 2.0
        best_var = -1.0
        threshold = float(candidates[0])
        total = means.size
        for t in candidates:
            lo = means < t
            n_lo = int(lo.sum())
            if n_lo == 0 or n_lo == total:
                continue  # midpoint of adjacent floats can round onto a mean
            w0 = n_lo / total
            w1 = 1.0 - w0
            var = w0 * w1 * (means[lo].mean() - means[~lo].mean()) ** 2
            if var > best_var:
                best_var = var
                threshold = float(t)
    elif not (0.0 <= threshold <= 1.0):
        raise ConfigError(f"depth threshold {threshold} outside [0, 1]")
    return ClusterLabels(far=means >= threshold, threshold=float(threshold))


def refine_boundary_reference(coarse, coarse_shape, step, depth, threshold):
    """``partition._refine_boundary`` as a 2-D gather of a band clamped at the bottom edge."""
    height, width = depth.values.shape
    coarse_h, coarse_w = coarse_shape
    full_step = step * np.sqrt(height * width / (coarse_h * coarse_w))
    s = height if 3.0 * full_step >= height else int(np.ceil(full_step))
    cols = np.arange(width)
    centre = np.rint(coarse[cols * coarse_w // width] * (height / coarse_h)).astype(np.intp)
    lo = np.clip(centre - s, 0, height)
    hi = np.clip(centre + s, 0, height)
    rows = lo + np.arange(2 * s)[:, None]
    band = depth.values[np.minimum(rows, height - 1), cols].astype(np.float64)
    far = (band >= threshold) & (rows < hi)
    return (lo + np.count_nonzero(far, axis=0)).astype(np.float64)


def extract_polyline_reference(far_labels, state, shape, simplify_tol=2.0):
    far_labels = np.asarray(far_labels, dtype=bool)
    if not far_labels.any() or far_labels.all():
        raise PartitionError("polyline extraction needs both near and far clusters")
    warnings = []
    far_px = far_labels[state.assignments]

    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    labeled, n_comp = ndimage.label(far_px, structure=structure)
    if n_comp == 0:
        raise PartitionError("far region empty after cluster labeling")
    sizes = np.bincount(labeled.ravel())
    sizes[0] = 0
    far_clean = ndimage.binary_fill_holes(labeled == int(np.argmax(sizes)))

    height, width = shape.array_shape
    all_far = far_clean.all(axis=0)
    boundary = np.where(all_far, height, (~far_clean).argmax(axis=0)).astype(np.float64)
    below = np.zeros(width, dtype=bool)
    for x in range(width):
        b = int(boundary[x])
        if b < height and far_clean[b:, x].any():
            below[x] = True
    if below.any():
        warnings.append(
            f"far region is not a clean upper band in {int(below.sum())} columns; "
            "using the column-wise upper envelope"
        )

    xs = np.arange(width, dtype=np.float64) + 0.5
    if width == 1:
        poly = Polyline.constant(float(boundary[0]), x_end=float(width))
    else:
        idx = _douglas_peucker(xs, boundary, simplify_tol)
        vx = xs[idx].copy()
        vy = boundary[idx]
        vx[0] = 0.0
        vx[-1] = float(width)
        if idx.size == 2:
            k = (vy[1] - vy[0]) / (xs[idx[1]] - xs[idx[0]])
            b0 = vy[0] - k * xs[idx[0]]
            vy = np.array([k * 0.0 + b0, k * width + b0])
        else:
            k_first = (vy[1] - vy[0]) / (xs[idx[1]] - xs[idx[0]])
            vy[0] = vy[1] - k_first * (xs[idx[1]] - 0.0)
            k_last = (vy[-1] - vy[-2]) / (xs[idx[-1]] - xs[idx[-2]])
            vy[-1] = vy[-2] + k_last * (width - xs[idx[-2]])
        poly = Polyline.from_points(vx, vy)
    return poly, tuple(warnings)

