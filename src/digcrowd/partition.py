"""Depth-driven scene split.

The depth map is clustered by a windowed local k-means over the joint
[depth, x, y] space (superpixel style: regularly seeded centers, each
searching a 2S x 2S window, distances mixing feature similarity with
spatial proximity scaled by a compactness weight). Clusters are then
classified near/far by mean depth, and the far band's lower boundary is
simplified into the split polyline.

The clustering runs on a decimated grid (every ``f``-th pixel, see
``decimation_factor``); the boundary it gives is then refined at full
resolution, column by column, against the depth threshold. The clustering
therefore only has to supply that threshold and a line within one
superpixel step of the contour, and a superpixel about six coarse pixels
across does both: a 1080x720 map with 256 clusters is clustered on a
120x80 grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DigCrowdError, PartitionError
from .scene import (
    DepthMap,
    GridShape,
    Polyline,
    RegionMask,
    SceneConfig,
    _frozen,
    check_integer,
    check_number,
    check_positive,
    mask_from_polyline,
)

__all__ = [
    "ClusterState",
    "ClusterLabels",
    "PartitionResult",
    "cluster_depth",
    "classify_clusters",
    "extract_polyline",
    "decimation_factor",
    "partition",
]

CENTER_RESIDUAL_TOL = 1e-4
ENERGY_RTOL = 5e-3  # stop once an iteration lowers the energy by at most this share
COARSE_STEP = 6  # coarse pixels per full-resolution superpixel step
ASSIGN_BLOCK = 32  # centers whose windows are built together


@dataclass(frozen=True, eq=False)
class ClusterState:
    """Result of clustering: dense per-pixel ids, center coordinates, mean depths."""

    assignments: np.ndarray
    feature: np.ndarray
    px: np.ndarray
    py: np.ndarray
    mean_depths: np.ndarray
    grid_step: float
    energy_history: tuple[float, ...] = ()
    stop_reason: str | None = None  # "residual", "energy" or "cap"

    def __post_init__(self):
        for name in ("assignments", "feature", "px", "py", "mean_depths"):
            given = getattr(self, name)
            object.__setattr__(self, name, _frozen(given, given))
        if self.cluster_count < 1:
            raise ConfigError("cluster state needs at least one center")
        if self.mean_depths.shape != self.feature.shape:
            raise ConfigError("cluster state needs one mean depth per center")

    @property
    def cluster_count(self) -> int:
        return int(self.feature.shape[0])


class ClusterLabels(NamedTuple):
    far: np.ndarray  # bool per cluster
    threshold: float


@dataclass(frozen=True, eq=False)
class PartitionResult:
    """Near/far mask plus the split polyline and partition diagnostics."""

    mask: RegionMask
    polyline: Polyline
    cluster_mean_depths: np.ndarray | None = None
    threshold_used: float | None = None
    warnings: tuple[str, ...] = ()
    cluster_assignments: np.ndarray | None = None  # on the coarse clustering grid
    energy_history: tuple[float, ...] = ()
    stop_reason: str | None = None

    @property
    def iterations(self) -> int | None:
        """Clustering iterations run; None for a manual split."""
        return len(self.energy_history) - 1 if self.energy_history else None

    @property
    def cluster_count(self) -> int | None:
        """Clusters left after empty ones are dropped; None for a manual split."""
        return None if self.cluster_mean_depths is None else int(self.cluster_mean_depths.size)


def decimation_factor(shape: GridShape, target_cluster_count: int) -> int:
    """Stride of the coarse grid the clustering runs on.

    The full-resolution superpixel step over ``COARSE_STEP``, so a
    superpixel stays about that many coarse pixels across: 9 on a 1080x720
    map with 256 clusters, 2 on a 160x120 map with 64, and 1 (no
    decimation) where the step is under ``2 * COARSE_STEP``. Never more than
    the grid's shorter side, so the coarse grid keeps a pixel; 1 where the
    cluster count is invalid, so ``cluster_depth`` reports it.
    """
    height, width = shape.array_shape
    n = height * width
    if not (2 <= target_cluster_count <= n):
        return 1
    step = float(np.sqrt(n / target_cluster_count))
    return max(1, min(int(step // COARSE_STEP), height, width))


def _decimate(depth: DepthMap, factor: int) -> DepthMap:
    """Every ``factor``-th pixel, starting half a stride in."""
    if factor == 1:
        return depth
    start = factor // 2
    coarse = depth.values[start::factor, start::factor]
    return DepthMap(GridShape(coarse.shape[1], coarse.shape[0]), coarse)


def _seed_grid(depth: np.ndarray, target: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regular-grid centers, each nudged to the flattest pixel of its 3x3 patch.

    The gradient is ``np.gradient`` along each axis, 0 along an axis of
    length 1. Pixels off the image count as infinitely steep, and a tie goes
    to the first pixel in row-major patch order.
    """
    height, width = depth.shape
    nx = int(np.clip(round(np.sqrt(target * width / height)), 1, min(width, target)))
    ny = int(np.clip(round(target / nx), 1, height))
    cx = np.tile(np.rint((np.arange(nx) + 0.5) * width / nx - 0.5).astype(np.intp), ny)
    cy = np.repeat(np.rint((np.arange(ny) + 0.5) * height / ny - 0.5).astype(np.intp), nx)
    gy, gx = (np.gradient(depth, axis=axis) if n > 1 else np.zeros_like(depth)
              for axis, n in enumerate(depth.shape))
    grad = np.pad(np.sqrt(gx * gx + gy * gy), 1, constant_values=np.inf)
    # one row per seed, one column per pixel of its patch on the padded grid
    dr, dc = np.divmod(np.arange(9), 3)
    flat = np.argmin(grad[cy[:, None] + dr, cx[:, None] + dc], axis=1)
    py = cy + dr[flat] - 1
    px = cx + dc[flat] - 1
    return depth[py, px], px.astype(np.float64), py.astype(np.float64)


def _assign_windows(depth, feat, cpx, cpy, ratio2, win, best_d2, best_id):
    """Update (best_d2, best_id) in place with every center's 2*win window.

    One pass of windowed minimum-distance labeling, with
    D^2 = (depth - feature)^2 + ratio2 * (dx^2 + dy^2). The result is that
    of visiting the centers in id order with a strict <: each pixel ends
    with the smallest D^2 over its start value and the windows that cover
    it, a tie keeps the start's holder, and a tie between windows goes to
    the smallest id. That rule needs no order of visits, so each block of
    windows is merged at once. ``best_d2`` and ``best_id`` are C-contiguous
    (height, width) arrays.

    Windows are built ``ASSIGN_BLOCK`` centers at a time, fewer where they
    are wider than the 15x15 of the coarse step, so a block never holds
    more cells than 32 such windows. One gather from the depth map gives a
    (block, side, side) stack, with row and column indices clipped at the
    image edge, and D^2 is the formula above, operation for operation. A
    clipped cell, or one past the window's far edge, has an infinite dx^2
    or dy^2, so its D^2 never passes the strict <. The cells whose D^2
    beats their current value are merged with one ``np.minimum.at`` of
    D^2; of those that reach the new minimum, one ``np.minimum.at`` of the
    window ids picks the smallest. Blocks are merged in id order, so a
    later block wins only with a strictly smaller D^2. A pass peaks at
    about 0.8 MB of scratch on a 120x80 grid with 260 centers.
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
    dx2[(cols < c_lo[live, None]) | (cols > c_hi[live, None])] = np.inf
    dy2[(rows < r_lo[live, None]) | (rows > r_hi[live, None])] = np.inf
    f = feat[live]
    flat = depth.ravel()
    bd = best_d2.reshape(-1)
    bi = best_id.reshape(-1)
    # ufunc.at is fast only with index, target and values 1-D and of one
    # dtype, so the ids are merged in intp and then written to best_id.
    low_id = np.empty(bd.shape, dtype=np.intp)
    cells = side * side
    block = max(1, min(ASSIGN_BLOCK, ASSIGN_BLOCK * (2 * COARSE_STEP + 3) ** 2 // cells))

    for start in range(0, live.size, block):
        part = slice(start, start + block)
        idx = (row_idx[part, :, None] + col_idx[part, None, :]).ravel()
        sp = dx2[part, None, :] + dy2[part, :, None]
        sp *= ratio2
        d2 = flat.take(idx).reshape(sp.shape)
        d2 -= f[part, None, None]
        np.square(d2, out=d2)
        d2 += sp
        d2 = d2.ravel()
        better = np.flatnonzero(d2 < bd.take(idx))
        if better.size == 0:
            continue
        at = idx.take(better)
        cand = d2.take(better)
        np.minimum.at(bd, at, cand)
        won = np.flatnonzero(cand == bd.take(at))
        at = at.take(won)
        ids = live[part].take(better.take(won) // cells)
        low_id[at] = ids
        np.minimum.at(low_id, at, ids)
        bi[at] = low_id.take(at)


def _attach_orphans(depth, feat, cpx, cpy, ratio2, cols, rows, best_d2, best_id):
    orphan = best_id < 0
    if not orphan.any():
        return
    oc = cols[orphan]
    orr = rows[orphan]
    od = depth[orphan]
    o_best = np.full(od.shape, np.inf)
    o_id = np.full(od.shape, -1, dtype=np.int32)
    for k in range(feat.shape[0]):
        df = od - feat[k]
        dx = oc - cpx[k]
        dy = orr - cpy[k]
        d2 = df * df + ratio2 * (dx * dx + dy * dy)
        better = d2 < o_best
        o_best[better] = d2[better]
        o_id[better] = k
    best_d2[orphan] = o_best
    best_id[orphan] = o_id


def cluster_depth(
    depth: DepthMap,
    target_cluster_count: int = 256,
    compactness: float = 0.1,
    max_iters: int = 10,
) -> ClusterState:
    """Windowed local k-means over [depth, x, y].

    The iteration alternates center updates (means of assigned pixels)
    with reassignment; a pixel's candidate set is every center whose
    window covers it plus its current center, which keeps the summed
    squared distance non-increasing every iteration. Pixels outside all
    windows are attached to the globally nearest center. Fully
    deterministic: grid seeding, smallest-id tie-breaking.

    ``max_iters`` is a cap: the iteration stops sooner once no center moves
    by ``CENTER_RESIDUAL_TOL`` or more, or once an iteration lowers the
    energy by at most ``ENERGY_RTOL`` of its previous value. On smooth
    ramps later iterations gain little and move the split line away from
    the iso-depth contour.
    """
    target_cluster_count = check_integer(target_cluster_count, "target cluster count")
    compactness = check_positive(compactness, "compactness")
    max_iters = check_integer(max_iters, "max_iters", 0)
    grid = np.asarray(depth.values, dtype=np.float64)
    height, width = grid.shape
    n = height * width
    if n < 2:
        raise ConfigError("cannot cluster a single-pixel grid")
    if not (2 <= target_cluster_count <= n):
        raise ConfigError(
            f"target cluster count {target_cluster_count} outside [2, {n}]"
        )

    step = float(np.sqrt(n / target_cluster_count))
    ratio2 = (compactness / step) ** 2
    feat, cpx, cpy = _seed_grid(grid, target_cluster_count)
    k_count = feat.shape[0]

    cols2d, rows2d = np.meshgrid(
        np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64)
    )
    cols = cols2d.ravel()
    rows = rows2d.ravel()
    flat_depth = grid.ravel()

    # Labels are int32, the type returned, and are widened once per iteration
    # to intp, the index type of take and bincount. Returning the buffer the
    # window pass fills, not a copy made on return, matters: such a copy lands
    # above the iteration's freed temporaries, and on bench scenes that made
    # malloc trim and re-fault about 10 MB of heap per scene.
    best_d2 = np.full((height, width), np.inf)
    labels = np.full((height, width), -1, dtype=np.int32)
    _assign_windows(grid, feat, cpx, cpy, ratio2, step, best_d2, labels)
    bd = best_d2.ravel()
    assign = labels.ravel()
    _attach_orphans(flat_depth, feat, cpx, cpy, ratio2, cols, rows, bd, assign)
    energies = [float(bd.sum())]

    stop = "cap"
    for _ in range(max_iters):
        ids = assign.astype(np.intp)
        counts = np.bincount(ids, minlength=k_count).astype(np.float64)
        sum_f = np.bincount(ids, weights=flat_depth, minlength=k_count)
        sum_x = np.bincount(ids, weights=cols, minlength=k_count)
        sum_y = np.bincount(ids, weights=rows, minlength=k_count)
        nz = counts > 0
        new_feat = np.where(nz, sum_f / np.maximum(counts, 1.0), feat)
        new_px = np.where(nz, sum_x / np.maximum(counts, 1.0), cpx)
        new_py = np.where(nz, sum_y / np.maximum(counts, 1.0), cpy)
        residual = float(
            np.sqrt(
                (new_feat - feat) ** 2 + (new_px - cpx) ** 2 + (new_py - cpy) ** 2
            ).max()
        )
        feat, cpx, cpy = new_feat, new_px, new_py

        bd[:] = (flat_depth - feat.take(ids)) ** 2 + (
            (cols - cpx.take(ids)) ** 2 + (rows - cpy.take(ids)) ** 2
        ) * ratio2
        _assign_windows(grid, feat, cpx, cpy, ratio2, step, best_d2, labels)
        energies.append(float(bd.sum()))
        if residual < CENTER_RESIDUAL_TOL:
            stop = "residual"
            break
        if energies[-2] - energies[-1] <= ENERGY_RTOL * energies[-2]:
            stop = "energy"
            break

    # Drop empty clusters so ids stay dense. Mean depths are summed in pixel
    # order over the final labels and divided by the exact counts.
    counts = np.bincount(assign, minlength=k_count)
    keep = counts > 0
    means = np.bincount(assign, weights=flat_depth, minlength=k_count)[keep] / counts[keep]
    if not keep.all():
        remap = np.full(k_count, -1, dtype=np.int32)
        remap[keep] = np.arange(int(keep.sum()), dtype=np.int32)
        assign = remap[assign]
        feat, cpx, cpy = feat[keep], cpx[keep], cpy[keep]

    assign = assign.reshape(height, width)
    for arr in (assign, feat, cpx, cpy, means):
        arr.flags.writeable = False
    return ClusterState(
        assignments=assign,
        feature=feat,
        px=cpx,
        py=cpy,
        mean_depths=means,
        grid_step=step,
        energy_history=tuple(energies),
        stop_reason=stop,
    )


def classify_clusters(state: ClusterState, threshold: float | None = None) -> ClusterLabels:
    """Label clusters far/near by the clustering's mean depths.

    With ``threshold=None`` the split maximizes the between-class variance
    of the cluster mean depths over the midpoints between consecutive
    sorted means. A cluster is far iff its mean depth >= threshold.
    """
    means = state.mean_depths
    if threshold is None:
        threshold = _otsu_threshold(means)
    else:
        threshold = check_number(threshold, "depth threshold", 0.0, 1.0)
    return ClusterLabels(far=means >= threshold, threshold=threshold)


def _between_class_variance(means: np.ndarray, t: float) -> float:
    """Variance between the means below ``t`` and the rest; -1 if a side is empty."""
    lo = means < t
    n_lo = int(lo.sum())
    if n_lo == 0 or n_lo == means.size:
        return -1.0  # midpoint of adjacent floats can round onto a mean
    w0 = n_lo / means.size
    w1 = 1.0 - w0
    return w0 * w1 * (means[lo].mean() - means[~lo].mean()) ** 2


def _otsu_threshold(means: np.ndarray) -> float:
    """The first midpoint of largest ``_between_class_variance``.

    All midpoints are scored in one pass of cumulative sums over the sorted
    means. Those sums round differently from ``mean()``, so the midpoints
    scoring within twice the rounding bound ``slack`` of the best are
    scored again with ``_between_class_variance`` itself, in ascending
    order with strict ``>``. The threshold is thus the one a scan of every
    midpoint with that function picks, bit for bit.
    """
    uniq = np.unique(means)
    if uniq.size < 2:
        raise PartitionError("cluster mean depths show no contrast; supply a manual polyline")
    candidates = (uniq[:-1] + uniq[1:]) / 2.0
    total = means.size
    ordered = np.sort(means)
    n_lo = np.searchsorted(ordered, candidates)  # means < t
    valid = (n_lo > 0) & (n_lo < total)
    if not valid.any():
        return float(candidates[0])
    n_lo = n_lo[valid]
    head = np.cumsum(ordered)  # head[c - 1]: sum of the c smallest
    tail = np.cumsum(ordered[::-1])[::-1]  # tail[c]: sum of all but the c smallest
    gap = head[n_lo - 1] / n_lo - tail[n_lo] / (total - n_lo)
    w0 = n_lo / total
    var = w0 * (1.0 - w0) * gap**2
    # However it is summed, a class mean lies within (total + 1) eps A of the
    # exact one (A the largest |mean|), so the two ways' gaps differ by at
    # most delta; with w0 w1 <= 1/4 and a few roundings of the product, no
    # midpoint's two scores differ by more than slack.
    eps = np.finfo(np.float64).eps
    delta = 8.0 * (total + 1) * eps * float(np.abs(ordered).max())
    best = float(var.max())
    slack = delta * (float(np.abs(gap).max()) + delta) + 16.0 * eps * best
    best_var, threshold = -1.0, float(candidates[0])
    for t in candidates[valid][var >= best - 2.0 * slack]:
        score = _between_class_variance(means, t)
        if score > best_var:
            best_var, threshold = score, float(t)
    return threshold


def _douglas_peucker(xs: np.ndarray, ys: np.ndarray, tol: float) -> np.ndarray:
    """Vertex indices whose chords stay within tol vertical deviation."""
    keep = np.zeros(xs.size, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, xs.size - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        k = (ys[j] - ys[i]) / (xs[j] - xs[i])
        dev = np.abs(ys[i + 1 : j] - (ys[i] + k * (xs[i + 1 : j] - xs[i])))
        worst = int(np.argmax(dev))
        if dev[worst] > tol:
            mid = i + 1 + worst
            keep[mid] = True
            stack.append((i, mid))
            stack.append((mid, j))
    return np.flatnonzero(keep)


def _refine_boundary(
    coarse: np.ndarray, coarse_shape: tuple[int, int], step: float, depth: DepthMap, threshold: float
) -> np.ndarray:
    """Full-resolution boundary rows from the boundary on the clustering grid.

    Each column takes its coarse column's boundary, scaled to full rows. Its
    new boundary is ``lo`` plus the count of far pixels (depth >= threshold)
    in rows ``[lo, hi)``, the band of +-S rows around that line, where S is
    the full-resolution superpixel step. Where depth falls monotonically
    down the column and the contour lies in the band, that is the contour.
    On frames of at most three superpixel rows the band is the whole column.
    Only the band is widened to float64, so the test is exact for float32
    and float64 maps alike.
    """
    height, width = depth.values.shape
    coarse_h, coarse_w = coarse_shape
    full_step = step * np.sqrt(height * width / (coarse_h * coarse_w))
    # With at most three superpixel rows the clustered line can sit more than
    # S rows off the contour.
    s = height if 3.0 * full_step >= height else int(np.ceil(full_step))
    cols = np.arange(width)
    centre = np.rint(coarse[cols * coarse_w // width] * (height / coarse_h)).astype(np.intp)
    lo = np.clip(centre - s, 0, height)
    hi = np.clip(centre + s, 0, height)
    # The band's rows, shifted up where they would run off the bottom.
    n = min(2 * s, height)
    rows = np.minimum(lo, height - n) + np.arange(n)[:, None]
    band = depth.values.ravel().take(rows * width + cols).astype(np.float64)
    far = (band >= threshold) & (rows >= lo) & (rows < hi)
    return (lo + np.count_nonzero(far, axis=0)).astype(np.float64)


def _component_roots(mask: np.ndarray) -> np.ndarray:
    """Each pixel's 4-connected component of ``mask``, named by its smallest flat index.

    Union-find over row runs: two touching runs in adjacent rows are joined
    once, at the first column where they overlap, which holds a run head in
    one of the two rows. Pixels outside the mask keep their own index.
    """
    head = mask.copy()
    head[:, 1:] &= ~mask[:, :-1]
    tail = mask.copy()
    tail[:, :-1] &= ~mask[:, 1:]
    heads = np.flatnonzero(head)  # runs in raster order
    upper = np.flatnonzero(mask[:-1] & mask[1:] & (head[:-1] | head[1:]))
    a = np.searchsorted(heads, upper, side="right") - 1
    b = np.searchsorted(heads, upper + mask.shape[1], side="right") - 1
    roots = np.arange(heads.size)
    while (apart := roots[a] != roots[b]).any():
        ra, rb = roots[a[apart]], roots[b[apart]]
        # Hook the larger root under the smaller, then flatten every chain.
        np.minimum.at(roots, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(jumped := roots[roots], roots):
            roots = jumped
    named = np.arange(mask.size)
    named[mask.ravel()] = np.repeat(heads[roots], np.flatnonzero(tail) + 1 - heads)
    return named.reshape(mask.shape)


def extract_polyline(
    far_labels: np.ndarray,
    state: ClusterState,
    simplify_tol: float = 2.0,
    depth: DepthMap | None = None,
    threshold: float | None = None,
) -> tuple[Polyline, tuple[str, ...]]:
    """Trace the far band's lower boundary and simplify it to a polyline.

    Cleanup keeps the largest 4-connected far component and fills holes;
    per column the boundary is the count of leading far rows. Columns where
    far pixels survive below near ones fall back to that upper envelope and
    raise a segmentation-quality warning. All of this runs on the
    clustering's grid. Given the full-resolution ``depth`` and the
    ``threshold`` that labelled the clusters, the boundary is then refined
    column by column (``_refine_boundary``) and the polyline spans the
    depth map's width; without them it spans the clustering's grid.
    """
    far_labels = np.asarray(far_labels, dtype=bool)
    if not far_labels.any() or far_labels.all():
        raise PartitionError("polyline extraction needs both near and far clusters")
    grid = state.assignments.shape
    warnings: list[str] = []
    far_px = far_labels[state.assignments]

    if not far_px.any():  # the far clusters own no pixel
        raise PartitionError("far region empty after cluster labeling")
    # A root is its component's first pixel in raster order, so argmax breaks
    # size ties the way ndimage.label's raster numbering does.
    roots = _component_roots(far_px)
    largest = roots == np.argmax(np.bincount(roots[far_px]))
    # Fill holes: 4-connected background components that do not touch the
    # image edge (as in ndimage.binary_fill_holes) become far.
    background = _component_roots(~largest)
    open_bg = np.zeros(far_px.size, dtype=bool)
    for edge in (background[0], background[-1], background[:, 0], background[:, -1]):
        open_bg[edge] = True
    far_clean = largest | ~open_bg[background]

    all_far = far_clean.all(axis=0)
    boundary = np.where(all_far, grid[0], (~far_clean).argmax(axis=0)).astype(np.float64)
    # Rows above the boundary are all far, so a column has far pixels below
    # its boundary exactly when it holds more far pixels than that.
    below = np.count_nonzero(far_clean, axis=0) > boundary
    if below.any():
        warnings.append(
            f"far region is not a clean upper band in {int(below.sum())} columns; "
            "using the column-wise upper envelope"
        )
    width = grid[1]
    if depth is not None:
        boundary = _refine_boundary(boundary, grid, state.grid_step, depth, threshold)
        width = depth.shape.width

    xs = np.arange(width, dtype=np.float64) + 0.5
    if width == 1:
        poly = Polyline.constant(float(boundary[0]), x_end=float(width))
    else:
        idx = _douglas_peucker(xs, boundary, simplify_tol)
        vx = xs[idx].copy()
        vy = boundary[idx]
        vx[0] = 0.0
        vx[-1] = float(width)
        # Endpoints keep their fitted slope; only the domain is extended.
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


def partition(
    depth: DepthMap,
    cfg: SceneConfig,
    *,
    target_cluster_count: int = 256,
) -> PartitionResult:
    """Produce the scene's near/far split.

    A manual polyline in the config wins outright; otherwise the depth map
    is clustered on the coarse grid of ``decimation_factor``, clusters are
    thresholded into near/far, and the boundary polyline is extracted there
    and refined at full resolution. The returned mask is always the rasterization of
    the returned polyline, so detector filtering and density integration
    see complementary regions.
    """
    target_cluster_count = check_integer(target_cluster_count, "target cluster count")
    if cfg.polyline is not None:
        mask = mask_from_polyline(cfg.polyline, depth.shape)
        return PartitionResult(mask=mask, polyline=cfg.polyline)
    try:
        factor = decimation_factor(depth.shape, target_cluster_count)
        state = cluster_depth(_decimate(depth, factor), target_cluster_count)
        labels = classify_clusters(state, cfg.depth_threshold)
        poly, warnings = extract_polyline(
            labels.far, state, depth=depth, threshold=labels.threshold
        )
    except DigCrowdError as exc:
        raise PartitionError(f"scene {cfg.scene_id!r}: {exc}") from exc
    mask = mask_from_polyline(poly, depth.shape)
    return PartitionResult(
        mask=mask,
        polyline=poly,
        cluster_mean_depths=state.mean_depths,
        threshold_used=labels.threshold,
        warnings=warnings,
        cluster_assignments=state.assignments,
        energy_history=state.energy_history,
        stop_reason=state.stop_reason,
    )
