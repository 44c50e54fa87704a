"""Head placement as it was before the cell-bucketed spacing check.

``heads_reference`` replays ``synth.generate_scene`` from the same seed with
the O(n) spacing test of that time: each attempt takes ``np.hypot`` against
every head placed so far. ``generate_scene`` must place the same heads bit
for bit, and must fail with the same ``SynthError`` message when the frame
runs out of room.
"""

import math

import numpy as np

from digcrowd.errors import SynthError
from digcrowd.synth import SPACING_FACTOR, _build_depth, head_size_at


def heads_reference(spec):
    rng = np.random.default_rng(spec.seed)
    depth = _build_depth(spec, rng)
    width, height = spec.shape.width, spec.shape.height
    split_y = spec.horizon_y / 2.0

    p_cluster = spec.clustering_intensity / (1.0 + spec.clustering_intensity)
    far_top = min(2.0 * spec.far_head_size, split_y / 4.0)
    far_bottom = split_y - spec.exclusion_margin - 1.0
    centers = None
    if p_cluster > 0.0 and far_bottom > far_top:
        n_centers = max(1, int(round(math.sqrt(spec.n_people) / 2.0)))
        centers = np.column_stack(
            [
                rng.uniform(0.0, width, n_centers),
                rng.uniform(far_top, far_bottom, n_centers),
            ]
        )

    placed = np.empty((spec.n_people, 2), dtype=np.float64)
    sizes = np.empty(spec.n_people, dtype=np.float64)
    count = 0
    attempts = 0
    max_attempts = max(2000, 600 * spec.n_people)
    spread = 2.5 * spec.far_head_size
    while count < spec.n_people and attempts < max_attempts:
        attempts += 1
        if centers is not None and rng.random() < p_cluster:
            cx, cy = centers[int(rng.integers(len(centers)))]
            x = cx + rng.normal(0.0, spread)
            y = cy + rng.normal(0.0, spread)
            if not (0.0 <= x < width and far_top <= y <= far_bottom):
                continue
        else:
            x = rng.uniform(0.0, width)
            y = rng.uniform(0.0, height)
        if abs(y - split_y) < spec.exclusion_margin:
            continue
        size = head_size_at(spec, float(depth.values[int(y), int(x)]))
        if count:
            d = np.hypot(placed[:count, 0] - x, placed[:count, 1] - y)
            min_sep = SPACING_FACTOR * np.minimum(sizes[:count], size)
            if (d < min_sep).any():
                continue
        placed[count] = (x, y)
        sizes[count] = size
        count += 1
    if count < spec.n_people:
        raise SynthError(
            f"could only place {count}/{spec.n_people} heads at the minimum "
            f"spacing; reduce n_people or head sizes"
        )
    return placed
