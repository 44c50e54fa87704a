"""Synthetic scenes: perspective-distributed heads over consistent depth maps.

People far from the camera sit high in the frame, look small, and bunch
together; near people sit low and spread out. The generator realizes that
regime without rendering pixels: a vertical depth gradient, head points
with depth-scaled sizes and spacing, and oracle prediction data (detections
plus a density field) that can be corrupted with controlled noise. With all
noise at zero the oracle predictions reproduce the ground truth exactly.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .density import (
    BETA,
    KNN_K,
    DensityField,
    adaptive_sigma,
    knn_mean_distance,
    rasterize_density,
)
from .detect import DetectionSet
from .errors import ConfigError, SynthError
from .partition import PartitionResult
from .scene import (
    DepthMap,
    GridShape,
    Polyline,
    SceneConfig,
    SceneRecord,
    _store,
    check_integer,
    check_number,
)

__all__ = [
    "SynthSpec",
    "NoiseSpec",
    "OraclePredictions",
    "generate_scene",
    "generate_step_depth",
    "oracle_predictions",
]

SPACING_FACTOR = 0.45  # fraction of the local head size kept clear around a head


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for one synthetic scene."""

    shape: GridShape = GridShape(1080, 720)
    n_people: int = 117
    horizon_y: float = 600.0
    near_head_size: float = 36.0
    far_head_size: float = 10.0
    clustering_intensity: float = 0.0
    seed: int = 0
    exclusion_margin: float = 2.0

    def __post_init__(self):
        _store(
            self,
            n_people=check_integer(self.n_people, "n_people", 1),
            horizon_y=check_number(self.horizon_y, "horizon_y"),
            near_head_size=check_number(self.near_head_size, "near_head_size", 0.0),
            far_head_size=check_number(self.far_head_size, "far_head_size"),
            clustering_intensity=check_number(
                self.clustering_intensity, "clustering_intensity", 0.0),
            exclusion_margin=check_number(self.exclusion_margin, "exclusion_margin", 0.0),
            seed=check_integer(self.seed, "seed", 0),
        )
        if not (0.0 < self.horizon_y <= self.shape.height):
            raise ConfigError(f"horizon_y {self.horizon_y} outside (0, {self.shape.height}]")
        if not (0.0 < self.far_head_size < self.near_head_size):
            raise ConfigError("head sizes must satisfy 0 < far_head_size < near_head_size")


# numpy's Generator.poisson refuses a larger mean ("lam value too large")
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


@dataclass(frozen=True)
class NoiseSpec:
    """Prediction corruption levels; all zero means exact oracle output."""

    p_miss: float = 0.0
    fp_rate: float = 0.0
    box_jitter: float = 0.0
    density_noise_sigma: float = 0.0

    def __post_init__(self):
        _store(
            self,
            p_miss=check_number(self.p_miss, "p_miss", 0.0, 1.0),
            fp_rate=check_number(self.fp_rate, "fp_rate", 0.0),
            box_jitter=check_number(self.box_jitter, "box_jitter", 0.0),
            density_noise_sigma=check_number(self.density_noise_sigma, "density_noise_sigma", 0.0),
        )
        if self.fp_rate > _POISSON_LAM_MAX:
            raise ConfigError(
                f"fp_rate {self.fp_rate} above {_POISSON_LAM_MAX!r}, numpy's largest Poisson mean"
            )


@dataclass(frozen=True, eq=False)
class OraclePredictions:
    """Prediction data for one scene, ready for serialization or direct use."""

    detections: DetectionSet
    density: DensityField
    near_head_count: int
    far_head_count: int


def _build_depth(spec: SynthSpec, rng: np.random.Generator) -> DepthMap:
    """Vertical gradient toward the top plus smooth column-wise structure.

    The perturbation varies only along x so depth stays non-increasing in y
    above the horizon row.
    """
    width, height = spec.shape.width, spec.shape.height
    ys = np.arange(height, dtype=np.float64)[:, None]
    base = np.clip((spec.horizon_y - ys) / spec.horizon_y, 0.0, 1.0)
    xs = np.arange(width, dtype=np.float64) / max(width, 1)
    ripple = np.zeros(width)
    for _ in range(2):
        freq = rng.uniform(1.0, 3.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        ripple += rng.uniform(0.005, 0.02) * np.sin(2.0 * math.pi * freq * xs + phase)
    values = base + ripple[None, :]
    np.clip(values, 0.0, 1.0, out=values)
    values.flags.writeable = False
    return DepthMap(spec.shape, values)


def generate_step_depth(
    shape: GridShape,
    boundary_row: int,
    far_depth: float = 0.85,
    near_depth: float = 0.15,
    ripple: float = 0.02,
    seed: int = 0,
) -> DepthMap:
    """Two-level depth with a known horizontal boundary, for partition checks."""
    boundary_row = check_integer(boundary_row, "boundary row")
    ripple = check_number(ripple, "ripple", 0.0)
    if not (0 < boundary_row < shape.height):
        raise ConfigError(f"boundary row {boundary_row} outside (0, {shape.height})")
    rng = np.random.default_rng(seed)
    values = np.full(shape.array_shape, near_depth, dtype=np.float64)
    values[:boundary_row, :] = far_depth
    if ripple > 0.0:
        xs = np.arange(shape.width, dtype=np.float64) / max(shape.width, 1)
        wobble = ripple * np.sin(2.0 * math.pi * rng.uniform(1.0, 2.0) * xs + rng.uniform(0, 6.28))
        values = np.clip(values + wobble[None, :], 0.0, 1.0)
    values.flags.writeable = False
    return DepthMap(shape, values)


def head_size_at(spec: SynthSpec, depth_value: float) -> float:
    """Apparent head size: near size at depth 0 shrinking to far size at 1."""
    return spec.far_head_size + (spec.near_head_size - spec.far_head_size) * (
        1.0 - depth_value
    )


def _clashes(cells, key: int, block, x: float, y: float, size: float) -> bool:
    """Whether a head in the cells ``key + block`` is too close to (x, y).

    The test is ``np.hypot(dx, dy) < SPACING_FACTOR * min(sizes)``; an axis
    distance at or above the clearance already rules a clash out.
    """
    for offset in block:
        for px, py, ps in cells.get(key + offset, ()):
            min_sep = SPACING_FACTOR * min(ps, size)
            dx, dy = px - x, py - y
            if abs(dx) < min_sep and abs(dy) < min_sep and np.hypot(dx, dy) < min_sep:
                return True
    return False


def generate_scene(spec: SynthSpec, scene_id: str | None = None) -> SceneRecord:
    """Deterministic scene from a seed: depth, heads, and a manual split line.

    Heads are rejected within ``exclusion_margin`` of the split line and at
    less than a size-scaled minimum spacing from accepted heads, which makes
    far-band heads pack tighter than near ones. With positive
    ``clustering_intensity`` part of the crowd is drawn around far-band
    cluster centers instead of uniformly.
    """
    width, height = spec.shape.width, spec.shape.height
    # Accepted centres lie at least s apart (no head is smaller than
    # far_head_size), so their discs of radius s/2 are disjoint inside the
    # frame grown by s/2 on each side: more heads than that area holds can
    # never be placed, however many attempts are made.
    s = SPACING_FACTOR * spec.far_head_size
    capacity = (width + s) * (height + s) / (math.pi * s * s / 4.0)
    if spec.n_people > capacity:
        raise SynthError(
            f"n_people {spec.n_people} cannot fit: a {width}x{height} frame holds at most "
            f"{math.floor(capacity)} heads at far_head_size {spec.far_head_size}"
        )
    rng = np.random.default_rng(spec.seed)
    depth = _build_depth(spec, rng)
    split_y = spec.horizon_y / 2.0
    polyline = Polyline.constant(split_y, x_end=float(width))
    config = SceneConfig(
        scene_id=scene_id or f"synth-{spec.seed}",
        polyline=polyline,
    )

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
    # Accepted heads as (x, y, size), bucketed by cells at least as wide as
    # the clearance any head keeps (sizes never exceed near_head_size; the
    # 1e-9 covers rounding in x / cell). A head outside the 3x3 cells around
    # a candidate is a cell or more away along one axis, and hypot is never
    # below either axis distance, so only those 9 cells can hold a clash.
    # Cell (ix, iy) has key ix * stride + iy; iy is at most height // cell,
    # so the keys of iy - 1 to iy + 1 never reach another column's cells.
    cell = SPACING_FACTOR * spec.near_head_size * (1.0 + 1e-9)
    stride = int(height // cell) + 3
    block = [jx * stride + jy for jx in (-1, 0, 1) for jy in (-1, 0, 1)]
    cells: dict[int, list[tuple[float, float, float]]] = {}
    count = 0
    attempts = 0
    max_attempts = max(2000, 600 * spec.n_people)
    spread = 2.5 * spec.far_head_size
    while count < spec.n_people and attempts < max_attempts:
        attempts += 1
        if centers is not None and rng.random() < p_cluster:
            cx, cy = centers[int(rng.integers(len(centers)))]
            x = float(cx + rng.normal(0.0, spread))
            y = float(cy + rng.normal(0.0, spread))
            if not (0.0 <= x < width and far_top <= y <= far_bottom):
                continue
        else:
            # rng.uniform(0.0, w) draws the same double, at several times the cost
            x = width * rng.random()
            y = height * rng.random()
        if abs(y - split_y) < spec.exclusion_margin:
            continue
        size = head_size_at(spec, float(depth.values[int(y), int(x)]))
        key = int(x // cell) * stride + int(y // cell)
        if _clashes(cells, key, block, x, y, size):
            continue
        cells.setdefault(key, []).append((x, y, size))
        placed[count] = (x, y)
        count += 1
    if count < spec.n_people:
        raise SynthError(
            f"could only place {count}/{spec.n_people} heads at the minimum "
            f"spacing; reduce n_people or head sizes"
        )
    placed.flags.writeable = False
    return SceneRecord(
        config=config,
        depth=depth,
        heads=placed,
        ground_truth_count=float(spec.n_people),
    )


def _oracle_box(
    x: float, y: float, size: float, width: int, height: int, score: float
) -> tuple[float, float, float, float, float] | None:
    half = size / 2.0
    x_min = max(0.0, x - half)
    y_min = max(0.0, y - half)
    x_max = min(float(width), x + half)
    y_max = min(float(height), y + half)
    if x_max <= x_min or y_max <= y_min:
        return None
    return (x_min, y_min, x_max, y_max, score)


def oracle_predictions(
    rec: SceneRecord,
    part: PartitionResult,
    noise: NoiseSpec = NoiseSpec(),
    seed: int = 0,
    spec: SynthSpec | None = None,
) -> OraclePredictions:
    """Predictions a perfect (or controllably degraded) model would emit.

    Heads on the near side of the split line (center not strictly above it)
    become detections sized by local depth; heads strictly above it are
    rasterized into a density field confined to the far mask, so the far
    integral equals the far head count. Misses, false positives, box jitter,
    and pixel noise are applied from a seeded stream. An ``fp_rate`` above
    the frame's pixel count is refused: false positives are drawn one at a
    time, and such rates would take minutes to hours.
    """
    width, height = rec.depth.shape.width, rec.depth.shape.height
    if noise.fp_rate > width * height:
        raise ConfigError(
            f"fp_rate {noise.fp_rate} above the frame's {width * height} pixels"
        )
    # crc32 keeps the stream stable across processes (str hash is randomized)
    rng = np.random.default_rng([seed, zlib.crc32(rec.config.scene_id.encode())])
    sizing = spec or SynthSpec(shape=rec.depth.shape)
    poly = part.polyline

    heads = rec.heads
    is_far = heads[:, 1] < poly.eval_array(heads[:, 0])
    far_heads = heads[is_far]

    boxes: list[tuple[float, float, float, float, float]] = []
    for hx, hy in heads[~is_far].tolist():
        if noise.p_miss > 0.0 and rng.random() < noise.p_miss:
            continue
        x, y = hx, hy
        if noise.box_jitter > 0.0:
            x += rng.normal(0.0, noise.box_jitter)
            y += rng.normal(0.0, noise.box_jitter)
        d = float(rec.depth.values[min(int(hy), height - 1), min(int(hx), width - 1)])
        box = _oracle_box(x, y, head_size_at(sizing, d), width, height, 1.0)
        if box is not None:
            boxes.append(box)
    if noise.fp_rate > 0.0:
        for _ in range(int(rng.poisson(noise.fp_rate))):
            x = rng.uniform(0.0, width)
            d = float(rec.depth.values[height - 1, min(int(x), width - 1)])
            size = head_size_at(sizing, d)
            y_lo = poly.eval(x) + size / 2.0 + 1.0
            if y_lo >= height - 1:
                continue
            y = rng.uniform(y_lo, height - 1)
            box = _oracle_box(x, y, size, width, height, float(rng.uniform(0.25, 1.0)))
            if box is not None:
                boxes.append(box)
    detections = DetectionSet(boxes)

    if len(far_heads):
        sigmas = adaptive_sigma(knn_mean_distance(far_heads, KNN_K), BETA)
        density = rasterize_density(
            far_heads, sigmas, rec.depth.shape, support_mask=part.mask.far
        )
    else:
        density = DensityField.zeros(rec.depth.shape)
    if noise.density_noise_sigma > 0.0:
        noisy = density.values + rng.normal(
            0.0, noise.density_noise_sigma, rec.depth.shape.array_shape
        )
        np.clip(noisy, 0.0, None, out=noisy)
        noisy.flags.writeable = False
        density = DensityField(rec.depth.shape, noisy)

    return OraclePredictions(
        detections=detections,
        density=density,
        near_head_count=len(heads) - len(far_heads),
        far_head_count=len(far_heads),
    )
