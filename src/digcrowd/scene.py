"""Core scene types: grids, depth maps, head points, boxes, polylines, masks.

Coordinate convention: image coordinates, x to the right, y increasing
downward. The far-view region sits at the top of the frame, so a pixel is
"far" when it lies above the split polyline. Rasterization samples pixel
centers: pixel (ix, iy) is tested at (ix + 0.5, iy + 0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, PolylineDomainError

__all__ = [
    "Region",
    "GridShape",
    "DepthMap",
    "HeadPoint",
    "BoundingBox",
    "PolySegment",
    "Polyline",
    "RegionMask",
    "SceneConfig",
    "SceneRecord",
    "as_xy_array",
    "mask_from_polyline",
    "polyline_eval",
]


class Region(Enum):
    NEAR = "near"
    FAR = "far"
    ALL = "all"


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GridShape:
    """Pixel extent of every raster in a scene (width, height)."""

    width: int
    height: int

    def __post_init__(self):
        if int(self.width) < 1 or int(self.height) < 1:
            raise ConfigError(f"grid shape must be at least 1x1, got {self.width}x{self.height}")
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "height", int(self.height))

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    @property
    def array_shape(self) -> tuple[int, int]:
        """(rows, cols) ordering used by every numpy raster here."""
        return (self.height, self.width)


@dataclass(frozen=True, eq=False)
class DepthMap:
    """Per-pixel relative depth in [0, 1]; 0 = nearest, 1 = farthest.

    Depth is consumed, never estimated: it arrives from files or the
    synthetic generator. ``metric_scale`` optionally records meters per
    depth unit and plays no role in any computation.
    """

    shape: GridShape
    values: np.ndarray
    metric_scale: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.shape.array_shape:
            raise ConfigError(
                f"depth grid {vals.shape} does not match shape {self.shape.array_shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigError("depth values must be finite")
        if vals.size and (vals.min() < 0.0 or vals.max() > 1.0):
            raise ConfigError("depth values must lie in [0, 1]")
        object.__setattr__(self, "values", _frozen(vals))


@dataclass(frozen=True)
class HeadPoint:
    """Annotated head position in pixels (continuous coordinates)."""

    x: float
    y: float


def as_xy_array(heads: Iterable[HeadPoint] | np.ndarray) -> np.ndarray:
    """Head points as an (N, 2) float64 array of (x, y)."""
    if isinstance(heads, np.ndarray):
        arr = np.asarray(heads, dtype=np.float64)
        if arr.ndim != 2 or (arr.size and arr.shape[1] != 2):
            raise ConfigError(f"head array must be (N, 2), got {arr.shape}")
        return arr.reshape(-1, 2)
    return np.array([(h.x, h.y) for h in heads], dtype=np.float64).reshape(-1, 2)


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned detection box with a confidence score in [0, 1]."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    score: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x_min, self.y_min, self.x_max, self.y_max)):
            raise ConfigError(
                f"non-finite box ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ConfigError(
                f"degenerate box ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )
        if not (0.0 <= self.score <= 1.0):
            raise ConfigError(f"box score {self.score} outside [0, 1]")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class PolySegment:
    """One straight piece y = k*x + b on [x_start, x_end)."""

    x_start: float
    x_end: float
    k: float
    b: float

    def __post_init__(self):
        if not (self.x_end > self.x_start):
            raise ConfigError(f"segment needs x_end > x_start, got [{self.x_start}, {self.x_end}]")


@dataclass(frozen=True)
class Polyline:
    """Piecewise-linear split boundary over a contiguous x-domain.

    Segment i covers the half-open interval [x_{i-1}, x_i); the final
    segment also owns its right endpoint. Adjacent segments must meet at
    the shared knot (continuity).
    """

    segments: tuple[PolySegment, ...]

    _CONTIGUITY_TOL = 1e-9
    _CONTINUITY_TOL = 1e-6

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ConfigError("polyline needs at least one segment")
        for a, b in zip(segs, segs[1:]):
            gap = abs(a.x_end - b.x_start)
            if gap > self._CONTIGUITY_TOL * max(1.0, abs(a.x_end)):
                raise ConfigError(
                    f"segments not contiguous: [{a.x_start}, {a.x_end}] then [{b.x_start}, {b.x_end}]"
                )
            ya = a.k * a.x_end + a.b
            yb = b.k * b.x_start + b.b
            if abs(ya - yb) > self._CONTINUITY_TOL * max(1.0, abs(ya)):
                raise ConfigError(
                    f"polyline discontinuous at x={a.x_end}: {ya} vs {yb}"
                )
        object.__setattr__(self, "segments", segs)

    @cached_property
    def _knots(self) -> np.ndarray:
        xs = [s.x_start for s in self.segments]
        xs.append(self.segments[-1].x_end)
        return np.asarray(xs, dtype=np.float64)

    @cached_property
    def _ks(self) -> np.ndarray:
        return np.asarray([s.k for s in self.segments], dtype=np.float64)

    @cached_property
    def _bs(self) -> np.ndarray:
        return np.asarray([s.b for s in self.segments], dtype=np.float64)

    @property
    def domain(self) -> tuple[float, float]:
        return (float(self._knots[0]), float(self._knots[-1]))

    def segment_index(self, x: float) -> int:
        """Index of the segment owning x (half-open intervals, last closed)."""
        lo, hi = self.domain
        if x < lo or x > hi:
            raise PolylineDomainError(f"x={x} outside polyline domain [{lo}, {hi}]")
        idx = int(np.searchsorted(self._knots, x, side="right")) - 1
        return min(max(idx, 0), len(self.segments) - 1)

    def eval(self, x: float) -> float:
        i = self.segment_index(x)
        return float(self._ks[i] * x + self._bs[i])

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        lo, hi = self.domain
        if xs.size and (xs.min() < lo or xs.max() > hi):
            raise PolylineDomainError(
                f"x values outside polyline domain [{lo}, {hi}]"
            )
        idx = np.clip(np.searchsorted(self._knots, xs, side="right") - 1, 0, len(self.segments) - 1)
        return self._ks[idx] * xs + self._bs[idx]

    @classmethod
    def constant(cls, y: float, x_end: float, x_start: float = 0.0) -> "Polyline":
        return cls((PolySegment(x_start, x_end, 0.0, float(y)),))

    @classmethod
    def from_points(cls, xs: Sequence[float], ys: Sequence[float]) -> "Polyline":
        """Connect vertices (xs strictly increasing) into a polyline."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.size < 2 or xs.size != ys.size:
            raise ConfigError("from_points needs >= 2 matching vertices")
        if np.any(np.diff(xs) <= 0):
            raise ConfigError("vertex x coordinates must strictly increase")
        segs = []
        for i in range(xs.size - 1):
            k = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
            b = ys[i] - k * xs[i]
            segs.append(PolySegment(float(xs[i]), float(xs[i + 1]), float(k), float(b)))
        return cls(tuple(segs))


def polyline_eval(p: Polyline, x: float) -> float:
    """y of the split line at x. Errors when x is outside the domain."""
    return p.eval(x)


@dataclass(frozen=True, eq=False)
class RegionMask:
    """Per-pixel near/far labels; ``far`` is a boolean (rows, cols) raster."""

    shape: GridShape
    far: np.ndarray

    def __post_init__(self):
        far = np.asarray(self.far, dtype=bool)
        if far.shape != self.shape.array_shape:
            raise ConfigError(f"mask grid {far.shape} does not match {self.shape.array_shape}")
        object.__setattr__(self, "far", _frozen(far))

    @property
    def far_count(self) -> int:
        return int(self.far.sum())

    @property
    def near_count(self) -> int:
        return self.shape.pixel_count - self.far_count

    def region_pixels(self, region: Region) -> np.ndarray:
        if region is Region.FAR:
            return self.far
        if region is Region.NEAR:
            return ~self.far
        return np.ones(self.shape.array_shape, dtype=bool)


def mask_from_polyline(p: Polyline, shape: GridShape) -> RegionMask:
    """Rasterize the split line: a pixel is far iff its center lies above it.

    Both axes sample pixel centers, so column far-heights equal the
    polyline values rounded to the nearest row.
    """
    lo, hi = p.domain
    # Pixel centers span [0.5, width - 0.5]; the domain must reach them all.
    if lo > 0.0 or hi < shape.width - 0.5:
        missing = []
        if lo > 0.0:
            missing.append(f"[0, {lo})")
        if hi < shape.width - 0.5:
            missing.append(f"({hi}, {shape.width})")
        raise ConfigError(
            f"polyline domain [{lo}, {hi}] does not cover image width {shape.width}: "
            f"uncovered {' and '.join(missing)}"
        )
    line = p.eval_array(np.arange(shape.width, dtype=np.float64) + 0.5)
    centers_y = np.arange(shape.height, dtype=np.float64)[:, None] + 0.5
    far = centers_y < line[None, :]
    return RegionMask(shape, far)


@dataclass(frozen=True)
class SceneConfig:
    """Per-scene knobs: manual split line, threshold mode, kernel parameters.

    ``polyline=None`` requests the automatic depth partition;
    ``depth_threshold=None`` means the near/far threshold is chosen
    automatically from cluster mean depths.
    """

    scene_id: str
    polyline: Polyline | None = None
    depth_threshold: float | None = None
    knn_k: int = 3
    beta: float = 0.3
    kernel_truncation_radius: float = 3.0

    def __post_init__(self):
        if self.knn_k < 1:
            raise ConfigError(f"knn_k must be >= 1, got {self.knn_k}")
        if not (self.beta > 0.0):
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if not (self.kernel_truncation_radius >= 1.0):
            raise ConfigError(
                f"kernel truncation radius must be >= 1, got {self.kernel_truncation_radius}"
            )
        if self.depth_threshold is not None and not (0.0 <= self.depth_threshold <= 1.0):
            raise ConfigError(f"depth threshold {self.depth_threshold} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class SceneRecord:
    """One scene's inputs plus ground truth; the unit of evaluation."""

    config: SceneConfig
    depth: DepthMap
    heads: tuple[HeadPoint, ...] = ()
    ground_truth_count: float = 0.0
    external_predictions: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "heads", tuple(self.heads))
        if self.heads and self.ground_truth_count != len(self.heads):
            raise ConfigError(
                f"ground truth {self.ground_truth_count} != {len(self.heads)} annotated heads"
            )
        if self.ground_truth_count < 0:
            raise ConfigError("ground truth count must be >= 0")
