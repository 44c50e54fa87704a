"""Core scene types: grids, depth maps, head arrays, polylines, masks.

Coordinate convention: image coordinates, x to the right, y increasing
downward. The far-view region sits at the top of the frame, so a pixel is
"far" when it lies above the split polyline. Rasterization samples pixel
centers: pixel (ix, iy) is tested at (ix + 0.5, iy + 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError, PolylineDomainError

__all__ = [
    "Region",
    "GridShape",
    "DepthMap",
    "Polyline",
    "RegionMask",
    "SceneConfig",
    "SceneRecord",
    "check_heads",
    "check_scene_id",
    "mask_from_polyline",
]


class Region(Enum):
    NEAR = "near"
    FAR = "far"
    ALL = "all"


def _frozen(arr: np.ndarray, given) -> np.ndarray:
    """``arr``, the checked form of the caller's ``given``, made read-only.

    A writeable array that is still the caller's memory (``given`` itself or
    a view) is copied, so freezing it never reaches the caller. A read-only
    array is taken as it is: the readers and producers hand over arrays they
    have already frozen, and those pass without a copy.
    """
    arr = np.ascontiguousarray(arr)
    if arr.flags.writeable and (arr is given or arr.base is not None):
        arr = arr.copy()
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
    synthetic generator. float32 values (a DIGD payload) are kept as they
    are and widened, exactly, only where clustering needs float64; any
    other type is stored as float64.
    """

    shape: GridShape
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.dtype != np.float32:
            vals = vals.astype(np.float64, copy=False)
        if vals.shape != self.shape.array_shape:
            raise ConfigError(
                f"depth grid {vals.shape} does not match shape {self.shape.array_shape}"
            )
        lo, hi = vals.min(), vals.max()  # a NaN propagates to both
        if not (lo >= 0.0 and hi <= 1.0):
            if not np.isfinite(vals).all():
                raise ConfigError("depth values must be finite")
            raise ConfigError("depth values must lie in [0, 1]")
        object.__setattr__(self, "values", _frozen(vals, self.values))


def check_heads(heads) -> np.ndarray:
    """Head positions as an (N, 2) float64 array of (x, y) pixel coordinates.

    Heads take no other form: annotations, the generator, the oracle and
    the density kernels all pass this array.
    """
    arr = np.asarray(heads, dtype=np.float64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigError(f"head array must be (N, 2), got {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Polyline:
    """Piecewise-linear split boundary over a contiguous x-domain.

    ``segments`` is a read-only (M, 4) float64 array of rows
    ``[x_start, x_end, k, b]``, one straight piece y = k*x + b each; anything
    ``np.asarray`` turns into that shape is accepted. Row i covers the
    half-open interval [x_start, x_end); the final row also owns its right
    endpoint. Adjacent rows must meet at the shared knot (continuity).
    Polylines compare equal when their rows do.
    """

    segments: np.ndarray

    _CONTIGUITY_TOL = 1e-9
    _CONTINUITY_TOL = 1e-6

    def __post_init__(self):
        segs = np.asarray(self.segments, dtype=np.float64)
        if segs.size == 0:
            raise ConfigError("polyline needs at least one segment")
        if segs.ndim != 2 or segs.shape[1] != 4:
            raise ConfigError(f"polyline segments must be (M, 4), got {segs.shape}")
        bad = np.flatnonzero(~np.isfinite(segs).all(axis=1))
        if bad.size:
            raise ConfigError(f"segment {bad[0]} is not finite: {segs[bad[0]].tolist()}")
        x0, x1, k, b = segs.T
        bad = np.flatnonzero(~(x1 > x0))
        if bad.size:
            lo, hi = segs[bad[0], :2].tolist()
            raise ConfigError(f"segment needs x_end > x_start, got [{lo}, {hi}]")
        gap = np.abs(x1[:-1] - x0[1:]) > self._CONTIGUITY_TOL * np.maximum(1.0, np.abs(x1[:-1]))
        ya = k[:-1] * x1[:-1] + b[:-1]
        yb = k[1:] * x0[1:] + b[1:]
        jump = np.abs(ya - yb) > self._CONTINUITY_TOL * np.maximum(1.0, np.abs(ya))
        bad = np.flatnonzero(gap | jump)
        if bad.size:
            i = bad[0]
            if gap[i]:
                (a0, a1), (b0, b1) = segs[i : i + 2, :2].tolist()
                raise ConfigError(f"segments not contiguous: [{a0}, {a1}] then [{b0}, {b1}]")
            raise ConfigError(
                f"polyline discontinuous at x={float(x1[i])}: {float(ya[i])} vs {float(yb[i])}"
            )
        object.__setattr__(self, "segments", _frozen(segs, self.segments))

    def __eq__(self, other):
        if not isinstance(other, Polyline):
            return NotImplemented
        return np.array_equal(self.segments, other.segments)

    __hash__ = None

    @property
    def domain(self) -> tuple[float, float]:
        return (float(self.segments[0, 0]), float(self.segments[-1, 1]))

    def eval(self, x: float) -> float:
        """y of the split line at x. Errors when x is outside the domain."""
        lo, hi = self.domain
        if x < lo or x > hi:
            raise PolylineDomainError(f"x={x} outside polyline domain [{lo}, {hi}]")
        return float(self.eval_array(x))

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        """y of the split line at each x; the row owning x is found on the starts."""
        xs = np.asarray(xs, dtype=np.float64)
        lo, hi = self.domain
        if xs.size and (xs.min() < lo or xs.max() > hi):
            raise PolylineDomainError(
                f"x values outside polyline domain [{lo}, {hi}]"
            )
        segs = self.segments
        idx = np.clip(np.searchsorted(segs[:, 0], xs, side="right") - 1, 0, len(segs) - 1)
        return segs[idx, 2] * xs + segs[idx, 3]

    @classmethod
    def constant(cls, y: float, x_end: float, x_start: float = 0.0) -> "Polyline":
        return cls([[x_start, x_end, 0.0, y]])

    @classmethod
    def from_points(cls, xs: Sequence[float], ys: Sequence[float]) -> "Polyline":
        """Connect vertices (xs strictly increasing) into a polyline."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.size < 2 or xs.size != ys.size:
            raise ConfigError("from_points needs >= 2 matching vertices")
        if np.any(np.diff(xs) <= 0):
            raise ConfigError("vertex x coordinates must strictly increase")
        k = (ys[1:] - ys[:-1]) / (xs[1:] - xs[:-1])
        b = ys[:-1] - k * xs[:-1]
        segs = np.column_stack([xs[:-1], xs[1:], k, b])
        segs.flags.writeable = False
        return cls(segs)


@dataclass(frozen=True, eq=False)
class RegionMask:
    """Per-pixel near/far labels; ``far`` is a boolean (rows, cols) raster."""

    shape: GridShape
    far: np.ndarray

    def __post_init__(self):
        far = np.asarray(self.far, dtype=bool)
        if far.shape != self.shape.array_shape:
            raise ConfigError(f"mask grid {far.shape} does not match {self.shape.array_shape}")
        object.__setattr__(self, "far", _frozen(far, self.far))

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
    far.flags.writeable = False
    return RegionMask(shape, far)


def check_scene_id(scene_id: str) -> str:
    """``scene_id`` as given if it is a plain file name, else ``ConfigError``.

    Outputs are named by the scene id, so it must be non-empty, must not be
    ``.`` or ``..``, and must not contain ``/``, ``\\`` or NUL.
    """
    if scene_id in ("", ".", "..") or any(c in scene_id for c in "/\\\0"):
        raise ConfigError(f"scene_id must be a plain file name, got {scene_id!r}")
    return scene_id


@dataclass(frozen=True)
class SceneConfig:
    """Per-scene knobs: manual split line and threshold mode.

    ``polyline=None`` requests the automatic depth partition;
    ``depth_threshold=None`` means the near/far threshold is chosen
    automatically from cluster mean depths.
    """

    scene_id: str
    polyline: Polyline | None = None
    depth_threshold: float | None = None

    def __post_init__(self):
        if self.depth_threshold is not None and not (0.0 <= self.depth_threshold <= 1.0):
            raise ConfigError(f"depth threshold {self.depth_threshold} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class SceneRecord:
    """One scene's inputs plus ground truth; the unit of evaluation.

    ``heads`` is a read-only (N, 2) float64 array of annotated positions.
    """

    config: SceneConfig
    depth: DepthMap
    heads: np.ndarray = ()
    ground_truth_count: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "heads", _frozen(check_heads(self.heads), self.heads))
        if len(self.heads) and self.ground_truth_count != len(self.heads):
            raise ConfigError(
                f"ground truth {self.ground_truth_count} != {len(self.heads)} annotated heads"
            )
        if self.ground_truth_count < 0:
            raise ConfigError("ground truth count must be >= 0")
