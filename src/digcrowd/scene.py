"""Core scene types: grids, depth maps, head arrays, polylines, region masks.

Coordinate convention: image coordinates, x to the right, y increasing
downward. The far-view region sits at the top of the frame: a pixel is far
when its center (ix + 0.5, iy + 0.5) lies above the split polyline, so the
far region is one run of rows per column, and a ``RegionMask`` stores that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, PolylineDomainError

__all__ = [
    "GridShape",
    "DepthMap",
    "Polyline",
    "RegionMask",
    "SceneConfig",
    "SceneRecord",
    "check_heads",
    "check_integer",
    "check_number",
    "check_positive",
    "check_scene_id",
    "mask_from_polyline",
]


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


def _store(obj, **values) -> None:
    """Set the checked field ``values`` on ``obj``, an instance of a frozen dataclass."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


def _bits_at_most(values: np.ndarray, limit: float) -> bool:
    """Whether no value's IEEE 754 bit pattern is above ``limit``'s.

    For a limit >= +0 this one unsigned-integer reduction accepts exactly
    the values in [+0, limit]: non-negative floats order as their bit
    patterns do, and a value with the sign bit set (-0.0 among them) or a
    NaN has a larger pattern than any such limit.
    """
    uint = np.dtype(f"u{values.itemsize}")
    return bool(values.view(uint).max() <= np.array(limit, values.dtype).view(uint))


def _checked_raster(given, shape: GridShape, what: str, limit: float, rule: str) -> np.ndarray:
    """``given`` as a read-only raster of ``shape`` whose values lie in [0, ``limit``].

    float32 values are kept as they are; any other type is stored as
    float64. An infinite ``limit`` stands for the largest finite value of
    the stored type.

    Values are checked with one pass over their bit patterns, which accepts
    every value in [+0, limit]. Only when that fails (a negative value,
    -0.0, NaN or anything above the limit) do min, max and ``isfinite`` scans
    decide: -0.0 passes, and the message says "``what`` values must be
    finite" or "``what`` values must ``rule``".
    """
    vals = np.asarray(given)
    if vals.dtype != np.float32:
        vals = vals.astype(np.float64, copy=False)
    if vals.shape != shape.array_shape:
        raise ConfigError(f"{what} grid {vals.shape} does not match shape {shape.array_shape}")
    limit = min(limit, np.finfo(vals.dtype).max)
    if not _bits_at_most(vals, limit):
        lo, hi = vals.min(), vals.max()  # a NaN propagates to both
        if not (lo >= 0.0 and hi <= limit):
            if not np.isfinite(vals).all():
                raise ConfigError(f"{what} values must be finite")
            raise ConfigError(f"{what} values must {rule}")
    return _frozen(vals, given)


@dataclass(frozen=True)
class GridShape:
    """Pixel extent of every raster in a scene (width, height).

    Each side is below 2**32, which the raster headers store as uint32.
    """

    width: int
    height: int

    def __post_init__(self):
        _store(self, width=check_integer(self.width, "grid width"),
               height=check_integer(self.height, "grid height"))
        if self.width < 1 or self.height < 1:
            raise ConfigError(f"grid shape must be at least 1x1, got {self.width}x{self.height}")
        if max(self.width, self.height) >= 2**32:
            raise ConfigError(
                f"grid shape sides must be below 2**32, got {self.width}x{self.height}")

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
        values = _checked_raster(self.values, self.shape, "depth", 1.0, "lie in [0, 1]")
        object.__setattr__(self, "values", values)


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


def _check_annotations(heads: np.ndarray, count: float) -> None:
    """The rule annotations keep: in a ``SceneRecord`` and in an annotation file.

    Head coordinates are finite and, with heads listed, the count equals
    their number. ``ConfigError`` if not. The count has already passed
    ``check_number(count, "count", 0.0)``.
    """
    if not np.isfinite(heads).all():
        raise ConfigError("head coordinates must be finite")
    if len(heads) and count != len(heads):
        raise ConfigError(f"count {count} != {len(heads)} heads")


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
    """The far region as ``far_rows``, a read-only int array of one count per
    column: rows ``[0, far_rows[x])`` of column x are far, the rest near."""

    shape: GridShape
    far_rows: np.ndarray

    def __post_init__(self):
        rows, (height, width) = np.asarray(self.far_rows), self.shape.array_shape
        ints = rows.shape == (width,) and rows.dtype.kind in "iu"
        if not (ints and rows.min() >= 0 and rows.max() <= height):
            raise ConfigError(f"far rows must be {width} integers in [0, {height}]")
        object.__setattr__(self, "far_rows", _frozen(rows, self.far_rows))

    @property
    def far_count(self) -> int:
        return int(self.far_rows.sum())

    @property
    def near_count(self) -> int:
        return self.shape.pixel_count - self.far_count

    @cached_property
    def far(self) -> np.ndarray:
        """Read-only boolean (rows, cols) raster, built on first use."""
        far = np.arange(self.shape.height)[:, None] < self.far_rows
        far.flags.writeable = False
        return far


def mask_from_polyline(p: Polyline, shape: GridShape) -> RegionMask:
    """Rasterize the split line: a pixel is far iff its center lies above it.

    A column's far-row count is the number of row centers above the line at
    the column center: the line value rounded to a row, clipped to [0, height].
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
    far_rows = np.searchsorted(np.arange(shape.height, dtype=np.float64) + 0.5, line)
    far_rows.flags.writeable = False
    return RegionMask(shape, far_rows)


def check_scene_id(scene_id) -> str:
    """``scene_id`` as given if it is a plain file name, else ``ConfigError``.

    Outputs are named by the scene id, so it must be a string, must be
    non-empty, must not be ``.`` or ``..``, and must not contain ``/``,
    ``\\`` or NUL.
    """
    if not isinstance(scene_id, str):
        raise ConfigError(f"scene_id must be a string, got {scene_id!r}")
    if scene_id in ("", ".", "..") or any(c in scene_id for c in "/\\\0"):
        raise ConfigError(f"scene_id must be a plain file name, got {scene_id!r}")
    return scene_id


def check_number(value, what: str, minimum: float | None = None,
                 maximum: float | None = None) -> float:
    """``value`` as a Python float if it is an int or a float, numpy ones
    included, else ``ConfigError``; a bool is not a number here. With
    ``minimum`` alone the value must be finite and ``>= minimum``; with both
    bounds it must lie in [minimum, maximum]. NaN fails either bound.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    number = float(value)
    if maximum is not None:
        if not minimum <= number <= maximum:
            raise ConfigError(f"{what} {value} outside [{minimum:g}, {maximum:g}]")
    elif minimum is not None and not minimum <= number < math.inf:
        raise ConfigError(f"{what} {value} must be finite and >= {minimum:g}")
    return number


def check_positive(value, what: str) -> float:
    """``check_number(value, what, 0.0)`` with zero refused too: a finite float > 0."""
    number = check_number(value, what, 0.0)
    if number == 0.0:
        raise ConfigError(f"{what} {value} must be finite and > 0")
    return number


def check_integer(value, what: str, minimum: int | None = None) -> int:
    """``value`` as an int if it is an integer, numpy ones included, of at least
    ``minimum``; a bool or a float, even an integral one, is a ``ConfigError``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)


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
        if self.depth_threshold is not None:
            _store(self, depth_threshold=check_number(
                self.depth_threshold, "depth threshold", 0.0, 1.0))


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
        _store(self, heads=_frozen(check_heads(self.heads), self.heads),
               ground_truth_count=check_number(self.ground_truth_count, "count", 0.0))
        _check_annotations(self.heads, self.ground_truth_count)
