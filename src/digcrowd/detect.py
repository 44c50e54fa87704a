"""Grid-detector decode: scored boxes from S x S x (B*5+C) prediction tensors.

Tensors are produced offline (an external network or the synthetic oracle);
this module only turns them into boxes. Per cell there are B tuples
(x, y, w, h, c) followed by C class probabilities: x, y are offsets within
the cell, w, h are fractions of the image, and the final score of a box is
the product of its confidence c with the largest class probability.

A set of boxes is one (N, 5) float64 array of rows
``[x_min, y_min, x_max, y_max, score]``; every layer from the readers to
the spatial filter works on that array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .scene import GridShape, _frozen

__all__ = [
    "DetectorGridSpec",
    "GridPrediction",
    "DetectionSet",
    "combine_confidence",
    "decode",
    "first_invalid_row",
    "iou",
    "nms",
]

DEFAULT_SCORE_THRESHOLD = 0.2
DEFAULT_NMS_IOU = 0.5
NMS_BLOCK = 64  # ranked candidates per IoU block of nms


@dataclass(frozen=True)
class DetectorGridSpec:
    """Grid geometry: S cells per side, B boxes per cell, C classes."""

    s: int = 7
    b: int = 2
    c: int = 1

    def __post_init__(self):
        if min(self.s, self.b, self.c) < 1:
            raise ConfigError(f"grid spec values must be >= 1, got {self}")

    @property
    def cell_values(self) -> int:
        return self.b * 5 + self.c


@dataclass(frozen=True, eq=False)
class GridPrediction:
    """Raw prediction tensor tied to the image extent it was made for.

    Values are kept as delivered; decode clamps out-of-range entries with a
    warning instead of rejecting the tensor.
    """

    spec: DetectorGridSpec
    shape: GridShape
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        expected = (self.spec.s, self.spec.s, self.spec.cell_values)
        if vals.shape != expected:
            raise FormatError(
                f"prediction tensor shape {vals.shape} does not match {expected}"
            )
        object.__setattr__(self, "values", _frozen(vals, self.values))

    @classmethod
    def from_flat(
        cls, spec: DetectorGridSpec, shape: GridShape, flat: np.ndarray
    ) -> "GridPrediction":
        flat = np.array(flat, dtype=np.float64).ravel()
        expected = spec.s * spec.s * spec.cell_values
        if flat.size != expected:
            raise FormatError(
                f"prediction tensor has {flat.size} values, expected {expected}"
            )
        flat.flags.writeable = False
        return cls(spec, shape, flat.reshape(spec.s, spec.s, spec.cell_values))


def first_invalid_row(rows: np.ndarray) -> tuple[int, str] | None:
    """Index of the first row breaking a box rule, with the rule it breaks.

    Coordinates must be finite, ``x_min < x_max`` and ``y_min < y_max``, and
    the score must lie in [0, 1] (NaN rejected); a row breaking several
    rules is reported under the first of them.
    """
    finite = np.isfinite(rows[:, :4]).all(axis=1)
    ordered = (rows[:, 0] < rows[:, 2]) & (rows[:, 1] < rows[:, 3])
    scored = (rows[:, 4] >= 0.0) & (rows[:, 4] <= 1.0)
    bad = ~(finite & ordered & scored)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    x_min, y_min, x_max, y_max, score = rows[i].tolist()
    if not finite[i]:
        return i, f"non-finite box ({x_min}, {y_min}, {x_max}, {y_max})"
    if not ordered[i]:
        return i, f"degenerate box ({x_min}, {y_min}, {x_max}, {y_max})"
    return i, f"box score {score} outside [0, 1]"


@dataclass(frozen=True, eq=False)
class DetectionSet:
    """Scored boxes for one scene as read-only (N, 5) float64 ``rows``.

    Columns are ``[x_min, y_min, x_max, y_max, score]``. Anything
    ``np.asarray`` turns into (N, 5) is accepted, a tuple of 5-tuples
    included; every row is checked by ``first_invalid_row``.
    """

    rows: np.ndarray = ()
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.size == 0:
            rows = rows.reshape(0, 5)
        if rows.ndim != 2 or rows.shape[1] != 5:
            raise ConfigError(f"detection rows must be (N, 5), got {rows.shape}")
        bad = first_invalid_row(rows)
        if bad is not None:
            raise ConfigError(f"row {bad[0]}: {bad[1]}")
        object.__setattr__(self, "rows", _frozen(rows, self.rows))

    def __len__(self) -> int:
        return len(self.rows)


def combine_confidence(class_prob: float, box_conf: float) -> float:
    """Class-specific confidence: class probability times box confidence."""
    if not (0.0 <= class_prob <= 1.0 and 0.0 <= box_conf <= 1.0):
        raise ConfigError("confidence inputs must lie in [0, 1]")
    return class_prob * box_conf


def check_score_threshold(value: float) -> None:
    """Reject a score threshold outside [0, 1], NaN included."""
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"score threshold must lie in [0, 1], got {value}")


def check_nms_iou(value: float) -> None:
    """Reject an NMS IoU threshold outside (0, 1], NaN included."""
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"NMS IoU threshold must lie in (0, 1], got {value}")


def decode(pred: GridPrediction, score_threshold: float = DEFAULT_SCORE_THRESHOLD) -> DetectionSet:
    """Boxes with score >= threshold, in image pixels, clamped to the frame.

    Box centers sit at ((col + x) * width / S, (row + y) * height / S).
    Boxes with no pixel extent (w or h decoding to zero) are dropped.
    Boxes come out in row, col, slot order.
    """
    check_score_threshold(score_threshold)
    spec = pred.spec
    vals = pred.values
    warnings: list[str] = []
    finite = np.isfinite(vals)
    if not finite.all():
        warnings.append(f"{int((~finite).sum())} non-finite tensor values treated as 0")
        vals = np.where(finite, vals, 0.0)
    out_of_range = int(((vals < 0.0) | (vals > 1.0)).sum())
    if out_of_range:
        warnings.append(f"{out_of_range} tensor values clamped to [0, 1]")
        vals = np.clip(vals, 0.0, 1.0)

    s, nb = spec.s, spec.b
    width, height = float(pred.shape.width), float(pred.shape.height)
    class_prob = vals[:, :, nb * 5 :].max(axis=2)
    slots = vals[:, :, : nb * 5].reshape(s, s, nb, 5)
    x, y, w, h, conf = np.moveaxis(slots, 3, 0)
    score = class_prob[:, :, None] * conf
    row = np.arange(s, dtype=np.float64)[:, None, None]
    col = np.arange(s, dtype=np.float64)[None, :, None]
    cx = (col + x) * width / s
    cy = (row + y) * height / s
    half_w = w * width / 2.0
    half_h = h * height / 2.0
    x_min = np.maximum(cx - half_w, 0.0)
    y_min = np.maximum(cy - half_h, 0.0)
    x_max = np.minimum(cx + half_w, width)
    y_max = np.minimum(cy + half_h, height)
    keep = (score >= score_threshold) & (x_max > x_min) & (y_max > y_min)
    rows = np.stack([x_min, y_min, x_max, y_max, score], axis=-1)[keep]
    rows.flags.writeable = False
    return DetectionSet(rows, warnings=tuple(warnings))


def _box_columns(rows: np.ndarray) -> np.ndarray:
    """(5, N) columns ``x0, y0, x1, y1, area`` of (N, >=4) box rows."""
    x0, y0, x1, y1 = rows[:, :4].T
    return np.stack([x0, y0, x1, y1, (x1 - x0) * (y1 - y0)])


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every box of ``a`` against every box of ``b``; 0 where disjoint.

    Both are ``_box_columns`` arrays; the result is (len(a), len(b)) of
    inter / ((area_a + area_b) - inter). Clamping a negative or zero overlap
    extent to 0 makes the IoU of disjoint boxes exactly 0. Every step writes
    into one of three (len(a), len(b)) buffers, so no more are alive at once.
    """
    x0, y0, x1, y1, area = a[:, :, None]
    ix = np.minimum(x1, b[2])
    lo = np.maximum(x0, b[0])
    np.subtract(ix, lo, out=ix)
    np.maximum(ix, 0.0, out=ix)
    iy = np.minimum(y1, b[3])
    np.maximum(y0, b[1], out=lo)
    np.subtract(iy, lo, out=iy)
    np.maximum(iy, 0.0, out=iy)
    np.multiply(ix, iy, out=ix)  # ix is now the intersection area
    np.add(area, b[4], out=iy)
    np.subtract(iy, ix, out=iy)
    return np.divide(ix, iy, out=ix)


def iou(a, b) -> float:
    """Intersection area over union area of two box rows; 0 when disjoint."""
    a = _box_columns(np.asarray(a, dtype=np.float64)[None, :])
    b = _box_columns(np.asarray(b, dtype=np.float64)[None, :])
    return float(_iou_matrix(a, b)[0, 0])


def nms(dets: DetectionSet, iou_threshold: float = DEFAULT_NMS_IOU) -> DetectionSet:
    """Greedy suppression: keep a box iff it overlaps no kept box >= threshold.

    Candidates are visited by descending score, ties broken by smaller
    x_min then y_min so repeated runs produce identical counts; boxes tied
    on all three keep their input order. Each kept box removes every later
    candidate it overlaps at IoU >= threshold (a NaN IoU suppresses too).

    The ranked candidates are swept in blocks of ``NMS_BLOCK``: one IoU
    matrix per block, from its live candidates to every live candidate
    from the block start on, then one Python step per candidate of the
    block. The work is n / NMS_BLOCK vectorized rounds of O(NMS_BLOCK * n),
    O(n^2) element operations in all, and extra memory is O(NMS_BLOCK * n).
    """
    check_nms_iou(iou_threshold)
    arr = dets.rows
    order = np.lexsort((arr[:, 1], arr[:, 0], -arr[:, 4]))
    cols = _box_columns(arr[order])
    alive = np.ones(len(order), dtype=bool)
    for start in range(0, len(order), NMS_BLOCK):
        sources = np.flatnonzero(alive[start : start + NMS_BLOCK]) + start
        if not sources.size:
            continue
        targets = np.flatnonzero(alive[start:]) + start
        hit = ~(_iou_matrix(cols[:, sources], cols[:, targets]) < iou_threshold)
        hit &= targets > sources[:, None]
        for row, source in enumerate(sources.tolist()):
            if alive[source]:
                alive[targets[hit[row]]] = False
    kept = arr[order[alive]]
    kept.flags.writeable = False
    return DetectionSet(kept, warnings=dets.warnings)
