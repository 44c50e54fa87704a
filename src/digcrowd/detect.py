"""Grid-detector decode: scored boxes from S x S x (B*5+C) prediction tensors.

Tensors are produced offline (an external network or the synthetic oracle);
this module only turns them into boxes. Per cell there are B tuples
(x, y, w, h, c) followed by C class probabilities: x, y are offsets within
the cell, w, h are fractions of the image, and the final score of a box is
the product of its confidence c with the largest class probability.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .scene import BoundingBox, GridShape

__all__ = [
    "DetectorGridSpec",
    "GridPrediction",
    "DetectionSet",
    "combine_confidence",
    "decode",
    "iou",
    "nms",
]

log = logging.getLogger("digcrowd.detect")

DEFAULT_SCORE_THRESHOLD = 0.2
DEFAULT_NMS_IOU = 0.5


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
        vals = np.ascontiguousarray(vals)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_flat(
        cls, spec: DetectorGridSpec, shape: GridShape, flat: np.ndarray
    ) -> "GridPrediction":
        flat = np.asarray(flat, dtype=np.float64).ravel()
        expected = spec.s * spec.s * spec.cell_values
        if flat.size != expected:
            raise FormatError(
                f"prediction tensor has {flat.size} values, expected {expected}"
            )
        return cls(spec, shape, flat.reshape(spec.s, spec.s, spec.cell_values))


@dataclass(frozen=True)
class DetectionSet:
    """Scored boxes for one scene, tagged with their provenance."""

    boxes: tuple[BoundingBox, ...] = ()
    source: str = "external"
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))

    def __len__(self) -> int:
        return len(self.boxes)


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
    for msg in warnings:
        log.warning("decode: %s", msg)

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
    boxes = tuple(BoundingBox(*r) for r in rows.tolist())
    return DetectionSet(boxes, source="external", warnings=tuple(warnings))


def _box_array(boxes) -> np.ndarray:
    """(N, 5) float64 rows of [x_min, y_min, x_max, y_max, score]."""
    return np.array(
        [(b.x_min, b.y_min, b.x_max, b.y_max, b.score) for b in boxes], dtype=np.float64
    ).reshape(-1, 5)


def _iou_one_to_many(box: np.ndarray, others: np.ndarray) -> np.ndarray:
    """IoU of one box row against each row of ``others``; 0 where disjoint.

    Computes inter / (area_a + area_b - inter). Clamping a negative or zero
    overlap extent to 0 makes the IoU of disjoint boxes exactly 0.
    """
    x0, y0, x1, y1 = box[:4].tolist()
    ix = np.maximum(np.minimum(x1, others[:, 2]) - np.maximum(x0, others[:, 0]), 0.0)
    iy = np.maximum(np.minimum(y1, others[:, 3]) - np.maximum(y0, others[:, 1]), 0.0)
    inter = ix * iy
    area_b = (others[:, 2] - others[:, 0]) * (others[:, 3] - others[:, 1])
    return inter / ((x1 - x0) * (y1 - y0) + area_b - inter)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection area over union area; 0 for disjoint boxes."""
    return float(_iou_one_to_many(_box_array((a,))[0], _box_array((b,)))[0])


def nms(dets: DetectionSet, iou_threshold: float = DEFAULT_NMS_IOU) -> DetectionSet:
    """Greedy suppression: keep a box iff it overlaps no kept box >= threshold.

    Candidates are visited by descending score, ties broken by smaller
    x_min then y_min so repeated runs produce identical counts; boxes tied
    on all three keep their input order. Each kept box removes every later
    candidate it overlaps at IoU >= threshold, so the work is O(n * kept)
    and memory O(n).
    """
    check_nms_iou(iou_threshold)
    arr = _box_array(dets.boxes)
    order = np.lexsort((arr[:, 1], arr[:, 0], -arr[:, 4]))
    ranked = arr[order]
    kept: list[int] = []
    remaining = np.arange(len(order))
    while remaining.size:
        first, rest = remaining[0], remaining[1:]
        kept.append(int(order[first]))
        remaining = rest[_iou_one_to_many(ranked[first], ranked[rest]) < iou_threshold]
    return DetectionSet(
        tuple(dets.boxes[i] for i in kept), source=dets.source, warnings=dets.warnings
    )
