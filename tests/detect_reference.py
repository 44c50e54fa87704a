"""Reference implementations of grid decode, IoU and greedy NMS.

The scalar versions are the loops that ``digcrowd.detect`` replaced with
numpy, written over box rows ``(x_min, y_min, x_max, y_max, score)``.
``nms_loop_reference`` is the per-kept-box numpy loop that the rank-blocked
``detect.nms`` replaced. The oracle tests in ``test_detect.py`` require the
library to return exactly what these return: the same rows, bit for bit,
in the same order.
"""

import numpy as np

from digcrowd import DetectionSet, GridPrediction
from digcrowd.detect import check_nms_iou


def decode_reference(pred: GridPrediction, score_threshold: float) -> DetectionSet:
    spec = pred.spec
    vals = pred.values
    warnings = []
    finite = np.isfinite(vals)
    if not finite.all():
        warnings.append(f"{int((~finite).sum())} non-finite tensor values treated as 0")
        vals = np.where(finite, vals, 0.0)
    out_of_range = int(((vals < 0.0) | (vals > 1.0)).sum())
    if out_of_range:
        warnings.append(f"{out_of_range} tensor values clamped to [0, 1]")
        vals = np.clip(vals, 0.0, 1.0)

    width, height = float(pred.shape.width), float(pred.shape.height)
    boxes = []
    for row in range(spec.s):
        for col in range(spec.s):
            cell = vals[row, col]
            class_prob = float(cell[spec.b * 5 :].max())
            for b in range(spec.b):
                x, y, w, h, conf = cell[b * 5 : b * 5 + 5]
                score = class_prob * float(conf)
                if score < score_threshold:
                    continue
                cx = (col + float(x)) * width / spec.s
                cy = (row + float(y)) * height / spec.s
                half_w = float(w) * width / 2.0
                half_h = float(h) * height / 2.0
                x_min = max(0.0, cx - half_w)
                y_min = max(0.0, cy - half_h)
                x_max = min(width, cx + half_w)
                y_max = min(height, cy + half_h)
                if x_max <= x_min or y_max <= y_min:
                    continue
                boxes.append((x_min, y_min, x_max, y_max, score))
    return DetectionSet(boxes, warnings=tuple(warnings))


def iou_reference(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def nms_reference(dets: DetectionSet, iou_threshold: float) -> DetectionSet:
    order = sorted(dets.rows.tolist(), key=lambda bb: (-bb[4], bb[0], bb[1]))
    kept = []
    for box in order:
        if all(iou_reference(box, other) < iou_threshold for other in kept):
            kept.append(box)
    return DetectionSet(kept, warnings=dets.warnings)


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


def nms_loop_reference(dets: DetectionSet, iou_threshold: float) -> DetectionSet:
    """Greedy suppression: keep a box iff it overlaps no kept box >= threshold.

    Candidates are visited by descending score, ties broken by smaller
    x_min then y_min so repeated runs produce identical counts; boxes tied
    on all three keep their input order. Each kept box removes every later
    candidate it overlaps at IoU >= threshold, so the work is O(n * kept)
    and memory O(n).
    """
    check_nms_iou(iou_threshold)
    arr = dets.rows
    order = np.lexsort((arr[:, 1], arr[:, 0], -arr[:, 4]))
    ranked = arr[order]
    kept: list[int] = []
    remaining = np.arange(len(order))
    while remaining.size:
        first, rest = remaining[0], remaining[1:]
        kept.append(int(order[first]))
        remaining = rest[_iou_one_to_many(ranked[first], ranked[rest]) < iou_threshold]
    return DetectionSet(arr[np.array(kept, dtype=np.intp)], warnings=dets.warnings)
