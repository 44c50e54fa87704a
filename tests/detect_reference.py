"""Scalar reference implementations of grid decode, IoU and greedy NMS.

These are the loop versions that ``digcrowd.detect`` replaced with numpy.
The oracle tests in ``test_detect.py`` require the library to return
exactly what these return: the same boxes, scores and order.
"""

import numpy as np

from digcrowd import BoundingBox, DetectionSet, GridPrediction, combine_confidence


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
                score = combine_confidence(class_prob, float(conf))
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
                boxes.append(BoundingBox(x_min, y_min, x_max, y_max, score))
    return DetectionSet(tuple(boxes), source="external", warnings=tuple(warnings))


def iou_reference(a: BoundingBox, b: BoundingBox) -> float:
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def nms_reference(dets: DetectionSet, iou_threshold: float) -> DetectionSet:
    order = sorted(dets.boxes, key=lambda bb: (-bb.score, bb.x_min, bb.y_min))
    kept = []
    for box in order:
        if all(iou_reference(box, other) < iou_threshold for other in kept):
            kept.append(box)
    return DetectionSet(tuple(kept), source=dets.source, warnings=dets.warnings)
