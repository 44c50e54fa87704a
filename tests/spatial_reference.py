"""Per-box reference of the spatial constraint.

The loop that ``digcrowd.spatial.apply_spatial_constraint`` replaced with
numpy, written over box rows. Each box center finds its segment row on its
own: ``searchsorted(x_starts, x_c, side="right") - 1``, clipped to the row
range, after a domain check against the first start and the last end. The
oracle tests in ``test_spatial.py`` require the library to return exactly
what this returns: the same kept and deleted rows, bit for bit, in the same
order, and the same warnings.
"""

import numpy as np

from digcrowd import DetectionSet, FilterReport, Polyline


def apply_spatial_constraint_reference(dets: DetectionSet, p: Polyline) -> FilterReport:
    segments = p.segments.tolist()
    starts = [seg[0] for seg in segments]
    lo, hi = segments[0][0], segments[-1][1]
    kept = []
    deleted = []
    warnings = []
    for box in dets.rows.tolist():
        xc, yc = (box[0] + box[2]) / 2.0, (box[1] + box[3]) / 2.0
        if not (lo <= xc <= hi):
            warnings.append(f"box center x={xc:.2f} outside polyline domain; box kept")
            kept.append(box)
            continue
        seg = min(max(int(np.searchsorted(starts, xc, side="right")) - 1, 0), len(segments) - 1)
        _, _, k, b = segments[seg]
        if yc < k * xc + b:
            deleted.append(box)
        else:
            kept.append(box)
    return FilterReport(
        kept=DetectionSet(kept, warnings=dets.warnings),
        deleted=DetectionSet(deleted),
        warnings=tuple(warnings),
    )
