"""Per-box reference of the spatial constraint.

The loop that ``digcrowd.spatial.apply_spatial_constraint`` replaced with
numpy, written over box rows: one ``Polyline.segment_index`` call per box
center. The oracle tests in ``test_spatial.py`` require the library to
return exactly what this returns: the same kept and deleted rows, bit for
bit, in the same order, and the same warnings.
"""

from digcrowd import DetectionSet, FilterReport, Polyline, PolylineDomainError


def apply_spatial_constraint_reference(
    dets: DetectionSet, p: Polyline, scene_id: str = ""
) -> FilterReport:
    kept = []
    deleted = []
    warnings = []
    for box in dets.rows.tolist():
        xc, yc = (box[0] + box[2]) / 2.0, (box[1] + box[3]) / 2.0
        try:
            seg = p.segment_index(xc)
        except PolylineDomainError:
            warnings.append(f"box center x={xc:.2f} outside polyline domain; box kept")
            kept.append(box)
            continue
        line_y = p.segments[seg].k * xc + p.segments[seg].b
        if yc < line_y:
            deleted.append(box)
        else:
            kept.append(box)
    return FilterReport(
        kept=DetectionSet(kept, warnings=dets.warnings),
        deleted=DetectionSet(deleted),
        scene_id=scene_id,
        warnings=tuple(warnings),
    )
