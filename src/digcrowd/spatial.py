"""Spatial constraint: drop detections whose box center lies in the far region.

Boxes straddling the split line get counted twice (once by the detector,
once by the density integral), so any detection whose center falls strictly
above the polyline is deleted. Centers exactly on the line stay with the
detector; the far mask uses the complementary strict region.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detect import DetectionSet
from .scene import Polyline

__all__ = ["FilterReport", "apply_spatial_constraint"]


@dataclass(frozen=True)
class FilterReport:
    """Kept/deleted split of one scene's detections."""

    kept: DetectionSet
    deleted: DetectionSet
    warnings: tuple[str, ...] = ()


def apply_spatial_constraint(dets: DetectionSet, p: Polyline) -> FilterReport:
    """Delete boxes whose center satisfies y_c < k_i * x_c + b_i.

    Centers outside the polyline's x-domain are kept and flagged rather
    than deleted: dropping a detection on missing information would
    undercount. Kept and deleted rows keep their input order.
    """
    rows = dets.rows
    xc = (rows[:, 0] + rows[:, 2]) / 2.0
    yc = (rows[:, 1] + rows[:, 3]) / 2.0
    lo, hi = p.domain
    inside = (xc >= lo) & (xc <= hi)
    delete = inside.copy()
    delete[inside] = yc[inside] < p.eval_array(xc[inside])
    warnings = tuple(
        f"box center x={x:.2f} outside polyline domain; box kept"
        for x in xc[~inside].tolist()
    )
    kept, deleted = rows[~delete], rows[delete]
    kept.flags.writeable = deleted.flags.writeable = False
    return FilterReport(
        kept=DetectionSet(kept, warnings=dets.warnings),
        deleted=DetectionSet(deleted),
        warnings=warnings,
    )
