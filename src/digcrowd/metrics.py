"""Count fusion and batch error metrics.

``mse`` here is the root of the mean squared error (the definition carries
the square root), which keeps mae <= mse on every batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .detect import DetectionSet
from .errors import ConfigError
from .scene import _store, check_integer, check_number

__all__ = ["SceneEstimate", "EvaluationRecord", "fuse", "mae", "mse", "evaluate_pairs"]


@dataclass(frozen=True)
class SceneEstimate:
    """Fused per-scene estimate: detector count plus density integral."""

    scene_id: str
    near_count: int
    far_count: float
    ground_truth: float = math.nan  # NaN: the scene has no annotations

    def __post_init__(self):
        _store(
            self,
            near_count=check_integer(self.near_count, "near count", 0),
            far_count=check_number(self.far_count, "far count", 0.0),
            ground_truth=check_number(self.ground_truth, "ground truth"),
        )

    @property
    def total(self) -> float:  # near + far, with no rounding
        return self.near_count + self.far_count

    @property
    def abs_error(self) -> float:
        return abs(self.ground_truth - self.total)


def fuse(
    kept_dets: DetectionSet,
    far_count: float,
    scene_id: str = "",
    ground_truth: float = math.nan,
) -> SceneEstimate:
    """near = surviving detections, far = the density integral."""
    return SceneEstimate(scene_id, len(kept_dets), far_count, ground_truth)


def _as_pairs(pairs: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    out = [(float(o), float(p)) for o, p in pairs]
    if not out:
        raise ConfigError("metrics need at least one (observed, predicted) pair")
    return out


def mae(pairs: Iterable[tuple[float, float]]) -> float:
    pts = _as_pairs(pairs)
    return sum(abs(o - p) for o, p in pts) / len(pts)


def mse(pairs: Iterable[tuple[float, float]]) -> float:
    pts = _as_pairs(pairs)
    return math.sqrt(sum((o - p) ** 2 for o, p in pts) / len(pts))


@dataclass(frozen=True)
class EvaluationRecord:
    """Batch metrics over per-scene (observed, predicted) count pairs."""

    n: int
    mae: float
    mse: float


def evaluate_pairs(pairs: Sequence[tuple[float, float]]) -> EvaluationRecord:
    pts = _as_pairs(pairs)
    return EvaluationRecord(n=len(pts), mae=mae(pts), mse=mse(pts))
