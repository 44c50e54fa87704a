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

__all__ = ["SceneEstimate", "EvaluationRecord", "fuse", "mae", "mse", "evaluate_pairs"]


@dataclass(frozen=True)
class SceneEstimate:
    """Fused per-scene estimate: detector count plus density integral."""

    scene_id: str
    near_count: int
    far_count: float
    total: float
    ground_truth: float

    def __post_init__(self):
        if self.near_count < 0 or self.far_count < 0.0:
            raise ConfigError("counts must be non-negative")

    @property
    def abs_error(self) -> float:
        return abs(self.ground_truth - self.total)


def fuse(
    kept_dets: DetectionSet,
    far_count: float,
    scene_id: str = "",
    ground_truth: float = math.nan,
) -> SceneEstimate:
    """near = surviving detections, total = near + far (no rounding)."""
    if far_count < 0.0:
        raise ConfigError(f"far count must be >= 0, got {far_count}")
    near = len(kept_dets)
    return SceneEstimate(
        scene_id=scene_id,
        near_count=near,
        far_count=float(far_count),
        total=near + float(far_count),
        ground_truth=float(ground_truth),
    )


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
